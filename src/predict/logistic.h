// Plain logistic regression trained with mini-batch-free SGD. §8 feeds the
// MOMC's per-order probabilities (plus simple history features) through this
// model to predict each participant's attendance at the next meeting
// instance.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

namespace sb {

struct LogisticOptions {
  std::size_t epochs = 30;
};

class LogisticRegression {
 public:
  /// @param feature_count dimensionality (a bias term is added internally).
  explicit LogisticRegression(std::size_t feature_count);

  /// Trains on (features, label) pairs; labels are 0/1. Rows must all have
  /// feature_count entries.
  void fit(const std::vector<std::vector<double>>& features,
           const std::vector<std::uint8_t>& labels,
           const LogisticOptions& options = {});

  [[nodiscard]] double predict_prob(std::span<const double> features) const;

  [[nodiscard]] const std::vector<double>& weights() const { return weights_; }

 private:
  std::size_t feature_count_;
  std::vector<double> weights_;  ///< feature_count_ + 1 (bias last)
};

}  // namespace sb
