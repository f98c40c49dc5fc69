#include "predict/logistic.h"

#include <cmath>

#include "common/error.h"

namespace sb {

namespace {
/// SGD step size at epoch 0 and the L2 penalty on the non-bias weights.
constexpr double kLearningRate = 0.1;
constexpr double kL2 = 1e-4;

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }
}  // namespace

LogisticRegression::LogisticRegression(std::size_t feature_count)
    : feature_count_(feature_count), weights_(feature_count + 1, 0.0) {
  require(feature_count >= 1, "LogisticRegression: need features");
}

void LogisticRegression::fit(const std::vector<std::vector<double>>& features,
                             const std::vector<std::uint8_t>& labels,
                             const LogisticOptions& options) {
  require(features.size() == labels.size() && !features.empty(),
          "LogisticRegression::fit: shape mismatch or empty");
  for (const auto& row : features) {
    require(row.size() == feature_count_,
            "LogisticRegression::fit: bad feature row");
  }
  for (std::size_t epoch = 0; epoch < options.epochs; ++epoch) {
    // Decaying step size stabilizes the tail of training.
    const double lr =
        kLearningRate / (1.0 + 0.1 * static_cast<double>(epoch));
    for (std::size_t i = 0; i < features.size(); ++i) {
      const double p = predict_prob(features[i]);
      const double err = static_cast<double>(labels[i]) - p;
      for (std::size_t j = 0; j < feature_count_; ++j) {
        weights_[j] += lr * (err * features[i][j] - kL2 * weights_[j]);
      }
      weights_.back() += lr * err;  // bias, not regularized
    }
  }
}

double LogisticRegression::predict_prob(std::span<const double> features) const {
  require(features.size() == feature_count_,
          "LogisticRegression::predict_prob: bad feature row");
  double z = weights_.back();
  for (std::size_t j = 0; j < feature_count_; ++j) {
    z += weights_[j] * features[j];
  }
  return sigmoid(z);
}

}  // namespace sb
