// Holt-Winters triple exponential smoothing (additive), the forecasting
// method §5.2 uses per call config. fit() grid-searches the smoothing
// coefficients against one-step-ahead squared error, mirroring common
// statsmodels usage (the paper cites statsmodels' ExponentialSmoothing).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace sb {

struct HoltWintersParams {
  double alpha = 0.2;  ///< level smoothing, in (0, 1)
  double beta = 0.05;  ///< trend smoothing, in [0, 1)
  double gamma = 0.1;  ///< seasonal smoothing, in [0, 1)
  std::size_t season_length = 1;  ///< periods per season (1 = no seasonality)
};

/// Additive Holt-Winters model. Construct (or fit()), then train() on a
/// history, then forecast() future steps.
class HoltWinters {
 public:
  explicit HoltWinters(HoltWintersParams params);

  /// Grid-searches (alpha, beta, gamma) minimizing in-sample one-step SSE
  /// and returns the trained best model. `series` must cover at least two
  /// full seasons. All grid points are scored in one pass over the series;
  /// the result is bit-identical to training each point with train() in
  /// grid order and keeping the first strict minimum: a tie, or a
  /// comparison involving a NaN SSE, keeps the earlier point.
  static HoltWinters fit(std::span<const double> series,
                         std::size_t season_length);

  /// Runs the smoothing recurrences over `series`, leaving the model ready
  /// to forecast from the end of the series.
  void train(std::span<const double> series);

  /// h-step-ahead forecasts from the trained state.
  [[nodiscard]] std::vector<double> forecast(std::size_t horizon) const;

  /// One-step-ahead in-sample predictions (same length as the training
  /// series); prediction[i] is made before observing series[i].
  [[nodiscard]] const std::vector<double>& fitted() const { return fitted_; }

  /// Sum of squared one-step errors over the training series.
  [[nodiscard]] double sse() const { return sse_; }

  [[nodiscard]] const HoltWintersParams& params() const { return params_; }

 private:
  HoltWintersParams params_;
  double level_ = 0.0;
  double trend_ = 0.0;
  std::vector<double> seasonal_;   ///< circular buffer of length season
  std::size_t season_pos_ = 0;     ///< next seasonal slot to use/update
  std::vector<double> fitted_;
  double sse_ = 0.0;
  bool trained_ = false;
};

}  // namespace sb
