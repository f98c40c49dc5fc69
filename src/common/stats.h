// Descriptive statistics used throughout the evaluation harness: means,
// percentiles and forecast error metrics.
#pragma once

#include <span>

namespace sb {

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// q-quantile (q in [0,1]) with linear interpolation; throws on empty input.
double quantile(std::span<const double> xs, double q);

/// Median == quantile(0.5).
double median(std::span<const double> xs);

/// Root-mean-square error between two equally sized series.
double rmse(std::span<const double> truth, std::span<const double> estimate);

/// Mean absolute error between two equally sized series.
double mae(std::span<const double> truth, std::span<const double> estimate);

}  // namespace sb
