#include "common/stats.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/error.h"

namespace sb {

double mean(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  double total = 0.0;
  for (double x : xs) total += x;
  return total / static_cast<double>(xs.size());
}

double quantile(std::span<const double> xs, double q) {
  require(!xs.empty(), "quantile: empty input");
  require(q >= 0.0 && q <= 1.0, "quantile: q must be in [0,1]");
  std::vector<double> sorted(xs.begin(), xs.end());
  std::sort(sorted.begin(), sorted.end());
  if (sorted.size() == 1) return sorted.front();
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double median(std::span<const double> xs) { return quantile(xs, 0.5); }

double rmse(std::span<const double> truth, std::span<const double> estimate) {
  require(truth.size() == estimate.size(), "rmse: size mismatch");
  require(!truth.empty(), "rmse: empty input");
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    const double d = truth[i] - estimate[i];
    acc += d * d;
  }
  return std::sqrt(acc / static_cast<double>(truth.size()));
}

double mae(std::span<const double> truth, std::span<const double> estimate) {
  require(truth.size() == estimate.size(), "mae: size mismatch");
  require(!truth.empty(), "mae: empty input");
  double acc = 0.0;
  for (std::size_t i = 0; i < truth.size(); ++i) {
    acc += std::abs(truth[i] - estimate[i]);
  }
  return acc / static_cast<double>(truth.size());
}

}  // namespace sb
