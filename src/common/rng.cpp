#include "common/rng.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/error.h"

namespace sb {
namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
  x += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t v, int k) { return (v << k) | (v >> (64 - k)); }

}  // namespace

Rng::Rng(std::uint64_t seed) {
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64(s);
}

Rng::result_type Rng::operator()() {
  const std::uint64_t result = rotl(state_[0] + state_[3], 23) + state_[0];
  const std::uint64_t t = state_[1] << 17;
  state_[2] ^= state_[0];
  state_[3] ^= state_[1];
  state_[1] ^= state_[2];
  state_[0] ^= state_[3];
  state_[2] ^= t;
  state_[3] = rotl(state_[3], 45);
  return result;
}

double Rng::uniform() {
  // 53 high bits -> double in [0, 1).
  return static_cast<double>((*this)() >> 11) * 0x1.0p-53;
}

double Rng::uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

std::uint64_t Rng::uniform_index(std::uint64_t n) {
  require(n > 0, "uniform_index: n must be positive");
  // Lemire's rejection method for unbiased bounded integers.
  std::uint64_t x = (*this)();
  __uint128_t m = static_cast<__uint128_t>(x) * n;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < n) {
    const std::uint64_t threshold = -n % n;
    while (lo < threshold) {
      x = (*this)();
      m = static_cast<__uint128_t>(x) * n;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform_int(std::int64_t lo, std::int64_t hi) {
  require(lo <= hi, "uniform_int: lo must be <= hi");
  return lo + static_cast<std::int64_t>(
                  uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
}

double Rng::normal() {
  if (has_cached_normal_) {
    has_cached_normal_ = false;
    return cached_normal_;
  }
  double u1 = uniform();
  while (u1 <= 0.0) u1 = uniform();
  const double u2 = uniform();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * std::numbers::pi * u2;
  cached_normal_ = r * std::sin(theta);
  has_cached_normal_ = true;
  return r * std::cos(theta);
}

double Rng::normal(double mean, double stddev) { return mean + stddev * normal(); }

double Rng::exponential(double rate) {
  require(rate > 0, "exponential: rate must be positive");
  double u = uniform();
  while (u <= 0.0) u = uniform();
  return -std::log(u) / rate;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

std::uint64_t Rng::poisson(double mean) {
  require(mean >= 0, "poisson: mean must be non-negative");
  if (mean == 0.0) return 0;
  if (mean < 30.0) {
    const double limit = std::exp(-mean);
    std::uint64_t count = 0;
    double product = uniform();
    while (product > limit) {
      ++count;
      product *= uniform();
    }
    return count;
  }
  // Normal approximation with continuity correction; adequate for workload
  // synthesis where the mean is large.
  const double draw = normal(mean, std::sqrt(mean));
  return draw <= 0.0 ? 0 : static_cast<std::uint64_t>(draw + 0.5);
}

bool Rng::chance(double p) { return uniform() < p; }

std::size_t Rng::weighted_index(const std::vector<double>& weights) {
  require(!weights.empty(), "weighted_index: weights must be non-empty");
  double total = 0.0;
  for (double w : weights) {
    require(w >= 0.0, "weighted_index: weights must be non-negative");
    total += w;
  }
  require(total > 0.0, "weighted_index: weight sum must be positive");
  double target = uniform() * total;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    target -= weights[i];
    if (target < 0.0) return i;
  }
  return weights.size() - 1;  // numerical edge: fall into the final bucket
}

ZipfSampler::ZipfSampler(std::size_t n, double exponent) {
  require(n > 0, "ZipfSampler: n must be positive");
  // Exponent 0 is the degenerate uniform pmf (1/k^0 == 1): useful for
  // stress-testing equal-rate tie handling downstream.
  require(exponent >= 0, "ZipfSampler: exponent must be non-negative");
  cdf_.resize(n);
  double acc = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    acc += 1.0 / std::pow(static_cast<double>(k + 1), exponent);
    cdf_[k] = acc;
  }
  for (double& c : cdf_) c /= acc;
}

std::size_t ZipfSampler::operator()(Rng& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  return static_cast<std::size_t>(std::distance(cdf_.begin(), it));
}

double ZipfSampler::pmf(std::size_t k) const {
  require(k < cdf_.size(), "ZipfSampler::pmf: rank out of range");
  return k == 0 ? cdf_[0] : cdf_[k] - cdf_[k - 1];
}

}  // namespace sb
