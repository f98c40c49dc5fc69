// Deterministic pseudo-random number generation for workload synthesis.
//
// Everything in Switchboard's trace generation must be reproducible from a
// seed, so modules take an Rng& rather than seeding local engines. The
// engine is xoshiro256++ (small state, excellent statistical quality, fast),
// seeded via splitmix64 as its authors recommend.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

namespace sb {

/// xoshiro256++ engine with distribution helpers used by the trace
/// generator and samplers. Not thread-safe; use one Rng per thread.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x5eed5b0a2dULL);

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~result_type{0}; }

  /// Next raw 64-bit value.
  result_type operator()();

  /// Uniform double in [0, 1).
  double uniform();

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);

  /// Uniform integer in [0, n). n must be > 0.
  std::uint64_t uniform_index(std::uint64_t n);

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi);

  /// Standard normal via Box-Muller (cached second value).
  double normal();
  double normal(double mean, double stddev);

  /// Exponential with the given rate (lambda > 0).
  double exponential(double rate);

  /// Log-normal: exp(normal(mu, sigma)).
  double lognormal(double mu, double sigma);

  /// Poisson-distributed count with the given mean (>= 0). Uses Knuth's
  /// method for small means and a normal approximation for large ones.
  std::uint64_t poisson(double mean);

  /// Bernoulli trial.
  bool chance(double p);

  /// Samples an index from an unnormalized weight vector. Weights must be
  /// non-negative with positive sum.
  std::size_t weighted_index(const std::vector<double>& weights);

  /// Fisher-Yates shuffle.
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::size_t j = uniform_index(i);
      std::swap(v[i - 1], v[j]);
    }
  }

 private:
  std::array<std::uint64_t, 4> state_{};
  double cached_normal_ = 0.0;
  bool has_cached_normal_ = false;
};

/// Zipf(s) sampler over ranks {0, .., n-1}: P(rank k) proportional to
/// 1/(k+1)^s. Precomputes the CDF so draws are O(log n). Models the
/// heavy-tailed call-config popularity of Fig 7(c).
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double exponent);

  std::size_t operator()(Rng& rng) const;

  /// Probability mass of rank k.
  double pmf(std::size_t k) const;

  std::size_t size() const { return cdf_.size(); }

 private:
  std::vector<double> cdf_;
};

}  // namespace sb
