#include "forecast/holt_winters.h"

#include <array>
#include <iterator>

#include "common/error.h"

namespace sb {
namespace {

// The (alpha, beta, gamma) grid fit() searches, in search order: alpha
// outermost, gamma innermost.
constexpr double kAlphas[] = {0.05, 0.1, 0.2, 0.35, 0.5};
constexpr double kBetas[] = {0.0, 0.01, 0.05, 0.1};
constexpr double kGammas[] = {0.05, 0.1, 0.3};
constexpr std::size_t kCandidates =
    std::size(kAlphas) * std::size(kBetas) * std::size(kGammas);

HoltWintersParams candidate(std::size_t k, std::size_t season_length) {
  const std::size_t per_alpha = std::size(kBetas) * std::size(kGammas);
  return HoltWintersParams{kAlphas[k / per_alpha],
                           kBetas[k % per_alpha / std::size(kGammas)],
                           kGammas[k % std::size(kGammas)], season_length};
}

/// Two grid candidates per 16-byte SSE2 register. GCC and Clang lower each
/// operation on this type to one IEEE double operation per lane.
using Lanes = double __attribute__((vector_size(16)));
constexpr std::size_t kWidth = sizeof(Lanes) / sizeof(double);
static_assert(kCandidates % kWidth == 0);
constexpr std::size_t kRegisters = kCandidates / kWidth;

Lanes splat(double v) {
  Lanes out{};
  for (std::size_t lane = 0; lane < kWidth; ++lane) out[lane] = v;
  return out;
}

/// Smoothing coefficients and their complements, for one model (T = double)
/// or for one register of grid candidates (T = Lanes).
template <typename T>
struct Coefficients {
  T alpha, one_minus_alpha, beta, one_minus_beta, gamma, one_minus_gamma;
};

Coefficients<double> coefficients(const HoltWintersParams& p) {
  return {p.alpha, 1.0 - p.alpha, p.beta, 1.0 - p.beta, p.gamma, 1.0 - p.gamma};
}

/// One step of the additive recurrences on observation `x`, with `seasonal`
/// the slot of x's season position: adds the squared one-step error to `sse`
/// and returns the prediction made before observing x. train() runs it on
/// double and fit() on Lanes, so every lane performs the same IEEE
/// operations in the same order as train() does for that candidate.
template <typename T>
inline T step(const Coefficients<T>& c, T x, T& level, T& trend, T& seasonal,
              T& sse) {
  const T predicted = level + trend + seasonal;
  const T err = x - predicted;
  sse += err * err;
  const T prev_level = level;
  level = c.alpha * (x - seasonal) + c.one_minus_alpha * (level + trend);
  trend = c.beta * (level - prev_level) + c.one_minus_beta * trend;
  seasonal = c.gamma * (x - level) + c.one_minus_gamma * seasonal;
  return predicted;
}

struct InitialState {
  double level = 0.0;
  double trend = 0.0;
  std::vector<double> seasonal;
};

/// Classical initialization: level = mean of season 1, trend = per-period
/// change between the first two season means, seasonal = deviation of the
/// first season from its mean.
InitialState initial_state(std::span<const double> series, std::size_t m) {
  require(m >= 1, "HoltWinters: season length");
  require(series.size() >= 2 * m,
          "HoltWinters: need at least two full seasons");
  double season1_mean = 0.0;
  double season2_mean = 0.0;
  for (std::size_t i = 0; i < m; ++i) {
    season1_mean += series[i];
    season2_mean += series[m + i];
  }
  season1_mean /= static_cast<double>(m);
  season2_mean /= static_cast<double>(m);

  InitialState s;
  s.level = season1_mean;
  s.trend = (season2_mean - season1_mean) / static_cast<double>(m);
  s.seasonal.resize(m);
  for (std::size_t i = 0; i < m; ++i) s.seasonal[i] = series[i] - season1_mean;
  return s;
}

}  // namespace

HoltWinters::HoltWinters(HoltWintersParams params) : params_(params) {
  require(params_.alpha > 0.0 && params_.alpha < 1.0,
          "HoltWinters: alpha must be in (0,1)");
  require(params_.beta >= 0.0 && params_.beta < 1.0,
          "HoltWinters: beta must be in [0,1)");
  require(params_.gamma >= 0.0 && params_.gamma < 1.0,
          "HoltWinters: gamma must be in [0,1)");
  require(params_.season_length >= 1, "HoltWinters: season length");
}

void HoltWinters::train(std::span<const double> series) {
  const std::size_t m = params_.season_length;
  InitialState s = initial_state(series, m);
  const Coefficients<double> c = coefficients(params_);

  fitted_.resize(series.size());
  double level = s.level;
  double trend = s.trend;
  double sse = 0.0;
  std::size_t sp = 0;
  for (std::size_t t = 0; t < series.size(); ++t) {
    fitted_[t] = step(c, series[t], level, trend, s.seasonal[sp], sse);
    if (++sp == m) sp = 0;
  }
  level_ = level;
  trend_ = trend;
  seasonal_ = std::move(s.seasonal);
  sse_ = sse;
  season_pos_ = sp;
  trained_ = true;
}

std::vector<double> HoltWinters::forecast(std::size_t horizon) const {
  require(trained_, "HoltWinters::forecast: call train() first");
  const std::size_t m = params_.season_length;
  std::vector<double> out(horizon);
  for (std::size_t h = 0; h < horizon; ++h) {
    const std::size_t sp = (season_pos_ + h) % m;
    out[h] = level_ + static_cast<double>(h + 1) * trend_ + seasonal_[sp];
  }
  return out;
}

HoltWinters HoltWinters::fit(std::span<const double> series,
                             std::size_t season_length) {
  const std::size_t m = season_length;
  const InitialState s = initial_state(series, m);

  // Candidate k is lane k % kWidth of register k / kWidth. Every candidate
  // starts from the same state; the seasonal table is laid out
  // [season position][register], so one step reads one contiguous row.
  std::array<Coefficients<Lanes>, kRegisters> coeffs{};
  for (std::size_t r = 0; r < kRegisters; ++r) {
    Coefficients<Lanes>& c = coeffs[r];
    for (std::size_t lane = 0; lane < kWidth; ++lane) {
      const Coefficients<double> one =
          coefficients(candidate(r * kWidth + lane, m));
      c.alpha[lane] = one.alpha;
      c.one_minus_alpha[lane] = one.one_minus_alpha;
      c.beta[lane] = one.beta;
      c.one_minus_beta[lane] = one.one_minus_beta;
      c.gamma[lane] = one.gamma;
      c.one_minus_gamma[lane] = one.one_minus_gamma;
    }
  }
  std::array<Lanes, kRegisters> level{};
  level.fill(splat(s.level));
  std::array<Lanes, kRegisters> trend{};
  trend.fill(splat(s.trend));
  std::array<Lanes, kRegisters> sse{};
  std::vector<Lanes> seasonal(m * kRegisters);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t r = 0; r < kRegisters; ++r) {
      seasonal[i * kRegisters + r] = splat(s.seasonal[i]);
    }
  }

  std::size_t sp = 0;
  for (const double x : series) {
    const Lanes xs = splat(x);
    Lanes* row = &seasonal[sp * kRegisters];
    for (std::size_t r = 0; r < kRegisters; ++r) {
      step(coeffs[r], xs, level[r], trend[r], row[r], sse[r]);
    }
    if (++sp == m) sp = 0;
  }

  // The first strict minimum in grid order. A NaN SSE never compares less,
  // so a NaN first candidate is kept.
  const auto sse_of = [&sse](std::size_t k) {
    return sse[k / kWidth][k % kWidth];
  };
  std::size_t best = 0;
  for (std::size_t k = 1; k < kCandidates; ++k) {
    if (sse_of(k) < sse_of(best)) best = k;
  }
  HoltWinters model(candidate(best, m));
  model.train(series);
  return model;
}

}  // namespace sb
