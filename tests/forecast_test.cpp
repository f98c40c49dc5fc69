// Tests for Holt-Winters and the forecasting pipeline.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "forecast/forecaster.h"

namespace sb {
namespace {

/// Seasonal series with trend and optional noise:
/// base + slope*t + amp*sin(2 pi t / season) + noise.
std::vector<double> make_series(std::size_t n, std::size_t season,
                                double base, double slope, double amp,
                                double noise_sd = 0.0,
                                std::uint64_t seed = 1) {
  Rng rng(seed);
  std::vector<double> xs(n);
  for (std::size_t t = 0; t < n; ++t) {
    xs[t] = base + slope * static_cast<double>(t) +
            amp * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                           static_cast<double>(season));
    if (noise_sd > 0.0) xs[t] += rng.normal(0.0, noise_sd);
  }
  return xs;
}

TEST(HoltWintersTest, RecoversCleanSeasonalSeries) {
  const std::size_t season = 12;
  const auto series = make_series(12 * 8, season, 100.0, 0.5, 20.0);
  HoltWinters model = HoltWinters::fit(series, season);
  const auto forecast = model.forecast(season);
  for (std::size_t h = 0; h < season; ++h) {
    const std::size_t t = series.size() + h;
    const double truth =
        100.0 + 0.5 * static_cast<double>(t) +
        20.0 * std::sin(2.0 * std::numbers::pi * static_cast<double>(t) /
                        static_cast<double>(season));
    EXPECT_NEAR(forecast[h], truth, 6.0) << "h=" << h;
  }
}

TEST(HoltWintersTest, TracksNoisySeriesWithinTolerance) {
  const std::size_t season = 24;
  const auto series = make_series(24 * 10, season, 200.0, 0.2, 60.0, 8.0);
  HoltWinters model = HoltWinters::fit(series, season);
  const auto forecast = model.forecast(season * 2);
  const auto truth = make_series(24 * 12, season, 200.0, 0.2, 60.0);
  double err = 0.0;
  for (std::size_t h = 0; h < forecast.size(); ++h) {
    err += std::abs(forecast[h] - truth[series.size() + h]);
  }
  err /= static_cast<double>(forecast.size());
  EXPECT_LT(err, 20.0);  // well under the seasonal amplitude
}

TEST(HoltWintersTest, FittedIsOneStepAhead) {
  const std::size_t season = 6;
  const auto series = make_series(36, season, 50.0, 0.0, 10.0);
  HoltWinters model(HoltWintersParams{0.3, 0.05, 0.1, season});
  model.train(series);
  EXPECT_EQ(model.fitted().size(), series.size());
  EXPECT_GT(model.sse(), 0.0);
}

TEST(HoltWintersTest, ValidatesInput) {
  EXPECT_THROW(HoltWinters(HoltWintersParams{0.0, 0.1, 0.1, 4}),
               InvalidArgument);
  EXPECT_THROW(HoltWinters(HoltWintersParams{0.5, 1.0, 0.1, 4}),
               InvalidArgument);
  HoltWinters m(HoltWintersParams{0.3, 0.1, 0.1, 10});
  std::vector<double> too_short(15, 1.0);
  EXPECT_THROW(m.train(too_short), InvalidArgument);
  EXPECT_THROW(m.forecast(3), InvalidArgument);  // untrained
}

// fit() scores all grid candidates in one vectorized pass. The oracle below
// is the plain sequential search: train every grid point through the public
// API in grid order and keep the first strict SSE minimum. fit() must match
// it bit for bit.
constexpr double kAlphas[] = {0.05, 0.1, 0.2, 0.35, 0.5};
constexpr double kBetas[] = {0.0, 0.01, 0.05, 0.1};
constexpr double kGammas[] = {0.05, 0.1, 0.3};

HoltWinters reference_fit(std::span<const double> series, std::size_t season) {
  std::optional<HoltWinters> best;
  for (const double alpha : kAlphas) {
    for (const double beta : kBetas) {
      for (const double gamma : kGammas) {
        HoltWinters candidate(HoltWintersParams{alpha, beta, gamma, season});
        candidate.train(series);
        if (!best || candidate.sse() < best->sse()) best = candidate;
      }
    }
  }
  return *best;
}

std::vector<std::uint64_t> bits(std::span<const double> xs) {
  std::vector<std::uint64_t> out;
  for (const double x : xs) out.push_back(std::bit_cast<std::uint64_t>(x));
  return out;
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

void expect_fit_matches_reference(std::span<const double> series,
                                  std::size_t season) {
  SCOPED_TRACE("n=" + std::to_string(series.size()) +
               " season=" + std::to_string(season));
  const HoltWinters fit = HoltWinters::fit(series, season);
  const HoltWinters ref = reference_fit(series, season);
  EXPECT_EQ(bits(fit.params().alpha), bits(ref.params().alpha));
  EXPECT_EQ(bits(fit.params().beta), bits(ref.params().beta));
  EXPECT_EQ(bits(fit.params().gamma), bits(ref.params().gamma));
  EXPECT_EQ(fit.params().season_length, season);
  EXPECT_EQ(bits(fit.sse()), bits(ref.sse()));
  EXPECT_EQ(bits(fit.fitted()), bits(ref.fitted()));
  const std::size_t horizon = 2 * season + 3;
  EXPECT_EQ(bits(fit.forecast(horizon)), bits(ref.forecast(horizon)));
}

/// Poisson arrival counts shaped like the forecast pipeline's input: 30-min
/// buckets with a diurnal cycle, quiet weekends and weekly growth.
std::vector<double> weekly_counts(std::size_t weeks, double peak_rate,
                                  std::uint64_t seed) {
  constexpr std::size_t kPerDay = 48;
  Rng rng(seed);
  std::vector<double> xs(weeks * 7 * kPerDay);
  for (std::size_t t = 0; t < xs.size(); ++t) {
    const double hour = static_cast<double>(t % kPerDay) / 2.0;
    const bool weekend = t / kPerDay % 7 >= 5;
    const double diurnal =
        std::max(0.05, std::sin(std::numbers::pi * (hour - 6.0) / 14.0));
    const double growth =
        1.0 + 0.03 * static_cast<double>(t) / (7.0 * kPerDay);
    const double rate =
        peak_rate * diurnal * growth * (weekend ? 0.3 : 1.0);
    xs[t] = static_cast<double>(rng.poisson(rate));
  }
  return xs;
}

TEST(HoltWintersFitOracle, PipelineShapedPoissonCounts) {
  constexpr std::size_t kWeek = 7 * 48;
  for (const std::uint64_t seed : {1, 2, 3}) {
    for (const double peak : {0.4, 6.0, 250.0}) {
      // 7 weeks is the validation history, 8 the planning history.
      for (const std::size_t weeks : {7, 8}) {
        expect_fit_matches_reference(weekly_counts(weeks, peak, seed), kWeek);
      }
    }
  }
}

TEST(HoltWintersFitOracle, SmoothSeriesShapes) {
  expect_fit_matches_reference(make_series(12 * 8, 12, 100.0, 0.5, 20.0), 12);
  expect_fit_matches_reference(
      make_series(24 * 10, 24, 200.0, 0.2, 60.0, 8.0), 24);
  expect_fit_matches_reference(make_series(36, 6, 50.0, 0.0, 10.0), 6);
  expect_fit_matches_reference(make_series(40, 4, 100.0, -3.0, 5.0, 1.0), 4);
}

TEST(HoltWintersFitOracle, SeasonLengthEdgeCases) {
  // No seasonality, an odd season, and exactly the two-season minimum.
  expect_fit_matches_reference(make_series(50, 7, 20.0, 0.1, 4.0, 2.0), 1);
  expect_fit_matches_reference(make_series(2, 1, 3.0, 1.0, 0.0), 1);
  expect_fit_matches_reference(make_series(7 * 5 + 3, 7, 80.0, 0.3, 9.0, 3.0),
                               7);
  expect_fit_matches_reference(make_series(48, 24, 60.0, 0.0, 30.0, 5.0), 24);
}

TEST(HoltWintersFitOracle, ExactlyPeriodicSeriesRanksRoundingResidues) {
  // A season repeated exactly: every one-step error is floating-point
  // rounding, so the candidates' SSEs differ only in their last bits and
  // any arithmetic difference in the search can change the winner.
  const std::vector<std::vector<double>> seasons{
      {10.1, 20.3, 5.7, 40.9}, {0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7}};
  for (const auto& season : seasons) {
    std::vector<double> series;
    for (int rep = 0; rep < 40; ++rep) {
      series.insert(series.end(), season.begin(), season.end());
    }
    expect_fit_matches_reference(series, season.size());
    const HoltWinters model = HoltWinters::fit(series, season.size());
    EXPECT_GT(model.sse(), 0.0);
    EXPECT_LT(model.sse(), 1e-20);
  }
}

TEST(HoltWintersFitOracle, AllZeroSeriesKeepsFirstGridPoint) {
  // All 60 candidates tie at SSE 0; the first in grid order wins.
  const std::vector<double> zeros(96, 0.0);
  expect_fit_matches_reference(zeros, 24);
  const HoltWinters model = HoltWinters::fit(zeros, 24);
  EXPECT_EQ(model.params().alpha, 0.05);
  EXPECT_EQ(model.params().beta, 0.0);
  EXPECT_EQ(model.params().gamma, 0.05);
  EXPECT_EQ(model.sse(), 0.0);
}

TEST(HoltWintersFitOracle, NanSeriesKeepsFirstGridPoint) {
  // A NaN observation makes every SSE NaN, and NaN never compares less.
  auto series = make_series(24 * 4, 24, 50.0, 0.0, 10.0);
  series[30] = std::numeric_limits<double>::quiet_NaN();
  expect_fit_matches_reference(series, 24);
  const HoltWinters model = HoltWinters::fit(series, 24);
  EXPECT_TRUE(std::isnan(model.sse()));
  EXPECT_EQ(model.params().alpha, 0.05);
  EXPECT_EQ(model.params().beta, 0.0);
  EXPECT_EQ(model.params().gamma, 0.05);
  for (const double v : forecast_calls(series, 24, 48)) {
    EXPECT_TRUE(std::isfinite(v));
  }
}

TEST(HoltWintersFitOracle, RejectsShortSeriesAndZeroSeason) {
  const std::vector<double> short_series(15, 1.0);
  EXPECT_THROW(HoltWinters::fit(short_series, 8), InvalidArgument);
  EXPECT_THROW(HoltWinters::fit(short_series, 0), InvalidArgument);
}

TEST(ForecastCallsTest, ClampsNegativesToZero) {
  // Steeply declining series: the linear trend would go negative.
  std::vector<double> series;
  for (int t = 0; t < 40; ++t) {
    series.push_back(std::max(0.0, 100.0 - 3.0 * t));
  }
  const auto forecast = forecast_calls(series, 4, 30);
  for (double v : forecast) EXPECT_GE(v, 0.0);
}

TEST(NormalizedErrorsTest, DividesByTruthPeak) {
  std::vector<double> truth{0.0, 50.0, 100.0};
  std::vector<double> est{0.0, 40.0, 90.0};
  const NormalizedErrors e = normalized_errors(truth, est);
  EXPECT_NEAR(e.mae, (10.0 + 10.0) / 3.0 / 100.0, 1e-12);
  EXPECT_NEAR(e.rmse, std::sqrt(200.0 / 3.0) / 100.0, 1e-12);
}

TEST(NormalizedErrorsTest, ZeroTruthReportsRawError) {
  std::vector<double> truth{0.0, 0.0};
  std::vector<double> est{1.0, 1.0};
  const NormalizedErrors e = normalized_errors(truth, est);
  EXPECT_NEAR(e.mae, 1.0, 1e-12);
}

TEST(CushionTest, InflatesUnderForecasts) {
  // Forecast persistently 20% low on busy buckets -> cushion ~1.25.
  std::vector<double> truth;
  std::vector<double> forecast;
  for (int i = 0; i < 50; ++i) {
    truth.push_back(100.0);
    forecast.push_back(80.0);
  }
  EXPECT_NEAR(estimate_cushion(truth, forecast), 1.25, 1e-9);
}

TEST(CushionTest, NeverBelowOneAndCapped) {
  std::vector<double> truth{100.0, 100.0};
  std::vector<double> over{200.0, 200.0};
  EXPECT_DOUBLE_EQ(estimate_cushion(truth, over), 1.0);
  std::vector<double> way_under{10.0, 10.0};
  EXPECT_DOUBLE_EQ(estimate_cushion(truth, way_under, 2.0), 2.0);
}

TEST(DemandFromArrivalsTest, AppliesLittlesLawAndCushion) {
  // 10 arrivals per 1800 s bucket, 900 s mean duration -> concurrency 5.
  const std::vector<std::vector<double>> arrivals{{10.0, 0.0}};
  const DemandMatrix m =
      demand_from_arrivals(arrivals, {ConfigId(0)}, 1800.0, 900.0, 1.2);
  EXPECT_NEAR(m.demand(0, 0), 5.0 * 1.2, 1e-12);
  EXPECT_DOUBLE_EQ(m.demand(1, 0), 0.0);
}

TEST(DemandFromArrivalsTest, RejectsRaggedInput) {
  const std::vector<std::vector<double>> ragged{{1.0, 2.0}, {1.0}};
  EXPECT_THROW(
      demand_from_arrivals(ragged, {ConfigId(0), ConfigId(1)}, 1.0, 1.0),
      InvalidArgument);
}

// Seasonal edge cases the fuzzed trace histories actually produce: the
// forecast must degrade to a flat mean (or zeros), never to NaN/inf.
TEST(ForecastCallsTest, SeasonLongerThanHistoryFallsBackToFlatMean) {
  const std::vector<double> history{3.0, 5.0, 7.0};
  const std::vector<double> f = forecast_calls(history, 48, 6);
  ASSERT_EQ(f.size(), 6u);
  for (const double v : f) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 5.0, 1e-9);  // mean of history
  }
}

TEST(ForecastCallsTest, AllZeroHistoryForecastsZerosNeverNan) {
  const std::vector<double> zeros(96, 0.0);
  const std::vector<double> f = forecast_calls(zeros, 24, 24);
  ASSERT_EQ(f.size(), 24u);
  for (const double v : f) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_DOUBLE_EQ(v, 0.0);
  }
  // A zero truth/forecast pair is the "zero iff zero" case of the Fig 9
  // metric — it must also not divide by the zero peak.
  const NormalizedErrors e = normalized_errors(zeros, zeros);
  EXPECT_DOUBLE_EQ(e.rmse, 0.0);
  EXPECT_DOUBLE_EQ(e.mae, 0.0);
}

TEST(ForecastCallsTest, SingleSeasonHistoryIsFlatMean) {
  // Exactly one season of history (< the two full seasons Holt-Winters
  // needs to initialize its seasonal profile) -> flat mean fallback.
  std::vector<double> one_season(24);
  for (std::size_t i = 0; i < one_season.size(); ++i) {
    one_season[i] = static_cast<double>(i);
  }
  const std::vector<double> f = forecast_calls(one_season, 24, 12);
  ASSERT_EQ(f.size(), 12u);
  for (const double v : f) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_NEAR(v, 11.5, 1e-9);
  }
}

TEST(ForecastCallsTest, RejectsEmptyHistoryAndZeroSeason) {
  const std::vector<double> empty;
  EXPECT_THROW(forecast_calls(empty, 24, 4), InvalidArgument);
  const std::vector<double> some{1.0, 2.0};
  EXPECT_THROW(forecast_calls(some, 0, 4), InvalidArgument);
}

}  // namespace
}  // namespace sb
