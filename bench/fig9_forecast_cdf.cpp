// Reproduces Fig 9: CDF of peak-normalized RMSE and MAE of the per-config
// Holt-Winters forecasts over the most popular configs. The paper fits 9
// months of history, forecasts 3 months ahead, and reports median RMSE 13%
// and median MAE 8% over the top-1000 configs.
//
// Laptop-scale defaults fit 8 weeks and forecast 2 weeks over the top 150
// configs; override with --history_weeks, --horizon_weeks, --configs. A bad
// flag prints usage to stderr and exits 2.
#include <iostream>

#include "bench_util.h"
#include "common/stats.h"
#include "forecast/forecaster.h"

namespace {
constexpr const char* kUsage =
    "usage: fig9_forecast_cdf [--history_weeks=2..520] "
    "[--horizon_weeks=1..52] [--configs=1..1500]\n";
}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const auto history_weeks =
      static_cast<std::size_t>(flags.whole("history_weeks", 8, 2, 520));
  const auto horizon_weeks =
      static_cast<std::size_t>(flags.whole("horizon_weeks", 2, 1, 52));
  const auto config_count =
      static_cast<std::size_t>(flags.whole("configs", 150, 1, 1500));
  flags.finish();

  Scenario scenario = make_apac_scenario({.config_count = 1500});
  const TraceGenerator& trace = *scenario.trace;
  const double bucket_s = trace.params().bucket_s;
  const auto season = static_cast<std::size_t>(kSecondsPerWeek / bucket_s);
  const double history_end = history_weeks * kSecondsPerWeek;
  const double horizon_end = history_end + horizon_weeks * kSecondsPerWeek;

  const std::size_t n =
      std::min(config_count, trace.universe().configs.size());
  std::vector<double> rmses;
  std::vector<double> maes;
  rmses.reserve(n);
  maes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const auto history = trace.arrival_count_series(i, 0.0, history_end);
    const auto truth =
        trace.arrival_count_series(i, history_end, horizon_end);
    const auto forecast = forecast_calls(history, season, truth.size());
    const NormalizedErrors e = normalized_errors(truth, forecast);
    rmses.push_back(e.rmse);
    maes.push_back(e.mae);
  }

  std::cout << "Fig 9: CDF of peak-normalized forecast errors over the top "
            << n << " configs (" << history_weeks << "w history, "
            << horizon_weeks << "w horizon)\n\n";
  TextTable table({"CDF", "RMSE", "MAE"});
  for (double q : {0.10, 0.25, 0.50, 0.75, 0.90, 0.99}) {
    table.row()
        .cell(format_double(q, 2))
        .cell(quantile(rmses, q), 3)
        .cell(quantile(maes, q), 3);
  }
  std::cout << table;
  std::cout << "\nmedians: RMSE " << format_double(100.0 * median(rmses), 1)
            << "%, MAE " << format_double(100.0 * median(maes), 1)
            << "%  (paper: 13% and 8%)\n";
  return 0;
}
