// Reproduces Fig 7: (a) per-config call-count forecast vs ground truth,
// (b) heterogeneous growth across 15 call configs, (c) fraction of calls
// covered by the top-N% call configs (paper: top 0.1% cover 86%, top 1%
// cover 93%).
//
// Flags: --history_weeks=8 --horizon_days=7 --universe=4000. A bad flag
// prints usage to stderr and exits 2.
#include <algorithm>
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "forecast/forecaster.h"

namespace {
constexpr const char* kUsage =
    "usage: fig7_call_configs [--history_weeks=2..520] "
    "[--horizon_days=1..365] [--universe=1..100000]\n";
}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const auto history_weeks =
      static_cast<std::size_t>(flags.whole("history_weeks", 8, 2, 520));
  const auto horizon_days =
      static_cast<std::size_t>(flags.whole("horizon_days", 7, 1, 365));
  const auto universe_size =
      static_cast<std::size_t>(flags.whole("universe", 4000, 1, 100000));
  flags.finish();

  // A large universe so the coverage curve (c) has a meaningful tail.
  Scenario scenario = make_apac_scenario({.config_count = universe_size});
  const TraceGenerator& trace = *scenario.trace;
  const double bucket_s = trace.params().bucket_s;
  const std::size_t season = static_cast<std::size_t>(
      kSecondsPerWeek / bucket_s);  // weekly seasonality

  // ---- (a) forecast vs ground truth for the most popular config ----
  print_banner(std::cout,
               "Fig 7(a): forecast vs ground truth (top config, daily "
               "totals)");
  const double history_end = history_weeks * kSecondsPerWeek;
  const double horizon_end = history_end + horizon_days * kSecondsPerDay;
  const auto history = trace.arrival_count_series(0, 0.0, history_end);
  const auto truth =
      trace.arrival_count_series(0, history_end, horizon_end);
  const auto forecast = forecast_calls(history, season, truth.size());

  TextTable fa({"day", "truth calls", "forecast calls", "error %"});
  const std::size_t per_day = static_cast<std::size_t>(kSecondsPerDay / bucket_s);
  for (std::size_t d = 0; d < horizon_days; ++d) {
    double t_sum = 0.0;
    double f_sum = 0.0;
    for (std::size_t b = d * per_day;
         b < std::min((d + 1) * per_day, truth.size()); ++b) {
      t_sum += truth[b];
      f_sum += forecast[b];
    }
    fa.row()
        .cell(std::to_string(d + 1))
        .cell(t_sum, 0)
        .cell(f_sum, 0)
        .cell(t_sum > 0 ? 100.0 * (f_sum - t_sum) / t_sum : 0.0, 1);
  }
  std::cout << fa;
  const NormalizedErrors errors = normalized_errors(truth, forecast);
  std::cout << "bucket-level normalized RMSE "
            << format_double(100.0 * errors.rmse, 1) << "%, MAE "
            << format_double(100.0 * errors.mae, 1) << "%\n";

  // ---- (b) growth across 15 configs over ~4 months ----
  print_banner(std::cout,
               "Fig 7(b): growth in call counts for 15 configs over 16 weeks "
               "(normalized to max growth)");
  const std::size_t sample = std::min<std::size_t>(
      15, scenario.trace->universe().configs.size());
  std::vector<double> growth(sample);
  double max_growth = 0.0;
  for (std::size_t i = 0; i < sample; ++i) {
    // Expected weekly totals at week 1 vs week 16 (diurnal cancels out).
    const double wg = trace.universe().configs[i].weekly_growth;
    growth[i] = std::pow(wg, 16.0);
    max_growth = std::max(max_growth, growth[i]);
  }
  TextTable fb({"config rank", "16-week growth", "normalized"});
  for (std::size_t i = 0; i < sample; ++i) {
    fb.row()
        .cell(std::to_string(i))
        .cell(growth[i], 3)
        .cell(growth[i] / max_growth);
  }
  std::cout << fb;

  // ---- (c) coverage by top-N configs ----
  print_banner(std::cout, "Fig 7(c): fraction of calls covered by top-N% "
                          "configs");
  const ConfigUniverse& universe = trace.universe();
  const double total_rate = universe.total_base_rate();
  TextTable fc({"top-N%", "configs", "call coverage %", "paper"});
  struct Mark {
    double pct;
    const char* paper;
  };
  for (const Mark mark : {Mark{0.1, "86%"}, Mark{0.5, "-"}, Mark{1.0, "93%"},
                          Mark{5.0, "-"}, Mark{10.0, "-"}}) {
    const std::size_t count = std::max<std::size_t>(
        1, static_cast<std::size_t>(universe.configs.size() * mark.pct / 100.0));
    double covered = 0.0;
    for (std::size_t i = 0; i < count; ++i) {
      covered += universe.configs[i].base_rate_per_hour;
    }
    fc.row()
        .cell(format_double(mark.pct, 1))
        .cell(static_cast<std::uint64_t>(count))
        .cell(100.0 * covered / total_rate, 1)
        .cell(mark.paper);
  }
  std::cout << fc;
  std::cout << "(universe: " << universe.configs.size()
            << " configs; the paper saw 10M+ configs with the same skew "
               "shape)\n";
  return 0;
}
