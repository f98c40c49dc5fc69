// Forecast demo: the §5.2 pipeline on one call config — build a bucketed
// call-count series, fit Holt-Winters with weekly seasonality, forecast two
// weeks ahead, and show the accuracy plus the validation cushion that
// provisioning applies.
//
// Flags: --config=0 --history_weeks=8. A bad flag prints usage to stderr
// and exits 2.
#include <algorithm>
#include <cctype>
#include <iostream>
#include <string>

#include "common/table.h"
#include "forecast/forecaster.h"
#include "trace/scenario.h"

namespace {

constexpr std::size_t kMaxHistoryWeeks = 520;

constexpr const char* kUsage =
    "usage: forecast_demo [--config=N] [--history_weeks=W]\n"
    "  --config          index into the APAC config universe (default 0)\n"
    "  --history_weeks   weeks of history to fit, 2..520 (default 8;\n"
    "                    Holt-Winters needs two weekly seasons)\n";

int usage_error(const std::string& why) {
  std::cerr << "forecast_demo: " << why << "\n" << kUsage;
  return 2;
}

/// Parses a non-negative decimal integer of at most nine digits.
bool parse_count(const std::string& text, std::size_t& out) {
  if (text.empty() || text.size() > 9 ||
      !std::all_of(text.begin(), text.end(),
                   [](unsigned char c) { return std::isdigit(c); })) {
    return false;
  }
  out = std::stoul(text);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  std::size_t config_idx = 0;
  std::size_t history_weeks = 8;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      return usage_error("bad argument '" + arg + "'");
    }
    const std::string key = arg.substr(2, eq - 2);
    std::size_t value = 0;
    if (!parse_count(arg.substr(eq + 1), value)) {
      return usage_error("bad value in '" + arg + "'");
    }
    if (key == "config") {
      config_idx = value;
    } else if (key == "history_weeks") {
      history_weeks = value;
    } else {
      return usage_error("unknown flag --" + key);
    }
  }
  if (history_weeks < 2 || history_weeks > kMaxHistoryWeeks) {
    return usage_error("--history_weeks must be in 2..520");
  }

  Scenario scenario = make_apac_scenario();
  const TraceGenerator& trace = *scenario.trace;
  const std::size_t configs = trace.universe().configs.size();
  if (config_idx >= configs) {
    return usage_error("--config must be below " + std::to_string(configs));
  }
  const ConfigUsage& usage = trace.universe().configs[config_idx];
  std::cout << "forecasting config "
            << scenario.registry->get(usage.config).describe(scenario.world())
            << " (home " << scenario.world().location(usage.home).name
            << ", weekly growth "
            << format_double(usage.weekly_growth, 4) << ")\n\n";

  const double bucket_s = trace.params().bucket_s;
  const auto season = static_cast<std::size_t>(kSecondsPerWeek / bucket_s);
  const double history_end = history_weeks * kSecondsPerWeek;
  const double horizon_end = history_end + 2 * kSecondsPerWeek;

  const auto history =
      trace.arrival_count_series(config_idx, 0.0, history_end);
  const auto truth =
      trace.arrival_count_series(config_idx, history_end, horizon_end);

  HoltWinters model = HoltWinters::fit(history, season);
  std::cout << "fitted Holt-Winters: alpha="
            << format_double(model.params().alpha, 2)
            << " beta=" << format_double(model.params().beta, 2)
            << " gamma=" << format_double(model.params().gamma, 2)
            << " (season " << season << " buckets = 1 week)\n\n";

  auto forecast = model.forecast(truth.size());
  for (double& v : forecast) v = std::max(0.0, v);

  TextTable table({"day", "truth", "forecast", "error %"});
  const auto per_day = static_cast<std::size_t>(kSecondsPerDay / bucket_s);
  for (std::size_t d = 0; d < 14; ++d) {
    double t_sum = 0.0;
    double f_sum = 0.0;
    for (std::size_t b = d * per_day;
         b < std::min((d + 1) * per_day, truth.size()); ++b) {
      t_sum += truth[b];
      f_sum += forecast[b];
    }
    table.row()
        .cell(std::to_string(d + 1))
        .cell(t_sum, 0)
        .cell(f_sum, 0)
        .cell(t_sum > 0 ? 100.0 * (f_sum - t_sum) / t_sum : 0.0, 1);
  }
  std::cout << table;

  const NormalizedErrors errors = normalized_errors(truth, forecast);
  std::cout << "\npeak-normalized RMSE "
            << format_double(100.0 * errors.rmse, 1) << "%, MAE "
            << format_double(100.0 * errors.mae, 1)
            << "% (paper medians: 13% / 8%)\n";
  const double cushion = estimate_cushion(truth, forecast);
  std::cout << "provisioning cushion from this window: "
            << format_double(cushion, 3) << "x\n";
  return 0;
}
