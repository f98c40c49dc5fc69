// Reproduces Fig 3: per-country compute demand (cores) over one day,
// normalized to the maximum peak observed, showing the time-shifted peaks
// that peak-aware provisioning exploits. The paper plots Japan, Hong Kong,
// and India peaking at roughly 00:00, 02:00, and 05:30 UTC. The bench
// prints each country's peak hour through bench::emit_json and exits 1
// (ctest fig3_demand_curves_claim, label paper) unless the peaks come in
// the paper's order, JP before HK before IN.
//
// Flags: --slot_s=1800. A bad flag prints usage to stderr and exits 2.
#include <algorithm>
#include <iostream>

#include "bench_util.h"

namespace {
constexpr const char* kUsage =
    "usage: fig3_demand_curves [--slot_s=60..86400]\n";
}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const double slot_s = flags.number("slot_s", 1800.0, 60.0, 86400.0);
  flags.finish();

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  // Expected demand over all universe configs for a Tuesday.
  const DemandMatrix demand = scenario.trace->expected_demand(
      slot_s, kSecondsPerDay, 2 * kSecondsPerDay);

  const char* countries[] = {"JP", "HK", "IN"};
  std::vector<std::vector<double>> series;
  double peak = 0.0;
  for (const char* name : countries) {
    const LocationId loc = *scenario.world().find_location(name);
    series.push_back(
        location_core_demand(demand, *scenario.registry, loads, loc));
    for (double v : series.back()) peak = std::max(peak, v);
  }

  std::cout << "Fig 3: per-country core demand over one day, normalized to "
               "the max peak\n\n";
  TextTable table({"UTC", "JP", "HK", "IN"});
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    const double hour = t * slot_s / 3600.0;
    table.row().cell(format_double(hour, 1));
    for (const auto& s : series) table.cell(s[t] / peak);
  }
  std::cout << table;

  std::cout << "\npeak times (UTC):";
  double peak_h[3] = {};
  for (std::size_t i = 0; i < 3; ++i) {
    const auto it = std::max_element(series[i].begin(), series[i].end());
    peak_h[i] = static_cast<double>(std::distance(series[i].begin(), it)) *
                slot_s / 3600.0;
    std::cout << "  " << countries[i] << "=" << format_double(peak_h[i], 1)
              << "h";
  }
  std::cout << "  (paper: JP 00:00, HK 02:00, IN 05:30)\n";
  const char* metrics[] = {"jp_peak_h", "hk_peak_h", "in_peak_h"};
  for (std::size_t i = 0; i < 3; ++i) {
    bench::emit_json("fig3_demand_curves", metrics[i], peak_h[i]);
  }
  const bool held = peak_h[0] < peak_h[1] && peak_h[1] < peak_h[2];
  std::cout << (held ? "claim holds: " : "REGRESSION: claim broken: ")
            << "peaks ordered JP < HK < IN\n";
  return held ? 0 : 1;
}
