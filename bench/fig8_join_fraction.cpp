// Reproduces Fig 8: average fraction of participants that have joined as a
// function of time since the meeting started. The paper freezes the call
// config at A = 300 s because ~80% of participants have joined by then.
// The bench prints the fraction joined by 300 s through bench::emit_json
// and exits 1 (ctest fig8_join_fraction_claim, label paper) unless it lies
// in [0.75, 0.85].
//
// Flags: --hours=6. A bad flag prints usage to stderr and exits 2.
#include <algorithm>
#include <iostream>

#include "bench_util.h"

namespace {
constexpr const char* kUsage = "usage: fig8_join_fraction [--hours=0.01..168]\n";
/// The band around the paper's "~80% joined by 300 s".
constexpr double kJoinedLow = 0.75;
constexpr double kJoinedHigh = 0.85;
}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const double hours = flags.number("hours", 6.0, 0.01, 168.0);
  flags.finish();

  Scenario scenario = make_apac_scenario();
  // A busy Tuesday window.
  const double start = kSecondsPerDay + 2.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(start, start + hours * kSecondsPerHour);
  std::vector<double> offsets = db.join_offsets();
  std::sort(offsets.begin(), offsets.end());

  std::cout << "Fig 8: average fraction of participants joined since "
               "meeting start (" << db.size() << " calls, "
            << offsets.size() << " legs)\n\n";
  TextTable table({"seconds", "fraction joined"});
  for (double t : {0.0, 30.0, 60.0, 120.0, 180.0, 240.0, 300.0, 420.0, 600.0,
                   900.0, 1800.0}) {
    const auto joined = static_cast<double>(
        std::upper_bound(offsets.begin(), offsets.end(), t) -
        offsets.begin());
    table.row()
        .cell(format_double(t, 0))
        .cell(joined / static_cast<double>(offsets.size()));
  }
  std::cout << table;

  const double at300 =
      static_cast<double>(
          std::upper_bound(offsets.begin(), offsets.end(), 300.0) -
          offsets.begin()) /
      static_cast<double>(offsets.size());
  std::cout << "\nfraction joined by A=300 s: " << format_double(at300, 3)
            << " (paper: ~0.80 -> freeze the config at A = 300 s)\n";
  bench::emit_json("fig8_join_fraction", "joined_at_300s", at300);
  const bool held = at300 >= kJoinedLow && at300 <= kJoinedHigh;
  std::cout << (held ? "claim holds: " : "REGRESSION: claim broken: ")
            << "fraction joined by 300 s within [" << kJoinedLow << ", "
            << kJoinedHigh << "]\n";
  return held ? 0 : 1;
}
