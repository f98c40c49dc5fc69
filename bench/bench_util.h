// Shared helpers for the bench binaries: tiny --key=value argument parsing
// and consistent workload construction, so every table/figure bench runs on
// the same scenario defaults (see EXPERIMENTS.md).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "calls/demand.h"
#include "common/table.h"
#include "trace/scenario.h"

namespace sb::bench {

/// Emits one machine-readable result line alongside the human-readable
/// table: `{"bench": ..., "metric": ..., "value": ...}`. One JSON object per
/// line, always starting the line with `{"bench"`, so BENCH_*.json
/// trajectories can be scraped with `grep '^{"bench"'` from any bench's
/// stdout.
inline void emit_json(const std::string& bench, const std::string& metric,
                      double value) {
  char formatted[64];
  std::snprintf(formatted, sizeof(formatted), "%.10g", value);
  std::cout << "{\"bench\": \"" << bench << "\", \"metric\": \"" << metric
            << "\", \"value\": " << formatted << "}\n";
}

/// Strict --key=value parsing for benches that reject bad input instead of
/// aborting: an argument of another shape, a flag the bench never reads
/// (finish()) and a value outside its range all print the reason and
/// `usage` to stderr and exit 2. Values parse with std::strtod.
class Flags {
 public:
  Flags(int argc, char** argv, const char* usage) : usage_(usage) {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      const auto eq = arg.find('=');
      if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
        fail("bad argument '" + arg + "'");
      }
      args_.push_back({arg.substr(2, eq - 2), arg.substr(eq + 1), false});
    }
  }

  /// A number in [lo, hi]; `fallback` when the flag is absent.
  double number(const std::string& name, double fallback, double lo,
                double hi) {
    const std::string* text = find(name);
    if (text == nullptr) return fallback;
    char* end = nullptr;
    const double value = std::strtod(text->c_str(), &end);
    if (text->empty() || *end != '\0' || !(value >= lo && value <= hi)) {
      fail("bad value '--" + name + "=" + *text + "'");
    }
    return value;
  }

  /// A whole number in [lo, hi]: counts and ids reject fractions.
  double whole(const std::string& name, double fallback, double lo,
               double hi) {
    const double value = number(name, fallback, lo, hi);
    if (value != std::floor(value)) {
      fail("bad value '--" + name + "': not a whole number");
    }
    return value;
  }

  std::string text(const std::string& name, const std::string& fallback) {
    const std::string* text = find(name);
    return text == nullptr ? fallback : *text;
  }

  void finish() const {
    for (const Arg& a : args_) {
      if (!a.read) fail("unknown flag --" + a.name);
    }
  }

  [[noreturn]] void fail(const std::string& why) const {
    std::cerr << why << "\n" << usage_;
    std::exit(2);
  }

 private:
  struct Arg {
    std::string name;
    std::string value;
    bool read;
  };

  /// First occurrence wins.
  const std::string* find(const std::string& name) {
    const std::string* first = nullptr;
    for (Arg& a : args_) {
      if (a.name != name) continue;
      a.read = true;
      if (first == nullptr) first = &a.value;
    }
    return first;
  }

  const char* usage_;
  std::vector<Arg> args_;
};

/// Restricts a demand matrix to its first `top_k` columns (the trace
/// universe is sorted by base rate, so these are the most popular configs —
/// the §5.2 "top 1%" device that keeps the LP tractable).
inline DemandMatrix top_k_demand(const DemandMatrix& full, std::size_t top_k) {
  const std::size_t k = std::min(top_k, full.config_count());
  std::vector<ConfigId> configs;
  configs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) configs.push_back(full.config_at(i));
  DemandMatrix out = make_demand_matrix(std::move(configs), full.slot_count());
  for (TimeSlot t = 0; t < full.slot_count(); ++t) {
    for (std::size_t c = 0; c < k; ++c) {
      out.set_demand(t, c, full.demand(t, c));
    }
  }
  return out;
}

/// A design-day demand matrix: expected demand of the scenario's trace over
/// one representative weekday (Tuesday), `slot_s`-second slots, top-k
/// configs.
inline DemandMatrix design_day_demand(const Scenario& scenario, double slot_s,
                                      std::size_t top_k) {
  const DemandMatrix full = scenario.trace->expected_demand(
      slot_s, kSecondsPerDay, 2 * kSecondsPerDay);
  return top_k_demand(full, top_k);
}

}  // namespace sb::bench
