// Shared helpers for the bench binaries: tiny --key=value argument parsing
// and one-line JSON results. Workloads come from trace/scenario.h
// (make_apac_scenario, design_day_demand), so every table/figure bench runs
// on the same scenario defaults (see EXPERIMENTS.md).
#pragma once

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

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

}  // namespace sb::bench
