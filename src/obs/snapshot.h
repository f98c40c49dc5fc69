// Point-in-time read of the whole MetricsRegistry, with JSON export (what
// sb_report reads) and a subtraction helper for benches (diff two snapshots
// taken around a run to get that run's counts and latency distribution in
// isolation).
//
// These types are always compiled — with SB_METRICS=OFF a snapshot is simply
// empty — so export paths don't need to be conditionally compiled.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace sb::obs {

struct CounterSample {
  std::string name;
  std::uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  HistogramData data;
};

struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  [[nodiscard]] bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  /// Lookup helpers; return nullptr when the metric is absent.
  [[nodiscard]] const CounterSample* find_counter(std::string_view name) const;
  [[nodiscard]] const GaugeSample* find_gauge(std::string_view name) const;
  [[nodiscard]] const HistogramSample* find_histogram(
      std::string_view name) const;

  /// Counter value with a fallback for absent metrics (no-op builds).
  [[nodiscard]] std::uint64_t counter_value(std::string_view name,
                                            std::uint64_t fallback = 0) const;

  /// {"counters": {...}, "gauges": {...}, "histograms": {name: {count, sum,
  ///  mean, min, max, p50, p90, p99}}}
  void write_json(std::ostream& out) const;
};

/// Per-metric `after - before`: counters subtract, histograms subtract at
/// the bucket level (see histogram_diff), gauges keep their `after` value.
/// Metrics present only in `after` pass through unchanged.
MetricsSnapshot snapshot_diff(const MetricsSnapshot& before,
                              const MetricsSnapshot& after);

}  // namespace sb::obs
