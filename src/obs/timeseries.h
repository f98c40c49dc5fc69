// TimeSeriesRecorder: samples the MetricsRegistry on a sim-time cadence into
// per-metric series — the telemetry feed for offline analysis (sb_report)
// and the planned closed-loop autoscaler (ROADMAP). Counters sample their
// cumulative value (so the sum of per-interval deltas reproduces the final
// snapshot exactly), gauges their current value, histograms a fixed set of
// derived columns (count/sum/p50/p99).
//
// Always compiled: with -DSB_METRICS=OFF snapshots are empty, so a recorder
// produces a structurally valid but column-less CSV export.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace sb::obs {

struct TimeSeriesOptions {
  /// Minimum sim-time spacing between samples.
  double period_s = 60.0;
};

class TimeSeriesRecorder {
 public:
  explicit TimeSeriesRecorder(MetricsRegistry* registry,
                              TimeSeriesOptions options = {});

  /// Snapshots the registry if `sim_time_s` has reached the next cadence
  /// point; cheap (one relaxed load) otherwise. Thread-safe; concurrent
  /// callers race benignly for the same cadence point (one wins). Non-
  /// monotone times are tolerated: a sample is taken only when the clock
  /// crosses the next due point.
  void sample(double sim_time_s);

  /// Unconditional snapshot (run epilogues: the last sample then carries
  /// the registry's final totals regardless of cadence alignment).
  void force_sample(double sim_time_s);

  [[nodiscard]] std::size_t sample_count() const;
  [[nodiscard]] std::size_t column_count() const;

  /// Cumulative counter total over the recording: last sample minus first
  /// sample of `name`, which equals the sum of per-interval deltas. 0 when
  /// the counter never appeared.
  [[nodiscard]] std::uint64_t counter_delta_total(std::string_view name) const;

  /// One series for `column` (full column name, e.g. "counter:sb.sim.calls"
  /// or "histogram:sb.lp.solve_s:p99"); empty when absent. Samples from
  /// before the column first appeared read 0.
  [[nodiscard]] std::vector<double> series(std::string_view column) const;

  /// The most recent sample of `column`, or 0 when the column is absent or
  /// nothing was sampled yet. The closed-loop controller's tick reads the
  /// feed through this instead of copying whole series.
  [[nodiscard]] double last(std::string_view column) const;

  /// Wide CSV: header `t_s,<column>...`, one row per sample; columns that
  /// appeared mid-run backfill 0 for earlier rows. Counter columns are
  /// cumulative values named `counter:<name>`; gauges `gauge:<name>`;
  /// histograms expand to `histogram:<name>:{count,sum,p50,p99}`.
  void write_csv(std::ostream& out) const;

 private:
  struct Sample {
    double t = 0.0;
    std::vector<double> values;  ///< parallel to columns_ (prefix thereof)
  };

  /// Appends a snapshot row, growing columns_ for new metrics.
  void append_locked(double sim_time_s);
  /// Index of `column`, creating it when `create`; npos when absent.
  std::size_t column_index(std::string_view column, bool create);

  MetricsRegistry* registry_;
  TimeSeriesOptions options_;

  mutable std::mutex mutex_;
  std::atomic<double> next_due_;
  std::vector<std::string> columns_;
  std::map<std::string, std::size_t, std::less<>> column_of_;
  std::vector<Sample> samples_;
};

}  // namespace sb::obs
