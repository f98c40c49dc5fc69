#include "obs/timeseries.h"

#include <limits>
#include <ostream>

#include "common/csv.h"
#include "obs/json_text.h"
#include "obs/snapshot.h"

namespace sb::obs {

namespace {

constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();

using detail::format_number;

}  // namespace

TimeSeriesRecorder::TimeSeriesRecorder(MetricsRegistry* registry,
                                       TimeSeriesOptions options)
    : registry_(registry),
      options_(options),
      next_due_(-std::numeric_limits<double>::infinity()) {}

std::size_t TimeSeriesRecorder::column_index(std::string_view column,
                                             bool create) {
  const auto it = column_of_.find(column);
  if (it != column_of_.end()) return it->second;
  if (!create) return kNpos;
  const std::size_t index = columns_.size();
  columns_.emplace_back(column);
  column_of_.emplace(columns_.back(), index);
  return index;
}

void TimeSeriesRecorder::append_locked(double sim_time_s) {
  const MetricsSnapshot snap = registry_->snapshot();
  Sample sample;
  sample.t = sim_time_s;
  // Sized up-front to the current column count; new metrics extend it below
  // (earlier samples implicitly read 0 for those columns).
  sample.values.assign(columns_.size(), 0.0);
  const auto set = [&](std::string_view column, double value) {
    const std::size_t index = column_index(column, /*create=*/true);
    if (index >= sample.values.size()) sample.values.resize(index + 1, 0.0);
    sample.values[index] = value;
  };
  for (const CounterSample& c : snap.counters) {
    set("counter:" + c.name, static_cast<double>(c.value));
  }
  for (const GaugeSample& g : snap.gauges) {
    set("gauge:" + g.name, g.value);
  }
  for (const HistogramSample& h : snap.histograms) {
    set("histogram:" + h.name + ":count",
        static_cast<double>(h.data.count));
    set("histogram:" + h.name + ":sum", h.data.sum);
    set("histogram:" + h.name + ":p50", h.data.p50());
    set("histogram:" + h.name + ":p99", h.data.p99());
  }
  samples_.push_back(std::move(sample));
}

void TimeSeriesRecorder::sample(double sim_time_s) {
  if (sim_time_s < next_due_.load(std::memory_order_relaxed)) return;
  std::lock_guard lock(mutex_);
  // Recheck under the lock: another thread may have taken this cadence
  // point between the relaxed load and here.
  if (sim_time_s < next_due_.load(std::memory_order_relaxed)) return;
  append_locked(sim_time_s);
  next_due_.store(sim_time_s + options_.period_s, std::memory_order_relaxed);
}

void TimeSeriesRecorder::force_sample(double sim_time_s) {
  std::lock_guard lock(mutex_);
  append_locked(sim_time_s);
  next_due_.store(sim_time_s + options_.period_s, std::memory_order_relaxed);
}

std::size_t TimeSeriesRecorder::sample_count() const {
  std::lock_guard lock(mutex_);
  return samples_.size();
}

std::size_t TimeSeriesRecorder::column_count() const {
  std::lock_guard lock(mutex_);
  return columns_.size();
}

std::uint64_t TimeSeriesRecorder::counter_delta_total(
    std::string_view name) const {
  const std::vector<double> s = series(std::string("counter:") + std::string(name));
  if (s.empty()) return 0;
  // Counters are monotone, so the sum of per-interval deltas telescopes to
  // last - first; first is 0 unless recording began mid-run.
  return static_cast<std::uint64_t>(s.back() - s.front());
}

double TimeSeriesRecorder::last(std::string_view column) const {
  std::lock_guard lock(mutex_);
  const auto it = column_of_.find(column);
  if (it == column_of_.end() || samples_.empty()) return 0.0;
  const Sample& s = samples_.back();
  return it->second < s.values.size() ? s.values[it->second] : 0.0;
}

std::vector<double> TimeSeriesRecorder::series(std::string_view column) const {
  std::lock_guard lock(mutex_);
  const auto it = column_of_.find(column);
  if (it == column_of_.end()) return {};
  const std::size_t index = it->second;
  std::vector<double> out;
  out.reserve(samples_.size());
  for (const Sample& s : samples_) {
    out.push_back(index < s.values.size() ? s.values[index] : 0.0);
  }
  return out;
}

void TimeSeriesRecorder::write_csv(std::ostream& out) const {
  std::lock_guard lock(mutex_);
  CsvWriter writer(out);
  std::vector<std::string> row;
  row.reserve(columns_.size() + 1);
  row.emplace_back("t_s");
  for (const std::string& c : columns_) row.push_back(c);
  writer.write_row(row);
  for (const Sample& s : samples_) {
    row.clear();
    row.push_back(format_number(s.t));
    for (std::size_t i = 0; i < columns_.size(); ++i) {
      row.push_back(
          format_number(i < s.values.size() ? s.values[i] : 0.0));
    }
    writer.write_row(row);
  }
}

}  // namespace sb::obs
