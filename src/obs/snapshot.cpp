#include "obs/snapshot.h"

#include <algorithm>
#include <ostream>

#include "common/error.h"
#include "obs/json_text.h"

namespace sb::obs {

namespace {

using detail::format_number;
using detail::json_escape;

template <typename Sample>
const Sample* find_by_name(const std::vector<Sample>& samples,
                           std::string_view name) {
  const auto it = std::find_if(
      samples.begin(), samples.end(),
      [name](const Sample& sample) { return sample.name == name; });
  return it == samples.end() ? nullptr : &*it;
}

}  // namespace

const CounterSample* MetricsSnapshot::find_counter(
    std::string_view name) const {
  return find_by_name(counters, name);
}

const GaugeSample* MetricsSnapshot::find_gauge(std::string_view name) const {
  return find_by_name(gauges, name);
}

const HistogramSample* MetricsSnapshot::find_histogram(
    std::string_view name) const {
  return find_by_name(histograms, name);
}

std::uint64_t MetricsSnapshot::counter_value(std::string_view name,
                                             std::uint64_t fallback) const {
  const CounterSample* sample = find_counter(name);
  return sample == nullptr ? fallback : sample->value;
}

void MetricsSnapshot::write_json(std::ostream& out) const {
  out << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(counters[i].name)
        << "\": " << counters[i].value;
  }
  out << "\n  },\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    out << (i == 0 ? "\n" : ",\n") << "    \"" << json_escape(gauges[i].name)
        << "\": " << format_number(gauges[i].value);
  }
  out << "\n  },\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const HistogramData& d = histograms[i].data;
    out << (i == 0 ? "\n" : ",\n") << "    \""
        << json_escape(histograms[i].name) << "\": {\"count\": " << d.count
        << ", \"sum\": " << format_number(d.sum)
        << ", \"mean\": " << format_number(d.mean())
        << ", \"min\": " << format_number(d.min)
        << ", \"max\": " << format_number(d.max)
        << ", \"p50\": " << format_number(d.p50())
        << ", \"p90\": " << format_number(d.p90())
        << ", \"p99\": " << format_number(d.p99()) << "}";
  }
  out << "\n  }\n}\n";
}

MetricsSnapshot snapshot_diff(const MetricsSnapshot& before,
                              const MetricsSnapshot& after) {
  MetricsSnapshot out;
  out.counters.reserve(after.counters.size());
  for (const CounterSample& a : after.counters) {
    const CounterSample* b = before.find_counter(a.name);
    const std::uint64_t base = b == nullptr ? 0 : b->value;
    require(a.value >= base, "snapshot_diff: counter went backwards");
    out.counters.push_back({a.name, a.value - base});
  }
  out.gauges = after.gauges;
  out.histograms.reserve(after.histograms.size());
  for (const HistogramSample& a : after.histograms) {
    const HistogramSample* b = before.find_histogram(a.name);
    out.histograms.push_back(
        {a.name, b == nullptr ? a.data : histogram_diff(b->data, a.data)});
  }
  return out;
}

}  // namespace sb::obs
