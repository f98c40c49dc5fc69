#include "obs/trace_export.h"

#include <algorithm>
#include <fstream>
#include <iomanip>
#include <map>
#include <ostream>
#include <sstream>

#include "obs/json_text.h"

namespace sb::obs {

namespace {

using detail::json_escape;

std::string format_us(std::int64_t ns) {
  // Microseconds with ns precision; Chrome's "ts" field is fractional-us.
  std::ostringstream os;
  os << std::fixed << std::setprecision(3)
     << static_cast<double>(ns) / 1000.0;
  return os.str();
}

}  // namespace

void write_chrome_trace(std::ostream& out,
                        const std::vector<SpanData>& spans) {
  out << "{\"traceEvents\":[";
  bool first = true;
  for (const SpanData& s : spans) {
    out << (first ? "\n" : ",\n");
    first = false;
    out << "{\"name\":\"" << json_escape(s.name) << "\",\"cat\":\""
        << to_string(s.subsystem) << "\",\"ph\":\"X\",\"ts\":"
        << format_us(s.wall_start_ns)
        << ",\"dur\":" << format_us(s.wall_end_ns - s.wall_start_ns)
        << ",\"pid\":1,\"tid\":" << s.thread << ",\"args\":{\"span\":" << s.id
        << ",\"parent\":" << s.parent;
    if (s.sim_time != kNoSimTime) {
      out << ",\"sim_time\":" << s.sim_time;
    }
    for (std::uint32_t a = 0; a < s.attr_count; ++a) {
      out << ",\"" << to_string(s.attrs[a].key)
          << "\":" << s.attrs[a].value;
    }
    out << "}}";
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
}

bool dump_chrome_trace(const std::string& path, std::uint64_t* dropped_out) {
  SpanRecorder& recorder = SpanRecorder::global();
  std::ofstream out(path);
  if (!out) return false;
  write_chrome_trace(out, recorder.collect());
  if (dropped_out != nullptr) *dropped_out = recorder.dropped();
  return out.good();
}

std::vector<SpanStats> span_stats(const std::vector<SpanData>& spans) {
  std::map<std::string_view, SpanStats> by_name;
  for (const SpanData& s : spans) {
    SpanStats& stat = by_name[s.name];
    const double d = s.duration_s();
    if (stat.count == 0) {
      stat.name = s.name;
      stat.subsystem = s.subsystem;
      stat.min_s = d;
      stat.max_s = d;
    } else {
      stat.min_s = std::min(stat.min_s, d);
      stat.max_s = std::max(stat.max_s, d);
    }
    ++stat.count;
    stat.total_s += d;
  }
  std::vector<SpanStats> out;
  out.reserve(by_name.size());
  for (const auto& [name, stat] : by_name) out.push_back(stat);
  std::sort(out.begin(), out.end(), [](const SpanStats& a, const SpanStats& b) {
    return a.total_s > b.total_s;
  });
  return out;
}

void write_span_stats(std::ostream& out,
                      const std::vector<SpanStats>& stats) {
  if (stats.empty()) return;
  std::size_t width = 4;
  for (const SpanStats& s : stats) {
    width = std::max(width, std::string_view(s.name).size());
  }
  out << std::left << std::setw(static_cast<int>(width)) << "span"
      << std::right << std::setw(12) << "count" << std::setw(14) << "total_s"
      << std::setw(14) << "mean_s" << std::setw(14) << "min_s"
      << std::setw(14) << "max_s" << "\n";
  for (const SpanStats& s : stats) {
    out << std::left << std::setw(static_cast<int>(width)) << s.name
        << std::right << std::setw(12) << s.count << std::fixed
        << std::setprecision(6) << std::setw(14) << s.total_s << std::setw(14)
        << s.mean_s() << std::setw(14) << s.min_s << std::setw(14) << s.max_s
        << "\n";
  }
  out.unsetf(std::ios::fixed);
}

}  // namespace sb::obs
