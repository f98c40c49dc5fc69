// sb_report: offline renderer for the observability artifacts the tools and
// benches write — a Chrome trace-event span dump (--trace-out), a
// TimeSeriesRecorder CSV (--timeseries-out), and a MetricsRegistry snapshot
// (--metrics-out) — into one human-readable summary or a single JSON object.
//
//   sb_report --trace trace.json                 # per-name span statistics
//   sb_report --timeseries series.csv            # counter/gauge evolution
//   sb_report --metrics metrics.json             # final registry totals
//   sb_report --trace t.json --json              # machine-readable summary
//
// Any combination of inputs is accepted; at least one is required. The
// trace reader understands exactly what obs::write_chrome_trace emits (one
// complete "X" event per span), so a flight-recorder dump from a failed
// sb_fuzz run renders the same way a full-session trace does.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/json.h"
#include "common/csv.h"
#include "common/error.h"
#include "common/table.h"
#include "obs/span.h"
#include "obs/trace_export.h"

namespace {

using sb::check::Json;

struct Args {
  std::string trace;
  std::string timeseries;
  std::string metrics;
  bool json = false;
};

void usage() {
  std::fprintf(stderr,
               "usage: sb_report [--trace FILE] [--timeseries FILE]\n"
               "                 [--metrics FILE] [--json]\n");
}

bool parse_args(int argc, char** argv, Args& a) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--trace") {
      const char* v = next();
      if (v == nullptr) return false;
      a.trace = v;
    } else if (arg == "--timeseries") {
      const char* v = next();
      if (v == nullptr) return false;
      a.timeseries = v;
    } else if (arg == "--metrics") {
      const char* v = next();
      if (v == nullptr) return false;
      a.metrics = v;
    } else if (arg == "--json") {
      a.json = true;
    } else {
      std::fprintf(stderr, "sb_report: unknown argument %s\n", arg.c_str());
      return false;
    }
  }
  return !a.trace.empty() || !a.timeseries.empty() || !a.metrics.empty();
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw sb::Error("sb_report: cannot read " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

sb::obs::Subsystem subsystem_of(const std::string& cat) {
  using sb::obs::Subsystem;
  for (const Subsystem s :
       {Subsystem::kController, Subsystem::kRealtime, Subsystem::kDrain,
        Subsystem::kLp, Subsystem::kProvisioner, Subsystem::kSim,
        Subsystem::kCheck}) {
    if (cat == to_string(s)) return s;
  }
  return Subsystem::kOther;
}

// ---------------------------------------------------------------- trace ----

struct TraceReport {
  std::uint64_t spans = 0;
  std::uint64_t threads = 0;
  std::uint64_t roots = 0;
  double wall_span_s = 0.0;  ///< last end minus first start
  std::vector<sb::obs::SpanStats> stats;
};

/// Reads a write_chrome_trace() dump back into SpanData (names interned in
/// `names` — keep it alive as long as the report is used).
TraceReport read_trace(const std::string& path, std::deque<std::string>& names,
                       std::vector<sb::obs::SpanData>& spans) {
  const Json doc = Json::parse(slurp(path));
  const Json::Array& events = doc.get("traceEvents").as_array();
  std::map<std::string, const char*> interned;
  std::map<double, bool> tids;
  double t_min = 0.0, t_max = 0.0;
  TraceReport rep;
  for (const Json& ev : events) {
    const Json::Object& e = ev.as_object();
    const auto ph = e.find("ph");
    if (ph == e.end() || ph->second.as_string() != "X") continue;
    sb::obs::SpanData s;
    const std::string& name = e.at("name").as_string();
    auto it = interned.find(name);
    if (it == interned.end()) {
      names.push_back(name);
      it = interned.emplace(name, names.back().c_str()).first;
    }
    s.name = it->second;
    const auto cat = e.find("cat");
    s.subsystem = subsystem_of(cat == e.end() ? "" : cat->second.as_string());
    const double ts_us = e.at("ts").as_number();
    const double dur_us = e.at("dur").as_number();
    s.wall_start_ns = static_cast<std::int64_t>(ts_us * 1e3);
    s.wall_end_ns = static_cast<std::int64_t>((ts_us + dur_us) * 1e3);
    const auto tid = e.find("tid");
    if (tid != e.end()) {
      s.thread = static_cast<std::uint32_t>(tid->second.as_u64());
      tids[tid->second.as_number()] = true;
    }
    const auto args = e.find("args");
    if (args != e.end() && args->second.is_object()) {
      const Json::Object& a = args->second.as_object();
      const auto id = a.find("span");
      if (id != a.end()) s.id = id->second.as_u64();
      const auto parent = a.find("parent");
      if (parent != a.end()) s.parent = parent->second.as_u64();
      const auto sim = a.find("sim_time");
      if (sim != a.end()) s.sim_time = sim->second.as_number();
    }
    if (rep.spans == 0 || s.wall_start_ns < t_min) {
      t_min = static_cast<double>(s.wall_start_ns);
    }
    t_max = std::max(t_max, static_cast<double>(s.wall_end_ns));
    if (s.parent == 0) ++rep.roots;
    ++rep.spans;
    spans.push_back(s);
  }
  rep.threads = tids.size();
  rep.wall_span_s = rep.spans == 0 ? 0.0 : (t_max - t_min) * 1e-9;
  rep.stats = sb::obs::span_stats(spans);
  return rep;
}

Json trace_json(const TraceReport& rep) {
  Json::Object out;
  out["spans"] = rep.spans;
  out["threads"] = rep.threads;
  out["roots"] = rep.roots;
  out["wall_span_s"] = rep.wall_span_s;
  Json::Array by_name;
  for (const sb::obs::SpanStats& s : rep.stats) {
    Json::Object row;
    row["name"] = std::string(s.name);
    row["subsystem"] = std::string(to_string(s.subsystem));
    row["count"] = s.count;
    row["total_s"] = s.total_s;
    row["mean_s"] = s.mean_s();
    row["min_s"] = s.min_s;
    row["max_s"] = s.max_s;
    by_name.emplace_back(std::move(row));
  }
  out["by_name"] = Json(std::move(by_name));
  return Json(std::move(out));
}

void trace_text(std::ostream& out, const std::string& path,
                const TraceReport& rep) {
  sb::print_banner(out, "span trace: " + path);
  out << rep.spans << " span(s), " << rep.roots << " root(s), "
      << rep.threads << " thread(s), "
      << sb::format_double(rep.wall_span_s, 3) << " s wall span\n\n";
  sb::obs::write_span_stats(out, rep.stats);
}

// ----------------------------------------------------------- timeseries ----

struct SeriesColumn {
  std::string name;
  double first = 0.0;
  double last = 0.0;
  double min = 0.0;
  double max = 0.0;
};

struct SeriesReport {
  std::size_t samples = 0;
  double t_first = 0.0;
  double t_last = 0.0;
  std::vector<SeriesColumn> columns;
};

/// Reads a TimeSeriesRecorder CSV. The writer quotes fields (RFC 4180), so
/// a column name may hold commas; parse_csv keeps it whole.
SeriesReport read_timeseries(const std::string& path) {
  const std::vector<std::vector<std::string>> rows =
      sb::parse_csv(slurp(path));
  if (rows.empty()) {
    throw sb::Error("sb_report: empty time-series file " + path);
  }
  const std::vector<std::string>& header = rows.front();
  if (header.front() != "t_s") {
    throw sb::Error("sb_report: " + path + " is not a TimeSeriesRecorder CSV");
  }
  SeriesReport rep;
  rep.columns.resize(header.size() - 1);
  for (std::size_t c = 1; c < header.size(); ++c) {
    rep.columns[c - 1].name = header[c];
  }
  for (std::size_t r = 1; r < rows.size(); ++r) {
    const std::vector<std::string>& row = rows[r];
    const double t = std::strtod(row.front().c_str(), nullptr);
    if (rep.samples == 0) rep.t_first = t;
    rep.t_last = t;
    for (std::size_t c = 1; c < row.size() && c < header.size(); ++c) {
      const double v = std::strtod(row[c].c_str(), nullptr);
      SeriesColumn& col = rep.columns[c - 1];
      if (rep.samples == 0) {
        col.first = col.last = col.min = col.max = v;
      } else {
        col.last = v;
        col.min = std::min(col.min, v);
        col.max = std::max(col.max, v);
      }
    }
    ++rep.samples;
  }
  return rep;
}

bool is_counter_column(const std::string& name) {
  return name.rfind("counter:", 0) == 0;
}

Json timeseries_json(const SeriesReport& rep) {
  Json::Object out;
  out["samples"] = rep.samples;
  out["t_first_s"] = rep.t_first;
  out["t_last_s"] = rep.t_last;
  Json::Array cols;
  for (const SeriesColumn& c : rep.columns) {
    Json::Object row;
    row["column"] = c.name;
    row["first"] = c.first;
    row["last"] = c.last;
    row["min"] = c.min;
    row["max"] = c.max;
    if (is_counter_column(c.name)) row["delta"] = c.last - c.first;
    cols.emplace_back(std::move(row));
  }
  out["columns"] = Json(std::move(cols));
  return Json(std::move(out));
}

void timeseries_text(std::ostream& out, const std::string& path,
                     const SeriesReport& rep) {
  sb::print_banner(out, "time series: " + path);
  out << rep.samples << " sample(s) over t = ["
      << sb::format_double(rep.t_first, 1) << ", "
      << sb::format_double(rep.t_last, 1) << "] s, " << rep.columns.size()
      << " column(s)\n\n";
  if (rep.columns.empty()) return;
  sb::TextTable table({"column", "first", "last", "min", "max", "delta"});
  for (const SeriesColumn& c : rep.columns) {
    table.row()
        .cell(c.name)
        .cell(c.first, 2)
        .cell(c.last, 2)
        .cell(c.min, 2)
        .cell(c.max, 2)
        .cell(is_counter_column(c.name)
                  ? sb::format_double(c.last - c.first, 0)
                  : std::string("-"));
  }
  out << table;
}

// -------------------------------------------------------------- metrics ----

void metrics_text(std::ostream& out, const std::string& path,
                  const Json& doc) {
  sb::print_banner(out, "metrics snapshot: " + path);
  const Json::Object& counters = doc.get("counters").as_object();
  const Json::Object& gauges = doc.get("gauges").as_object();
  const Json::Object& histograms = doc.get("histograms").as_object();
  if (!counters.empty() || !gauges.empty()) {
    sb::TextTable table({"metric", "kind", "value"});
    for (const auto& [name, value] : counters) {
      table.row().cell(name).cell("counter").cell(
          static_cast<std::uint64_t>(value.as_u64()));
    }
    for (const auto& [name, value] : gauges) {
      table.row().cell(name).cell("gauge").cell(value.as_number(), 2);
    }
    out << table << "\n";
  }
  if (!histograms.empty()) {
    sb::TextTable table(
        {"histogram", "count", "mean", "p50", "p99", "min", "max"});
    for (const auto& [name, h] : histograms) {
      table.row()
          .cell(name)
          .cell(static_cast<std::uint64_t>(h.get_or("count", 0.0)))
          .cell(h.get_or("mean", 0.0), 4)
          .cell(h.get_or("p50", 0.0), 4)
          .cell(h.get_or("p99", 0.0), 4)
          .cell(h.get_or("min", 0.0), 4)
          .cell(h.get_or("max", 0.0), 4);
    }
    out << table;
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  if (!parse_args(argc, argv, a)) {
    usage();
    return 2;
  }
  try {
    Json::Object summary;
    std::deque<std::string> names;
    std::vector<sb::obs::SpanData> spans;
    if (!a.trace.empty()) {
      const TraceReport rep = read_trace(a.trace, names, spans);
      if (a.json) {
        summary["trace"] = trace_json(rep);
      } else {
        trace_text(std::cout, a.trace, rep);
      }
    }
    if (!a.timeseries.empty()) {
      const SeriesReport rep = read_timeseries(a.timeseries);
      if (a.json) {
        summary["timeseries"] = timeseries_json(rep);
      } else {
        timeseries_text(std::cout, a.timeseries, rep);
      }
    }
    if (!a.metrics.empty()) {
      const Json doc = Json::parse(slurp(a.metrics));
      if (a.json) {
        summary["metrics"] = doc;
      } else {
        metrics_text(std::cout, a.metrics, doc);
      }
    }
    if (a.json) std::cout << Json(std::move(summary)).dump(2) << "\n";
    return 0;
  } catch (const sb::Error& e) {
    std::fprintf(stderr, "sb_report: %s\n", e.what());
    return 1;
  }
}
