#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

namespace {
constexpr double kHistMinUs = 1e-3;
constexpr double kHistMaxUs = 1e6;
const double kHistLogGrowth = std::log(1.001);
}  // namespace

LatencyHistogram::LatencyHistogram()
    : bins_(static_cast<std::size_t>(
                std::log(kHistMaxUs / kHistMinUs) / kHistLogGrowth) +
            1) {}

void LatencyHistogram::add(const std::vector<float>& samples_us) {
  const double inv = 1.0 / kHistLogGrowth;
  const std::size_t last = bins_.size() - 1;
  for (const float us : samples_us) {
    std::size_t b = 0;
    if (us > kHistMinUs) {
      b = std::min(last, static_cast<std::size_t>(
                             std::log(us / kHistMinUs) * inv));
    }
    ++bins_[b];
  }
  count_ += samples_us.size();
}

double LatencyHistogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  const double rank = q * static_cast<double>(count_ - 1);
  std::uint64_t below = 0;
  for (std::size_t b = 0; b < bins_.size(); ++b) {
    if (bins_[b] == 0) continue;
    if (rank < static_cast<double>(below + bins_[b])) {
      const double frac = (rank - static_cast<double>(below) + 0.5) /
                          static_cast<double>(bins_[b]);
      return kHistMinUs *
             std::exp((static_cast<double>(b) + frac) * kHistLogGrowth);
    }
    below += bins_[b];
  }
  return kHistMaxUs;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::uint64_t digest(const sb::HostingLog& log) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ULL;
    }
  };
  for (const sb::HostingEvent& e : log.events) {
    std::uint64_t time_bits = 0;
    std::memcpy(&time_bits, &e.time, sizeof(time_bits));
    mix(e.record);
    mix(time_bits);
    mix(static_cast<std::uint64_t>(e.kind));
    mix(e.dc.value());
    mix(e.server.value());
  }
  return h;
}

LogTally tally(const sb::HostingLog& log) {
  LogTally t;
  for (const sb::HostingEvent& e : log.events) {
    switch (e.kind) {
      case sb::HostingEvent::Kind::kStart: ++t.started; break;
      case sb::HostingEvent::Kind::kEnd: ++t.ended; break;
      case sb::HostingEvent::Kind::kDrop: ++t.dropped; break;
      default: break;
    }
  }
  return t;
}

// ---- SpanLedger ------------------------------------------------------------

std::string SpanLedger::layer_of(const std::string& name) {
  const auto prefix = name.substr(0, name.find('.'));
  if (name == "ctl.provision") return "prov";
  if (name.rfind("ctl.plan_", 0) == 0 || name == "sel.rebind") return "plan";
  if (name == "ctl.dc_failed" || name == "ctl.server_failed" ||
      name == "sel.drain_dc" || name == "sel.drain_server" ||
      name == "sel.rehome") {
    return "drain";
  }
  if (prefix == "bench") return "bench";
  return prefix;  // lp, prov, ctl, sel, pack, sim, loop, cluster, trace, ...
}

void SpanLedger::fold() {
  sb::obs::SpanRecorder& recorder = sb::obs::SpanRecorder::global();
  const std::vector<sb::obs::SpanData> spans = recorder.collect();
  dropped_ += recorder.dropped();
  recorder.reset();

  std::unordered_map<std::uint64_t, std::vector<Interval>> children;
  for (const sb::obs::SpanData& s : spans) {
    if (s.parent != 0) {
      children[s.parent].emplace_back(s.wall_start_ns, s.wall_end_ns);
    }
  }
  std::unordered_map<std::uint64_t, bool> seen;
  seen.reserve(spans.size());
  for (const sb::obs::SpanData& s : spans) seen[s.id] = true;

  for (const sb::obs::SpanData& s : spans) {
    std::vector<Interval> kids;
    if (auto it = children.find(s.id); it != children.end()) {
      kids = std::move(it->second);
    }
    if (auto it = pending_children_.find(s.id);
        it != pending_children_.end()) {
      kids.insert(kids.end(), it->second.begin(), it->second.end());
      pending_children_.erase(it);
    }
    // Union of child intervals clipped to this span.
    std::int64_t covered = 0;
    if (!kids.empty()) {
      std::sort(kids.begin(), kids.end());
      std::int64_t cur_lo = 0;
      std::int64_t cur_hi = -1;
      bool open = false;
      for (auto [lo, hi] : kids) {
        lo = std::max(lo, s.wall_start_ns);
        hi = std::min(hi, s.wall_end_ns);
        if (hi <= lo) continue;
        if (open && lo <= cur_hi) {
          cur_hi = std::max(cur_hi, hi);
          continue;
        }
        if (open) covered += cur_hi - cur_lo;
        cur_lo = lo;
        cur_hi = hi;
        open = true;
      }
      if (open) covered += cur_hi - cur_lo;
    }
    const std::int64_t dur = s.wall_end_ns - s.wall_start_ns;
    Entry& e = by_name_[s.name];
    ++e.count;
    e.total_s += static_cast<double>(dur) * 1e-9;
    e.self_s += static_cast<double>(std::max<std::int64_t>(dur - covered, 0)) *
                1e-9;
  }
  // Children whose parent is still open: keep them for a later fold.
  for (auto& [parent, kids] : children) {
    if (seen.count(parent) != 0 || kids.empty()) continue;
    auto& pending = pending_children_[parent];
    pending.insert(pending.end(), kids.begin(), kids.end());
  }
}

const SpanLedger::Entry& SpanLedger::get(const std::string& name) const {
  static const Entry kEmpty;
  const auto it = by_name_.find(name);
  return it == by_name_.end() ? kEmpty : it->second;
}

std::map<std::string, double> SpanLedger::layer_self_s() const {
  std::map<std::string, double> out;
  for (const auto& [name, e] : by_name_) out[layer_of(name)] += e.self_s;
  return out;
}

// ---- TimedAllocator --------------------------------------------------------

void TimedAllocator::batch_end(sb::SimTime now) {
  if (loop_ == nullptr) {
    inner_->batch_end(now);
    return;
  }
  sb::obs::Span span("loop.tick", sb::obs::Subsystem::kOther, now);
  const std::uint64_t before = loop_->stats().replans;
  const auto t0 = Clock::now();
  inner_->batch_end(now);
  const double ms = seconds_since(t0) * 1e3;
  if (loop_->stats().replans > before) replan_ms_.push_back(ms);
}

sb::fault::FailoverOutcome TimedAllocator::on_dc_failed(sb::DcId dc,
                                                   sb::SimTime now) {
  const auto t0 = Clock::now();
  sb::fault::FailoverOutcome out = inner_->on_dc_failed(dc, now);
  drain_ms_ += seconds_since(t0) * 1e3;
  return out;
}

}  // namespace perfbench
