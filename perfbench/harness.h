// Measurement plumbing shared by the perfbench workloads: result
// collection, order statistics, span self-time folding, the closed-loop
// signalling driver, and a CallAllocator decorator that times the
// closed loop's replans and the fault hooks from outside the library.
#pragma once

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "calls/call_record.h"
#include "core/controller.h"
#include "loop/adaptive.h"
#include "obs/span.h"
#include "sim/allocator.h"
#include "sim/simulator.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Median of `values`, interpolated between the middle two (0 for none).
double median(std::vector<double> values);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run reports: the correctness verdict, the attempted and
/// failed operation counts, and the metrics of the requested kind.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  ///< violated output checks
  std::vector<Metric> metrics;

  void check(bool ok, const std::string& what) {
    if (!ok) errors.push_back(what);
  }
  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Latency histogram with geometric bins 0.1% wide from 1 ns to 1 s, so a
/// run keeps a fixed ~170 KB however many events it times. Quantiles are
/// exact to the bin width: interpolated by rank inside the bin.
class LatencyHistogram {
 public:
  LatencyHistogram();
  void add(const std::vector<float>& samples_us);
  [[nodiscard]] std::uint64_t count() const { return count_; }
  /// The q-quantile in microseconds (0 when empty).
  [[nodiscard]] double quantile(double q) const;

 private:
  std::vector<std::uint64_t> bins_;
  std::uint64_t count_ = 0;
};

/// Peak resident set of this process in MB (getrusage).
double peak_rss_mb();

/// FNV-1a digest of a hosting log, event by event. Sequential replays are
/// deterministic, so equal inputs must give equal digests.
std::uint64_t digest(const sb::HostingLog& log);

/// Started / ended / dropped tallies of a hosting log.
struct LogTally {
  std::uint64_t started = 0;
  std::uint64_t ended = 0;
  std::uint64_t dropped = 0;
};
LogTally tally(const sb::HostingLog& log);

/// Folds the global span recorder into per-name totals and self times. A
/// span's self time is its duration minus the union of its children's
/// intervals (children may run on other threads). fold() drains the
/// recorder, so it must run while no thread is recording; children whose
/// parent is still open are kept until the parent arrives in a later fold.
class SpanLedger {
 public:
  struct Entry {
    std::uint64_t count = 0;
    double total_s = 0.0;
    double self_s = 0.0;
  };

  void fold();
  [[nodiscard]] const Entry& get(const std::string& name) const;
  [[nodiscard]] std::uint64_t dropped() const { return dropped_; }
  /// Self time summed per layer (see layer_of).
  [[nodiscard]] std::map<std::string, double> layer_self_s() const;

  /// The layer a span name belongs to, from its prefix.
  [[nodiscard]] static std::string layer_of(const std::string& name);

 private:
  using Interval = std::pair<std::int64_t, std::int64_t>;
  std::map<std::string, Entry> by_name_;
  std::unordered_map<std::uint64_t, std::vector<Interval>> pending_children_;
  std::uint64_t dropped_ = 0;
};

/// One call's three signalling events, in the order a client issues them.
struct CallEvents {
  const sb::CallRecord* record = nullptr;
  const sb::CallConfig* config = nullptr;
  bool freezes = false;
};

/// Result of a closed-loop signalling pass.
struct SignalResult {
  std::uint64_t calls = 0;
  std::uint64_t events = 0;
  std::uint64_t throws = 0;
  double wall_s = 0.0;  ///< excludes time spent in between_segments
  std::vector<float> latency_us;  ///< one sample per event
};

/// Closed-loop signalling: `clients` threads, thread i owning every call
/// with CallId % clients == i and issuing that share's events in time
/// order, each event timed on its own. `passes` replays the whole trace
/// that many times (every pass ends quiescent, so passes chain without a
/// plan rebuild). Each client's share is cut into `segments` pieces with a
/// barrier between them; `between_segments` runs on one thread while all
/// clients wait (the traced run folds spans there so the rings never wrap).
/// Every segment runs inside a `bench.client` span parented to
/// `parent_span`. `Target` has the Switchboard event signature.
template <typename Target, typename Between>
SignalResult signal_pass(Target& target, const std::vector<CallEvents>& calls,
                         double freeze_delay_s, std::size_t clients,
                         std::size_t passes, std::size_t segments,
                         std::uint64_t parent_span, Between&& between_segments);

/// CallAllocator decorator. Forwards every hook and times the DC-failure
/// hook. Over the closed loop (`loop` non-null, the same object as `inner`)
/// it also times batch_end, counting it as a replan when
/// AdaptiveController::stats().replans rose during it, and wraps it in a
/// `loop.tick` span for the traced run.
class TimedAllocator : public sb::CallAllocator {
 public:
  explicit TimedAllocator(sb::CallAllocator& inner,
                          const sb::loop::AdaptiveController* loop = nullptr)
      : inner_(&inner), loop_(loop) {}

  void batch_begin() override { inner_->batch_begin(); }
  void batch_end(sb::SimTime now) override;
  sb::DcId on_call_start(sb::CallId call, sb::LocationId first_joiner,
                         sb::SimTime now) override {
    return inner_->on_call_start(call, first_joiner, now);
  }
  sb::FreezeResult on_config_frozen(sb::CallId call,
                                    const sb::CallConfig& config,
                                    sb::SimTime now) override {
    return inner_->on_config_frozen(call, config, now);
  }
  sb::FreezeResult on_config_frozen(sb::CallId call, sb::ConfigId id,
                                    const sb::CallConfig& config,
                                    sb::SimTime now) override {
    return inner_->on_config_frozen(call, id, config, now);
  }
  void on_call_end(sb::CallId call, sb::SimTime now) override {
    inner_->on_call_end(call, now);
  }
  sb::fault::FailoverOutcome on_dc_failed(sb::DcId dc,
                                          sb::SimTime now) override;
  void on_dc_recovered(sb::DcId dc, sb::SimTime now) override {
    inner_->on_dc_recovered(dc, now);
  }
  void on_link_failed(sb::LinkId link, sb::SimTime now) override {
    inner_->on_link_failed(link, now);
  }
  void on_link_recovered(sb::LinkId link, sb::SimTime now) override {
    inner_->on_link_recovered(link, now);
  }
  sb::fault::FailoverOutcome on_server_failed(sb::ServerId server,
                                              sb::SimTime now) override {
    return inner_->on_server_failed(server, now);
  }
  void on_server_recovered(sb::ServerId server, sb::SimTime now) override {
    inner_->on_server_recovered(server, now);
  }
  [[nodiscard]] std::string name() const override { return inner_->name(); }

  [[nodiscard]] const std::vector<double>& replan_ms() const {
    return replan_ms_;
  }
  [[nodiscard]] double drain_ms() const { return drain_ms_; }

 private:
  sb::CallAllocator* inner_;
  const sb::loop::AdaptiveController* loop_;
  std::vector<double> replan_ms_;
  double drain_ms_ = 0.0;
};

// ---- signal_pass implementation -------------------------------------------

template <typename Target, typename Between>
SignalResult signal_pass(Target& target, const std::vector<CallEvents>& calls,
                         double freeze_delay_s, std::size_t clients,
                         std::size_t passes, std::size_t segments,
                         std::uint64_t parent_span, Between&& between_segments) {
  struct Event {
    sb::SimTime time;
    std::uint32_t call;  ///< index into `calls`
    std::uint8_t kind;   ///< 0 start, 1 freeze, 2 end
  };
  clients = std::max<std::size_t>(clients, 1);
  segments = std::max<std::size_t>(segments, 1);
  std::vector<std::vector<Event>> owned(clients);
  for (std::size_t i = 0; i < calls.size(); ++i) {
    const sb::CallRecord& r = *calls[i].record;
    auto& mine = owned[r.id.value() % clients];
    const auto idx = static_cast<std::uint32_t>(i);
    mine.push_back({r.start_s, idx, 0});
    if (calls[i].freezes) mine.push_back({r.start_s + freeze_delay_s, idx, 1});
    mine.push_back({r.start_s + r.duration_s, idx, 2});
  }
  for (auto& mine : owned) {
    std::stable_sort(mine.begin(), mine.end(),
                     [](const Event& a, const Event& b) {
                       return a.time < b.time;
                     });
  }

  SignalResult result;
  std::vector<std::vector<float>> samples(clients);
  std::vector<std::uint64_t> throws(clients, 0);
  double paused_s = 0.0;
  std::barrier sync(static_cast<std::ptrdiff_t>(clients),
                    [&between_segments, &paused_s]() noexcept {
                      const auto t0 = Clock::now();
                      between_segments();
                      paused_s += seconds_since(t0);
                    });
  std::barrier start(static_cast<std::ptrdiff_t>(clients) + 1);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (std::size_t c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Event>& mine = owned[c];
      std::vector<float>& lat = samples[c];
      lat.reserve(mine.size() * passes);
      start.arrive_and_wait();
      for (std::size_t p = 0; p < passes; ++p) {
        for (std::size_t s = 0; s < segments; ++s) {
          const std::size_t lo = mine.size() * s / segments;
          const std::size_t hi = mine.size() * (s + 1) / segments;
          sb::obs::Span client("bench.client", sb::obs::Subsystem::kOther,
                               sb::obs::kNoSimTime, parent_span);
          for (std::size_t e = lo; e < hi; ++e) {
            const Event& ev = mine[e];
            const CallEvents& call = calls[ev.call];
            const sb::CallRecord& r = *call.record;
            const auto t0 = Clock::now();
            try {
              if (ev.kind == 0) {
                (void)target.call_started(r.id, r.legs.front().location,
                                          ev.time);
              } else if (ev.kind == 1) {
                (void)target.config_frozen(r.id, *call.config, ev.time);
              } else {
                target.call_ended(r.id, ev.time);
              }
            } catch (...) {
              ++throws[c];
            }
            lat.push_back(static_cast<float>(
                std::chrono::duration<double, std::micro>(Clock::now() - t0)
                    .count()));
          }
          client.finish();
          sync.arrive_and_wait();
        }
      }
    });
  }
  start.arrive_and_wait();
  const auto t0 = Clock::now();
  for (auto& t : threads) t.join();
  result.wall_s = seconds_since(t0) - paused_s;
  result.calls = calls.size() * passes;
  for (std::size_t c = 0; c < clients; ++c) {
    result.events += samples[c].size();
    result.throws += throws[c];
    result.latency_us.insert(result.latency_us.end(), samples[c].begin(),
                             samples[c].end());
  }
  return result;
}

}  // namespace perfbench
