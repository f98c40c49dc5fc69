// Reproduces Fig 10: controller throughput as a function of the number of
// writer threads. Each call-signaling event (call start, participant join,
// config freeze, call end) updates controller state and writes it to the
// KV store (the paper's Redis), whose simulated per-op latency is the
// 0.3-4.2 ms range reported in §6.6. Threads overlap those waits, so
// throughput scales with the thread count; the paper sustains 1.4x the
// trace's peak load with 10 threads.
//
// Per-event-type latency percentiles come from the sb::obs registry (the
// controller times every event into sb.realtime.* histograms); each
// thread-count run is isolated with a snapshot diff. Build with
// -DSB_METRICS=OFF to measure the metrics layer's own overhead on this
// bench (EXPERIMENTS.md records the comparison).
//
// The realtime layer is lock-striped (no global event mutex), so the sweep
// doubles as the scaling check for the sharded call path: >2x the
// single-thread event rate at 8 threads is the acceptance bar.
//
// Flags: --hours=1 --threads_max=N (sweep 1..N; default covers
// hw_concurrency and at least 8) --threads=N (measure just 1 and N).
// Machine-readable results are emitted as `{"bench": ...}` JSON lines. A
// bad flag prints usage to stderr and exits 2 before any replay.
//
// Observability flags (the span-overhead experiment in BENCH_obs.json):
//   --tracing=on|off|flight  span recording mode — on (default ring), off
//                            (recorder disabled: one relaxed load per span
//                            site), flight (small 1024-slot ring, the
//                            black-box mode sb_fuzz arms)
//   --trace-out=FILE         Chrome trace-event dump at exit
//   --timeseries-out=FILE    TimeSeriesRecorder CSV sampled on the trace's
//                            sim clock (call start times) during the replay
#include <atomic>
#include <chrono>
#include <fstream>
#include <iostream>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/controller.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace_export.h"

namespace sb {
namespace {

constexpr const char* kUsage =
    "usage: fig10_controller_throughput [--hours=0.01..24]\n"
    "           [--threads_max=1..256] [--threads=1..256]\n"
    "           [--tracing=on|off|flight] [--trace-out=FILE]\n"
    "           [--timeseries-out=FILE]\n";

struct CallWork {
  const CallRecord* record;
  const CallConfig* config;
};

/// Replays one call's full event sequence against the controller + store.
/// Returns the number of store-backed events processed. `telemetry`
/// (optional) is offered the record's start time as the sim clock, so the
/// time-series cadence follows the trace rather than the wall clock.
std::size_t replay_call(Switchboard& controller, KvStore& store,
                        const CallWork& work,
                        obs::TimeSeriesRecorder* telemetry) {
  if (telemetry != nullptr) telemetry->sample(work.record->start_s);
  const CallRecord& r = *work.record;
  std::size_t events = 0;
  controller.call_started(r.id, r.legs.front().location, r.start_s);
  ++events;
  const std::string legs_key = "call:" + std::to_string(r.id.value()) + ":legs";
  for (std::size_t leg = 1; leg < r.legs.size(); ++leg) {
    // §6.6: "these threads write back to Redis the changes to the call
    // config as additional participants join".
    store.incr(legs_key, 1);
    ++events;
  }
  if (r.duration_s > controller.freeze_delay_s()) {
    controller.config_frozen(r.id, *work.config,
                             r.start_s + controller.freeze_delay_s());
    ++events;
  }
  controller.call_ended(r.id, r.start_s + r.duration_s);
  ++events;
  return events;
}

}  // namespace

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv, kUsage);
  const double hours = flags.number("hours", 1.0, 0.01, 24.0);
  // Default sweep reaches hardware_concurrency and at least the paper's
  // interesting range (the acceptance point is 8 threads).
  const std::size_t default_max = std::max<std::size_t>(
      {std::thread::hardware_concurrency(), 8, 1});
  const auto threads_max = static_cast<std::size_t>(flags.whole(
      "threads_max", static_cast<double>(default_max), 1, 256));
  const auto threads_only =
      static_cast<std::size_t>(flags.whole("threads", 0, 1, 256));
  const std::string tracing = flags.text("tracing", "on");
  const std::string trace_out = flags.text("trace-out", "");
  const std::string timeseries_out = flags.text("timeseries-out", "");
  flags.finish();

  if (tracing == "off") {
    obs::SpanRecorder::global().set_enabled(false);
  } else if (tracing == "flight") {
    obs::SpanRecorder::global().configure(
        {.enabled = true, .ring_capacity = 1024});
  } else if (tracing == "on") {
    obs::SpanRecorder::global().configure({.enabled = true});
  } else {
    flags.fail("bad value '--tracing=" + tracing + "' (want on|off|flight)");
  }
  obs::TimeSeriesRecorder telemetry(&obs::MetricsRegistry::global(),
                                    {.period_s = 60.0});

  std::vector<std::size_t> sweep;
  if (threads_only > 0) {
    sweep.push_back(1);
    if (threads_only > 1) sweep.push_back(threads_only);
  } else {
    for (std::size_t t = 1; t <= threads_max; t = t < 2 ? 2 : t + 2) {
      sweep.push_back(t);
    }
  }

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};

  const double start = kSecondsPerDay + 2.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(start, start + hours * kSecondsPerHour);
  std::vector<CallWork> work;
  work.reserve(db.size());
  std::size_t total_events = 0;
  for (const CallRecord& r : db.records()) {
    work.push_back({&r, &scenario.registry->get(r.config)});
    total_events += 1 + (r.legs.size() - 1) +
                    (r.duration_s > 300.0 ? 1 : 0) + 1;
  }

  // Peak event arrival rate of the trace (busiest 60 s window).
  std::vector<std::size_t> per_minute(
      static_cast<std::size_t>(hours * 60.0) + 1, 0);
  for (const CallRecord& r : db.records()) {
    const auto m = static_cast<std::size_t>((r.start_s - start) / 60.0);
    per_minute[std::min(m, per_minute.size() - 1)] +=
        2 + r.legs.size();  // rough events per call
  }
  double peak_rate = 0.0;
  for (std::size_t count : per_minute) {
    peak_rate = std::max(peak_rate, static_cast<double>(count) / 60.0);
  }

  std::cout << "Fig 10: controller throughput vs KV-store writer threads\n"
            << "trace: " << db.size() << " calls, " << total_events
            << " events, peak event rate "
            << format_double(peak_rate, 1) << "/s\n"
            << "KV write latency: 0.3-4.2 ms (log-uniform; the paper's "
               "observed Redis range)\n\n";

  // Latency columns are p50/p99 of the controller's per-event histograms
  // (sb.realtime.{start,freeze,end}_latency_s), in ms, isolated per run by
  // diffing registry snapshots. events/s is likewise counted by the
  // registry: every replayed event performs exactly one KV op.
  TextTable table({"threads", "events/s", "speedup", "x trace peak",
                   "start p50/p99 ms", "freeze p50/p99 ms", "end p50/p99 ms"});
  const auto latency_cell = [](const obs::MetricsSnapshot& delta,
                               const char* name) {
    const obs::HistogramSample* h = delta.find_histogram(name);
    if (h == nullptr || h->data.count == 0) return std::string("n/a");
    return format_double(h->data.p50() * 1e3, 2) + "/" +
           format_double(h->data.p99() * 1e3, 2);
  };
  double base_rate = 0.0;
  for (std::size_t threads : sweep) {
    KvStore store;
    ControllerOptions options;
    Switchboard controller(ctx, options);
    controller.attach_store(&store);

    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> events{0};
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<std::thread> workers;
    for (std::size_t t = 0; t < threads; ++t) {
      workers.emplace_back([&] {
        for (;;) {
          const std::size_t i = next.fetch_add(1);
          if (i >= work.size()) return;
          events += replay_call(controller, store, work[i],
                                timeseries_out.empty() ? nullptr : &telemetry);
        }
      });
    }
    for (auto& w : workers) w.join();
    const double elapsed =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    const obs::MetricsSnapshot delta = obs::snapshot_diff(
        before, obs::MetricsRegistry::global().snapshot());
    // With metrics compiled in, trust the registry's event count (one KV op
    // per event); in a -DSB_METRICS=OFF build fall back to the local tally.
    const std::uint64_t counted =
        delta.counter_value("sb.kvstore.ops", events.load());
    const double rate = static_cast<double>(counted) / elapsed;
    if (base_rate == 0.0) base_rate = rate;
    table.row()
        .cell(static_cast<std::uint64_t>(threads))
        .cell(rate, 0)
        .cell(rate / base_rate)
        .cell(rate / peak_rate, 1)
        .cell(latency_cell(delta, "sb.realtime.start_latency_s"))
        .cell(latency_cell(delta, "sb.realtime.freeze_latency_s"))
        .cell(latency_cell(delta, "sb.realtime.end_latency_s"));
    const std::string suffix = ".t" + std::to_string(threads);
    bench::emit_json("fig10_controller_throughput", "events_per_s" + suffix,
                     rate);
    bench::emit_json("fig10_controller_throughput", "speedup" + suffix,
                     rate / base_rate);
  }
  std::cout << table;
  bench::emit_json("fig10_controller_throughput", "peak_event_rate_per_s",
                   peak_rate);
  std::cout << "\nthroughput scales with threads (threads overlap ~ms store "
               "writes); the paper reports 1.4x its production peak at 10 "
               "threads — our synthetic trace peak is far smaller than "
               "Teams's, hence the larger multiples\n";

  if (!timeseries_out.empty()) {
    // Last sample carries the final totals regardless of cadence alignment.
    telemetry.force_sample(start + hours * kSecondsPerHour);
    std::ofstream out(timeseries_out);
    if (out) {
      telemetry.write_csv(out);
      std::cout << "time series written to " << timeseries_out << " ("
                << telemetry.sample_count() << " samples, "
                << telemetry.column_count() << " columns)\n";
    } else {
      std::cerr << "cannot write " << timeseries_out << "\n";
    }
  }
  if (!trace_out.empty()) {
    std::uint64_t dropped = 0;
    if (obs::dump_chrome_trace(trace_out, &dropped)) {
      std::cout << "trace written to " << trace_out
                << (dropped > 0 ? " (ring wrapped; oldest spans dropped)" : "")
                << "\n";
    } else {
      std::cerr << "cannot write " << trace_out << "\n";
    }
  }
  return 0;
}

}  // namespace sb

int main(int argc, char** argv) { return sb::run(argc, argv); }
