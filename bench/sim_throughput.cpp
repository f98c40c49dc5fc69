// Simulator replay throughput: calls replayed per second, sequential and
// across thread counts, driving the plan-backed controller allocator on a
// busy design-day window (DESIGN.md "Batched replay engine"). The
// `batched_t<threads>_calls_per_s` lines continue BENCH_sim.json, which
// keeps the historical comparison against the heap-driven reference engine
// this one replaced (4.4x sequential, 3.8x at 8 threads).
//
// Flags: --plan_configs=30 --cushion=1.3 --window_h=2 --amplify=300
//        --reps=3. A bad flag prints usage to stderr and exits 2.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <iostream>
#include <string>

#include "bench_util.h"
#include "core/controller.h"
#include "loop/demand_schedule.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace {

constexpr const char* kUsage =
    "usage: sim_throughput [--plan_configs=1..100000] [--cushion=1..100]\n"
    "                      [--window_h=0.01..24] [--amplify=1..10000]\n"
    "                      [--reps=1..100]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  using Clock = std::chrono::steady_clock;
  bench::Flags flags(argc, argv, kUsage);
  const auto plan_configs =
      static_cast<std::size_t>(flags.whole("plan_configs", 30, 1, 100000));
  const double cushion = flags.number("cushion", 1.3, 1.0, 100.0);
  const double window_s =
      flags.number("window_h", 2.0, 0.01, 24.0) * kSecondsPerHour;
  const double amplify = flags.number("amplify", 300.0, 1.0, 10000.0);
  const auto reps = static_cast<std::size_t>(flags.whole("reps", 3, 1, 100));
  flags.finish();
  // Throughput is the subject here; span recording is per-event overhead
  // benchmarked by the obs suite.
  obs::SpanRecorder::global().set_enabled(false);

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};

  const double slot_s = 3600.0;
  // The scenario's base call rate is a few calls a minute — far too sparse
  // to load a replay engine. Amplify both the trace (deterministic
  // duplication via DemandSchedule::scale_trace) and the plan demand by the
  // same factor, so the plan-slot path sees production-like call volume.
  DemandMatrix demand =
      design_day_demand(scenario, slot_s, plan_configs, cushion);
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      demand.set_demand(t, c, demand.demand(t, c) * amplify);
    }
  }
  ControllerOptions options;
  options.provision.include_link_failures = false;
  Switchboard controller(ctx, options);
  (void)controller.provision(demand);

  // A mid-morning busy window; every timed run replays exactly this trace.
  const double window_start = kSecondsPerDay + 10.0 * kSecondsPerHour;
  loop::DemandSchedule amp;
  amp.add_phase({0.0, 2.0 * kSecondsPerDay, amplify, LocationId()});
  const CallRecordDatabase db = amp.scale_trace(
      scenario.trace->generate(window_start, window_start + window_s), 1);
  const auto calls = static_cast<double>(db.size());

  Simulator sim(ctx);
  std::cout << "simulator replay throughput: " << db.size()
            << " calls over " << window_s / kSecondsPerHour
            << " h, plan-driven allocator, best of " << reps << " reps\n\n";

  const std::size_t thread_counts[] = {1, 2, 4, 8};
  TextTable table({"threads", "calls/s", "run s"});
  for (const std::size_t threads : thread_counts) {
    double best = 0.0;
    for (std::size_t rep = 0; rep < reps; ++rep) {
      controller.build_allocation_plan(demand, kSecondsPerDay);
      ControllerAllocator alloc(controller);
      const auto t0 = Clock::now();
      if (threads <= 1) {
        (void)sim.run(db, alloc, 300.0);
      } else {
        (void)sim.run_concurrent(db, alloc, 300.0, threads);
      }
      const double dt =
          std::chrono::duration<double>(Clock::now() - t0).count();
      best = std::max(best, calls / dt);
    }
    table.row().cell(threads).cell(best, 0).cell(calls / best, 3);
    bench::emit_json("sim_throughput",
                     "batched_t" + std::to_string(threads) + "_calls_per_s",
                     best);
  }
  std::cout << table;
  bench::emit_json("sim_throughput", "calls", calls);
  return 0;
}
