// Closed-loop autoscaling under a flash crowd (DESIGN.md "Closed-loop
// control"): the forecast is sized for the base design day, the truth trace
// carries a viral spike the forecast never saw, and a DC fails at the
// spike's peak. The open-loop controller keeps the stale plan and its
// provisioned failover budgets, so the drain sheds calls; the
// AdaptiveController observes the deviation through the telemetry feed,
// re-provisions with a warm-started LP, and installs the corrected plan
// before the fault lands — the same drain then fits inside the enlarged
// serving+backup budgets. The bench fails (exit 1) unless the open loop
// drops calls and the closed loop drops strictly fewer.
//
// Flags: --amplify=60 --peak=4.0 --cadence_s=300 --band=0.3. A bad flag
// (unknown, not a number, or out of range) prints usage to stderr and
// exits 2.
#include <cstddef>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/controller.h"
#include "fault/failover.h"
#include "fault/fault_schedule.h"
#include "loop/adaptive.h"
#include "loop/demand_schedule.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"

namespace {

constexpr const char* kUsage =
    "usage: sec_loop [--amplify=0.01..1000] [--peak=0.01..100]\n"
    "                [--cadence_s=1..86400] [--band=0..10]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const double amplify = flags.number("amplify", 60.0, 0.01, 1000.0);
  const double peak = flags.number("peak", 4.0, 0.01, 100.0);
  const double cadence_s = flags.number("cadence_s", 300.0, 1.0, 86400.0);
  const double band = flags.number("band", 0.3, 0.0, 10.0);
  flags.finish();
  obs::SpanRecorder::global().set_enabled(false);

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};

  // Forecast: the base design day, amplified, with no knowledge of the
  // spike. Both controllers provision and plan from exactly this matrix.
  const double slot_s = 3600.0;
  DemandMatrix forecast = design_day_demand(scenario, slot_s, 30);
  for (TimeSlot t = 0; t < forecast.slot_count(); ++t) {
    for (std::size_t c = 0; c < forecast.config_count(); ++c) {
      forecast.set_demand(t, c, forecast.demand(t, c) * amplify);
    }
  }

  // Truth: a window centered on the design day's busiest slot — where the
  // provisioned backup margins are thinnest — whose demand ramps to `peak`x,
  // holds, and decays, with the loaded DC dying mid-hold.
  TimeSlot peak_slot = 0;
  double peak_demand = 0.0;
  for (TimeSlot t = 0; t < forecast.slot_count(); ++t) {
    double total = 0.0;
    for (std::size_t c = 0; c < forecast.config_count(); ++c) {
      total += forecast.demand(t, c);
    }
    if (total > peak_demand) {
      peak_demand = total;
      peak_slot = t;
    }
  }
  const double peak_time =
      kSecondsPerDay + (static_cast<double>(peak_slot) + 0.5) * slot_s;
  const double window_s = 3.0 * kSecondsPerHour;
  const double window_start = peak_time - 0.5 * window_s;
  const double ramp_start = window_start + 20.0 * 60.0;
  const double ramp_s = 40.0 * 60.0;
  const double hold_s = 60.0 * 60.0;
  const double decay_s = 30.0 * 60.0;
  loop::DemandSchedule spike =
      loop::DemandSchedule::viral_spike(ramp_start, ramp_s, peak, hold_s,
                                        decay_s);
  spike.add_phase({0.0, 2.0 * kSecondsPerDay, amplify, LocationId()});
  const CallRecordDatabase db = spike.scale_trace(
      scenario.trace->generate(window_start, window_start + window_s), 1);

  const double fail_at = peak_time;
  const double outage_s = 30.0 * 60.0;

  std::cout << "flash crowd: " << db.size() << " calls over "
            << window_s / kSecondsPerHour << " h, spike to " << peak
            << "x, DC failure at spike peak, " << outage_s / 60.0
            << " min outage\n\n";

  ControllerOptions options;
  options.provision.include_link_failures = false;

  // Shared yardstick: the per-DC serving+backup capacity of the ORIGINAL
  // (pre-spike) provision. The closed loop may outgrow it mid-run; the
  // overcap numbers measure realized load against the original plan.
  std::vector<double> base_capacity;
  DcId victim;
  Simulator sim(ctx);

  // ---- Open loop: the plan never changes after the window starts.
  std::uint64_t open_dropped = 0;
  double open_overcap = 0.0;
  {
    Switchboard controller(ctx, options);
    const ProvisionResult provision = controller.provision(forecast);
    base_capacity.resize(ctx.world->dc_count());
    for (std::size_t x = 0; x < base_capacity.size(); ++x) {
      base_capacity[x] = provision.capacity.dc_total_cores(
          DcId(static_cast<std::uint32_t>(x)));
    }
    // Fail the DC actually carrying the most load when the fault lands: a
    // no-fault replay of the same spiked trace reveals the realized
    // per-DC usage at the failure instant.
    controller.build_allocation_plan(forecast, kSecondsPerDay);
    {
      ControllerAllocator baseline(controller);
      const SimReport base = sim.run(db, baseline, 300.0);
      std::size_t busiest = 0;
      double most = -1.0;
      const auto bucket =
          static_cast<std::size_t>(fail_at / base.bucket_s) - 1;
      for (std::size_t x = 0; x < base.dc_cores_buckets.size(); ++x) {
        const auto& series = base.dc_cores_buckets[x];
        const double load = bucket < series.size() ? series[bucket] : 0.0;
        if (load > most) {
          most = load;
          busiest = x;
        }
      }
      victim = DcId(static_cast<std::uint32_t>(busiest));
    }
    controller.build_allocation_plan(forecast, kSecondsPerDay);
    fault::FaultSchedule faults;
    faults.fail_dc(victim, fail_at, outage_s);
    ControllerAllocator alloc(controller);
    const SimReport rep = sim.run(db, alloc, 300.0, &faults);
    open_dropped = rep.dropped_calls;
    open_overcap = fault::over_capacity_core_s(rep.dc_cores_buckets,
                                               base_capacity, rep.bucket_s);
    std::cout << "open loop:   " << rep.calls << " calls, "
              << rep.failover_migrations << " failover moves, "
              << rep.dropped_calls << " dropped, "
              << format_double(open_overcap, 1) << " overcap core-s\n";
  }

  // ---- Closed loop: same forecast, same fault, but the AdaptiveController
  // watches the telemetry feed and re-provisions when the spike leaves the
  // deviation band.
  std::uint64_t closed_dropped = 0;
  double closed_overcap = 0.0;
  loop::LoopStats stats;
  {
    Switchboard controller(ctx, options);
    (void)controller.provision(forecast);
    controller.build_allocation_plan(forecast, kSecondsPerDay);
    fault::FaultSchedule faults;
    faults.fail_dc(victim, fail_at, outage_s);
    obs::TimeSeriesRecorder recorder(&obs::MetricsRegistry::global(),
                                     {.period_s = 60.0});
    loop::LoopOptions lopts;
    lopts.cadence_s = cadence_s;
    lopts.deviation_band = band;
    loop::AdaptiveController loop(controller, ctx, forecast, kSecondsPerDay,
                                  slot_s, lopts, &recorder);
    const SimReport rep = sim.run(db, loop, 300.0, &faults);
    stats = loop.stats();
    closed_dropped = rep.dropped_calls;
    closed_overcap = fault::over_capacity_core_s(rep.dc_cores_buckets,
                                                 base_capacity, rep.bucket_s);
    std::cout << "closed loop: " << rep.calls << " calls, "
              << rep.failover_migrations << " failover moves, "
              << rep.dropped_calls << " dropped, "
              << format_double(closed_overcap, 1)
              << " overcap core-s vs the ORIGINAL capacity ("
              << stats.replans << " replans from " << stats.triggers
              << " triggers over " << stats.ticks << " ticks)\n";
  }

  const bool open_sheds = open_dropped > 0;
  const bool closed_better = closed_dropped < open_dropped;
  std::cout << "\n"
            << (open_sheds && closed_better
                    ? "closed-loop re-provision absorbed the flash crowd"
                    : "REGRESSION: closed loop did not beat open loop")
            << " (open dropped " << open_dropped << ", closed dropped "
            << closed_dropped << ")\n";

  bench::emit_json("sec_loop", "calls", static_cast<double>(db.size()));
  bench::emit_json("sec_loop", "open_dropped_calls",
                   static_cast<double>(open_dropped));
  bench::emit_json("sec_loop", "closed_dropped_calls",
                   static_cast<double>(closed_dropped));
  bench::emit_json("sec_loop", "open_over_capacity_core_s", open_overcap);
  bench::emit_json("sec_loop", "closed_over_capacity_core_s", closed_overcap);
  bench::emit_json("sec_loop", "closed_replans",
                   static_cast<double>(stats.replans));
  bench::emit_json("sec_loop", "closed_triggers",
                   static_cast<double>(stats.triggers));
  return open_sheds && closed_better ? 0 : 1;
}
