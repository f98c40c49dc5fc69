// §5.3 failover at runtime: fail every DC, one at a time, at the moment its
// own planned core usage peaks — the worst single-DC failure the backup
// capacity was provisioned for — and replay the surrounding window through
// the live controller. The claim under test: Switchboard's drain re-homes
// every call onto surviving plan slots plus provisioned backup, dropping
// nothing, and the realized post-failure usage stays within each surviving
// DC's serving+backup capacity. Locality-First (no provisioned backup pool)
// also never drops, but freely overruns the surviving DCs' capacity — the
// contrast that justifies paying for backup cores up front.
//
// Flags: --plan_configs=40 --cushion=1.3 --outage_h=1.0 --pad_h=0.5
//        --trace-out=trace.json (Chrome trace-event span dump: every drain
//        walks nested under its ctl.dc_failed span — load in Perfetto to see
//        the per-call re-homing tiers during the outage). A bad flag prints
//        usage to stderr and exits 2.
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/controller.h"
#include "fault/fault_schedule.h"
#include "fault/failover.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "sim/simulator.h"

namespace {

constexpr const char* kUsage =
    "usage: sec53_failover [--plan_configs=1..100000] [--cushion=1..10]\n"
    "                      [--outage_h=0.01..24] [--pad_h=0..24]\n"
    "                      [--trace-out=trace.json]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const auto plan_configs =
      static_cast<std::size_t>(flags.number("plan_configs", 40, 1, 100000));
  const double cushion = flags.number("cushion", 1.3, 1.0, 10.0);
  const double outage_s =
      flags.number("outage_h", 1.0, 0.01, 24.0) * kSecondsPerHour;
  const double pad_s = flags.number("pad_h", 0.5, 0.0, 24.0) * kSecondsPerHour;
  const std::string trace_out = flags.text("trace-out", "");
  flags.finish();
  // No trace requested -> don't pay for span recording at all. A dump holds
  // the whole run: the default flags record ~46k spans on the main thread,
  // past the default ring's 32k.
  obs::SpanRecorder::global().configure(
      {.enabled = !trace_out.empty(), .ring_capacity = 1u << 17});

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const std::size_t dc_count = scenario.world().dc_count();

  // Provision once (with backup, §5.3) on the cushioned design day; every
  // per-DC run rebuilds the plan, which also resets the selector state.
  const double slot_s = 3600.0;
  const DemandMatrix demand =
      design_day_demand(scenario, slot_s, plan_configs, cushion);
  ControllerOptions options;
  options.provision.include_link_failures = false;
  Switchboard controller(ctx, options);
  const ProvisionResult& provision = controller.provision(demand);

  std::vector<double> capacity(dc_count);
  for (std::size_t x = 0; x < dc_count; ++x) {
    capacity[x] = provision.capacity.dc_total_cores(
        DcId(static_cast<std::uint32_t>(x)));
  }
  const UsageProfile planned =
      compute_usage(provision.base_placement, demand, ctx);

  std::cout << "§5.3 failover: each DC failed at its planned peak, "
            << outage_s / kSecondsPerHour << " h outage\n\n";
  // "net overcap" is what the outage adds on the surviving DCs: each
  // survivor's over-capacity core-s minus its own in a no-fault replay of
  // the same window (realized load from configs outside the plan's top-k
  // can sit above capacity with no failure at all, and that background
  // excess is not the failover's doing). The failed DC is left out: its
  // own no-fault overrun would otherwise cancel what the survivors gain.
  TextTable table({"Failed DC", "scheme", "calls", "moved", "dropped",
                   "overcap core-s", "net overcap core-s"});

  double sb_dropped = 0.0, sb_moved = 0.0, sb_overcap = 0.0;
  double lf_dropped = 0.0, lf_moved = 0.0, lf_overcap = 0.0;
  Simulator sim(ctx);
  for (std::size_t x = 0; x < dc_count; ++x) {
    const DcId victim(static_cast<std::uint32_t>(x));
    const auto survivors_increment = [&](const SimReport& faulted,
                                         const SimReport& no_fault) {
      double total = 0.0;
      for (std::size_t y = 0; y < dc_count; ++y) {
        if (y == x) continue;
        total += fault::over_capacity_core_s({faulted.dc_cores_buckets[y]},
                                             {capacity[y]}, faulted.bucket_s) -
                 fault::over_capacity_core_s({no_fault.dc_cores_buckets[y]},
                                             {capacity[y]}, no_fault.bucket_s);
      }
      return total;
    };
    // The plan's demand day starts at kSecondsPerDay; fail mid-slot so the
    // outage brackets the planned peak rather than starting exactly on its
    // boundary.
    const std::size_t peak = fault::FaultSchedule::peak_slot(
        planned.dc_cores[x]);
    const double fail_at = kSecondsPerDay + peak * slot_s + 0.5 * slot_s;
    const double window_start = fail_at - pad_s;
    const double window_end = fail_at + outage_s + pad_s;
    const CallRecordDatabase db =
        scenario.trace->generate(window_start, window_end);
    fault::FaultSchedule faults;
    faults.fail_dc(victim, fail_at, outage_s);

    controller.build_allocation_plan(demand, kSecondsPerDay);
    ControllerAllocator sb_alloc(controller);
    const SimReport sb_report = sim.run(db, sb_alloc, 300.0, &faults);
    const double sb_over = fault::over_capacity_core_s(
        sb_report.dc_cores_buckets, capacity, sb_report.bucket_s);
    controller.build_allocation_plan(demand, kSecondsPerDay);
    ControllerAllocator sb_base_alloc(controller);
    const SimReport sb_base = sim.run(db, sb_base_alloc, 300.0);
    const double sb_net = survivors_increment(sb_report, sb_base);
    sb_dropped += static_cast<double>(sb_report.dropped_calls);
    sb_moved += static_cast<double>(sb_report.failover_migrations);
    sb_overcap += sb_net;
    table.row()
        .cell(scenario.world().datacenter(victim).name)
        .cell("switchboard")
        .cell(sb_report.calls)
        .cell(sb_report.failover_migrations)
        .cell(sb_report.dropped_calls)
        .cell(sb_over, 1)
        .cell(sb_net, 1);

    LocalityFirstAllocator lf(ctx);
    const SimReport lf_report = sim.run(db, lf, 300.0, &faults);
    const double lf_over = fault::over_capacity_core_s(
        lf_report.dc_cores_buckets, capacity, lf_report.bucket_s);
    LocalityFirstAllocator lf_base(ctx);
    const SimReport lf_base_report = sim.run(db, lf_base, 300.0);
    const double lf_net = survivors_increment(lf_report, lf_base_report);
    lf_dropped += static_cast<double>(lf_report.dropped_calls);
    lf_moved += static_cast<double>(lf_report.failover_migrations);
    lf_overcap += lf_net;
    table.row()
        .cell("")
        .cell("locality-first")
        .cell(lf_report.calls)
        .cell(lf_report.failover_migrations)
        .cell(lf_report.dropped_calls)
        .cell(lf_over, 1)
        .cell(lf_net, 1);
  }
  std::cout << table;
  std::cout << "\nSwitchboard drops " << sb_dropped
            << " calls and adds " << format_double(sb_overcap, 1)
            << " core-s above serving+backup; Locality-First adds "
            << format_double(lf_overcap, 1) << " core-s.\n";

  bench::emit_json("sec53_failover", "sb_dropped_calls", sb_dropped);
  bench::emit_json("sec53_failover", "sb_failover_migrations", sb_moved);
  bench::emit_json("sec53_failover", "sb_net_over_capacity_core_s",
                   sb_overcap);
  bench::emit_json("sec53_failover", "lf_dropped_calls", lf_dropped);
  bench::emit_json("sec53_failover", "lf_failover_migrations", lf_moved);
  bench::emit_json("sec53_failover", "lf_net_over_capacity_core_s",
                   lf_overcap);

  if (!trace_out.empty()) {
    std::uint64_t dropped = 0;
    if (obs::dump_chrome_trace(trace_out, &dropped)) {
      std::cout << "\ntrace written to " << trace_out
                << (dropped > 0 ? " (ring wrapped; oldest spans dropped)" : "")
                << "\n";
    } else {
      std::cerr << "cannot write " << trace_out << "\n";
    }
  }
  return 0;
}
