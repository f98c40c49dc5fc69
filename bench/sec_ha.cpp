// Cluster HA: kill each controller worker, one at a time, mid-way through
// a busy replay window and compare against the single-process baseline on
// the same trace. The claims under test (DESIGN.md "Distributed control
// plane"): a worker crash drops and moves NOTHING — the media plane keeps
// hosting while the dead worker's shards are re-adopted by survivors via
// KV WAL replay at a bumped epoch — and call lifecycle transitions stay
// exactly-once across crash-recovery: the hosting log is bit-identical to
// the baseline's, every start is matched by one end, and the WAL is empty
// at quiescence. Also reports the re-adoption latency histogram (time from
// kill to takeover, expedited or lease-expiry).
//
// The bench prints its claim values through bench::emit_json and exits 1
// (ctest sec_ha_claim, label paper) unless the worker crashes drop no call
// beyond what the baseline drops and no lifecycle transition is duplicated
// or lost.
//
// Flags: --plan_configs=30 --cushion=1.3 --workers=4
//        --window_h=2 --kill_at_h=1 --outage_h=0.5 --lease_ttl=120
// A bad flag (unknown, not a number, out of range, a fractional count, or a
// kill outside the window) prints usage to stderr and exits 2.
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>

#include "bench_util.h"
#include "cluster/allocator.h"
#include "cluster/controller.h"
#include "core/controller.h"
#include "fault/fault_schedule.h"
#include "obs/metrics.h"
#include "sim/simulator.h"

namespace {

// Workers own contiguous ranges of the selector's 16 call shards, so at
// most 16; at least 1, since with none there is nothing to kill.
constexpr const char* kUsage =
    "usage: sec_ha [--plan_configs=1..100000] [--cushion=1..10]\n"
    "              [--workers=1..16] [--window_h=0.01..24]\n"
    "              [--kill_at_h=0..window_h) [--outage_h=0.01..24]\n"
    "              [--lease_ttl=0.01..86400]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const auto plan_configs =
      static_cast<std::size_t>(flags.whole("plan_configs", 30, 1, 100000));
  const double cushion = flags.number("cushion", 1.3, 1.0, 10.0);
  const auto workers =
      static_cast<std::size_t>(flags.whole("workers", 4, 1, 16));
  const double window_h = flags.number("window_h", 2.0, 0.01, 24.0);
  const double kill_at_h = flags.number("kill_at_h", 1.0, 0.0, 24.0);
  const double outage_s =
      flags.number("outage_h", 0.5, 0.01, 24.0) * kSecondsPerHour;
  const double lease_ttl_s = flags.number("lease_ttl", 120.0, 0.01, 86400.0);
  flags.finish();
  if (kill_at_h >= window_h) {
    flags.fail("bad value '--kill_at_h': the kill must land inside the "
               "--window_h window");
  }
  const double window_s = window_h * kSecondsPerHour;
  const double kill_at_s = kill_at_h * kSecondsPerHour;

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};

  const double slot_s = 3600.0;
  const DemandMatrix demand =
      design_day_demand(scenario, slot_s, plan_configs, cushion);
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.worker_rows = workers;
  Switchboard controller(ctx, options);
  (void)controller.provision(demand);

  // A mid-morning busy window; every run replays exactly this trace.
  const double window_start = kSecondsPerDay + 10.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(window_start, window_start + window_s);
  const Simulator sim(ctx);
  obs::Histogram& readoption = obs::MetricsRegistry::global().histogram(
      "sb.cluster.readoption_latency_s");

  // Single-process baseline: the pre-cluster path on the same plan/trace.
  controller.build_allocation_plan(demand, kSecondsPerDay);
  ControllerAllocator baseline_alloc(controller);
  HostingLog baseline_log;
  const SimReport baseline =
      sim.run(db, baseline_alloc, 300.0, nullptr, 60.0, &baseline_log);
  const RealtimeSelector::Stats baseline_rs = controller.realtime_stats();

  std::cout << "cluster HA: " << workers << " workers over " << db.size()
            << " calls, each killed at +"
            << format_double(kill_at_s / kSecondsPerHour, 1)
            << " h for " << format_double(outage_s / kSecondsPerHour, 2)
            << " h (baseline dropped " << baseline.dropped_calls
            << ", moved " << baseline.failover_migrations << ")\n\n";

  TextTable table({"killed", "calls", "dropped", "moved", "takeovers",
                   "replayed", "re-adopt s (mean/max)", "WAL live",
                   "log vs baseline"});

  double readopt_mean_sum = 0.0;
  double readopt_max = 0.0;
  double dropped_total = 0.0;
  double replayed_total = 0.0;
  double divergence = 0.0;  // duplicate or lost lifecycle transitions
  double fenced_total = 0.0;
  for (std::size_t w = 0; w < workers; ++w) {
    controller.build_allocation_plan(demand, kSecondsPerDay);
    cluster::ClusterController cl(
        controller,
        cluster::ClusterOptions{.workers = workers,
                                .lease_ttl_s = lease_ttl_s});
    cluster::ClusterAllocator alloc(cl);
    fault::FaultSchedule faults;
    faults.fail_worker(WorkerId(static_cast<std::uint32_t>(w)),
                       window_start + kill_at_s, outage_s);
    readoption.reset();
    HostingLog log;
    const SimReport report = sim.run(db, alloc, 300.0, &faults, 60.0, &log);
    const obs::HistogramData lat = readoption.collect();
    const cluster::ClusterStats cs = cl.stats();
    const RealtimeSelector::Stats rs = controller.realtime_stats();
    const bool identical = baseline_log == log;

    // Exactly-once accounting across the crash: any imbalance here is a
    // duplicated or lost lifecycle transition.
    const auto lost_or_dup =
        static_cast<double>(rs.slot_debits - rs.slot_credits) +
        static_cast<double>(cl.wal_size()) +
        static_cast<double>(controller.active_calls()) +
        static_cast<double>(rs.calls_started - baseline_rs.calls_started) +
        (identical ? 0.0 : 1.0);
    divergence += lost_or_dup;
    dropped_total += static_cast<double>(report.dropped_calls);
    replayed_total += static_cast<double>(cs.replayed_records);
    fenced_total += static_cast<double>(cs.stale_events_fenced);
    readopt_mean_sum += lat.mean();
    readopt_max = std::max(readopt_max, lat.max);

    table.row()
        .cell("worker-" + std::to_string(w))
        .cell(report.calls)
        .cell(report.dropped_calls)
        .cell(report.failover_migrations)
        .cell(std::to_string(cs.takeovers_expedited) + " exp / " +
              std::to_string(cs.takeovers_ttl) + " ttl")
        .cell(cs.replayed_records)
        .cell(format_double(lat.mean(), 2) + " / " +
              format_double(lat.max, 2))
        .cell(cl.wal_size())
        .cell(identical ? "identical" : "DIVERGED");
  }
  std::cout << table;

  const double readopt_mean =
      workers > 0 ? readopt_mean_sum / static_cast<double>(workers) : 0.0;
  std::cout << "\nworker crashes dropped " << dropped_total
            << " calls (baseline " << baseline.dropped_calls
            << "); mean re-adoption " << format_double(readopt_mean, 2)
            << " s; " << divergence
            << " duplicate/lost lifecycle transitions\n";

  bench::emit_json("sec_ha", "baseline_dropped_calls",
                   static_cast<double>(baseline.dropped_calls));
  bench::emit_json("sec_ha", "ha_dropped_calls_total", dropped_total);
  const double drops_vs_baseline =
      dropped_total - static_cast<double>(workers) *
                          static_cast<double>(baseline.dropped_calls);
  bench::emit_json("sec_ha", "drops_during_failover_vs_baseline",
                   drops_vs_baseline);
  bench::emit_json("sec_ha", "readoption_latency_mean_s", readopt_mean);
  bench::emit_json("sec_ha", "readoption_latency_max_s", readopt_max);
  bench::emit_json("sec_ha", "wal_records_replayed_total", replayed_total);
  bench::emit_json("sec_ha", "duplicate_or_lost_transitions", divergence);
  bench::emit_json("sec_ha", "stale_events_fenced_total", fenced_total);

  const bool no_drops = drops_vs_baseline == 0.0;
  const bool exactly_once = divergence == 0.0;
  std::cout << (no_drops ? "claim holds: " : "REGRESSION: claim broken: ")
            << "worker crashes drop no call beyond the baseline's\n";
  std::cout << (exactly_once ? "claim holds: " : "REGRESSION: claim broken: ")
            << "no lifecycle transition duplicated or lost\n";
  return no_drops && exactly_once ? 0 : 1;
}
