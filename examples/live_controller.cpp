// Live controller: runs the full Switchboard loop the way the service
// would — provision for the day, build the allocation plan, then replay a
// synthetic busy window through the realtime selector via the
// discrete-event simulator, reporting latency, migrations, and how realized
// usage compares with what was provisioned.
//
// With --fail-dc the replay injects a DC outage mid-window: the controller
// marks the DC down, drains its live calls onto surviving plan slots and
// provisioned backup capacity, and the report shows the failover migration
// and drop counts plus the post-failure usage of the survivors.
//
// With --servers-per-dc=N each DC is split into a fleet of N media servers
// and every frozen call is bin-packed onto one of them (the intra-DC
// packing layer); the report grows a per-server table of realized peak vs
// physical capacity vs the provisioner's per-server budget split.
// --fail-server=DC-India-ms0 injects a single-server outage (reusing
// --fail-at/--recover-after) and the drain_server tier ladder re-homes the
// server's calls onto siblings before spilling cross-DC.
//
// With --workers=N the realtime path runs under the sb_cluster control
// plane: N controller workers each own a contiguous range of call shards,
// mirror every lifecycle event into the KV write-ahead log, and advertise
// liveness through TTL leases. --kill-worker=W crashes one worker
// mid-window (--kill-at, --restart-after, in hours like --fail-at): its
// shards are re-adopted by survivors via WAL replay at a bumped epoch, and
// the report grows a per-worker shard-ownership table plus the cluster's
// takeover/replay counters. A worker crash never drops or moves a call —
// the headline metrics must match the single-process run exactly.
//
// Flags: --hours=4 --configs=30
//        --fail-dc=Tokyo --fail-at=1.5 --recover-after=1
//        (fail-at/recover-after in hours from the replay window start)
//        --servers-per-dc=4 --server-cores=2 --fail-server=DC-India-ms0
//        --workers=4 --kill-worker=0 --kill-at=1.5 --restart-after=1
//        --lease-ttl=120           worker lease TTL in sim seconds
//        --trace-out=trace.json    Chrome trace-event span dump (Perfetto)
//        --metrics-out=metrics.json  final MetricsRegistry snapshot
// A bad flag (unknown, not a number, out of range, or naming an unknown
// DC, server or worker) prints usage to stderr and exits 2.
#include <fstream>
#include <iostream>
#include <memory>

#include "bench_util.h"
#include "cluster/allocator.h"
#include "cluster/controller.h"
#include "common/table.h"
#include "core/controller.h"
#include "fault/fault_schedule.h"
#include "geo/world_presets.h"
#include "obs/snapshot.h"
#include "obs/span.h"
#include "obs/trace_export.h"
#include "sim/simulator.h"
#include "trace/scenario.h"

namespace {

constexpr const char* kUsage =
    "usage: live_controller [--hours=0.01..168] [--configs=1..100000]\n"
    "         [--fail-dc=NAME] [--fail-at=0..168] [--recover-after=0.01..168]\n"
    "         [--servers-per-dc=0..4096] [--server-cores=0.01..4096]\n"
    "         [--fail-server=<DC>-ms<i>] [--workers=0..16]\n"
    "         [--kill-worker=-1..workers-1] [--kill-at=0..168]\n"
    "         [--restart-after=0.01..168] [--lease-ttl=0.01..86400]\n"
    "         [--trace-out=PATH] [--metrics-out=PATH]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const double hours = flags.number("hours", 4.0, 0.01, 168.0);
  const auto configs =
      static_cast<std::size_t>(flags.whole("configs", 30, 1, 100000));
  const std::string fail_dc_name = flags.text("fail-dc", "");
  const double fail_at_h = flags.number("fail-at", 1.0, 0.0, 168.0);
  const double recover_after_h =
      flags.number("recover-after", 1.0, 0.01, 168.0);
  const auto servers_per_dc = static_cast<std::size_t>(
      flags.whole("servers-per-dc", 0, 0, 4096));
  const double server_cores = flags.number("server-cores", 2.0, 0.01, 4096.0);
  const std::string fail_server_name = flags.text("fail-server", "");
  const auto workers =
      static_cast<std::size_t>(flags.whole("workers", 0, 0, 16));
  const int kill_worker =
      static_cast<int>(flags.whole("kill-worker", -1, -1, 15));
  const double kill_at_h = flags.number("kill-at", 1.0, 0.0, 168.0);
  const double restart_after_h =
      flags.number("restart-after", 0.5, 0.01, 168.0);
  const double lease_ttl_s = flags.number("lease-ttl", 120.0, 0.01, 86400.0);
  const std::string trace_out = flags.text("trace-out", "");
  const std::string metrics_out = flags.text("metrics-out", "");
  flags.finish();
  if (kill_worker >= 0 && static_cast<std::size_t>(kill_worker) >= workers) {
    flags.fail("--kill-worker=" + std::to_string(kill_worker) +
               " needs --workers=N with N > " + std::to_string(kill_worker));
  }
  // No trace requested -> don't pay for span recording at all.
  obs::SpanRecorder::global().set_enabled(!trace_out.empty());

  Scenario scenario = make_apac_scenario();
  // The fleet must exist before the controller is built: the selector and
  // its health table size themselves from the world's server registry.
  if (servers_per_dc > 0) {
    add_uniform_fleet(scenario.geo->world, servers_per_dc, server_cores);
  }
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const World& world = scenario.world();

  ServerId fail_server;
  if (!fail_server_name.empty()) {
    const auto found = world.find_server(fail_server_name);
    if (!found) {
      flags.fail("unknown --fail-server '" + fail_server_name +
                 "' (use --servers-per-dc=N; names are <DC>-ms<i>)");
    }
    fail_server = *found;
  }

  DcId fail_dc;
  if (!fail_dc_name.empty()) {
    for (DcId dc : world.dc_ids()) {
      if (world.datacenter(dc).name == fail_dc_name) fail_dc = dc;
    }
    if (!fail_dc.valid()) {
      std::string why = "unknown --fail-dc '" + fail_dc_name + "'; DCs:";
      for (DcId dc : world.dc_ids()) why += ' ' + world.datacenter(dc).name;
      flags.fail(why);
    }
  }

  // Offline stage: provision and plan for the day (top-K configs, with a
  // §5.2 cushion so realized Poisson load fits the plan's slots).
  const DemandMatrix demand = design_day_demand(scenario, 3600.0, configs, 1.3);

  ControllerOptions options;
  options.provision.include_link_failures = false;  // keep the demo quick
  options.slot_s = 3600.0;
  options.worker_rows = workers;  // health rows for the cluster layer
  Switchboard controller(ctx, options);
  std::cout << "provisioning (" << world.dc_count() << " DCs)...\n";
  const ProvisionResult& provision = controller.provision(demand);
  std::cout << "building the day's allocation plan...\n\n";
  controller.build_allocation_plan(demand, kSecondsPerDay);

  // Realtime stage: replay a busy window.
  const double start = kSecondsPerDay + 2.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(start, start + hours * kSecondsPerHour);
  std::cout << "replaying " << db.size() << " calls over "
            << format_double(hours, 1) << " h";

  fault::FaultSchedule faults;
  if (fail_dc.valid()) {
    const SimTime fail_at = start + fail_at_h * kSecondsPerHour;
    faults.fail_dc(fail_dc, fail_at, recover_after_h * kSecondsPerHour);
    std::cout << " (failing " << fail_dc_name << " at +"
              << format_double(fail_at_h, 1) << " h for "
              << format_double(recover_after_h, 1) << " h)";
  }
  if (fail_server.valid()) {
    const SimTime fail_at = start + fail_at_h * kSecondsPerHour;
    faults.fail_server(fail_server, fail_at,
                       recover_after_h * kSecondsPerHour);
    std::cout << " (failing server " << fail_server_name << " at +"
              << format_double(fail_at_h, 1) << " h for "
              << format_double(recover_after_h, 1) << " h)";
  }
  if (kill_worker >= 0) {
    const SimTime kill_at = start + kill_at_h * kSecondsPerHour;
    faults.fail_worker(WorkerId(static_cast<std::uint32_t>(kill_worker)),
                       kill_at, restart_after_h * kSecondsPerHour);
    std::cout << " (killing worker " << kill_worker << " at +"
              << format_double(kill_at_h, 1) << " h, restart after "
              << format_double(restart_after_h, 1) << " h)";
  }
  std::cout << "...\n\n";

  // With --workers the realtime events flow through the sb_cluster facade
  // (shard routing + leases + WAL) instead of the Switchboard directly.
  std::unique_ptr<cluster::ClusterController> cl;
  std::unique_ptr<cluster::ClusterAllocator> cluster_allocator;
  ControllerAllocator direct_allocator(controller);
  CallAllocator* allocator = &direct_allocator;
  if (workers > 0) {
    cl = std::make_unique<cluster::ClusterController>(
        controller,
        cluster::ClusterOptions{.workers = workers, .lease_ttl_s = lease_ttl_s});
    cluster_allocator = std::make_unique<cluster::ClusterAllocator>(*cl);
    allocator = cluster_allocator.get();
  }

  Simulator sim(ctx);
  const SimReport report =
      sim.run(db, *allocator, 300.0, faults.empty() ? nullptr : &faults);

  TextTable table({"metric", "value"});
  table.row().cell("calls served").cell(static_cast<std::uint64_t>(report.calls));
  table.row().cell("peak concurrent calls").cell(report.peak_concurrent_calls);
  table.row().cell("mean ACL (ms)").cell(report.mean_acl_ms, 1);
  table.row()
      .cell("migrations")
      .cell(std::to_string(report.migrations) + " (" +
            format_double(100.0 * report.migration_fraction, 2) + "%)");
  table.row()
      .cell("first joiner in majority country")
      .cell(format_double(100.0 * report.first_joiner_majority_fraction, 1) +
            "%");
  if (fail_dc.valid() || fail_server.valid()) {
    table.row().cell("failover migrations").cell(report.failover_migrations);
    table.row().cell("dropped calls").cell(report.dropped_calls);
  }
  std::cout << table;

  print_banner(std::cout, "realized peak usage vs provisioned capacity");
  TextTable usage({"DC", "realized cores", "provisioned", "headroom"});
  for (DcId dc : world.dc_ids()) {
    const double realized = report.dc_peak_cores[dc.value()];
    const double provisioned = provision.capacity.dc_total_cores(dc);
    usage.row()
        .cell(world.datacenter(dc).name +
              (dc == fail_dc ? std::string(" (failed)") : std::string()))
        .cell(realized, 1)
        .cell(provisioned, 1)
        .cell(provisioned > 0.01
                  ? format_double(100.0 * (1.0 - realized / provisioned), 0) +
                        "%"
                  : "n/a");
  }
  std::cout << usage;

  if (world.server_count() > 0) {
    print_banner(std::cout, "per-server packing (realized peak vs physical "
                            "capacity vs provisioned budget split)");
    TextTable fleet({"server", "realized cores", "capacity",
                     "provisioned budget"});
    for (ServerId s : world.server_ids()) {
      const bool failed = s == fail_server;
      fleet.row()
          .cell(world.server(s).name +
                (failed ? std::string(" (failed)") : std::string()))
          .cell(report.server_peak_cores.empty()
                    ? 0.0
                    : report.server_peak_cores[s.value()],
                2)
          .cell(world.server(s).cores, 2)
          .cell(provision.server_budget_cores.empty()
                    ? 0.0
                    : provision.server_budget_cores[s.value()],
                2);
    }
    std::cout << fleet;
  }

  if (cl != nullptr) {
    print_banner(std::cout, "cluster control plane (per-worker shard "
                            "ownership after the run)");
    TextTable wtab({"worker", "state", "initial shards", "owns now",
                    "events", "adopted", "kills/restarts"});
    for (const cluster::WorkerStatus& w : cl->worker_table()) {
      wtab.row()
          .cell("worker-" + std::to_string(w.id.value()))
          .cell(w.alive ? "alive" : "down")
          .cell("[" + std::to_string(w.initial_begin) + ", " +
                std::to_string(w.initial_end) + ")")
          .cell(w.shards_owned)
          .cell(w.events_applied)
          .cell(w.takeovers)
          .cell(std::to_string(w.kills) + "/" + std::to_string(w.restarts));
    }
    std::cout << wtab;
    const cluster::ClusterStats cs = cl->stats();
    std::cout << "epoch " << cl->epoch() << ", WAL records live "
              << cl->wal_size() << ", takeovers "
              << cs.takeovers_expedited << " expedited / " << cs.takeovers_ttl
              << " lease-expiry, WAL records replayed " << cs.replayed_records
              << ", lease renewals " << cs.lease_renewals
              << ", stale events fenced " << cs.stale_events_fenced << "\n";
  }

  std::cout << "\n(headroom is expected: capacity also covers the day's "
               "other peaks, failure scenarios, and the planning cushion; "
               "small negative headroom comes from long-tail configs the "
               "top-K plan does not cover, which §5.2's cushion absorbs in "
               "production)\n";

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
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (out) {
      obs::MetricsRegistry::global().snapshot().write_json(out);
      std::cout << "metrics written to " << metrics_out << "\n";
    } else {
      std::cerr << "cannot write " << metrics_out << "\n";
    }
  }
  return 0;
}
