// Reproduces §6.4: frequency of inter-DC call migration. The realtime
// selector assigns a call to the DC closest to its first joiner and may
// migrate it when the config freezes at A = 300 s. The paper reports that
// Switchboard migrates only 1.53% of calls — the same as Locality-First —
// while Round-Robin never migrates (and pays for it in latency).
//
// Flags: --hours=8 --plan_configs=40 --cushion=1.3. A bad flag prints
// usage to stderr and exits 2.
#include <iostream>

#include "bench_util.h"
#include "core/controller.h"
#include "sim/simulator.h"

namespace {

constexpr const char* kUsage =
    "usage: sec64_migrations [--hours=0.01..168] [--plan_configs=1..100000]\n"
    "                        [--cushion=1..10]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const double hours = flags.number("hours", 8.0, 0.01, 168.0);
  const auto plan_configs =
      static_cast<std::size_t>(flags.number("plan_configs", 40, 1, 100000));
  // The §5.2 cushion inflates the planned demand so realized (Poisson) load
  // rarely exhausts plan slots.
  const double cushion = flags.number("cushion", 1.3, 1.0, 10.0);
  flags.finish();

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};

  // Build a Switchboard allocation plan for the day, then replay a busy
  // window against all three allocators.
  const DemandMatrix demand =
      design_day_demand(scenario, 3600.0, plan_configs, cushion);
  const double start = kSecondsPerDay;
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.slot_s = 3600.0;
  Switchboard controller(ctx, options);
  controller.provision(demand);
  controller.build_allocation_plan(demand, start);

  const CallRecordDatabase db =
      scenario.trace->generate(start, start + hours * kSecondsPerHour);

  Simulator sim(ctx);
  ControllerAllocator sb_alloc(controller);
  LocalityFirstAllocator lf(ctx);
  RoundRobinAllocator rr(ctx);

  std::cout << "§6.4: migration frequency over " << db.size()
            << " calls (A = 300 s)\n\n";
  TextTable table({"Scheme", "calls", "migrations", "migrated %", "ACL ms",
                   "paper"});
  struct Run {
    CallAllocator* allocator;
    const char* paper;
  };
  for (const Run run : {Run{&sb_alloc, "1.53%"}, Run{&lf, "1.53%"},
                        Run{&rr, "0% (never migrates)"}}) {
    const SimReport report = sim.run(db, *run.allocator);
    table.row()
        .cell(report.allocator)
        .cell(report.calls)
        .cell(report.migrations)
        .cell(100.0 * report.migration_fraction)
        .cell(report.mean_acl_ms, 1)
        .cell(run.paper);
  }
  std::cout << table;

  const RealtimeSelector::Stats stats = controller.realtime_stats();
  std::cout << "\nSwitchboard selector detail: frozen="
            << stats.calls_frozen << " unplanned=" << stats.unplanned
            << " overflow=" << stats.overflow << "\n";

  // The supporting §5.4 statistic that makes the heuristic work.
  Simulator check(ctx);
  RoundRobinAllocator probe(ctx);
  const SimReport probe_report = check.run(db, probe);
  std::cout << "first joiner in majority country: "
            << format_double(
                   100.0 * probe_report.first_joiner_majority_fraction, 1)
            << "% of calls (paper: 95.2%)\n";
  return 0;
}
