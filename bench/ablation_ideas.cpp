// Ablation of Switchboard's design ideas (§4) on the Table 3 workload:
//   1. peak-aware backup OFF   -> additive Eq 1-2 backup (Fig 4b style)
//   2. capacity reuse OFF      -> every failure scenario priced from scratch
//   3. joint compute+network OFF -> compute-first LP, network follows
//   4. joint scenario LP ON    -> the exact Eq 3+7/8 formulation (upper
//                                 bound on what the decomposition can save)
//   5. application-specific OFF -> usage-log provisioning: capacity pinned
//      to the historical placement's per-DC/per-link peaks, scaled for
//      growth, with no ability to re-shift calls (§4.4's contrast).
//
// Each row's cost is also printed as a `{"bench": ...}` JSON line. The run
// exits 1 (ctest ablation_ideas_claim, label paper) unless the §4 claims
// hold: turning peak-aware backup, capacity reuse or joint compute+network
// off costs strictly more than the full system; the exact joint LP costs
// no more than it (within 1e-9 relative); and application-specific
// provisioning costs less than usage-log provisioning.
//
// Flags: --slot_s=10800 --configs=14 --growth=1.3. A bad flag prints usage
// to stderr and exits 2.
#include <iostream>

#include "baselines/locality_first.h"
#include "bench_util.h"
#include "core/backup_lp.h"
#include "core/provisioner.h"

namespace sb {
namespace {

/// --slot_s stops at the trace's 1800 s bucket: finer slots only multiply
/// the joint scenario LP (100 s slots run for minutes).
constexpr const char* kUsage =
    "usage: ablation_ideas [--slot_s=1800..86400] [--configs=1..100000]\n"
    "                      [--growth=0..100]\n";

struct Row {
  std::string variant;
  std::string metric;  ///< JSON metric name of the row's cost
  double cores;
  double wan;
  double cost;
};

}  // namespace

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv, kUsage);
  const double slot_s = flags.number("slot_s", 10800.0, 1800.0, 86400.0);
  const auto configs =
      static_cast<std::size_t>(flags.number("configs", 14, 1, 100000));
  const double growth = flags.number("growth", 1.3, 0.0, 100.0);
  flags.finish();

  Scenario scenario = make_apac_scenario();
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const DemandMatrix demand =
      design_day_demand(scenario, slot_s, configs);
  const World& world = scenario.world();
  const Topology& topo = scenario.topology();

  std::cout << "Ablation of Switchboard's §4 ideas (with backup, DC + link "
               "failures)\n\n";

  auto provision = [&](ProvisionOptions options) {
    options.include_link_failures = true;
    return SwitchboardProvisioner(ctx, options).provision(demand);
  };

  std::vector<Row> rows;
  auto add = [&](const std::string& name, const std::string& metric,
                 const CapacityPlan& plan) {
    rows.push_back({name, metric, plan.total_cores(), plan.total_wan_gbps(),
                    plan.total_cost(world, topo)});
    return rows.back().cost;
  };

  ProvisionOptions full;
  const double full_cost = add("full Switchboard (sequential reuse)",
                               "full_cost", provision(full).capacity);

  ProvisionOptions joint = full;
  joint.joint_scenarios = true;
  joint.joint_network = true;  // the fused LP always prices network capacity
  const double joint_cost = add("exact joint scenario LP (Eq 3+7/8)",
                                "joint_cost", provision(joint).capacity);

  ProvisionOptions no_reuse = full;
  no_reuse.capacity_reuse = false;
  const double no_reuse_cost =
      add("capacity reuse OFF (independent scenarios)", "no_reuse_cost",
          provision(no_reuse).capacity);

  ProvisionOptions additive = full;
  additive.peak_aware_backup = false;
  const double additive_cost =
      add("peak-aware backup OFF (additive Eq 1-2)", "additive_backup_cost",
          provision(additive).capacity);

  ProvisionOptions compute_first = full;
  compute_first.joint_network = false;
  const double compute_first_cost =
      add("joint compute+network OFF (compute-first)", "compute_first_cost",
          provision(compute_first).capacity);

  TextTable table({"Variant", "Cores", "WAN Gbps", "Cost", "Cost vs full"});
  for (const Row& r : rows) {
    table.row()
        .cell(r.variant)
        .cell(r.cores, 1)
        .cell(r.wan, 3)
        .cell(r.cost, 1)
        .cell(r.cost / full_cost);
  }
  std::cout << table;

  // ---- §4.4: application-specific vs usage-log provisioning ----
  print_banner(std::cout,
               "application-specific provisioning under demand growth "
               "(§4.4)");
  // Grow India-homed demand by `growth`; the app-aware planner re-solves
  // and can shift calls, while usage-log provisioning must scale the old
  // placement's per-resource peaks in place.
  const LocationId in = *world.find_location("IN");
  DemandMatrix grown = make_demand_matrix(demand.configs(),
                                          demand.slot_count());
  for (std::size_t c = 0; c < demand.config_count(); ++c) {
    const bool india_homed =
        scenario.registry->get(demand.config_at(c)).majority_location() == in;
    for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
      grown.set_demand(t, c,
                       demand.demand(t, c) * (india_homed ? growth : 1.0));
    }
  }
  ProvisionOptions no_backup;
  no_backup.with_backup = false;
  const ProvisionResult app_aware =
      SwitchboardProvisioner(ctx, no_backup).provision(grown);

  // Usage-log provisioning: yesterday's placement (LF on the old demand),
  // each DC/link peak scaled by that resource's own observed growth.
  const PlacementMatrix old_placement = locality_first_placement(demand, ctx);
  PlacementMatrix grown_placement(demand.slot_count(), demand.config_count(),
                                  world.dc_count());
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      for (DcId dc : world.dc_ids()) {
        const double share = demand.demand(t, c) > 0
                                 ? old_placement.calls(t, c, dc) /
                                       demand.demand(t, c)
                                 : 0.0;
        grown_placement.set_calls(t, c, dc, share * grown.demand(t, c));
      }
    }
  }
  const CapacityPlan usage_log =
      plan_from_usage(compute_usage(grown_placement, grown, ctx));

  const double app_cost = app_aware.capacity.total_cost(world, topo);
  const double usage_log_cost = usage_log.total_cost(world, topo);
  TextTable app({"Approach", "Cores", "WAN Gbps", "Cost"});
  app.row()
      .cell("app-specific (re-optimizes placement)")
      .cell(app_aware.capacity.total_cores(), 1)
      .cell(app_aware.capacity.total_wan_gbps(), 3)
      .cell(app_cost, 1);
  app.row()
      .cell("usage-log (scales old placement)")
      .cell(usage_log.total_cores(), 1)
      .cell(usage_log.total_wan_gbps(), 3)
      .cell(usage_log_cost, 1);
  std::cout << app;
  std::cout << "\napp-specific provisioning absorbs the India surge by "
               "shifting calls instead of growing the India peak (§4.4)\n";

  struct Claim {
    const char* what;
    bool held;
  };
  const Claim claims[] = {
      {"capacity reuse OFF costs more than full", no_reuse_cost > full_cost},
      {"peak-aware backup OFF costs more than full",
       additive_cost > full_cost},
      {"compute-first costs more than full", compute_first_cost > full_cost},
      {"the exact joint LP costs no more than full",
       joint_cost <= full_cost * (1.0 + 1e-9)},
      {"app-specific costs less than usage-log", app_cost < usage_log_cost},
  };
  bool all_held = true;
  std::cout << "\n";
  for (const Claim& claim : claims) {
    std::cout << (claim.held ? "claim holds: " : "REGRESSION: claim broken: ")
              << claim.what << "\n";
    all_held = all_held && claim.held;
  }
  for (const Row& r : rows) {
    bench::emit_json("ablation_ideas", r.metric, r.cost);
  }
  bench::emit_json("ablation_ideas", "app_specific_cost", app_cost);
  bench::emit_json("ablation_ideas", "usage_log_cost", usage_log_cost);
  return all_held ? 0 : 1;
}

}  // namespace sb

int main(int argc, char** argv) { return sb::run(argc, argv); }
