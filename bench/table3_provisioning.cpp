// Reproduces Table 3: resources provisioned (compute cores, total WAN
// capacity), cost, and mean ACL for Round-Robin, Locality-First, and
// Switchboard, with and without backup capacity, normalized to RR.
//
// Paper's shape (values normalized to RR):
//                without backup               with backup
//          cores  WAN   cost  ACL       cores  WAN   cost  ACL
//   RR     1.00   1.00  1.00  1.00      1.00   1.00  1.00  1.00
//   LF     1.08   0.18  0.35  0.45      1.10   0.55  0.64  0.45
//   SB     1.00   0.14  0.29  0.51      1.00   0.43  0.49  0.45
//
// The absolute numbers depend on the (synthetic) workload and cost model;
// the orderings and rough factors are what this bench validates. It prints
// each half's claim values through bench::emit_json and exits 1 (ctest
// table3_provisioning_claim, label paper) unless, with and without backup,
// the Eq 3 cost orders SB < LF < RR and SB's mean ACL stays within the
// 120 ms threshold (kAclThresholdMs).
//
// Flags: --slot_s=7200 --configs=24 --rate_scale=1 --link_failures=1. A
// bad flag prints usage to stderr and exits 2.
#include <iostream>
#include <string>
#include <vector>

#include "baselines/locality_first.h"
#include "baselines/round_robin.h"
#include "bench_util.h"
#include "calls/acl.h"
#include "core/allocation_plan.h"
#include "core/provisioner.h"

namespace sb {
namespace {

constexpr const char* kUsage =
    "usage: table3_provisioning [--slot_s=60..86400] [--configs=1..100000]\n"
    "                           [--rate_scale=0.01..100] "
    "[--link_failures=0..1]\n";

struct SchemeRow {
  std::string name;
  double cores = 0.0;
  double wan = 0.0;
  double compute_cost = 0.0;
  double network_cost = 0.0;
  double acl = 0.0;

  [[nodiscard]] double cost() const { return compute_cost + network_cost; }
};

void print_block(const std::string& title, const std::vector<SchemeRow>& rows) {
  print_banner(std::cout, title);
  const SchemeRow& rr = rows.front();
  TextTable table({"Scheme", "Cores", "WAN", "Cost", "Mean ACL", "Cores(raw)",
                   "WAN Gbps", "ACL ms", "cost(compute)", "cost(network)"});
  for (const SchemeRow& r : rows) {
    table.row()
        .cell(r.name)
        .cell(r.cores / rr.cores)
        .cell(r.wan / rr.wan)
        .cell(r.cost() / rr.cost())
        .cell(r.acl / rr.acl)
        .cell(r.cores, 1)
        .cell(r.wan, 3)
        .cell(r.acl, 1)
        .cell(r.compute_cost, 1)
        .cell(r.network_cost, 1);
  }
  std::cout << table;
}

}  // namespace

int run(int argc, char** argv) {
  bench::Flags flags(argc, argv, kUsage);
  const double slot_s = flags.number("slot_s", 7200.0, 60.0, 86400.0);
  const auto configs =
      static_cast<std::size_t>(flags.number("configs", 24, 1, 100000));
  const double rate_scale = flags.number("rate_scale", 1.0, 0.01, 100.0);
  const bool link_failures =
      flags.number("link_failures", 1.0, 0.0, 1.0) != 0.0;
  flags.finish();

  std::cout << "Table 3: provisioning comparison (RR / LF / SB)\n"
            << "workload: APAC design day, slot=" << slot_s / 3600.0
            << "h, top-" << configs << " configs, rate_scale=" << rate_scale
            << ", link_failures=" << link_failures << "\n";

  Scenario scenario = make_apac_scenario({.rate_scale = rate_scale});
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const DemandMatrix demand =
      design_day_demand(scenario, slot_s, configs);
  std::cout << "total concurrent-call demand (slot-summed): "
            << format_double(demand.total(), 0) << "\n";

  const World& world = scenario.world();
  const Topology& topo = scenario.topology();

  struct Claim {
    std::string what;
    bool held;
  };
  std::vector<Claim> claims;
  for (const bool with_backup : {false, true}) {
    BaselineOptions base_options;
    base_options.with_backup = with_backup;
    base_options.include_link_failures = link_failures;
    const BaselineResult rr =
        provision_round_robin(demand, ctx, base_options);
    const BaselineResult lf =
        provision_locality_first(demand, ctx, base_options);

    ProvisionOptions sb_options;
    sb_options.with_backup = with_backup;
    sb_options.include_link_failures = link_failures;
    SwitchboardProvisioner provisioner(ctx, sb_options);
    const ProvisionResult sb = provisioner.provision(demand);

    // §6.3: with backup capacity, Switchboard's allocation stage (Eq 10)
    // serves locally and matches LF's latency; report the operated ACL.
    double sb_acl = sb.mean_acl_ms;
    if (with_backup) {
      AllocationPlanner planner(ctx, {});
      sb_acl = planner.plan(demand, sb.capacity, slot_s).mean_acl_ms;
    }

    std::vector<SchemeRow> rows;
    rows.push_back({"RR", rr.capacity.total_cores(),
                    rr.capacity.total_wan_gbps(),
                    rr.capacity.compute_cost(world),
                    rr.capacity.network_cost(topo), rr.mean_acl_ms});
    rows.push_back({"LF", lf.capacity.total_cores(),
                    lf.capacity.total_wan_gbps(),
                    lf.capacity.compute_cost(world),
                    lf.capacity.network_cost(topo), lf.mean_acl_ms});
    rows.push_back({"SB", sb.capacity.total_cores(),
                    sb.capacity.total_wan_gbps(),
                    sb.capacity.compute_cost(world),
                    sb.capacity.network_cost(topo), sb_acl});
    print_block(with_backup ? "With backup capacity (single DC or WAN link "
                              "failure survivable)"
                            : "Without backup capacity",
                rows);

    const double savings_rr = 1.0 - rows[2].cost() / rows[0].cost();
    const double savings_lf = 1.0 - rows[2].cost() / rows[1].cost();
    std::cout << "SB cost savings: " << format_double(100.0 * savings_rr, 0)
              << "% vs RR, " << format_double(100.0 * savings_lf, 0)
              << "% vs LF (paper with backup: 51% and 23%)\n";

    const std::string half = with_backup ? "with_backup" : "no_backup";
    claims.push_back({half + ": Eq 3 cost SB < LF < RR",
                      rows[2].cost() < rows[1].cost() &&
                          rows[1].cost() < rows[0].cost()});
    claims.push_back({half + ": SB mean ACL within 120 ms",
                      sb_acl <= kAclThresholdMs});
    bench::emit_json("table3_provisioning", half + "_sb_cost_vs_rr",
                     rows[2].cost() / rows[0].cost());
    bench::emit_json("table3_provisioning", half + "_lf_cost_vs_rr",
                     rows[1].cost() / rows[0].cost());
    bench::emit_json("table3_provisioning", half + "_sb_acl_ms", sb_acl);
    bench::emit_json("table3_provisioning", half + "_sb_wan_gbps",
                     rows[2].wan);
    bench::emit_json("table3_provisioning", half + "_lf_wan_gbps",
                     rows[1].wan);
  }
  bool all_held = true;
  std::cout << "\n";
  for (const Claim& claim : claims) {
    std::cout << (claim.held ? "claim holds: " : "REGRESSION: claim broken: ")
              << claim.what << "\n";
    all_held = all_held && claim.held;
  }
  return all_held ? 0 : 1;
}

}  // namespace sb

int main(int argc, char** argv) { return sb::run(argc, argv); }
