// Capacity planner: the workload a platform/capacity team would run every
// few months (§2.1's MP capacity provisioning). Takes the canonical APAC
// scenario, compares Round-Robin, Locality-First, and Switchboard, and
// prints a per-DC / per-link provisioning sheet for the Switchboard plan.
//
// Flags: --slot_s=7200 --configs=20 --rate_scale=1
// A bad flag (unknown, not a number, out of range, or a fractional config
// count) prints usage to stderr and exits 2.
#include <iostream>

#include "baselines/locality_first.h"
#include "baselines/round_robin.h"
#include "bench_util.h"
#include "common/table.h"
#include "trace/scenario.h"
#include "core/provisioner.h"

namespace {

constexpr const char* kUsage =
    "usage: capacity_planner [--slot_s=1800..86400] [--configs=1..100000]\n"
    "         [--rate_scale=0.01..100]\n";

}  // namespace

int main(int argc, char** argv) {
  using namespace sb;
  bench::Flags flags(argc, argv, kUsage);
  const double slot_s = flags.number("slot_s", 7200.0, 1800.0, 86400.0);
  const auto configs =
      static_cast<std::size_t>(flags.whole("configs", 20, 1, 100000));
  const double rate_scale = flags.number("rate_scale", 1.0, 0.01, 100.0);
  flags.finish();

  Scenario scenario = make_apac_scenario({.rate_scale = rate_scale});
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const World& world = scenario.world();
  const Topology& topo = scenario.topology();

  // Expected demand for a representative weekday, top-K configs.
  DemandMatrix full = scenario.trace->expected_demand(
      slot_s, kSecondsPerDay, 2 * kSecondsPerDay);
  std::vector<ConfigId> top;
  for (std::size_t i = 0; i < std::min(configs, full.config_count()); ++i) {
    top.push_back(full.config_at(i));
  }
  DemandMatrix demand = make_demand_matrix(top, full.slot_count());
  for (TimeSlot t = 0; t < full.slot_count(); ++t) {
    for (std::size_t c = 0; c < top.size(); ++c) {
      demand.set_demand(t, c, full.demand(t, c));
    }
  }

  std::cout << "Capacity planning for the APAC region ("
            << world.dc_count() << " DCs, " << topo.link_count()
            << " WAN links, top-" << top.size() << " call configs)\n\n";

  const BaselineResult rr = provision_round_robin(demand, ctx);
  const BaselineResult lf = provision_locality_first(demand, ctx);
  SwitchboardProvisioner provisioner(ctx, {});
  const ProvisionResult sb = provisioner.provision(demand);

  TextTable compare({"Scheme", "Cores", "WAN Gbps", "Cost", "Mean ACL ms"});
  compare.row()
      .cell("Round-Robin")
      .cell(rr.capacity.total_cores(), 1)
      .cell(rr.capacity.total_wan_gbps(), 3)
      .cell(rr.capacity.total_cost(world, topo), 1)
      .cell(rr.mean_acl_ms, 1);
  compare.row()
      .cell("Locality-First")
      .cell(lf.capacity.total_cores(), 1)
      .cell(lf.capacity.total_wan_gbps(), 3)
      .cell(lf.capacity.total_cost(world, topo), 1)
      .cell(lf.mean_acl_ms, 1);
  compare.row()
      .cell("Switchboard")
      .cell(sb.capacity.total_cores(), 1)
      .cell(sb.capacity.total_wan_gbps(), 3)
      .cell(sb.capacity.total_cost(world, topo), 1)
      .cell(sb.mean_acl_ms, 1);
  std::cout << compare;

  print_banner(std::cout, "Switchboard provisioning sheet");
  TextTable dcs({"DC", "serving cores", "backup cores", "total", "core cost"});
  for (DcId dc : world.dc_ids()) {
    dcs.row()
        .cell(world.datacenter(dc).name)
        .cell(sb.capacity.dc_serving_cores[dc.value()], 1)
        .cell(sb.capacity.dc_backup_cores[dc.value()], 1)
        .cell(sb.capacity.dc_total_cores(dc), 1)
        .cell(world.datacenter(dc).core_cost, 2);
  }
  std::cout << dcs << "\n";

  TextTable links({"Link", "endpoints", "Gbps", "cost/Gbps"});
  for (LinkId l : topo.link_ids()) {
    const WanLink& link = topo.link(l);
    if (sb.capacity.link_gbps[l.value()] < 1e-6) continue;
    links.row()
        .cell(link.name)
        .cell(world.location(link.a).name + "-" + world.location(link.b).name)
        .cell(sb.capacity.link_gbps[l.value()], 3)
        .cell(link.cost_per_gbps, 1);
  }
  std::cout << links;

  std::cout << "\nworst-case failure scenarios per resource are folded in "
               "(any single DC or WAN link may fail, §5.3)\n";
  return 0;
}
