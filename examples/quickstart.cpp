// Quickstart: the smallest end-to-end use of the Switchboard library.
//
//   1. Describe a world (countries, datacenters, WAN links).
//   2. Describe the expected workload as a demand matrix over call configs.
//   3. Provision capacity (the Eq 3-9 LP, surviving any single DC failure).
//   4. Build a daily allocation plan (Eq 10) and serve calls in real time.
//
// Build & run:  ./build/examples/quickstart (it takes no arguments; any
// argument prints usage to stderr and exits 2)
#include <iostream>

#include "common/table.h"
#include "core/controller.h"

int main(int argc, char** argv) {
  using namespace sb;
  if (argc > 1) {
    std::cerr << "unexpected argument '" << argv[1]
              << "'\nusage: quickstart (takes no arguments)\n";
    return 2;
  }

  // --- 1. A tiny world: two countries, a DC in each, one WAN link. ---
  World world;
  const LocationId us = world.add_location(
      {"US", 40.7, -74.0, -5.0, /*population_weight=*/10.0, "NA"});
  const LocationId uk = world.add_location(
      {"UK", 51.5, -0.1, 0.0, /*population_weight=*/6.0, "NA"});
  world.add_datacenter({"DC-US", us, /*core_cost=*/1.0});
  world.add_datacenter({"DC-UK", uk, /*core_cost=*/1.1});

  Topology topology(world);
  topology.add_link(us, uk, /*latency_ms=*/35.0, /*cost_per_gbps=*/60.0);
  topology.compute_paths();
  const LatencyMatrix latency = LatencyMatrix::from_topology(world, topology);

  // --- 2. Workload: two call configs over a 4-slot "day". ---
  CallConfigRegistry registry;
  const ConfigId us_meeting =
      registry.intern(CallConfig::make({{us, 4}}, MediaType::kVideo));
  const ConfigId transatlantic = registry.intern(
      CallConfig::make({{us, 2}, {uk, 3}}, MediaType::kAudio));

  DemandMatrix demand = make_demand_matrix({us_meeting, transatlantic}, 4);
  const double us_calls[4] = {20, 45, 30, 5};  // concurrent calls per slot
  const double tx_calls[4] = {5, 12, 18, 8};
  for (TimeSlot t = 0; t < 4; ++t) {
    demand.set_demand(t, 0, us_calls[t]);
    demand.set_demand(t, 1, tx_calls[t]);
  }

  // --- 3 + 4. The controller runs the whole pipeline. ---
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&world, &topology, &latency, &registry, &loads};
  Switchboard controller(ctx, ControllerOptions{});

  const ProvisionResult& provision = controller.provision(demand);
  std::cout << "Provisioned capacity (survives any single DC/link failure):\n";
  for (DcId dc : world.dc_ids()) {
    std::cout << "  " << world.datacenter(dc).name << ": "
              << format_double(provision.capacity.dc_total_cores(dc), 1)
              << " cores (serving "
              << format_double(
                     provision.capacity.dc_serving_cores[dc.value()], 1)
              << " + backup "
              << format_double(
                     provision.capacity.dc_backup_cores[dc.value()], 1)
              << ")\n";
  }
  for (LinkId l : topology.link_ids()) {
    std::cout << "  link " << topology.link(l).name << ": "
              << format_double(provision.capacity.link_gbps[l.value()], 3)
              << " Gbps\n";
  }
  std::cout << "  total cost: "
            << format_double(provision.capacity.total_cost(world, topology), 1)
            << "\n  mean ACL: " << format_double(provision.mean_acl_ms, 1)
            << " ms\n\n";

  controller.build_allocation_plan(demand, /*plan_start_s=*/0.0);

  // Realtime: a call arrives; its first joiner is in the UK.
  const CallId call(1);
  const DcId initial = controller.call_started(call, uk, /*now=*/100.0);
  std::cout << "call 1 first joiner in UK -> initially hosted at "
            << world.datacenter(initial).name << "\n";

  // 300 s later the config freezes: it turned out to be a mostly-US call.
  const CallConfig config =
      CallConfig::make({{us, 5}, {uk, 1}}, MediaType::kVideo);
  const FreezeResult frozen = controller.config_frozen(call, config, 400.0);
  std::cout << "config froze as ((US-5,UK-1),video) -> "
            << (frozen.migrated ? "migrated to " : "stayed at ")
            << world.datacenter(frozen.dc).name << "\n";
  controller.call_ended(call, 2000.0);

  const RealtimeSelector::Stats stats = controller.realtime_stats();
  std::cout << "selector stats: " << stats.calls_started << " calls, "
            << stats.migrations << " migrations\n";
  return 0;
}
