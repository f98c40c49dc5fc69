// Reproduces Fig 4: the peak-aware capacity-planning toy. Three co-equal
// DCs (Japan, Hong Kong, India) with time-shifted demand peaking at 100,
// 110, and 110 cores. (a) locality-first serving needs (100, 110, 110);
// (b) the default (additive, Eq 1-2) backup plan inflates every DC to 160
// cores (480 total); (c) the peak-aware plan re-purposes off-peak serving
// cores as backup and needs no extra capacity at all (320 total). The bench
// prints both plans' total cores through bench::emit_json and exits 1
// (ctest fig4_peak_aware_toy_claim, label paper) unless they are 480 and
// 320, each within 1e-6.
//
// Takes no flags: any argument prints usage to stderr and exits 2.
#include <cmath>
#include <iostream>

#include "bench_util.h"
#include "common/table.h"
#include "core/provisioner.h"

namespace sb {
namespace {

constexpr const char* kUsage = "usage: fig4_peak_aware_toy (takes no flags)\n";
// The paper's total cores for Fig 4(b) and 4(c).
constexpr double kPaperAdditive = 480.0;
constexpr double kPaperPeakAware = 320.0;

struct ToyWorld {
  World world;
  Topology topology;
  LatencyMatrix latency;
  CallConfigRegistry registry;
  LoadModel loads{{1.0, 1.5, 3.0}, {1.0, 15.0, 35.0}};

  ToyWorld() : world(make_world()), topology(world), latency(3, 3) {
    topology.add_link(LocationId(0), LocationId(1), 20.0, 1e5);
    topology.add_link(LocationId(1), LocationId(2), 20.0, 1e5);
    topology.add_link(LocationId(0), LocationId(2), 20.0, 1e5);
    topology.compute_paths();
    latency = LatencyMatrix::from_topology(world, topology, 8.0);
  }

  static World make_world() {
    World w;
    w.add_location({"JP", 0.0, 0.0, 9.0, 1.0, "R"});
    w.add_location({"HK", 0.0, 8.0, 8.0, 1.0, "R"});
    w.add_location({"IN", 8.0, 0.0, 5.5, 1.0, "R"});
    w.add_datacenter({"DC-JP", LocationId(0), 1.0});
    w.add_datacenter({"DC-HK", LocationId(1), 1.0});
    w.add_datacenter({"DC-IN", LocationId(2), 1.0});
    return w;
  }

  [[nodiscard]] EvalContext ctx() {
    return EvalContext{&world, &topology, &latency, &registry, &loads};
  }
};

}  // namespace

int run(int argc, char** argv) {
  bench::Flags(argc, argv, kUsage).finish();
  ToyWorld w;
  std::vector<ConfigId> configs;
  for (std::uint32_t u = 0; u < 3; ++u) {
    configs.push_back(w.registry.intern(
        CallConfig::make({{LocationId(u), 1}}, MediaType::kAudio)));
  }
  DemandMatrix demand = make_demand_matrix(configs, 3);
  const double jp[3] = {100, 50, 40};
  const double hk[3] = {60, 110, 50};
  const double in[3] = {20, 40, 110};
  for (TimeSlot t = 0; t < 3; ++t) {
    demand.set_demand(t, 0, jp[t]);
    demand.set_demand(t, 1, hk[t]);
    demand.set_demand(t, 2, in[t]);
  }

  std::cout << "Fig 4(a): demand (cores) per time slot\n";
  TextTable d({"slot", "JP", "HK", "IN"});
  for (TimeSlot t = 0; t < 3; ++t) {
    d.row()
        .cell("T" + std::to_string(t + 1))
        .cell(demand.demand(t, 0), 0)
        .cell(demand.demand(t, 1), 0)
        .cell(demand.demand(t, 2), 0);
  }
  std::cout << d;

  ProvisionOptions additive;
  additive.include_link_failures = false;
  additive.peak_aware_backup = false;
  const ProvisionResult fig_b =
      SwitchboardProvisioner(w.ctx(), additive).provision(demand);

  ProvisionOptions peak_aware;
  peak_aware.include_link_failures = false;
  const ProvisionResult fig_c =
      SwitchboardProvisioner(w.ctx(), peak_aware).provision(demand);

  auto print_plan = [&](const char* title, const ProvisionResult& r,
                        double paper_total) {
    print_banner(std::cout, title);
    TextTable t({"DC", "serving", "backup", "total"});
    for (DcId dc : w.world.dc_ids()) {
      t.row()
          .cell(w.world.datacenter(dc).name)
          .cell(r.capacity.dc_serving_cores[dc.value()], 0)
          .cell(r.capacity.dc_backup_cores[dc.value()], 0)
          .cell(r.capacity.dc_total_cores(dc), 0);
    }
    std::cout << t << "total cores: "
              << format_double(r.capacity.total_cores(), 0) << " (paper: "
              << format_double(paper_total, 0) << ")\n";
  };

  print_plan("Fig 4(b): default backup plan (Eq 1-2, additive)", fig_b,
             kPaperAdditive);
  print_plan("Fig 4(c): peak-aware backup plan (re-purposed serving cores)",
             fig_c, kPaperPeakAware);
  const double total_b = fig_b.capacity.total_cores();
  const double total_c = fig_c.capacity.total_cores();
  std::cout << "\npeak-aware saving: " << format_double(total_b - total_c, 0)
            << " cores ("
            << format_double(100.0 * (1.0 - total_c / total_b), 0) << "%)\n";
  bench::emit_json("fig4_peak_aware_toy", "additive_total_cores", total_b);
  bench::emit_json("fig4_peak_aware_toy", "peak_aware_total_cores", total_c);
  const bool held = std::abs(total_b - kPaperAdditive) <= 1e-6 &&
                    std::abs(total_c - kPaperPeakAware) <= 1e-6;
  std::cout << (held ? "claim holds: " : "REGRESSION: claim broken: ")
            << "additive plan 480 cores, peak-aware plan 320\n";
  return held ? 0 : 1;
}

}  // namespace sb

int main(int argc, char** argv) { return sb::run(argc, argv); }
