// Tests for capacity plans, the backup LP, failure scenarios, and the
// Switchboard provisioning LP — including an exact reproduction of the
// paper's Fig 4 toy example (peak-aware backup needs 320 cores where the
// additive Eq 1-2 plan needs 480) and the exact joint LP on the APAC
// design day.
#include <gtest/gtest.h>

#include <algorithm>

#include "apac_design_day.h"
#include "calls/acl.h"
#include "common/error.h"
#include "core/backup_lp.h"
#include "core/provisioner.h"

namespace sb {
namespace {

/// Fig 4's setting: three co-equal DCs (think Japan, Hong Kong, India),
/// every country within latency range of every DC, expensive WAN so serving
/// stays local in the no-failure case.
struct Fig4World {
  World world;
  Topology topology;
  LatencyMatrix latency;
  CallConfigRegistry registry;
  LoadModel loads{{1.0, 1.5, 3.0}, {1.0, 15.0, 35.0}};  // 1 core per leg

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

  Fig4World() : world(make_world()), topology(world), latency(3, 3) {
    // Triangle of very expensive links: offloading a call costs far more in
    // WAN than it can save in compute, so F0 serves locally.
    topology.add_link(LocationId(0), LocationId(1), 20.0, 1e5);
    topology.add_link(LocationId(1), LocationId(2), 20.0, 1e5);
    topology.add_link(LocationId(0), LocationId(2), 20.0, 1e5);
    topology.compute_paths();
    latency = LatencyMatrix::from_topology(world, topology, 8.0);
  }

  [[nodiscard]] EvalContext ctx() {
    return EvalContext{&world, &topology, &latency, &registry, &loads};
  }

  /// One single-participant audio config per country; demand in "cores" is
  /// then numerically equal to calls.
  [[nodiscard]] DemandMatrix fig4_demand() {
    std::vector<ConfigId> configs;
    for (std::uint32_t u = 0; u < 3; ++u) {
      configs.push_back(registry.intern(
          CallConfig::make({{LocationId(u), 1}}, MediaType::kAudio)));
    }
    DemandMatrix demand = make_demand_matrix(configs, 3);
    // Fig 4(a): JP peaks 100 at T1; HK peaks 110 at T2; IN peaks 110 at T3.
    const double jp[3] = {100, 50, 40};
    const double hk[3] = {60, 110, 50};
    const double in[3] = {20, 40, 110};
    for (TimeSlot t = 0; t < 3; ++t) {
      demand.set_demand(t, 0, jp[t]);
      demand.set_demand(t, 1, hk[t]);
      demand.set_demand(t, 2, in[t]);
    }
    return demand;
  }
};

TEST(BackupLpTest, Fig4AdditiveBackupIs160Total) {
  // Serving 100/110/110 -> unique optimum B = (60, 50, 50).
  const auto backup = solve_backup_lp({100.0, 110.0, 110.0});
  ASSERT_EQ(backup.size(), 3u);
  EXPECT_NEAR(backup[0], 60.0, 1e-6);
  EXPECT_NEAR(backup[1], 50.0, 1e-6);
  EXPECT_NEAR(backup[2], 50.0, 1e-6);
}

TEST(BackupLpTest, EqualServingSpreadsEvenly) {
  const auto backup = solve_backup_lp({90.0, 90.0, 90.0, 90.0});
  double total = 0.0;
  for (double b : backup) total += b;
  // n DCs with equal serving S: total backup = n*S/ (2(n-1))... the LP
  // bound is total >= max_x S_x ... with 4 DCs each must be covered by the
  // other three: B_total - B_x >= 90 for all x -> B_total >= 90 + max B_x,
  // minimized at B_total = 120 (each 30).
  EXPECT_NEAR(total, 120.0, 1e-6);
}

TEST(BackupLpTest, SingleDcThrows) {
  EXPECT_THROW(solve_backup_lp({10.0}), SolveError);
  EXPECT_NO_THROW(solve_backup_lp({0.0}));
}

TEST(FailureTest, EnumerationCoversAll) {
  Fig4World w;
  const auto all = enumerate_failures(w.world, w.topology, true);
  EXPECT_EQ(all.size(), 1 + 3 + 3u);  // F0 + 3 DCs + 3 links
  const auto no_links = enumerate_failures(w.world, w.topology, false);
  EXPECT_EQ(no_links.size(), 4u);
  EXPECT_FALSE(dc_available(all[1], DcId(0)));
  EXPECT_TRUE(dc_available(all[1], DcId(1)));
}

TEST(Fig4Test, PeakAwareProvisioningNeeds320Cores) {
  Fig4World w;
  DemandMatrix demand = w.fig4_demand();
  ProvisionOptions options;
  options.include_link_failures = false;  // Fig 4 considers DC failures
  SwitchboardProvisioner provisioner(w.ctx(), options);
  const ProvisionResult result = provisioner.provision(demand);

  // Fig 4(c): 100 cores in JP, 110 in HK, 110 in IN — failures are served
  // from other DCs' off-peak slack, no extra capacity.
  EXPECT_NEAR(result.capacity.dc_total_cores(DcId(0)), 100.0, 1e-4);
  EXPECT_NEAR(result.capacity.dc_total_cores(DcId(1)), 110.0, 1e-4);
  EXPECT_NEAR(result.capacity.dc_total_cores(DcId(2)), 110.0, 1e-4);
  EXPECT_NEAR(result.capacity.total_cores(), 320.0, 1e-3);

  // No-failure placement serves everything locally (WAN is expensive).
  for (TimeSlot t = 0; t < 3; ++t) {
    for (std::uint32_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(result.base_placement.calls(t, c, DcId(c)),
                  demand.demand(t, c), 1e-5);
    }
  }
}

TEST(Fig4Test, AdditiveBackupNeeds480Cores) {
  Fig4World w;
  DemandMatrix demand = w.fig4_demand();
  ProvisionOptions options;
  options.include_link_failures = false;
  options.peak_aware_backup = false;  // Fig 4(b)'s default plan
  SwitchboardProvisioner provisioner(w.ctx(), options);
  const ProvisionResult result = provisioner.provision(demand);

  // Fig 4(b): every DC ends up at 160 cores (serving + additive backup).
  for (std::uint32_t x = 0; x < 3; ++x) {
    EXPECT_NEAR(result.capacity.dc_total_cores(DcId(x)), 160.0, 1e-3);
  }
  EXPECT_NEAR(result.capacity.total_cores(), 480.0, 1e-3);
}

TEST(Fig4Test, JointScenarioLpNeverCostsMoreThanSequential) {
  // The exact Eq 3+7/8 joint LP can beat the sequential decomposition even
  // on the toy: once failure scenarios force WAN capacity, the joint LP
  // reuses it during normal serving to pack cores below 320 (the paper's
  // §4.2 network-reuse idea). It must never cost more than sequential.
  Fig4World w;
  DemandMatrix demand = w.fig4_demand();
  ProvisionOptions sequential;
  sequential.include_link_failures = false;
  ProvisionOptions joint = sequential;
  joint.joint_scenarios = true;
  const ProvisionResult seq =
      SwitchboardProvisioner(w.ctx(), sequential).provision(demand);
  const ProvisionResult jnt =
      SwitchboardProvisioner(w.ctx(), joint).provision(demand);
  // 290 is the LP lower bound from summing the failure covering
  // constraints; joint must land in [290, 320].
  EXPECT_LE(jnt.capacity.total_cores(), 320.0 + 1e-3);
  EXPECT_GE(jnt.capacity.total_cores(), 290.0 - 1e-3);
  const double seq_cost = seq.capacity.total_cost(w.world, w.topology);
  const double jnt_cost = jnt.capacity.total_cost(w.world, w.topology);
  EXPECT_LE(jnt_cost, seq_cost * 1.0001);
}

// The exact joint LP on a real world: the APAC design day's top 5 configs,
// F0 and its five DC failures. It costs no more than the sequential
// provision, its capacity alone survives every DC failure (a solve floored
// at it buys nothing), and its F0 placement serves every demand cell.
TEST(JointScenarioTest, DesignDayJointLpCoversEveryDcFailureAtNoMoreCost) {
  const test::ApacDesignDay day;
  const DemandMatrix demand = top_k_demand(day.demand, 5);
  const World& world = day.scenario.world();
  const Topology& topo = day.scenario.topology();
  ProvisionOptions sequential;
  sequential.include_link_failures = false;
  ProvisionOptions joint = sequential;
  joint.joint_scenarios = true;
  const ProvisionResult seq =
      SwitchboardProvisioner(day.ctx(), sequential).provision(demand);
  const SwitchboardProvisioner provisioner(day.ctx(), joint);
  const ProvisionResult jnt = provisioner.provision(demand);
  ASSERT_EQ(jnt.scenarios.size(), 1u);
  EXPECT_LE(jnt.capacity.total_cost(world, topo),
            seq.capacity.total_cost(world, topo) * (1.0 + 1e-9));

  for (DcId dc : world.dc_ids()) {
    const ScenarioOutcome outcome = provisioner.solve_scenario(
        demand, FailureScenario::dc_failure(dc, world), nullptr,
        &jnt.capacity);
    for (DcId x : world.dc_ids()) {
      EXPECT_LE(outcome.required.dc_serving_cores[x.value()],
                jnt.capacity.dc_total_cores(x) + 1e-6)
          << outcome.scenario.name;
    }
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      EXPECT_LE(outcome.required.link_gbps[l], jnt.capacity.link_gbps[l] + 1e-6)
          << outcome.scenario.name;
    }
  }
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      EXPECT_NEAR(jnt.base_placement.total_calls(t, c), demand.demand(t, c),
                  1e-6);
    }
  }
}

/// ACL-weighted cost of a placement: calls times the ACL of hosting them
/// where they are placed, summed over every cell (the joint LP's tie-break
/// term without its epsilon).
double acl_weighted_cost(const PlacementMatrix& placement,
                         const DemandMatrix& demand, const EvalContext& ctx) {
  double cost = 0.0;
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      const CallConfig& config = ctx.registry->get(demand.config_at(c));
      for (DcId x : ctx.world->dc_ids()) {
        const double calls = placement.calls(t, c, x);
        if (calls != 0.0) cost += calls * acl_ms(config, x, *ctx.latency);
      }
    }
  }
  return cost;
}

// The joint LP's reported placement is its F0 block's: it places calls only
// at F0 candidates, fits the joint capacity in every slot, and costs in ACL
// what F0 alone solved on the joint capacity costs (that solve buys no
// capacity, so only its placement's ACL is priced). A read-back that took S
// from every block would mix failure placements into it. Six configs, not
// five: at five, F0 leaves the last DC idle, so the last block (that DC's
// failure) reproduces F0's placement and such a mix goes unseen; at six it
// costs 4.4% more ACL.
TEST(JointScenarioTest, DesignDayJointPlacementIsItsF0Block) {
  const test::ApacDesignDay day;
  const DemandMatrix demand = top_k_demand(day.demand, 6);
  const EvalContext ctx = day.ctx();
  const World& world = *ctx.world;
  const Topology& topo = *ctx.topology;
  ProvisionOptions joint;
  joint.include_link_failures = false;
  joint.joint_scenarios = true;
  const SwitchboardProvisioner provisioner(ctx, joint);
  const ProvisionResult jnt = provisioner.provision(demand);
  const PlacementMatrix& base = jnt.base_placement;

  for (std::size_t c = 0; c < demand.config_count(); ++c) {
    const std::vector<DcId> candidates =
        feasible_dcs(ctx.registry->get(demand.config_at(c)), world.dc_ids(),
                     *ctx.latency, kAclThresholdMs);
    for (DcId x : world.dc_ids()) {
      if (std::find(candidates.begin(), candidates.end(), x) !=
          candidates.end()) {
        continue;
      }
      for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
        EXPECT_EQ(base.calls(t, c, x), 0.0)
            << "config " << c << " slot " << t << " at non-candidate "
            << world.datacenter(x).name;
      }
    }
  }

  const UsageProfile usage = compute_usage(base, demand, ctx);
  for (DcId x : world.dc_ids()) {
    for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
      EXPECT_LE(usage.dc_cores[x.value()][t],
                jnt.capacity.dc_total_cores(x) + 1e-6)
          << world.datacenter(x).name << " slot " << t;
    }
  }
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
      EXPECT_LE(usage.link_gbps[l][t], jnt.capacity.link_gbps[l] + 1e-6)
          << topo.link(LinkId(static_cast<std::uint32_t>(l))).name
          << " slot " << t;
    }
  }

  PlacementMatrix f0(demand.slot_count(), demand.config_count(),
                     world.dc_count());
  (void)provisioner.solve_scenario(demand, FailureScenario::none(), &f0,
                                   &jnt.capacity);
  const double want = acl_weighted_cost(f0, demand, ctx);
  EXPECT_NEAR(acl_weighted_cost(base, demand, ctx), want,
              1e-6 * std::max(1.0, want));
}

// The fused joint LP always prices network capacity, so the §4.3
// compute-first ablation cannot apply to it: the combination is rejected
// rather than half applied (only the link-failure passes would honour it).
TEST(Fig4Test, JointScenariosRejectComputeFirstNetwork) {
  Fig4World w;
  ProvisionOptions options;
  options.joint_scenarios = true;
  options.joint_network = false;
  EXPECT_THROW(SwitchboardProvisioner(w.ctx(), options), InvalidArgument);
  options.joint_scenarios = false;
  EXPECT_NO_THROW(SwitchboardProvisioner(w.ctx(), options));
}

TEST(Fig4Test, WithoutBackupMatchesLocalPeaks) {
  Fig4World w;
  DemandMatrix demand = w.fig4_demand();
  ProvisionOptions options;
  options.with_backup = false;
  SwitchboardProvisioner provisioner(w.ctx(), options);
  const ProvisionResult result = provisioner.provision(demand);
  EXPECT_NEAR(result.capacity.total_cores(), 320.0, 1e-3);
  for (double b : result.capacity.dc_backup_cores) {
    EXPECT_DOUBLE_EQ(b, 0.0);
  }
  EXPECT_EQ(result.scenarios.size(), 1u);
}

TEST(Fig4Test, ScenarioCapacityCoversShiftedDemand) {
  Fig4World w;
  DemandMatrix demand = w.fig4_demand();
  ProvisionOptions options;
  options.include_link_failures = false;
  SwitchboardProvisioner provisioner(w.ctx(), options);

  // Under F_JP, every placement row must still place all demand, at alive
  // DCs only, within the scenario's own capacity.
  PlacementMatrix placement(3, 3, 3);
  const ScenarioOutcome outcome = provisioner.solve_scenario(
      demand, FailureScenario::dc_failure(DcId(0), w.world), &placement);
  for (TimeSlot t = 0; t < 3; ++t) {
    for (std::uint32_t c = 0; c < 3; ++c) {
      EXPECT_NEAR(placement.total_calls(t, c), demand.demand(t, c), 1e-5);
      EXPECT_NEAR(placement.calls(t, c, DcId(0)), 0.0, 1e-9);
    }
  }
  const EvalContext ctx = w.ctx();
  const UsageProfile usage = compute_usage(placement, demand, ctx);
  const auto peaks = usage.dc_peaks();
  for (std::uint32_t x = 0; x < 3; ++x) {
    EXPECT_LE(peaks[x], outcome.required.dc_serving_cores[x] + 1e-5);
  }
}

TEST(CapacityPlanTest, CostsAndMax) {
  Fig4World w;
  CapacityPlan a = CapacityPlan::zeros(w.world, w.topology);
  a.dc_serving_cores = {10, 20, 30};
  a.dc_backup_cores = {1, 2, 3};
  a.link_gbps = {5, 0, 0};
  EXPECT_DOUBLE_EQ(a.total_cores(), 66.0);
  EXPECT_DOUBLE_EQ(a.total_wan_gbps(), 5.0);
  EXPECT_DOUBLE_EQ(a.compute_cost(w.world), 66.0);  // unit core costs
  EXPECT_DOUBLE_EQ(a.network_cost(w.topology), 5.0 * 1e5);

  CapacityPlan b = CapacityPlan::zeros(w.world, w.topology);
  b.dc_serving_cores = {50, 0, 0};
  b.link_gbps = {0, 7, 0};
  const CapacityPlan m = max_capacity(a, b);
  EXPECT_DOUBLE_EQ(m.dc_total_cores(DcId(0)), 50.0);
  EXPECT_DOUBLE_EQ(m.dc_total_cores(DcId(1)), 22.0);
  EXPECT_DOUBLE_EQ(m.link_gbps[0], 5.0);
  EXPECT_DOUBLE_EQ(m.link_gbps[1], 7.0);
}

TEST(HostingProfileTest, AggregatesLegsAndLinks) {
  Fig4World w;
  const CallConfig config = CallConfig::make(
      {{LocationId(0), 2}, {LocationId(1), 1}}, MediaType::kVideo);
  const EvalContext ctx = w.ctx();
  const HostingProfile profile =
      make_hosting_profile(config, DcId(0), ctx);
  EXPECT_DOUBLE_EQ(profile.cores_per_call, 3.0 * 3);  // 3 legs x CL_video
  // Only the HK leg crosses the WAN: one link, 35 Mbps -> 0.035 Gbps.
  ASSERT_EQ(profile.link_gbps_per_call.size(), 1u);
  EXPECT_NEAR(profile.link_gbps_per_call[0].second, 0.035, 1e-9);
  EXPECT_GT(profile.acl_ms, 0.0);
}

}  // namespace
}  // namespace sb
