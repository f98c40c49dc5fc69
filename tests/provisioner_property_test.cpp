// Property tests for the provisioning pipeline on randomized worlds and
// workloads: whatever the geography, the provisioned capacity must cover
// the no-failure placement, every failure scenario must remain coverable,
// and the allocation plan built on the capacity must be feasible.
#include <gtest/gtest.h>

#include "core/allocation_plan.h"
#include "core/provisioner.h"
#include "geo/world_presets.h"
#include "trace/config_sampler.h"
#include "trace/scenario.h"
#include "trace/trace_gen.h"

namespace sb {
namespace {

struct RandomCase {
  std::uint64_t seed;
  std::size_t locations;
  std::size_t dcs;
};

class RandomWorldProvisioningTest
    : public ::testing::TestWithParam<RandomCase> {};

TEST_P(RandomWorldProvisioningTest, CapacityCoversAllScenariosAndAllocates) {
  const RandomCase param = GetParam();
  Rng rng(param.seed);
  RandomWorldParams world_params;
  world_params.location_count = param.locations;
  world_params.dc_count = param.dcs;
  GeoModel geo = make_random_world(rng, world_params);

  CallConfigRegistry registry;
  UniverseParams universe_params;
  universe_params.config_count = 60;
  universe_params.total_peak_rate_per_hour = 400.0;
  ConfigUniverse universe =
      sample_universe(geo.world, registry, universe_params, rng);
  const LoadModel loads = LoadModel::paper_default();
  TraceGenerator trace(geo.world, registry, std::move(universe),
                       DiurnalShape{}, TraceParams{}, param.seed);
  const EvalContext ctx{&geo.world, &geo.topology, &geo.latency, &registry,
                        &loads};

  // Top-10 configs over a short design window to keep the LPs tiny.
  const DemandMatrix demand = top_k_demand(
      trace.expected_demand(7200.0, kSecondsPerDay, 2 * kSecondsPerDay), 10);

  ProvisionOptions options;
  options.include_link_failures = param.dcs >= 2;
  if (param.dcs < 2) options.with_backup = false;  // no failover possible
  SwitchboardProvisioner provisioner(ctx, options);
  const ProvisionResult result = provisioner.provision(demand);

  // 1. The no-failure placement hosts all demand within the capacity.
  const UsageProfile usage =
      compute_usage(result.base_placement, demand, ctx);
  const auto dc_peaks = usage.dc_peaks();
  for (std::size_t x = 0; x < geo.world.dc_count(); ++x) {
    EXPECT_LE(dc_peaks[x],
              result.capacity.dc_total_cores(
                  DcId(static_cast<std::uint32_t>(x))) +
                  1e-5)
        << "seed " << param.seed;
  }
  const auto link_peaks = usage.link_peaks();
  for (std::size_t l = 0; l < geo.topology.link_count(); ++l) {
    EXPECT_LE(link_peaks[l], result.capacity.link_gbps[l] + 1e-7);
  }
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      EXPECT_NEAR(result.base_placement.total_calls(t, c),
                  demand.demand(t, c), 1e-4);
    }
  }

  // 2. Every scenario's requirement is within the combined plan.
  for (const ScenarioOutcome& outcome : result.scenarios) {
    for (std::size_t x = 0; x < geo.world.dc_count(); ++x) {
      EXPECT_LE(outcome.required.dc_serving_cores[x],
                result.capacity.dc_total_cores(
                    DcId(static_cast<std::uint32_t>(x))) +
                    1e-5)
          << outcome.scenario.name;
    }
  }

  // 3. The allocation plan is feasible under the capacity and at least as
  // latency-good as the provisioning placement.
  AllocationPlanner planner(ctx, {});
  const AllocationPlan plan = planner.plan(demand, result.capacity, 7200.0);
  EXPECT_LE(plan.mean_acl_ms, result.mean_acl_ms + 1e-6);
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      std::uint32_t quota_total = 0;
      for (DcId dc : geo.world.dc_ids()) {
        quota_total += plan.quota(t, c, dc);
      }
      EXPECT_GE(quota_total + 1e-9, demand.demand(t, c));
    }
  }
}

std::vector<RandomCase> make_cases() {
  std::vector<RandomCase> cases;
  std::uint64_t seed = 9000;
  for (std::size_t dcs : {2u, 3u, 5u}) {
    for (std::size_t locations : {6u, 12u}) {
      for (int rep = 0; rep < 2; ++rep) {
        cases.push_back({seed++, locations, dcs});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomWorldProvisioningTest,
                         ::testing::ValuesIn(make_cases()),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param.seed) +
                                  "_loc" + std::to_string(info.param.locations) +
                                  "_dc" + std::to_string(info.param.dcs);
                         });

}  // namespace
}  // namespace sb
