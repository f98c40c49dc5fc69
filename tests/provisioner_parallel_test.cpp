// Parallel scenario fan-out: with ProvisionOptions::floor_mode == kFromBase
// the failure-scenario LPs are order-independent, so a multi-threaded
// provision() must produce a CapacityPlan BIT-IDENTICAL to the sequential
// run — same per-DC cores, same per-link gbps, same scenario order. The
// file also pins provision()'s start rule: failure scenarios solve cold,
// and only F0 warm-starts, from its own previous basis on a re-provision.
#include <gtest/gtest.h>

#include <cmath>

#include "core/provisioner.h"
#include "geo/world_presets.h"
#include "obs/metrics.h"
#include "trace/config_sampler.h"
#include "trace/trace_gen.h"

namespace sb {
namespace {

struct Fixture {
  Rng rng;
  GeoModel geo;
  CallConfigRegistry registry;
  LoadModel loads = LoadModel::paper_default();
  DemandMatrix demand;

  static RandomWorldParams world_params() {
    RandomWorldParams params;
    params.location_count = 8;
    params.dc_count = 4;
    return params;
  }

  explicit Fixture(std::uint64_t seed)
      : rng(seed),
        geo(make_random_world(rng, world_params())),
        demand(build_demand(seed)) {}

  DemandMatrix build_demand(std::uint64_t seed) {
    UniverseParams universe_params;
    universe_params.config_count = 40;
    universe_params.total_peak_rate_per_hour = 300.0;
    ConfigUniverse universe =
        sample_universe(geo.world, registry, universe_params, rng);
    TraceGenerator trace(geo.world, registry, std::move(universe),
                         DiurnalShape{}, TraceParams{}, seed);
    DemandMatrix full =
        trace.expected_demand(7200.0, kSecondsPerDay, 2 * kSecondsPerDay);
    std::vector<ConfigId> top;
    for (std::size_t i = 0;
         i < std::min<std::size_t>(8, full.config_count()); ++i) {
      top.push_back(full.config_at(i));
    }
    DemandMatrix reduced = make_demand_matrix(top, full.slot_count());
    for (TimeSlot t = 0; t < full.slot_count(); ++t) {
      for (std::size_t c = 0; c < top.size(); ++c) {
        reduced.set_demand(t, c, full.demand(t, c));
      }
    }
    return reduced;
  }

  [[nodiscard]] EvalContext ctx() const {
    return {&geo.world, &geo.topology, &geo.latency, &registry, &loads};
  }
};

void expect_identical_plans(const ProvisionResult& a,
                            const ProvisionResult& b) {
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size());
  for (std::size_t f = 0; f < a.scenarios.size(); ++f) {
    EXPECT_EQ(a.scenarios[f].scenario.name, b.scenarios[f].scenario.name);
    for (std::size_t x = 0; x < a.capacity.dc_serving_cores.size(); ++x) {
      EXPECT_EQ(a.scenarios[f].required.dc_serving_cores[x],
                b.scenarios[f].required.dc_serving_cores[x])
          << a.scenarios[f].scenario.name << " dc " << x;
    }
    for (std::size_t l = 0; l < a.capacity.link_gbps.size(); ++l) {
      EXPECT_EQ(a.scenarios[f].required.link_gbps[l],
                b.scenarios[f].required.link_gbps[l])
          << a.scenarios[f].scenario.name << " link " << l;
    }
  }
  for (std::size_t x = 0; x < a.capacity.dc_serving_cores.size(); ++x) {
    EXPECT_EQ(a.capacity.dc_serving_cores[x], b.capacity.dc_serving_cores[x]);
    EXPECT_EQ(a.capacity.dc_backup_cores[x], b.capacity.dc_backup_cores[x]);
  }
  for (std::size_t l = 0; l < a.capacity.link_gbps.size(); ++l) {
    EXPECT_EQ(a.capacity.link_gbps[l], b.capacity.link_gbps[l]);
  }
}

TEST(ParallelProvisionTest, FromBaseFloorsGiveBitIdenticalPlansAcrossThreads) {
  const Fixture fix(4242);
  ProvisionOptions options;
  options.floor_mode = ProvisionOptions::FloorMode::kFromBase;

  options.scenario_threads = 1;
  SwitchboardProvisioner sequential(fix.ctx(), options);
  const ProvisionResult seq = sequential.provision(fix.demand);

  options.scenario_threads = 4;
  SwitchboardProvisioner parallel(fix.ctx(), options);
  const ProvisionResult par = parallel.provision(fix.demand);

  expect_identical_plans(seq, par);
}

TEST(ParallelProvisionTest, HardwareConcurrencyAlsoMatches) {
  const Fixture fix(999);
  ProvisionOptions options;
  options.floor_mode = ProvisionOptions::FloorMode::kFromBase;

  options.scenario_threads = 1;
  SwitchboardProvisioner sequential(fix.ctx(), options);
  const ProvisionResult seq = sequential.provision(fix.demand);

  options.scenario_threads = 0;  // hardware concurrency
  SwitchboardProvisioner parallel(fix.ctx(), options);
  const ProvisionResult par = parallel.provision(fix.demand);

  expect_identical_plans(seq, par);
}

TEST(ParallelProvisionTest, NoReuseAblationMatchesAcrossThreads) {
  const Fixture fix(777);
  ProvisionOptions options;
  options.capacity_reuse = false;  // independent scenario LPs + max

  options.scenario_threads = 1;
  SwitchboardProvisioner sequential(fix.ctx(), options);
  const ProvisionResult seq = sequential.provision(fix.demand);

  options.scenario_threads = 3;
  SwitchboardProvisioner parallel(fix.ctx(), options);
  const ProvisionResult par = parallel.provision(fix.demand);

  expect_identical_plans(seq, par);
}

// solve_scenario's semantic hint mapping across scenarios: an F0 basis
// mapped onto each failure scenario's smaller column and row sets must land
// on the same optimum and, summed over every failure scenario, take FEWER
// simplex iterations than cold on this small shape (every LP here is below
// kDecomposeMinRows, so both sides run the monolithic primal engine). The
// hint's row statuses matter — a structural-only hint loses the slack/tight
// row pattern and is measurably worse than cold. provision() itself does
// not carry F0's basis into failure scenarios: on large shapes the cold
// block decomposition beats it (see OnlyAReprovisionedF0WarmStarts).
TEST(ParallelProvisionTest, WarmStartedScenarioSolvesUseFewerIterations) {
  const Fixture fix(4242);
  ProvisionOptions options;
  SwitchboardProvisioner prov(fix.ctx(), options);

  ScenarioBasisHint f0;
  const ScenarioOutcome base = prov.solve_scenario(
      fix.demand, FailureScenario::none(), nullptr, nullptr, nullptr, &f0);
  ASSERT_FALSE(f0.empty());

  const std::vector<FailureScenario> scenarios =
      enumerate_failures(fix.geo.world, fix.geo.topology, true);
  ASSERT_GT(scenarios.size(), 1u);
  std::size_t cold_total = 0;
  std::size_t warm_total = 0;
  for (std::size_t f = 1; f < scenarios.size(); ++f) {
    const ScenarioOutcome cold =
        prov.solve_scenario(fix.demand, scenarios[f], nullptr, &base.required);
    const ScenarioOutcome warm = prov.solve_scenario(
        fix.demand, scenarios[f], nullptr, &base.required, &f0);
    EXPECT_NEAR(cold.lp_objective, warm.lp_objective,
                1e-7 * std::max(1.0, std::abs(cold.lp_objective)))
        << scenarios[f].name;
    cold_total += cold.lp_iterations;
    warm_total += warm.lp_iterations;
  }
  EXPECT_LT(warm_total, cold_total);
}

// The chained path (the default), with every failure scenario solved cold
// on the running combined plan as its floor, must produce a plan whose
// every scenario requirement the combined capacity dominates.
TEST(ParallelProvisionTest, ChainedModeStillCoversEveryScenario) {
  const Fixture fix(31337);
  ProvisionOptions options;  // defaults: kChained, cold scenarios, sequential
  SwitchboardProvisioner provisioner(fix.ctx(), options);
  const ProvisionResult result = provisioner.provision(fix.demand);
  ASSERT_FALSE(result.scenarios.empty());
  for (const ScenarioOutcome& outcome : result.scenarios) {
    for (std::size_t x = 0; x < fix.geo.world.dc_count(); ++x) {
      EXPECT_LE(outcome.required.dc_serving_cores[x],
                result.capacity.dc_total_cores(
                    DcId(static_cast<std::uint32_t>(x))) +
                    1e-5)
          << outcome.scenario.name;
    }
    for (std::size_t l = 0; l < fix.geo.topology.link_count(); ++l) {
      EXPECT_LE(outcome.required.link_gbps[l],
                result.capacity.link_gbps[l] + 1e-7)
          << outcome.scenario.name;
    }
  }
}

// provision()'s start rule. A cold provision warm-starts nothing; a
// re-provision given its own F0 basis warm-starts exactly one LP (F0), and
// that warm F0 lands on the optimum a cold F0 solve of the same demand
// finds.
TEST(ParallelProvisionTest, OnlyAReprovisionedF0WarmStarts) {
  const Fixture fix(4242);
  const SwitchboardProvisioner prov(fix.ctx(), ProvisionOptions{});
#ifdef SB_METRICS_ENABLED
  const obs::Counter& warm_starts =
      obs::MetricsRegistry::global().counter("sb.lp.warm_starts");
  const std::uint64_t before_cold = warm_starts.value();
#endif
  ScenarioBasisHint basis;
  const ProvisionResult cold = prov.provision(fix.demand, nullptr, &basis);
  ASSERT_GT(cold.scenarios.size(), 1u);
  ASSERT_FALSE(basis.empty());
#ifdef SB_METRICS_ENABLED
  EXPECT_EQ(warm_starts.value() - before_cold, 0u);
#endif

  // A per-config correction, as the closed loop computes one.
  DemandMatrix corrected = fix.demand;
  for (TimeSlot t = 0; t < corrected.slot_count(); ++t) {
    for (std::size_t c = 0; c < corrected.config_count(); ++c) {
      const double factor = 0.8 + 0.1 * static_cast<double>(c % 5);
      corrected.set_demand(t, c, corrected.demand(t, c) * factor);
    }
  }
#ifdef SB_METRICS_ENABLED
  const std::uint64_t before_warm = warm_starts.value();
#endif
  const ProvisionResult warm = prov.provision(corrected, &basis, &basis);
#ifdef SB_METRICS_ENABLED
  EXPECT_EQ(warm_starts.value() - before_warm, 1u);
#endif
  const ScenarioOutcome f0_cold =
      prov.solve_scenario(corrected, FailureScenario::none());
  EXPECT_NEAR(warm.scenarios.front().lp_objective, f0_cold.lp_objective,
              1e-9 * std::max(1.0, std::abs(f0_cold.lp_objective)));
}

}  // namespace
}  // namespace sb
