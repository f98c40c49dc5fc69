// Parallel scenario fan-out: with ProvisionOptions::floor_mode == kFromBase
// the failure-scenario LPs are order-independent, so a multi-threaded
// provision() must produce a CapacityPlan BIT-IDENTICAL to the sequential
// run — same per-DC cores, same per-link gbps, same scenario order. The
// file also pins provision()'s start rule: a cold provision solves every
// scenario cold, and a re-provision re-solves every scenario from its own
// retained model and basis (rebuilding the model when the demand pattern
// changed), landing on the optimum a cold solve at the same floors finds,
// and bit for bit on what the same re-provision through a copy of its hint
// (whose retained LPs rebuild their dual engines) computes.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <optional>
#include <string>
#include <thread>

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
// row pattern and is measurably worse than cold. F0's state is a foreign
// hint here, so each failure scenario rebuilds its own model and keeps the
// primal engine. provision() itself never carries F0's basis into failure
// scenarios: on large shapes the cold block decomposition beats it.
TEST(ParallelProvisionTest, WarmStartedScenarioSolvesUseFewerIterations) {
  const Fixture fix(4242);
  ProvisionOptions options;
  SwitchboardProvisioner prov(fix.ctx(), options);

  ScenarioWarmStart f0;
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

/// A per-config correction, as the closed loop computes one.
DemandMatrix corrected_demand(const DemandMatrix& demand) {
  DemandMatrix corrected = demand;
  for (TimeSlot t = 0; t < corrected.slot_count(); ++t) {
    for (std::size_t c = 0; c < corrected.config_count(); ++c) {
      const double factor = 0.8 + 0.1 * static_cast<double>(c % 5);
      corrected.set_demand(t, c, corrected.demand(t, c) * factor);
    }
  }
  return corrected;
}

/// `demand` with every cell scaled by `factor` (same positive pattern).
DemandMatrix scaled_demand(const DemandMatrix& demand, double factor) {
  DemandMatrix scaled = demand;
  for (TimeSlot t = 0; t < scaled.slot_count(); ++t) {
    for (std::size_t c = 0; c < scaled.config_count(); ++c) {
      scaled.set_demand(t, c, scaled.demand(t, c) * factor);
    }
  }
  return scaled;
}

/// Every scenario of `warm` reaches the objective a cold solve_scenario of
/// that scenario finds at the same floors: the combined plan of the
/// scenarios before it (the default chained floors).
void expect_cold_objectives(const SwitchboardProvisioner& prov,
                            const DemandMatrix& demand,
                            const ProvisionResult& warm) {
  CapacityPlan combined = warm.scenarios.front().required;
  for (std::size_t f = 0; f < warm.scenarios.size(); ++f) {
    const ScenarioOutcome& got = warm.scenarios[f];
    const ScenarioOutcome cold = prov.solve_scenario(
        demand, got.scenario, nullptr, f == 0 ? nullptr : &combined);
    EXPECT_NEAR(got.lp_objective, cold.lp_objective,
                1e-9 * std::max(1.0, std::abs(cold.lp_objective)))
        << got.scenario.name;
    combined = max_capacity(combined, got.required);
  }
}

// provision()'s start rule. A cold provision warm-starts nothing and leaves
// one retained state per scenario in its output hint; a re-provision
// through that hint warm-starts exactly one LP per scenario (F0, every DC
// failure and every link failure), each on the optimum a cold solve at the
// same floors finds.
TEST(ParallelProvisionTest, ReprovisionWarmStartsEveryScenarioFromItsOwnState) {
  const Fixture fix(4242);
  const SwitchboardProvisioner prov(fix.ctx(), ProvisionOptions{});
#ifdef SB_METRICS_ENABLED
  const obs::Counter& warm_starts =
      obs::MetricsRegistry::global().counter("sb.lp.warm_starts");
  const std::uint64_t before_cold = warm_starts.value();
#endif
  ScenarioBasisHint basis;
  const ProvisionResult cold = prov.provision(fix.demand, nullptr, &basis);
  ASSERT_EQ(cold.scenarios.size(), 19u);
  ASSERT_EQ(basis.scenarios.size(), cold.scenarios.size());
  for (const ScenarioWarmStart& state : basis.scenarios) {
    EXPECT_FALSE(state.empty());
    EXPECT_TRUE(state.lp.has_value());
  }
#ifdef SB_METRICS_ENABLED
  EXPECT_EQ(warm_starts.value() - before_cold, 0u);
#endif

  const DemandMatrix corrected = corrected_demand(fix.demand);
#ifdef SB_METRICS_ENABLED
  const std::uint64_t before_warm = warm_starts.value();
#endif
  const ProvisionResult warm = prov.provision(corrected, &basis, &basis);
#ifdef SB_METRICS_ENABLED
  EXPECT_EQ(warm_starts.value() - before_warm, cold.scenarios.size());
#endif
  ASSERT_EQ(warm.scenarios.size(), cold.scenarios.size());
  expect_cold_objectives(prov, corrected, warm);
}

/// The demand each completeness row of `state`'s retained model holds.
void expect_model_demand(const ScenarioWarmStart& state,
                         const DemandMatrix& demand) {
  ASSERT_TRUE(state.lp.has_value());
  const ScenarioLp& lp = *state.lp;
  for (std::size_t r = 0; r < lp.row_keys.size(); ++r) {
    const auto& [kind, idx] = lp.row_keys[r];
    if (kind != 'E') continue;
    EXPECT_EQ(lp.model.model().constraint(static_cast<int>(r)).rhs,
              demand.demand(static_cast<TimeSlot>(idx / demand.config_count()),
                            idx % demand.config_count()));
  }
}

// Copies of a hint own their models: two provisions running at once, each
// re-solving its own copy of one hint in place at a different demand, both
// get the cold result, and each copy's models end up at its own demand.
TEST(ParallelProvisionTest, CopiedHintsReprovisionIndependently) {
  const Fixture fix(4242);
  const SwitchboardProvisioner prov(fix.ctx(), ProvisionOptions{});
  ScenarioBasisHint basis;
  (void)prov.provision(fix.demand, nullptr, &basis);
  ScenarioBasisHint copy = basis;

  const DemandMatrix corrected = corrected_demand(fix.demand);
  const DemandMatrix scaled = scaled_demand(fix.demand, 1.15);
  std::optional<ProvisionResult> second;
  std::thread other(
      [&] { second = prov.provision(scaled, &copy, &copy); });
  const ProvisionResult first = prov.provision(corrected, &basis, &basis);
  other.join();
  expect_cold_objectives(prov, corrected, first);
  expect_cold_objectives(prov, scaled, *second);
  for (std::size_t f = 0; f < basis.scenarios.size(); ++f) {
    expect_model_demand(basis.scenarios[f], corrected);
    expect_model_demand(copy.scenarios[f], scaled);
  }
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Byte equality of two provisions: every scenario's objective, iterations
/// and requirement, the combined plan, the base placement and its ACL.
void expect_bitwise_equal(const ProvisionResult& a, const ProvisionResult& b,
                          const std::string& step) {
  ASSERT_EQ(a.scenarios.size(), b.scenarios.size()) << step;
  for (std::size_t f = 0; f < a.scenarios.size(); ++f) {
    const ScenarioOutcome& oa = a.scenarios[f];
    const ScenarioOutcome& ob = b.scenarios[f];
    EXPECT_TRUE(same_bits(oa.lp_objective, ob.lp_objective))
        << step << " " << oa.scenario.name;
    EXPECT_EQ(oa.lp_iterations, ob.lp_iterations)
        << step << " " << oa.scenario.name;
    for (std::size_t x = 0; x < oa.required.dc_serving_cores.size(); ++x) {
      EXPECT_TRUE(same_bits(oa.required.dc_serving_cores[x],
                            ob.required.dc_serving_cores[x]))
          << step << " " << oa.scenario.name << " dc " << x;
    }
    for (std::size_t l = 0; l < oa.required.link_gbps.size(); ++l) {
      EXPECT_TRUE(same_bits(oa.required.link_gbps[l], ob.required.link_gbps[l]))
          << step << " " << oa.scenario.name << " link " << l;
    }
  }
  for (std::size_t x = 0; x < a.capacity.dc_serving_cores.size(); ++x) {
    EXPECT_TRUE(same_bits(a.capacity.dc_serving_cores[x],
                          b.capacity.dc_serving_cores[x]))
        << step;
    EXPECT_TRUE(same_bits(a.capacity.dc_backup_cores[x],
                          b.capacity.dc_backup_cores[x]))
        << step;
  }
  for (std::size_t l = 0; l < a.capacity.link_gbps.size(); ++l) {
    EXPECT_TRUE(same_bits(a.capacity.link_gbps[l], b.capacity.link_gbps[l]))
        << step;
  }
  const PlacementMatrix& pa = a.base_placement;
  const PlacementMatrix& pb = b.base_placement;
  for (TimeSlot t = 0; t < pa.slot_count(); ++t) {
    for (std::size_t c = 0; c < pa.config_count(); ++c) {
      for (std::size_t x = 0; x < pa.dc_count(); ++x) {
        const DcId dc(static_cast<std::uint32_t>(x));
        EXPECT_TRUE(same_bits(pa.calls(t, c, dc), pb.calls(t, c, dc)))
            << step << " placement (" << t << ", " << c << ", " << x << ")";
      }
    }
  }
  EXPECT_TRUE(same_bits(a.mean_acl_ms, b.mean_acl_ms)) << step;
}

/// Three chained same-structure re-provisions (x1.15, x0.9, then per-config
/// factors) run twice: in place through one hint, whose retained LPs build
/// their dual engines on the first and reload them after, and through a
/// fresh copy of each step's input hint, whose LPs rebuild every engine.
/// Both must agree bit for bit.
void expect_in_place_matches_copies(const ProvisionOptions& options) {
  const Fixture fix(4242);
  const SwitchboardProvisioner prov(fix.ctx(), options);
  ScenarioBasisHint in_place;
  (void)prov.provision(fix.demand, nullptr, &in_place);
  ScenarioBasisHint carried = in_place;
  const std::vector<DemandMatrix> steps = {scaled_demand(fix.demand, 1.15),
                                           scaled_demand(fix.demand, 0.9),
                                           corrected_demand(fix.demand)};
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const ProvisionResult a = prov.provision(steps[k], &in_place, &in_place);
    for (const ScenarioWarmStart& state : in_place.scenarios) {
      ASSERT_TRUE(state.lp.has_value());
      EXPECT_TRUE(state.lp->model.has_engine()) << "step " << k;
    }
    ScenarioBasisHint copy = carried;
    for (const ScenarioWarmStart& state : copy.scenarios) {
      EXPECT_FALSE(state.lp->model.has_engine()) << "step " << k;
    }
    const ProvisionResult b = prov.provision(steps[k], &copy, &copy);
    expect_bitwise_equal(a, b, "step " + std::to_string(k));
    carried = copy;
  }
}

TEST(ParallelProvisionTest, InPlaceReprovisionsMatchCopiedHintsBitForBit) {
  ProvisionOptions options;  // chained floors, one thread
  options.scenario_threads = 1;
  expect_in_place_matches_copies(options);
}

TEST(ParallelProvisionTest, InPlaceFromBaseReprovisionsMatchCopiesOnFourThreads) {
  ProvisionOptions options;
  options.floor_mode = ProvisionOptions::FloorMode::kFromBase;
  options.scenario_threads = 4;
  expect_in_place_matches_copies(options);
}

// A demand cell that drops to zero removes its placement columns and its
// completeness row, so every scenario's retained model no longer matches:
// each is rebuilt (warm-started from its own basis) and still lands on the
// cold optimum.
TEST(ParallelProvisionTest, ChangedDemandPatternRebuildsAndMatchesCold) {
  const Fixture fix(4242);
  const SwitchboardProvisioner prov(fix.ctx(), ProvisionOptions{});
  ScenarioBasisHint basis;
  (void)prov.provision(fix.demand, nullptr, &basis);
  const std::size_t rows_before =
      basis.scenarios.front().lp->model.model().constraint_count();

  DemandMatrix zeroed = corrected_demand(fix.demand);
  ASSERT_GT(zeroed.demand(0, 0), 0.0);
  zeroed.set_demand(0, 0, 0.0);
  const ProvisionResult warm = prov.provision(zeroed, &basis, &basis);
  ASSERT_TRUE(basis.scenarios.front().lp.has_value());
  EXPECT_EQ(basis.scenarios.front().lp->model.model().constraint_count(),
            rows_before - 1);
  expect_cold_objectives(prov, zeroed, warm);
}

}  // namespace
}  // namespace sb
