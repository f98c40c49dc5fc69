// provision()'s one scenario-solve path. The combined plan covers every
// scenario's requirement, with and without cross-scenario capacity reuse.
// A cold provision solves every scenario cold, and a re-provision re-solves
// every scenario from its own retained model and basis, landing on the
// optimum a cold solve at the same floors finds and bit for bit on what the
// same re-provision through a copy of its hint (whose retained LPs rebuild
// their dual engines) computes. The re-provision tests run on the APAC
// design day under per-config corrections, which move the optimum, so every
// in-place re-solve takes real dual pivots (a uniform scaling keeps every
// basis optimal and takes none). A demand-pattern change rebuilds every
// scenario, so that re-provision equals a cold provision bit for bit. The
// controller facade maps its (warm, basis_out) pair onto the one in-place
// hint, and a failed re-provision leaves the hint empty.
#include <gtest/gtest.h>

#include <cmath>
#include <optional>
#include <thread>

#include "apac_design_day.h"
#include "check/oracles.h"
#include "common/error.h"
#include "core/controller.h"
#include "core/provisioner.h"
#include "geo/world_presets.h"
#include "obs/metrics.h"
#include "trace/config_sampler.h"
#include "trace/scenario.h"
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
    return top_k_demand(
        trace.expected_demand(7200.0, kSecondsPerDay, 2 * kSecondsPerDay), 8);
  }

  [[nodiscard]] EvalContext ctx() const {
    return {&geo.world, &geo.topology, &geo.latency, &registry, &loads};
  }
};

/// The combined plan dominates every scenario's requirement.
void expect_covers_every_scenario(const Fixture& fix,
                                  const ProvisionResult& result) {
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

// The default path: every failure scenario solved cold on the running
// combined plan as its floor.
TEST(ParallelProvisionTest, ChainedModeStillCoversEveryScenario) {
  const Fixture fix(31337);
  const ProvisionResult result =
      SwitchboardProvisioner(fix.ctx(), ProvisionOptions{})
          .provision(fix.demand);
  expect_covers_every_scenario(fix, result);
}

// The capacity_reuse ablation prices every scenario from scratch and takes
// the per-resource max: it still covers every scenario, and here it costs
// no less than the default, whose floors let each failure scenario reuse
// what the scenarios before it bought.
TEST(ParallelProvisionTest, NoReuseAblationCoversEveryScenarioAtNoLessCost) {
  const Fixture fix(777);
  ProvisionOptions options;
  options.capacity_reuse = false;
  const ProvisionResult no_reuse =
      SwitchboardProvisioner(fix.ctx(), options).provision(fix.demand);
  expect_covers_every_scenario(fix, no_reuse);
  const ProvisionResult full =
      SwitchboardProvisioner(fix.ctx(), ProvisionOptions{})
          .provision(fix.demand);
  const double full_cost =
      full.capacity.total_cost(fix.geo.world, fix.geo.topology);
  EXPECT_GE(no_reuse.capacity.total_cost(fix.geo.world, fix.geo.topology),
            full_cost * (1.0 - 1e-9));
}

/// A per-config correction, as the closed loop computes one: column c
/// scaled by base + step * (c % 5).
DemandMatrix corrected_demand(const DemandMatrix& demand, double base = 0.8,
                              double step = 0.1) {
  return test::scaled(demand, [=](std::size_t c) {
    return base + step * static_cast<double>(c % 5);
  });
}

/// The simplex iterations a provision's scenario LPs took, summed.
std::size_t lp_iterations(const ProvisionResult& result) {
  std::size_t total = 0;
  for (const ScenarioOutcome& outcome : result.scenarios) {
    total += outcome.lp_iterations;
  }
  return total;
}

/// A re-provision through the hint `cold` filled takes real dual pivots, and
/// fewer than `cold` took: a dual engine whose reduced costs drift still
/// reaches the optimum, but only after many more pivots than a cold solve.
void expect_warm_pivots(const ProvisionResult& warm,
                        const ProvisionResult& cold) {
  EXPECT_GE(lp_iterations(warm), 100u);
  EXPECT_LT(lp_iterations(warm), lp_iterations(cold));
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
// one retained state per scenario in its hint; a re-provision
// through that hint warm-starts exactly one LP per scenario (F0, every DC
// failure and every link failure), each on the optimum a cold solve at the
// same floors finds. The correction takes the re-solves 272 dual iterations
// (the cold provision 3239).
TEST(ParallelProvisionTest, ReprovisionWarmStartsEveryScenarioFromItsOwnState) {
  const test::ApacDesignDay day;
  const SwitchboardProvisioner prov(day.ctx(), ProvisionOptions{});
#ifdef SB_METRICS_ENABLED
  const obs::Counter& warm_starts =
      obs::MetricsRegistry::global().counter("sb.lp.warm_starts");
  const std::uint64_t before_cold = warm_starts.value();
#endif
  ScenarioBasisHint basis;
  const ProvisionResult cold = prov.provision(day.demand, &basis);
  ASSERT_EQ(cold.scenarios.size(), 35u);
  ASSERT_EQ(basis.scenarios.size(), cold.scenarios.size());
  for (const std::optional<ScenarioLp>& state : basis.scenarios) {
    EXPECT_TRUE(state.has_value());
  }
#ifdef SB_METRICS_ENABLED
  EXPECT_EQ(warm_starts.value() - before_cold, 0u);
#endif

  const DemandMatrix corrected = corrected_demand(day.demand);
#ifdef SB_METRICS_ENABLED
  const std::uint64_t before_warm = warm_starts.value();
#endif
  const ProvisionResult warm = prov.provision(corrected, &basis);
#ifdef SB_METRICS_ENABLED
  EXPECT_EQ(warm_starts.value() - before_warm, cold.scenarios.size());
#endif
  ASSERT_EQ(warm.scenarios.size(), cold.scenarios.size());
  expect_warm_pivots(warm, cold);
  expect_cold_objectives(prov, corrected, warm);
}

/// The demand each completeness row of `state`'s retained model holds.
void expect_model_demand(const std::optional<ScenarioLp>& state,
                         const DemandMatrix& demand) {
  ASSERT_TRUE(state.has_value());
  const ScenarioLp& lp = *state;
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
// The two corrections take 272 and 189 dual iterations.
TEST(ParallelProvisionTest, CopiedHintsReprovisionIndependently) {
  const test::ApacDesignDay day;
  const SwitchboardProvisioner prov(day.ctx(), ProvisionOptions{});
  ScenarioBasisHint basis;
  const ProvisionResult cold = prov.provision(day.demand, &basis);
  ScenarioBasisHint copy = basis;

  const DemandMatrix corrected = corrected_demand(day.demand);
  const DemandMatrix reversed = corrected_demand(day.demand, 1.2, -0.1);
  std::optional<ProvisionResult> second;
  std::thread other(
      [&] { second = prov.provision(reversed, &copy); });
  const ProvisionResult first = prov.provision(corrected, &basis);
  other.join();
  expect_warm_pivots(first, cold);
  expect_warm_pivots(*second, cold);
  expect_cold_objectives(prov, corrected, first);
  expect_cold_objectives(prov, reversed, *second);
  for (std::size_t f = 0; f < basis.scenarios.size(); ++f) {
    expect_model_demand(basis.scenarios[f], corrected);
    expect_model_demand(copy.scenarios[f], reversed);
  }
}

// Three chained same-structure re-provisions (three per-config corrections,
// 272, 392 and 703 dual iterations) run twice: in place through one hint,
// whose retained LPs build their dual engines on the first and reload them
// after, and through a fresh copy of each step's input hint, whose LPs
// rebuild every engine. Both must agree bit for bit.
TEST(ParallelProvisionTest, InPlaceReprovisionsMatchCopiedHintsBitForBit) {
  const test::ApacDesignDay day;
  const SwitchboardProvisioner prov(day.ctx(), ProvisionOptions{});
  ScenarioBasisHint in_place;
  const ProvisionResult cold = prov.provision(day.demand, &in_place);
  ScenarioBasisHint carried = in_place;
  const std::vector<DemandMatrix> steps = {
      corrected_demand(day.demand), corrected_demand(day.demand, 1.2, -0.1),
      corrected_demand(day.demand, 0.6, 0.2)};
  for (std::size_t k = 0; k < steps.size(); ++k) {
    const ProvisionResult a = prov.provision(steps[k], &in_place);
    expect_warm_pivots(a, cold);
    for (const std::optional<ScenarioLp>& state : in_place.scenarios) {
      ASSERT_TRUE(state.has_value());
      EXPECT_TRUE(state->model.has_engine()) << "step " << k;
    }
    ScenarioBasisHint copy = carried;
    for (const std::optional<ScenarioLp>& state : copy.scenarios) {
      EXPECT_FALSE(state->model.has_engine()) << "step " << k;
    }
    const ProvisionResult b = prov.provision(steps[k], &copy);
    EXPECT_EQ(check::reprovision_difference(a, b), "") << "step " << k;
    EXPECT_EQ(a.mean_acl_ms, b.mean_acl_ms) << "step " << k;
    carried = copy;
  }
}

// A demand cell that drops to zero removes its placement columns and its
// completeness row, so no scenario's retained model matches any more: each
// is rebuilt and solved cold, and the re-provision equals a cold provision
// of the same demand bit for bit.
TEST(ParallelProvisionTest, ChangedDemandPatternRebuildsAndMatchesCold) {
  const Fixture fix(4242);
  const SwitchboardProvisioner prov(fix.ctx(), ProvisionOptions{});
  ScenarioBasisHint basis;
  (void)prov.provision(fix.demand, &basis);
  const std::size_t rows_before =
      basis.scenarios.front()->model.model().constraint_count();

  DemandMatrix zeroed = corrected_demand(fix.demand);
  ASSERT_GT(zeroed.demand(0, 0), 0.0);
  zeroed.set_demand(0, 0, 0.0);
  const ProvisionResult warm = prov.provision(zeroed, &basis);
  ASSERT_TRUE(basis.scenarios.front().has_value());
  EXPECT_EQ(basis.scenarios.front()->model.model().constraint_count(),
            rows_before - 1);
  EXPECT_EQ(check::reprovision_difference(warm, prov.provision(zeroed)), "");
}

// Switchboard::provision keeps its (warm, basis_out) pair over the
// provisioner's one in-place hint. An output hint without a warm one is
// emptied first: here it holds another demand's LPs of the same structure,
// which an in-place re-solve would reuse, yet the provision equals a cold
// one bit for bit and leaves every scenario's LP in the hint.
TEST(ScenarioHintTest, FacadeColdProvisionEmptiesAFilledHintFirst) {
  const Fixture fix(4242);
  Switchboard sb(fix.ctx(), ControllerOptions{});
  ScenarioBasisHint hint;
  (void)sb.provision(check::scaled_demand(fix.demand, 1.15), nullptr, &hint);
  ASSERT_FALSE(hint.empty());
  const ProvisionResult got = sb.provision(fix.demand, nullptr, &hint);
  const ProvisionResult cold =
      SwitchboardProvisioner(fix.ctx(), ProvisionOptions{})
          .provision(fix.demand);
  EXPECT_EQ(check::reprovision_difference(got, cold), "");
  ASSERT_EQ(hint.scenarios.size(), cold.scenarios.size());
  for (const std::optional<ScenarioLp>& state : hint.scenarios) {
    EXPECT_TRUE(state.has_value());
  }
}

// A warm hint that is not also the output hint has no in-place meaning.
TEST(ScenarioHintTest, FacadeRejectsTwoDistinctHints) {
  const Fixture fix(4242);
  Switchboard sb(fix.ctx(), ControllerOptions{});
  ScenarioBasisHint a;
  ScenarioBasisHint b;
  (void)sb.provision(fix.demand, nullptr, &a);
  EXPECT_THROW((void)sb.provision(fix.demand, &a, &b), InvalidArgument);
}

// A re-provision whose scenario LP cannot finish leaves no half-updated
// hint behind, so the next provision through it solves cold. The design
// day's per-config correction takes F0's dual re-solve 87 iterations.
TEST(ScenarioHintTest, FailedReprovisionLeavesTheHintEmpty) {
  const test::ApacDesignDay day;
  ProvisionOptions options;
  options.include_link_failures = false;
  ScenarioBasisHint hint;
  (void)SwitchboardProvisioner(day.ctx(), options).provision(day.demand, &hint);
  ASSERT_FALSE(hint.empty());
  options.lp_options.max_iterations = 1;
  const SwitchboardProvisioner capped(day.ctx(), options);
  EXPECT_THROW((void)capped.provision(test::per_config(day.demand), &hint),
               SolveError);
  EXPECT_TRUE(hint.empty());
}

}  // namespace
}  // namespace sb
