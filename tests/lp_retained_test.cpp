// Bitwise differential suite for lp::RetainedLp: a retained LP re-solved in
// place after its right-hand sides move must answer exactly like lp::solve
// on a fresh copy of the rewritten model, warm-started from the previous
// solve's basis and row basis with dual_resolve set. Values, objective,
// iterations, basis and row basis are compared as bytes. Chains of
// re-solves on one object catch engine state leaking between solves;
// presolve decisions that flip (a variable fixed or freed, an empty row or
// crossed singleton bounds turning infeasible) must re-prepare from scratch
// and still match; copies (which drop the engine), primal fallbacks,
// infeasible re-solves and dense-tableau models are covered too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.h"
#include "lp/presolve.h"
#include "lp/solver.h"
#include "lp_models.h"
#include "obs/metrics.h"

namespace sb::lp {
namespace {

using test::make_bounded_random_lp;
using test::make_provisioning_lp;
using test::make_random_feasible_lp;
using test::RandomLpSpec;

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Byte equality of everything a solve reports.
void expect_identical(const Solution& got, const Solution& want,
                      const std::string& where) {
  EXPECT_EQ(got.status, want.status) << where;
  EXPECT_EQ(got.iterations, want.iterations) << where;
  EXPECT_EQ(std::memcmp(&got.objective, &want.objective, sizeof(double)), 0)
      << where << ": objective " << got.objective << " vs " << want.objective;
  EXPECT_TRUE(same_bytes(got.values, want.values)) << where << ": values";
  EXPECT_EQ(got.basis, want.basis) << where << ": basis";
  EXPECT_EQ(got.row_basis, want.row_basis) << where << ": row basis";
}

/// What RetainedLp::resolve must reproduce: lp::solve on a fresh copy of
/// the model, warm-started from `previous` through the dual simplex.
Solution reference_resolve(const Model& model, const Solution& previous,
                           SolveOptions options = {}) {
  options.warm_start = previous.basis;
  options.warm_start_rows = previous.row_basis;
  options.dual_resolve = true;
  const Model fresh = model;
  return solve(fresh, options);
}

/// Rewrites a random subset of rows' rhs by factors in [0.5, 1.5], which
/// keeps every sign.
void perturb_rhs(RetainedLp& lp, Rng& rng) {
  for (std::size_t r = 0; r < lp.model().constraint_count(); ++r) {
    if (!rng.chance(0.5)) continue;
    const int row = static_cast<int>(r);
    lp.set_rhs(row, lp.model().constraint(row).rhs * rng.uniform(0.5, 1.5));
  }
}

/// Solves `model` through a retained LP, then re-solves it in place
/// `steps` times at perturbed rhs, each against reference_resolve.
void check_chain(const Model& model, std::uint64_t seed, std::size_t steps,
                 const SolveOptions& options, const std::string& name) {
  Rng rng(seed);
  RetainedLp lp(model);
  Solution previous = lp.solve(options);
  expect_identical(previous, solve(model, options), name + " first solve");
  for (std::size_t k = 0; k < steps; ++k) {
    perturb_rhs(lp, rng);
    const Solution want = reference_resolve(lp.model(), previous, options);
    const Solution got = lp.resolve(options);
    expect_identical(got, want, name + " step " + std::to_string(k));
    previous = got;
  }
}

// Random feasible LPs above the dense-tableau cutoff, so kAuto re-solves
// through the retained dual engine, with free-upward and boxed columns.
TEST(RetainedLpTest, RandomLpChainsMatchFreshSolves) {
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const RandomLpSpec spec{7000 + seed, 24 + seed % 3 * 8, 40 + seed % 4 * 6};
    check_chain(make_random_feasible_lp(spec), seed, 6, {},
                "feasible seed " + std::to_string(spec.seed));
    check_chain(make_bounded_random_lp(spec), seed, 6, {},
                "bounded seed " + std::to_string(spec.seed));
  }
}

// Below the cutoff the dual simplex runs only when forced; the retained
// engine must behave the same there.
TEST(RetainedLpTest, ForcedDualChainsMatchFreshSolves) {
  SolveOptions options;
  options.method = Method::kDual;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    const RandomLpSpec spec{7100 + seed, 8 + seed % 4 * 4, 6 + seed % 3 * 8};
    check_chain(make_bounded_random_lp(spec), seed, 5, options,
                "bounded seed " + std::to_string(spec.seed));
  }
}

TEST(RetainedLpTest, ProvisioningChainsMatchFreshSolves) {
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    check_chain(make_provisioning_lp(6 + seed, 8, 4, 300 + seed), seed, 6,
                {}, "provisioning seed " + std::to_string(seed));
  }
}

// The same chains through the metrics path: every dual re-solve publishes
// the drift of its pivot-row-updated reduced costs against their
// from-scratch recompute (sb.lp.dual_dj_drift), which must stay at
// roundoff scale relative to the largest cost. The bound is absolute, so
// it holds where the duals are of the costs' order, as here; the random
// chains above reach duals near 1e4 and drift by up to ~2e-8.
TEST(RetainedLpTest, ProvisioningChainsKeepReducedCostDriftSmall) {
#ifndef SB_METRICS_ENABLED
  GTEST_SKIP() << "reads the sb.lp.dual_dj_drift histogram";
#else
  obs::Histogram& drift_histogram =
      obs::MetricsRegistry::global().histogram("sb.lp.dual_dj_drift");
  drift_histogram.reset();  // this test's chains only
  double max_cost = 1.0;
  for (std::uint64_t seed = 0; seed < 4; ++seed) {
    const Model model = make_provisioning_lp(6 + seed, 8, 4, 300 + seed);
    for (const Variable& v : model.variables()) {
      max_cost = std::max(max_cost, std::abs(v.cost));
    }
    check_chain(model, seed, 6, {},
                "provisioning seed " + std::to_string(seed));
  }
  const obs::HistogramData drift = drift_histogram.collect();
  EXPECT_GT(drift.count, 0u);
  EXPECT_LE(drift.max, 1e-9 * max_cost);
#endif
}

// The retained engine is built by the first dual re-solve and reused by
// every later one; a copy carries the model and standard form but not the
// engine, builds its own, and answers exactly like the original.
TEST(RetainedLpTest, CopyWithoutEngineAnswersLikeTheOriginal) {
  Rng rng(5);
  RetainedLp lp(make_provisioning_lp(8, 10, 5, 17));
  (void)lp.solve();
  EXPECT_FALSE(lp.has_engine());  // the cold solve ran the primal engine
  perturb_rhs(lp, rng);
  (void)lp.resolve();
  ASSERT_TRUE(lp.has_engine());

  for (int k = 0; k < 5; ++k) {
    perturb_rhs(lp, rng);
    RetainedLp copy = lp;
    EXPECT_FALSE(copy.has_engine());
    const Solution from_copy = copy.resolve();
    const Solution in_place = lp.resolve();
    expect_identical(in_place, from_copy, "copy step " + std::to_string(k));
    EXPECT_TRUE(copy.has_engine());

    RetainedLp moved = std::move(copy);
    EXPECT_TRUE(moved.has_engine());
  }
}

/// A model above the dense cutoff with one singleton kEq row on `x`
/// (x in [0, inf)): presolve fixes x when the rhs clears 1e-9, and only
/// caps its upper bound when the rhs is below that tolerance.
struct SingletonModel {
  Model model;
  int singleton_row = -1;
};

SingletonModel make_singleton_model() {
  SingletonModel out;
  out.model = make_provisioning_lp(6, 6, 4, 41);
  const int x = out.model.add_variable(0.0, kInf, 0.5, "x");
  // x also enters a coupling row, so its column matters to the engines.
  out.model.add_constraint({{x, 1.0}, {0, 1.0}}, Sense::kGe, 1.0);
  out.singleton_row =
      out.model.add_constraint({{x, 1.0}}, Sense::kEq, 3.0);
  return out;
}

// Rhs 3 fixes x; 5e-10 sits under the tolerance, so x keeps a column with
// upper 5e-10; 2 fixes it again. Each flip changes the standard form's
// columns, so the retained LP re-prepares and must still match.
TEST(RetainedLpTest, SingletonEqualityCrossingToleranceReprepares) {
  SingletonModel sm = make_singleton_model();
  RetainedLp lp(sm.model);
  Solution previous = lp.solve();
  ASSERT_TRUE(previous.optimal());
  ASSERT_EQ(presolve(lp.model()).variables_fixed, 1u);
  for (const double rhs : {5e-10, 2.0, 2.5, 0.0, 4.0}) {
    lp.set_rhs(sm.singleton_row, rhs);
    EXPECT_EQ(presolve(lp.model()).variables_fixed, rhs == 5e-10 ? 0u : 1u);
    const Solution want = reference_resolve(lp.model(), previous);
    const Solution got = lp.resolve();
    expect_identical(got, want, "singleton rhs " + std::to_string(rhs));
    ASSERT_TRUE(got.optimal());
    previous = got;
  }
}

// An empty row turns unsatisfiable and back; crossed singleton bounds prove
// infeasibility in presolve. The infeasible solve leaves no basis, so the
// next re-solve starts cold, exactly as lp::solve given that empty basis.
TEST(RetainedLpTest, PresolveInfeasibilityFlipsMatchFreshSolves) {
  Model m = make_provisioning_lp(6, 6, 4, 43);
  const int empty_row = m.add_constraint({}, Sense::kLe, 5.0);
  const int x = m.add_variable(0.0, kInf, 0.25, "x");
  m.add_constraint({{x, 1.0}, {1, 1.0}}, Sense::kGe, 1.0);
  const int x_ge = m.add_constraint({{x, 1.0}}, Sense::kGe, 1.0);
  const int x_le = m.add_constraint({{x, 1.0}}, Sense::kLe, 4.0);

  RetainedLp lp(m);
  Solution previous = lp.solve();
  ASSERT_TRUE(previous.optimal());
  struct Step {
    int row;
    double rhs;
    SolveStatus status;
  };
  const std::vector<Step> steps = {
      {empty_row, -5.0, SolveStatus::kInfeasible},  // 0 <= -5
      {empty_row, 5.0, SolveStatus::kOptimal},
      {x_ge, 2.0, SolveStatus::kOptimal},
      {x_ge, 6.0, SolveStatus::kInfeasible},  // x >= 6 and x <= 4
      {x_le, 8.0, SolveStatus::kOptimal},
      {x_le, 7.0, SolveStatus::kOptimal},
  };
  for (std::size_t k = 0; k < steps.size(); ++k) {
    lp.set_rhs(steps[k].row, steps[k].rhs);
    const Solution want = reference_resolve(lp.model(), previous);
    const Solution got = lp.resolve();
    expect_identical(got, want, "step " + std::to_string(k));
    EXPECT_EQ(got.status, steps[k].status) << "step " << k;
    // Only a re-solve from an optimal basis takes the dual route; a presolve
    // infeasibility drops the engine along with the prepared state.
    const bool from_basis = !previous.basis.empty();
    EXPECT_EQ(lp.has_engine(), from_basis && got.optimal()) << "step " << k;
    previous = got;
  }
}

// A demand the capacity rows cannot carry: presolve cannot see it, so the
// dual simplex proves the re-solve infeasible on the retained engine.
TEST(RetainedLpTest, ResolveProvingInfeasibilityMatchesFreshSolve) {
  Model m;
  std::vector<Term> total;
  for (int i = 0; i < 40; ++i) {
    const int a = m.add_variable(0.0, kInf, 1.0 + 0.01 * i);
    const int b = m.add_variable(0.0, kInf, 2.0 - 0.01 * i);
    m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 1.0);
    total.push_back({a, 1.0});
    total.push_back({b, 1.0});
  }
  const int demand = m.add_constraint(total, Sense::kGe, 10.0);
  RetainedLp lp(m);
  Solution previous = lp.solve();
  ASSERT_TRUE(previous.optimal());
  for (const double rhs : {20.0, 50.0, 30.0}) {
    lp.set_rhs(demand, rhs);
    const Solution want = reference_resolve(lp.model(), previous);
    const Solution got = lp.resolve();
    expect_identical(got, want, "demand " + std::to_string(rhs));
    EXPECT_EQ(got.optimal(), rhs <= 40.0);
    previous = got;
  }
}

// A dual re-solve that runs out of iterations hands its basis to the primal
// engine (the fallback), which must match lp::solve's fallback exactly.
TEST(RetainedLpTest, PrimalFallbackMatchesFreshSolve) {
#ifdef SB_METRICS_ENABLED
  const obs::Counter& fallbacks =
      obs::MetricsRegistry::global().counter("sb.lp.dual_fallbacks");
  const std::uint64_t before = fallbacks.value();
#endif
  Rng rng(9);
  RetainedLp lp(make_provisioning_lp(8, 10, 5, 23));
  Solution previous = lp.solve();
  ASSERT_TRUE(previous.optimal());
  SolveOptions tight;
  tight.max_iterations = 2;
  for (int k = 0; k < 3; ++k) {
    // An unlimited re-solve first, so the tight one starts from a basis
    // through the (retained) dual engine.
    perturb_rhs(lp, rng);
    Solution want = reference_resolve(lp.model(), previous);
    previous = lp.resolve();
    expect_identical(previous, want, "re-solve " + std::to_string(k));
    ASSERT_TRUE(previous.optimal());

    for (std::size_t r = 0; r < lp.model().constraint_count(); ++r) {
      const int row = static_cast<int>(r);
      lp.set_rhs(row, lp.model().constraint(row).rhs * rng.uniform(0.5, 1.5));
    }
    want = reference_resolve(lp.model(), previous, tight);
    const Solution got = lp.resolve(tight);
    expect_identical(got, want, "fallback step " + std::to_string(k));
    EXPECT_EQ(got.status, SolveStatus::kIterationLimit);
    previous = got;
    // The limit left no basis: back to a cold solve before the next step.
    previous = lp.resolve();
    ASSERT_TRUE(previous.optimal());
  }
#ifdef SB_METRICS_ENABLED
  EXPECT_GE(fallbacks.value() - before, 6u);  // both sides, every step
#endif
}

// Under the dense cutoff the tableau reports no basis, so every re-solve is
// cold, as lp::solve without a warm start.
TEST(RetainedLpTest, DenseTableauModelsResolveCold) {
  Rng rng(3);
  const Model m = make_random_feasible_lp({7200, 6, 10});
  RetainedLp lp(m);
  Solution previous = lp.solve();
  ASSERT_TRUE(previous.basis.empty());
  for (int k = 0; k < 5; ++k) {
    perturb_rhs(lp, rng);
    const Solution want = reference_resolve(lp.model(), previous);
    const Solution got = lp.resolve();
    expect_identical(got, want, "dense step " + std::to_string(k));
    EXPECT_TRUE(got.basis.empty());
    EXPECT_FALSE(lp.has_engine());
    previous = got;
  }
}

}  // namespace
}  // namespace sb::lp
