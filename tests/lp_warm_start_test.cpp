// Warm-start and bounded-variable behavior of the sparse LU/eta engine:
// re-solving from a previous optimal basis must reproduce the objective in
// strictly fewer iterations, fixed (upper == lower) variables must be
// substituted and reported as kFixed, optima resting on finite upper bounds
// must be reported as kAtUpper, and a model made infeasible AFTER a warm
// basis was captured must still be detected as infeasible.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "lp/solver.h"
#include "lp_models.h"

namespace sb::lp {
namespace {

using test::make_provisioning_lp;

TEST(WarmStartTest, ResolveFromOwnBasisIsIterationFree) {
  const Model m = make_provisioning_lp(8, 10, 5, 17);
  SolveOptions options;
  options.method = Method::kSparse;
  const Solution cold = solve(m, options);
  ASSERT_TRUE(cold.optimal());
  ASSERT_GT(cold.iterations, 0u);
  ASSERT_EQ(cold.basis.size(), m.variable_count());

  options.warm_start = cold.basis;
  const Solution warm = solve(m, options);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-8 * std::max(1.0, std::abs(cold.objective)));
  // An already-optimal basis needs at most a crash-repair pivot or two —
  // nothing like the cold solve's full path.
  EXPECT_LE(warm.iterations, 2u);
  EXPECT_LT(warm.iterations, cold.iterations);
}

TEST(WarmStartTest, FullBasisRoundTripIsIterationFree) {
  const Model m = make_provisioning_lp(8, 10, 5, 17);
  SolveOptions options;
  options.method = Method::kSparse;
  const Solution cold = solve(m, options);
  ASSERT_TRUE(cold.optimal());
  ASSERT_EQ(cold.basis.size(), m.variable_count());
  // Row statuses are exported per model constraint alongside the columns.
  ASSERT_EQ(cold.row_basis.size(), m.constraint_count());

  // With BOTH banks the slack/tight row pattern survives, so the re-solve
  // needs zero pivots (the structural-only variant above may need a couple
  // of repair pivots to rediscover which rows were tight).
  options.warm_start = cold.basis;
  options.warm_start_rows = cold.row_basis;
  const Solution warm = solve(m, options);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-8 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_EQ(warm.iterations, 0u);
}

TEST(WarmStartTest, RowBasisCoversPresolveDroppedRows) {
  // Row 0 is a singleton presolve folds into x's bounds; the exported
  // row_basis must still have one entry per ORIGINAL constraint (dropped
  // rows report kBasic, i.e. inactive) and round-trip cleanly.
  Model m = make_provisioning_lp(4, 6, 3, 23);
  const int extra = m.add_variable(0.0, kInf, 0.5, "singleton");
  m.add_constraint({{extra, 1.0}}, Sense::kGe, 2.0);

  SolveOptions options;
  options.method = Method::kSparse;
  const Solution cold = solve(m, options);
  ASSERT_TRUE(cold.optimal());
  ASSERT_EQ(cold.row_basis.size(), m.constraint_count());

  options.warm_start = cold.basis;
  options.warm_start_rows = cold.row_basis;
  const Solution warm = solve(m, options);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, cold.objective,
              1e-8 * std::max(1.0, std::abs(cold.objective)));
  EXPECT_LT(warm.iterations, std::max<std::size_t>(cold.iterations, 1));
}

TEST(WarmStartTest, PerturbedModelSolvesWithStrictlyFewerIterations) {
  const Model base = make_provisioning_lp(8, 10, 5, 17);
  // Same structure, every demand shifted 7% — the provisioner's
  // failure-scenario situation.
  const Model shifted = make_provisioning_lp(8, 10, 5, 17, 1.07);

  SolveOptions options;
  options.method = Method::kSparse;
  const Solution base_sol = solve(base, options);
  ASSERT_TRUE(base_sol.optimal());
  const Solution shifted_cold = solve(shifted, options);
  ASSERT_TRUE(shifted_cold.optimal());
  ASSERT_GT(shifted_cold.iterations, 0u);

  options.warm_start = base_sol.basis;
  const Solution shifted_warm = solve(shifted, options);
  ASSERT_TRUE(shifted_warm.optimal());
  EXPECT_NEAR(shifted_warm.objective, shifted_cold.objective,
              1e-7 * std::max(1.0, std::abs(shifted_cold.objective)));
  EXPECT_LT(shifted_warm.iterations, shifted_cold.iterations);
}

TEST(WarmStartTest, MismatchedHintSizeFallsBackToColdStart) {
  const Model m = make_provisioning_lp(4, 6, 3, 23);
  SolveOptions options;
  options.method = Method::kSparse;
  const Solution cold = solve(m, options);
  ASSERT_TRUE(cold.optimal());

  options.warm_start.assign(3, VarStatus::kBasic);  // wrong length
  const Solution s = solve(m, options);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, cold.objective, 1e-9);
}

/// Copy of `base` with DC 0's peak capped below its unconstrained optimum:
/// the classic bound-tightening re-solve (capacity floors, maintenance
/// derates) that dual_resolve is for. Structure and variable count are
/// unchanged, so the warm basis carries over.
Model tighten_first_peak(const Model& base, double cap) {
  Model m;
  for (std::size_t i = 0; i < base.variable_count(); ++i) {
    const Variable& v = base.variable(static_cast<int>(i));
    const double upper = i == 0 ? cap : v.upper;
    m.add_variable(v.lower, upper, v.cost, v.name);
  }
  for (std::size_t r = 0; r < base.constraint_count(); ++r) {
    const Constraint& c = base.constraint(static_cast<int>(r));
    m.add_constraint(c.terms, c.sense, c.rhs, c.name);
  }
  return m;
}

TEST(WarmStartTest, DualResolveMatchesPrimalAfterBoundTightening) {
  const Model base = make_provisioning_lp(8, 10, 5, 17);
  SolveOptions options;
  options.method = Method::kSparse;
  const Solution base_sol = solve(base, options);
  ASSERT_TRUE(base_sol.optimal());
  ASSERT_GT(base_sol.values[0], 0.0);

  // Cap DC 0's peak at 60% of its optimum. The old basis keeps its duals
  // but the capped column violates its new bound — the dual engine's
  // starting condition.
  const Model tight = tighten_first_peak(base, 0.6 * base_sol.values[0]);

  SolveOptions primal_opt = options;
  primal_opt.warm_start = base_sol.basis;
  primal_opt.warm_start_rows = base_sol.row_basis;
  const Solution primal = solve(tight, primal_opt);
  ASSERT_TRUE(primal.optimal());

  SolveOptions dual_opt = primal_opt;
  dual_opt.method = Method::kDual;
  const Solution dual = solve(tight, dual_opt);
  ASSERT_TRUE(dual.optimal());
  EXPECT_NEAR(dual.objective, primal.objective,
              1e-7 * std::max(1.0, std::abs(primal.objective)));
  const ValidationReport report = validate_solution(tight, dual.values, 1e-6);
  EXPECT_TRUE(report.feasible) << report.worst;
  // Tightening one bound must not cost anything like a cold solve.
  const Solution cold = solve(tight, options);
  ASSERT_TRUE(cold.optimal());
  EXPECT_LT(dual.iterations, cold.iterations);
}

TEST(WarmStartTest, DualResolveRoutesUnderAutoWithHint) {
  const Model base = make_provisioning_lp(8, 10, 5, 17);
  SolveOptions options;
  options.method = Method::kSparse;
  const Solution base_sol = solve(base, options);
  ASSERT_TRUE(base_sol.optimal());
  const Model tight = tighten_first_peak(base, 0.6 * base_sol.values[0]);

  // kAuto + dual_resolve + a warm hint must take the dual path and still
  // land on the primal optimum.
  SolveOptions auto_opt;
  auto_opt.method = Method::kAuto;
  auto_opt.dual_resolve = true;
  auto_opt.warm_start = base_sol.basis;
  auto_opt.warm_start_rows = base_sol.row_basis;
  const Solution via_auto = solve(tight, auto_opt);
  ASSERT_TRUE(via_auto.optimal());
  const Solution cold = solve(tight, options);
  ASSERT_TRUE(cold.optimal());
  EXPECT_NEAR(via_auto.objective, cold.objective,
              1e-7 * std::max(1.0, std::abs(cold.objective)));
}

TEST(BoundedVariableTest, FixedVariablesReportKFixedAndExactValue) {
  Model m;
  const int fixed = m.add_variable(4.5, 4.5, 3.0, "fixed");
  const int x = m.add_variable(0.0, kInf, 1.0, "x");
  m.add_constraint({{fixed, 1.0}, {x, 1.0}}, Sense::kGe, 10.0);

  SolveOptions options;
  options.method = Method::kSparse;
  const Solution s = solve(m, options);
  ASSERT_TRUE(s.optimal());
  EXPECT_DOUBLE_EQ(s.values[fixed], 4.5);
  EXPECT_NEAR(s.values[x], 5.5, 1e-9);
  ASSERT_EQ(s.basis.size(), 2u);
  EXPECT_EQ(s.basis[fixed], VarStatus::kFixed);
  // The fixed status must round-trip through warm_start unharmed.
  options.warm_start = s.basis;
  const Solution warm = solve(m, options);
  ASSERT_TRUE(warm.optimal());
  EXPECT_NEAR(warm.objective, s.objective, 1e-12);
}

TEST(BoundedVariableTest, NegativeCostRestsAtUpperWithoutUpperBoundRow) {
  // min -2a - b with a in [0, 3], b in [0, 4], a + b <= 5.
  // Optimum a=3 (its own upper bound, NOT a constraint row), b=2.
  Model m;
  const int a = m.add_variable(0.0, 3.0, -2.0, "a");
  const int b = m.add_variable(0.0, 4.0, -1.0, "b");
  m.add_constraint({{a, 1.0}, {b, 1.0}}, Sense::kLe, 5.0);

  SolveOptions options;
  options.method = Method::kSparse;
  const Solution s = solve(m, options);
  ASSERT_TRUE(s.optimal());
  EXPECT_NEAR(s.objective, -8.0, 1e-9);
  EXPECT_NEAR(s.values[a], 3.0, 1e-9);
  EXPECT_NEAR(s.values[b], 2.0, 1e-9);
  ASSERT_EQ(s.basis.size(), 2u);
  EXPECT_EQ(s.basis[a], VarStatus::kAtUpper);
}

TEST(BoundedVariableTest, InfeasibleAfterTighteningDetectedFromWarmBasis) {
  // Feasible base model: x + y >= 8 with generous boxes.
  Model base;
  const int x = base.add_variable(0.0, 10.0, 1.0, "x");
  const int y = base.add_variable(0.0, 10.0, 2.0, "y");
  base.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 8.0);

  SolveOptions options;
  options.method = Method::kSparse;
  const Solution sol = solve(base, options);
  ASSERT_TRUE(sol.optimal());

  // Tighten both boxes so the constraint can no longer be met; warm-start
  // from the now-invalid basis. Phase 1 must discover the infeasibility
  // (and map_back must not fabricate values outside the new boxes).
  Model tight;
  tight.add_variable(0.0, 3.0, 1.0, "x");
  tight.add_variable(0.0, 4.0, 2.0, "y");
  tight.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 8.0);

  options.warm_start = sol.basis;
  const Solution infeasible = solve(tight, options);
  EXPECT_EQ(infeasible.status, SolveStatus::kInfeasible);
  EXPECT_TRUE(infeasible.basis.empty());
}

}  // namespace
}  // namespace sb::lp
