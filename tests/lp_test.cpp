// Unit tests for the LP toolkit: model building, standard-form conversion,
// and the dense, dual and sparse simplex engines on problems with known
// optima.
#include <gtest/gtest.h>

#include "lp/solver.h"
#include "lp/standard_form.h"

namespace sb::lp {
namespace {

Solution solve_with(const Model& model, Method method) {
  SolveOptions options;
  options.method = method;
  return solve(model, options);
}

class SimplexMethodTest : public ::testing::TestWithParam<Method> {};

TEST_P(SimplexMethodTest, SolvesTwoVariableMaximizationAsMinimization) {
  // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18  => x=2, y=6, obj 36.
  Model m;
  const int x = m.add_variable(0.0, kInf, -3.0, "x");
  const int y = m.add_variable(0.0, kInf, -5.0, "y");
  m.add_constraint({{x, 1.0}}, Sense::kLe, 4.0);
  m.add_constraint({{y, 2.0}}, Sense::kLe, 12.0);
  m.add_constraint({{x, 3.0}, {y, 2.0}}, Sense::kLe, 18.0);

  const Solution s = solve_with(m, GetParam());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -36.0, 1e-8);
  EXPECT_NEAR(s.values[x], 2.0, 1e-8);
  EXPECT_NEAR(s.values[y], 6.0, 1e-8);
}

TEST_P(SimplexMethodTest, SolvesEqualityAndGeConstraints) {
  // min 2x + 3y s.t. x + y = 10, x >= 3, y >= 2  => x=8? No: cost favors x?
  // 2 < 3 so push mass to x: x=8, y=2, obj 22.
  Model m;
  const int x = m.add_variable(0.0, kInf, 2.0, "x");
  const int y = m.add_variable(0.0, kInf, 3.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 10.0);
  m.add_constraint({{x, 1.0}}, Sense::kGe, 3.0);
  m.add_constraint({{y, 1.0}}, Sense::kGe, 2.0);

  const Solution s = solve_with(m, GetParam());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 22.0, 1e-8);
  EXPECT_NEAR(s.values[x], 8.0, 1e-8);
  EXPECT_NEAR(s.values[y], 2.0, 1e-8);
}

TEST_P(SimplexMethodTest, DetectsInfeasibility) {
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0, "x");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 5.0);
  m.add_constraint({{x, 1.0}}, Sense::kLe, 3.0);
  EXPECT_EQ(solve_with(m, GetParam()).status, SolveStatus::kInfeasible);
}

TEST_P(SimplexMethodTest, DetectsUnboundedness) {
  Model m;
  const int x = m.add_variable(0.0, kInf, -1.0, "x");
  m.add_constraint({{x, -1.0}}, Sense::kLe, 1.0);  // -x <= 1, x free upward
  EXPECT_EQ(solve_with(m, GetParam()).status, SolveStatus::kUnbounded);
}

TEST_P(SimplexMethodTest, HandlesVariableBoundsViaShifting) {
  // min x + y with x in [2, 5], y in [1, 3], x + y >= 4.
  // Optimum: x=3? cost equal; any split with sum 4: obj 4; bounds force
  // x >= 2, y >= 1 so x+y >= 3; constraint binds at 4.
  Model m;
  const int x = m.add_variable(2.0, 5.0, 1.0, "x");
  const int y = m.add_variable(1.0, 3.0, 1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 4.0);
  const Solution s = solve_with(m, GetParam());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
  EXPECT_GE(s.values[x], 2.0 - 1e-9);
  EXPECT_LE(s.values[x], 5.0 + 1e-9);
  EXPECT_GE(s.values[y], 1.0 - 1e-9);
  const ValidationReport report = validate_solution(m, s.values);
  EXPECT_TRUE(report.feasible) << report.worst;
}

TEST_P(SimplexMethodTest, FixedVariablesAreSubstituted) {
  Model m;
  const int x = m.add_variable(7.0, 7.0, 2.0, "x");  // fixed at 7
  const int y = m.add_variable(0.0, kInf, 1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 10.0);
  const Solution s = solve_with(m, GetParam());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.values[x], 7.0, 1e-12);
  EXPECT_NEAR(s.values[y], 3.0, 1e-8);
  EXPECT_NEAR(s.objective, 17.0, 1e-8);
}

TEST_P(SimplexMethodTest, DegenerateProblemTerminates) {
  // Classic degenerate LP (multiple constraints intersect at the optimum).
  Model m;
  const int x = m.add_variable(0.0, kInf, -0.75, "x");
  const int y = m.add_variable(0.0, kInf, 150.0, "y");
  const int z = m.add_variable(0.0, kInf, -0.02, "z");
  const int w = m.add_variable(0.0, kInf, 6.0, "w");
  m.add_constraint({{x, 0.25}, {y, -60.0}, {z, -0.04}, {w, 9.0}}, Sense::kLe,
                   0.0);
  m.add_constraint({{x, 0.5}, {y, -90.0}, {z, -0.02}, {w, 3.0}}, Sense::kLe,
                   0.0);
  m.add_constraint({{z, 1.0}}, Sense::kLe, 1.0);
  const Solution s = solve_with(m, GetParam());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, -0.05, 1e-6);  // Beale's cycling example optimum
}

TEST_P(SimplexMethodTest, RedundantEqualityRowsAreHandled) {
  // Duplicate equality rows leave a zero-valued artificial in the basis.
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0, "x");
  const int y = m.add_variable(0.0, kInf, 2.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 6.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kEq, 6.0);
  m.add_constraint({{x, 2.0}, {y, 2.0}}, Sense::kEq, 12.0);
  const Solution s = solve_with(m, GetParam());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, 1e-8);
  EXPECT_NEAR(s.values[x], 6.0, 1e-8);
}

TEST_P(SimplexMethodTest, TransportationProblem) {
  // 2 supplies (10, 15) -> 3 demands (8, 9, 8); costs:
  //   s0: 4 6 9 ; s1: 5 3 2. Optimal: s0->d0 8, s0->d1 2, s1->d1 7, s1->d2 8
  //   cost = 32 + 12 + 21 + 16 = 81.
  Model m;
  const double cost[2][3] = {{4, 6, 9}, {5, 3, 2}};
  int v[2][3];
  for (int i = 0; i < 2; ++i) {
    for (int j = 0; j < 3; ++j) {
      v[i][j] = m.add_variable(0.0, kInf, cost[i][j]);
    }
  }
  const double supply[2] = {10, 15};
  const double demand[3] = {8, 9, 8};
  for (int i = 0; i < 2; ++i) {
    m.add_constraint({{v[i][0], 1.0}, {v[i][1], 1.0}, {v[i][2], 1.0}},
                     Sense::kLe, supply[i]);
  }
  for (int j = 0; j < 3; ++j) {
    m.add_constraint({{v[0][j], 1.0}, {v[1][j], 1.0}}, Sense::kEq, demand[j]);
  }
  const Solution s = solve_with(m, GetParam());
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 81.0, 1e-8);
  EXPECT_TRUE(validate_solution(m, s.values).feasible);
}

INSTANTIATE_TEST_SUITE_P(AllMethods, SimplexMethodTest,
                         ::testing::Values(Method::kDense, Method::kDual,
                                           Method::kSparse),
                         [](const auto& info) {
                           switch (info.param) {
                             case Method::kDense:
                               return "Dense";
                             case Method::kDual:
                               return "Dual";
                             default:
                               return "Sparse";
                           }
                         });

TEST(StandardFormTest, ShiftsLowerBoundsAndAddsUpperRows) {
  Model m;
  m.add_variable(2.0, 5.0, 1.0, "x");
  m.add_variable(0.0, kInf, 1.0, "y");
  m.add_variable(3.0, 3.0, 4.0, "fixed");
  m.add_constraint({{0, 1.0}, {1, 2.0}, {2, 1.0}}, Sense::kLe, 20.0);
  const StandardForm sf = to_standard_form(m);
  EXPECT_EQ(sf.var_count(), 2u);             // fixed var substituted
  EXPECT_EQ(sf.rows.size(), 2u);             // ub row for x + original row
  EXPECT_EQ(sf.var_map[2], -1);
  EXPECT_DOUBLE_EQ(sf.var_base[0], 2.0);
  // Original row rhs folded: 20 - 1*2 (x shift) - 1*3 (fixed) = 15.
  EXPECT_DOUBLE_EQ(sf.rows[1].rhs, 15.0);
  // Objective offset: 1*2 + 4*3 = 14.
  EXPECT_DOUBLE_EQ(sf.objective_offset, 14.0);
}

TEST(ModelTest, MergesDuplicateTermsAndValidates) {
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0);
  const int row = m.add_constraint({{x, 1.0}, {x, 2.0}}, Sense::kLe, 9.0);
  EXPECT_EQ(m.constraint(row).terms.size(), 1u);
  EXPECT_DOUBLE_EQ(m.constraint(row).terms[0].coeff, 3.0);
  EXPECT_THROW(m.add_constraint({{42, 1.0}}, Sense::kLe, 0.0),
               InvalidArgument);
  EXPECT_THROW(m.add_variable(-kInf, 0.0, 1.0), InvalidArgument);
}

TEST(ModelTest, SetRhsRewritesOnlyTheRhsAndChecksItsArguments) {
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0);
  const int row = m.add_constraint({{x, 2.0}}, Sense::kGe, 4.0);
  m.set_rhs(row, 10.0);
  EXPECT_DOUBLE_EQ(m.constraint(row).rhs, 10.0);
  EXPECT_EQ(m.constraint(row).sense, Sense::kGe);
  EXPECT_EQ(m.constraint(row).terms.size(), 1u);
  EXPECT_NEAR(solve(m).objective, 5.0, 1e-12);
  EXPECT_THROW(m.set_rhs(1, 0.0), InvalidArgument);
  EXPECT_THROW(m.set_rhs(-1, 0.0), InvalidArgument);
  EXPECT_THROW(m.set_rhs(row, kInf), InvalidArgument);
  EXPECT_DOUBLE_EQ(m.constraint(row).rhs, 10.0);
}

TEST(ValidateSolutionTest, FlagsViolations) {
  Model m;
  const int x = m.add_variable(0.0, 10.0, 1.0, "x");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 5.0, "atleast5");
  const ValidationReport bad = validate_solution(m, {2.0});
  EXPECT_FALSE(bad.feasible);
  EXPECT_NEAR(bad.max_violation, 3.0, 1e-12);
  const ValidationReport good = validate_solution(m, {6.0});
  EXPECT_TRUE(good.feasible);
}

TEST(SolverTest, EmptyConstraintProblems) {
  Model bounded;
  bounded.add_variable(1.0, kInf, 2.0, "x");
  const Solution s = solve(bounded);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-12);  // sits at the lower bound

  Model unbounded;
  unbounded.add_variable(0.0, kInf, -1.0, "x");
  EXPECT_EQ(solve(unbounded).status, SolveStatus::kUnbounded);
}

}  // namespace
}  // namespace sb::lp
