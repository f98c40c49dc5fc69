// Tests for the LP presolve reductions and their integration with the
// solver facade.
#include <gtest/gtest.h>

#include <cstring>

#include "common/rng.h"
#include "lp/presolve.h"
#include "lp/solver.h"
#include "lp/standard_form.h"

namespace sb::lp {
namespace {

TEST(PresolveTest, SingletonRowsBecomeBounds) {
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0, "x");
  const int y = m.add_variable(0.0, kInf, 1.0, "y");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 3.0);   // x >= 3
  m.add_constraint({{x, 2.0}}, Sense::kLe, 16.0);  // x <= 8
  m.add_constraint({{y, -1.0}}, Sense::kLe, -2.0); // y >= 2
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kLe, 20.0);

  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.rows_removed, 3u);
  EXPECT_EQ(r.rows_kept, 1u);
  EXPECT_EQ(r.row_map, (std::vector<int>{-1, -1, -1, 0}));
  EXPECT_DOUBLE_EQ(r.lower[x], 3.0);
  EXPECT_DOUBLE_EQ(r.upper[x], 8.0);
  EXPECT_DOUBLE_EQ(r.lower[y], 2.0);
}

TEST(PresolveTest, ImpliedUpperBoundsBoxFreeColumns) {
  Model m;
  const int x = m.add_variable(0.0, kInf, -1.0, "x");
  const int y = m.add_variable(1.0, kInf, -1.0, "y");
  const int z = m.add_variable(0.0, 5.0, -1.0, "z");
  // x + 2y + z <= 10 with y >= 1, z >= 0 implies x <= 8, y <= 5.
  m.add_constraint({{x, 1.0}, {y, 2.0}, {z, 1.0}}, Sense::kLe, 10.0);

  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.uppers_implied, 2u);
  EXPECT_DOUBLE_EQ(r.upper[x], 8.0);
  EXPECT_DOUBLE_EQ(r.upper[y], 5.0);
  // z's finite upper is left alone even though the row would imply a
  // tighter one — only +inf uppers are boxed (the goal is flippable
  // columns, not aggressive tightening).
  EXPECT_DOUBLE_EQ(r.upper[z], 5.0);
}

TEST(PresolveTest, ImpliedBoundsSkipRowsWithFreeNegativeTerms) {
  Model m;
  const int x = m.add_variable(0.0, kInf, -1.0, "x");
  const int y = m.add_variable(0.0, kInf, 1.0, "y");
  // x - y <= 4 implies nothing for x (y's term has no finite minimum).
  m.add_constraint({{x, 1.0}, {y, -1.0}}, Sense::kLe, 4.0);

  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.uppers_implied, 0u);
  EXPECT_EQ(r.upper[x], kInf);
}

TEST(PresolveTest, SingletonEqualityFixesVariable) {
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0, "x");
  m.add_variable(0.0, kInf, 1.0, "y");
  m.add_constraint({{x, 2.0}}, Sense::kEq, 10.0);  // x == 5
  const PresolveResult r = presolve(m);
  ASSERT_FALSE(r.infeasible);
  EXPECT_EQ(r.variables_fixed, 1u);
  EXPECT_DOUBLE_EQ(r.lower[x], 5.0);
  EXPECT_DOUBLE_EQ(r.upper[x], 5.0);
}

TEST(PresolveTest, DetectsCrossedBounds) {
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0, "x");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 7.0);
  m.add_constraint({{x, 1.0}}, Sense::kLe, 3.0);
  const PresolveResult r = presolve(m);
  EXPECT_TRUE(r.infeasible);
  EXPECT_FALSE(r.infeasible_reason.empty());
}

TEST(PresolveTest, EmptyRowFeasibilityCheck) {
  Model ok;
  ok.add_variable(0.0, kInf, 1.0);
  ok.add_constraint({}, Sense::kLe, 5.0);  // 0 <= 5: fine, dropped
  const PresolveResult good = presolve(ok);
  EXPECT_FALSE(good.infeasible);
  EXPECT_EQ(good.rows_kept, 0u);
  EXPECT_EQ(good.row_map, (std::vector<int>{-1}));

  Model bad;
  bad.add_variable(0.0, kInf, 1.0);
  bad.add_constraint({}, Sense::kGe, 5.0);  // 0 >= 5: impossible
  EXPECT_TRUE(presolve(bad).infeasible);
}

TEST(PresolveTest, SolverUsesPresolveTransparently) {
  // min x + y s.t. x >= 3 (singleton), x + y >= 10.
  Model m;
  const int x = m.add_variable(0.0, kInf, 1.0, "x");
  const int y = m.add_variable(0.0, kInf, 2.0, "y");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, Sense::kGe, 10.0);

  SolveOptions with;
  SolveOptions without;
  without.use_presolve = false;
  const Solution a = solve(m, with);
  const Solution b = solve(m, without);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  EXPECT_NEAR(a.objective, b.objective, 1e-8);
  EXPECT_NEAR(a.objective, 10.0, 1e-8);  // x = 10, y = 0
  EXPECT_NEAR(a.values[x], 10.0, 1e-8);
  EXPECT_NEAR(a.values[y], 0.0, 1e-8);
}

TEST(PresolveTest, EarlyInfeasibilityShortCircuitsSolver) {
  Model m;
  const int x = m.add_variable(0.0, 5.0, 1.0, "x");
  m.add_constraint({{x, 1.0}}, Sense::kGe, 9.0);  // crosses the ub
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

/// The reduced model presolve used to materialize: tightened bounds (with
/// fixed variables at lower == upper) and the surviving rows in order.
Model reduced_model(const Model& m, const PresolveResult& pre) {
  Model reduced;
  for (std::size_t i = 0; i < m.variable_count(); ++i) {
    reduced.add_variable(pre.lower[i], pre.upper[i],
                         m.variable(static_cast<int>(i)).cost);
  }
  for (std::size_t r = 0; r < m.constraint_count(); ++r) {
    if (pre.row_map[r] < 0) continue;
    const Constraint& row = m.constraint(static_cast<int>(r));
    reduced.add_constraint(row.terms, row.sense, row.rhs);
  }
  return reduced;
}

bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

void expect_same_standard_form(const StandardForm& a, const StandardForm& b) {
  EXPECT_TRUE(same_bytes(a.cost, b.cost));
  EXPECT_TRUE(same_bytes(a.upper, b.upper));
  EXPECT_TRUE(same_bytes(a.var_base, b.var_base));
  EXPECT_EQ(a.var_map, b.var_map);
  EXPECT_EQ(std::memcmp(&a.objective_offset, &b.objective_offset,
                        sizeof(double)),
            0);
  ASSERT_EQ(a.rows.size(), b.rows.size());
  for (std::size_t r = 0; r < a.rows.size(); ++r) {
    EXPECT_EQ(a.rows[r].sense, b.rows[r].sense);
    EXPECT_EQ(std::memcmp(&a.rows[r].rhs, &b.rows[r].rhs, sizeof(double)), 0)
        << "row " << r;
    ASSERT_EQ(a.rows[r].terms.size(), b.rows[r].terms.size());
    for (std::size_t k = 0; k < a.rows[r].terms.size(); ++k) {
      EXPECT_EQ(a.rows[r].terms[k].var, b.rows[r].terms[k].var);
      EXPECT_EQ(a.rows[r].terms[k].coeff, b.rows[r].terms[k].coeff);
    }
  }
}

/// Random LP with shifted and boxed variables and many singleton rows (some
/// kEq, which fix their variable), feasible through an in-box witness, so
/// the standard form folds fixed values and shifts into its rhs.
Model make_presolve_lp(std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  const std::size_t vars = 4 + rng.uniform_index(8);
  std::vector<double> witness(vars);
  for (std::size_t i = 0; i < vars; ++i) {
    const double lo = rng.chance(0.5) ? rng.uniform(0.0, 2.0) : 0.0;
    const double hi = rng.chance(0.3) ? lo + rng.uniform(1.0, 5.0) : kInf;
    witness[i] = hi < kInf ? rng.uniform(lo, hi) : lo + rng.uniform(0.0, 6.0);
    m.add_variable(lo, hi, rng.uniform(-1.0, 4.0));
  }
  for (std::size_t r = 0; r < vars * 2; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    const std::size_t width = rng.chance(0.4) ? 1 : 1 + rng.uniform_index(vars);
    for (std::size_t k = 0; k < width; ++k) {
      const auto var = static_cast<int>(rng.uniform_index(vars));
      const double coeff = rng.uniform(-2.0, 2.0);
      terms.push_back({var, coeff});
      lhs += coeff * witness[static_cast<std::size_t>(var)];
    }
    const double pick = rng.uniform();
    if (pick < 0.45) {
      m.add_constraint(std::move(terms), Sense::kLe, lhs + rng.uniform(0, 3));
    } else if (pick < 0.9) {
      m.add_constraint(std::move(terms), Sense::kGe, lhs - rng.uniform(0, 3));
    } else {
      m.add_constraint(std::move(terms), Sense::kEq, lhs);
    }
  }
  return m;
}

// to_standard_form through a presolve result builds exactly the form the
// materialized reduced model gave, under both bound policies; and
// refresh_standard_form after an rhs rewrite that keeps presolve's
// decisions equals a fresh conversion.
TEST(PresolveTest, StandardFormThroughPresolveMatchesReducedModel) {
  std::size_t compared = 0;
  std::size_t refreshed = 0;
  for (std::uint64_t seed = 400; seed < 460; ++seed) {
    Model m = make_presolve_lp(seed);
    const PresolveResult pre = presolve(m);
    if (pre.infeasible) continue;
    const Model reduced = reduced_model(m, pre);
    for (BoundPolicy policy : {BoundPolicy::kInline, BoundPolicy::kUpperRows}) {
      StandardForm sf = to_standard_form(m, policy, &pre);
      expect_same_standard_form(sf, to_standard_form(reduced, policy));
      ++compared;

      Model moved = m;
      Rng rng(seed);
      for (std::size_t r = 0; r < moved.constraint_count(); ++r) {
        const int row = static_cast<int>(r);
        moved.set_rhs(row,
                      moved.constraint(row).rhs * rng.uniform(0.999, 1.001));
      }
      const PresolveResult again = presolve(moved);
      if (again.infeasible || again.row_map != pre.row_map) continue;
      bool same = true;
      for (std::size_t i = 0; i < moved.variable_count(); ++i) {
        same = same &&
               (pre.lower[i] == pre.upper[i]) ==
                   (again.lower[i] == again.upper[i]) &&
               (pre.upper[i] == kInf) == (again.upper[i] == kInf);
      }
      if (!same) continue;
      refresh_standard_form(moved, policy, &again, sf);
      expect_same_standard_form(sf, to_standard_form(moved, policy, &again));
      ++refreshed;
    }
  }
  EXPECT_GT(compared, 60u);
  EXPECT_GT(refreshed, 20u);
}

/// Property: presolve never changes the optimum on random feasible LPs.
class PresolveEquivalenceTest : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(PresolveEquivalenceTest, SameOptimumWithAndWithoutPresolve) {
  Rng rng(GetParam());
  Model m;
  const std::size_t vars = 4 + rng.uniform_index(8);
  std::vector<double> witness(vars);
  for (std::size_t i = 0; i < vars; ++i) {
    witness[i] = rng.uniform(0.0, 8.0);
    m.add_variable(0.0, kInf, rng.uniform(0.0, 4.0));
  }
  for (std::size_t r = 0; r < vars * 2; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    // Bias toward singleton rows so presolve has work to do.
    const std::size_t width = rng.chance(0.4) ? 1 : 1 + rng.uniform_index(vars);
    for (std::size_t k = 0; k < width; ++k) {
      const auto var = static_cast<int>(rng.uniform_index(vars));
      const double coeff = rng.uniform(-2.0, 2.0);
      terms.push_back({var, coeff});
      lhs += coeff * witness[static_cast<std::size_t>(var)];
    }
    if (rng.chance(0.5)) {
      m.add_constraint(std::move(terms), Sense::kLe, lhs + rng.uniform(0, 3));
    } else {
      m.add_constraint(std::move(terms), Sense::kGe, lhs - rng.uniform(0, 3));
    }
  }
  SolveOptions with;
  SolveOptions without;
  without.use_presolve = false;
  const Solution a = solve(m, with);
  const Solution b = solve(m, without);
  ASSERT_EQ(a.status, SolveStatus::kOptimal);
  ASSERT_EQ(b.status, SolveStatus::kOptimal);
  const double scale = std::max(1.0, std::abs(b.objective));
  EXPECT_NEAR(a.objective, b.objective, 1e-6 * scale);
  EXPECT_TRUE(validate_solution(m, a.values, 1e-6).feasible);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PresolveEquivalenceTest,
                         ::testing::Range<std::uint64_t>(300, 320));

}  // namespace
}  // namespace sb::lp
