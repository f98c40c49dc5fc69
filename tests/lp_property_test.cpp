// Property tests for the LP solvers: on randomized feasible instances, the
// dense tableau, the dual simplex, and the sparse LU/eta engine must agree
// on the optimal objective and every answer must pass the independent
// feasibility validator.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "lp/solver.h"
#include "lp_models.h"

namespace sb::lp {
namespace {

using test::make_random_feasible_lp;
using test::RandomLpSpec;

class RandomLpAgreementTest
    : public ::testing::TestWithParam<RandomLpSpec> {};

// "Revised" names both revised-simplex engines checked against the
// tableau: the dual simplex and the primal sparse engine.
TEST_P(RandomLpAgreementTest, DenseAndRevisedAgreeAndValidate) {
  const Model m = make_random_feasible_lp(GetParam());

  SolveOptions dense_opt;
  dense_opt.method = Method::kDense;
  SolveOptions dual_opt;
  dual_opt.method = Method::kDual;
  SolveOptions sparse_opt;
  sparse_opt.method = Method::kSparse;

  const Solution dense = solve(m, dense_opt);
  const Solution dual = solve(m, dual_opt);
  const Solution sparse = solve(m, sparse_opt);

  ASSERT_EQ(dense.status, SolveStatus::kOptimal);
  ASSERT_EQ(dual.status, SolveStatus::kOptimal);
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal);

  const double scale = std::max({1.0, std::abs(dense.objective)});
  EXPECT_NEAR(dense.objective, dual.objective, 1e-5 * scale)
      << "seed=" << GetParam().seed;
  EXPECT_NEAR(dense.objective, sparse.objective, 1e-5 * scale)
      << "seed=" << GetParam().seed;

  const ValidationReport dr = validate_solution(m, dense.values, 1e-5);
  EXPECT_TRUE(dr.feasible) << "dense violated " << dr.worst << " by "
                           << dr.max_violation;
  const ValidationReport ar = validate_solution(m, dual.values, 1e-5);
  EXPECT_TRUE(ar.feasible) << "dual violated " << ar.worst << " by "
                           << ar.max_violation;
  const ValidationReport sr = validate_solution(m, sparse.values, 1e-5);
  EXPECT_TRUE(sr.feasible) << "sparse violated " << sr.worst << " by "
                           << sr.max_violation;
}

std::vector<RandomLpSpec> make_specs() {
  std::vector<RandomLpSpec> specs;
  std::uint64_t seed = 1000;
  for (std::size_t vars : {3u, 8u, 20u}) {
    for (std::size_t rows : {2u, 6u, 15u, 30u}) {
      for (int rep = 0; rep < 4; ++rep) {
        specs.push_back({seed++, vars, rows});
      }
    }
  }
  return specs;
}

INSTANTIATE_TEST_SUITE_P(Sweep, RandomLpAgreementTest,
                         ::testing::ValuesIn(make_specs()),
                         [](const auto& info) {
                           const RandomLpSpec& s = info.param;
                           return "seed" + std::to_string(s.seed) + "_v" +
                                  std::to_string(s.vars) + "_r" +
                                  std::to_string(s.rows);
                         });

/// Infeasible-by-construction instances must be reported as such by every
/// engine (never "optimal" with a violated answer).
class RandomInfeasibleTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomInfeasibleTest, BothMethodsReportInfeasible) {
  Rng rng(GetParam());
  Model m;
  const std::size_t vars = 2 + rng.uniform_index(6);
  std::vector<Term> sum_terms;
  for (std::size_t i = 0; i < vars; ++i) {
    m.add_variable(0.0, kInf, rng.uniform(0.0, 2.0));
    sum_terms.push_back({static_cast<int>(i), 1.0});
  }
  // sum x >= 10 while every variable is <= 1 and there are < 10 of them.
  m.add_constraint(sum_terms, Sense::kGe, 10.0);
  for (std::size_t i = 0; i < vars; ++i) {
    m.add_constraint({{static_cast<int>(i), 1.0}}, Sense::kLe, 1.0);
  }
  for (Method method : {Method::kDense, Method::kDual, Method::kSparse}) {
    SolveOptions opt;
    opt.method = method;
    EXPECT_EQ(solve(m, opt).status, SolveStatus::kInfeasible);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomInfeasibleTest,
                         ::testing::Range<std::uint64_t>(42, 54));

}  // namespace
}  // namespace sb::lp
