// Differential property tests for the sparse LU/eta simplex family: on
// hundreds of seeded instances — random bounded-variable LPs, bound-flip-
// heavy LPs, provisioning-shaped LPs, and degenerate transportation LPs —
// the sparse primal engine, the dual simplex (Method::kDual), and the
// block-angular decomposition (DecomposePolicy::kForce) must all match the
// dense tableau's optimal objective, and every answer must pass the
// independent feasibility validator. Additional sweeps force Bland's
// anti-cycling rule almost immediately (stall_limit = 1) and check that
// parallel decomposition is bit-identical to its sequential run.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "common/rng.h"
#include "lp/solver.h"
#include "lp_models.h"

namespace sb::lp {
namespace {

using DiffSpec = test::RandomLpSpec;
using test::make_bounded_random_lp;
using test::make_provisioning_lp;

/// Bound-flip-heavy LP: EVERY variable is boxed (often narrowly) with a
/// signed cost, and rows are sparse, so most of the optimum rests on bounds
/// and a cold solve is dominated by bound-to-bound moves — the primal
/// engine's batched flips and the dual engine's bound-flipping ratio test.
/// Feasible by construction via an in-box witness; bounded because every
/// variable is boxed.
Model make_flip_heavy_lp(const DiffSpec& spec) {
  Rng rng(spec.seed);
  Model m;
  std::vector<double> witness(spec.vars);
  for (std::size_t i = 0; i < spec.vars; ++i) {
    const double lo = rng.uniform(0.0, 1.0);
    const double hi = lo + rng.uniform(0.1, 2.0);
    witness[i] = rng.uniform(lo, hi);
    m.add_variable(lo, hi, rng.uniform(-5.0, 5.0));
  }
  for (std::size_t r = 0; r < spec.rows; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (std::size_t i = 0; i < spec.vars; ++i) {
      if (!rng.chance(0.25)) continue;
      const double coeff = rng.uniform(-2.0, 2.0);
      terms.push_back({static_cast<int>(i), coeff});
      lhs += coeff * witness[i];
    }
    if (terms.empty()) continue;
    if (rng.chance(0.5)) {
      m.add_constraint(std::move(terms), Sense::kLe,
                       lhs + rng.uniform(0.0, 2.0));
    } else {
      m.add_constraint(std::move(terms), Sense::kGe,
                       lhs - rng.uniform(0.0, 2.0));
    }
  }
  return m;
}

/// Degenerate transportation LP: equal costs on many arcs and zero-slack
/// supplies create heavy reduced-cost and ratio-test ties.
Model make_degenerate_lp(std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  const std::size_t src = 2 + rng.uniform_index(3);
  const std::size_t dst = 2 + rng.uniform_index(4);
  std::vector<double> demand(dst);
  double total = 0.0;
  for (std::size_t j = 0; j < dst; ++j) {
    demand[j] = static_cast<double>(1 + rng.uniform_index(5));
    total += demand[j];
  }
  std::vector<std::vector<int>> v(src, std::vector<int>(dst));
  for (std::size_t i = 0; i < src; ++i) {
    for (std::size_t j = 0; j < dst; ++j) {
      // Two cost levels only -> massive tie sets.
      v[i][j] = m.add_variable(0.0, kInf, rng.chance(0.5) ? 1.0 : 2.0);
    }
  }
  for (std::size_t i = 0; i < src; ++i) {
    std::vector<Term> row;
    for (std::size_t j = 0; j < dst; ++j) row.push_back({v[i][j], 1.0});
    // Supplies sum exactly to demand: every supply row is tight.
    m.add_constraint(std::move(row), Sense::kLe,
                     total / static_cast<double>(src));
  }
  for (std::size_t j = 0; j < dst; ++j) {
    std::vector<Term> col;
    for (std::size_t i = 0; i < src; ++i) col.push_back({v[i][j], 1.0});
    m.add_constraint(std::move(col), Sense::kEq, demand[j]);
  }
  return m;
}

void expect_sparse_matches_dense(const Model& m, const SolveOptions& sparse_opt,
                                 std::uint64_t seed) {
  SolveOptions dense_opt;
  dense_opt.method = Method::kDense;
  const Solution dense = solve(m, dense_opt);
  const Solution sparse = solve(m, sparse_opt);
  ASSERT_EQ(dense.status, SolveStatus::kOptimal) << "seed=" << seed;
  ASSERT_EQ(sparse.status, SolveStatus::kOptimal) << "seed=" << seed;
  const double scale = std::max(1.0, std::abs(dense.objective));
  EXPECT_NEAR(dense.objective, sparse.objective, 1e-5 * scale)
      << "seed=" << seed;
  const ValidationReport report = validate_solution(m, sparse.values, 1e-5);
  EXPECT_TRUE(report.feasible)
      << "seed=" << seed << " sparse violated " << report.worst << " by "
      << report.max_violation;
  // The sparse engine must also report a usable basis on every optimum.
  EXPECT_EQ(sparse.basis.size(), m.variable_count());
}

class BoundedRandomDifferentialTest
    : public ::testing::TestWithParam<DiffSpec> {};

TEST_P(BoundedRandomDifferentialTest, SparseMatchesDense) {
  const Model m = make_bounded_random_lp(GetParam());
  SolveOptions sparse_opt;
  sparse_opt.method = Method::kSparse;
  expect_sparse_matches_dense(m, sparse_opt, GetParam().seed);
}

TEST_P(BoundedRandomDifferentialTest, DualMatchesDense) {
  // Cold dual starts on these instances are mostly dual-feasible (unboxed
  // variables carry non-negative costs); where they are not, the facade's
  // primal fallback must still land on the dense optimum.
  const Model m = make_bounded_random_lp(GetParam());
  SolveOptions dual_opt;
  dual_opt.method = Method::kDual;
  expect_sparse_matches_dense(m, dual_opt, GetParam().seed);
}

std::vector<DiffSpec> make_bounded_specs() {
  std::vector<DiffSpec> specs;
  std::uint64_t seed = 20000;
  for (std::size_t vars : {4u, 10u, 24u}) {
    for (std::size_t rows : {3u, 8u, 16u, 32u}) {
      for (int rep = 0; rep < 12; ++rep) {
        specs.push_back({seed++, vars, rows});
      }
    }
  }
  return specs;  // 3 * 4 * 12 = 144 cases
}

INSTANTIATE_TEST_SUITE_P(Sweep, BoundedRandomDifferentialTest,
                         ::testing::ValuesIn(make_bounded_specs()),
                         [](const auto& info) {
                           const DiffSpec& s = info.param;
                           return "seed" + std::to_string(s.seed) + "_v" +
                                  std::to_string(s.vars) + "_r" +
                                  std::to_string(s.rows);
                         });

class FlipHeavyDifferentialTest : public ::testing::TestWithParam<DiffSpec> {};

TEST_P(FlipHeavyDifferentialTest, SparseMatchesDense) {
  const Model m = make_flip_heavy_lp(GetParam());
  SolveOptions sparse_opt;
  sparse_opt.method = Method::kSparse;
  expect_sparse_matches_dense(m, sparse_opt, GetParam().seed);
}

TEST_P(FlipHeavyDifferentialTest, DualMatchesDense) {
  const Model m = make_flip_heavy_lp(GetParam());
  SolveOptions dual_opt;
  dual_opt.method = Method::kDual;
  expect_sparse_matches_dense(m, dual_opt, GetParam().seed);
}

std::vector<DiffSpec> make_flip_heavy_specs() {
  std::vector<DiffSpec> specs;
  std::uint64_t seed = 50000;
  for (std::size_t vars : {8u, 20u, 40u}) {
    for (std::size_t rows : {4u, 10u, 20u}) {
      for (int rep = 0; rep < 8; ++rep) {
        specs.push_back({seed++, vars, rows});
      }
    }
  }
  return specs;  // 3 * 3 * 8 = 72 cases
}

INSTANTIATE_TEST_SUITE_P(Sweep, FlipHeavyDifferentialTest,
                         ::testing::ValuesIn(make_flip_heavy_specs()),
                         [](const auto& info) {
                           const DiffSpec& s = info.param;
                           return "seed" + std::to_string(s.seed) + "_v" +
                                  std::to_string(s.vars) + "_r" +
                                  std::to_string(s.rows);
                         });

struct ProvShape {
  std::uint64_t seed;
  std::size_t slots;
  std::size_t configs;
  std::size_t dcs;
};

class ProvisioningShapedDifferentialTest
    : public ::testing::TestWithParam<ProvShape> {};

TEST_P(ProvisioningShapedDifferentialTest, SparseMatchesDense) {
  const ProvShape& p = GetParam();
  const Model m = make_provisioning_lp(p.slots, p.configs, p.dcs, p.seed);
  SolveOptions sparse_opt;
  sparse_opt.method = Method::kSparse;
  expect_sparse_matches_dense(m, sparse_opt, p.seed);
}

TEST_P(ProvisioningShapedDifferentialTest, DualMatchesDense) {
  const ProvShape& p = GetParam();
  const Model m = make_provisioning_lp(p.slots, p.configs, p.dcs, p.seed);
  SolveOptions dual_opt;
  dual_opt.method = Method::kDual;
  expect_sparse_matches_dense(m, dual_opt, p.seed);
}

std::vector<ProvShape> make_prov_shapes() {
  std::vector<ProvShape> shapes;
  std::uint64_t seed = 30000;
  for (std::size_t slots : {2u, 4u, 6u}) {
    for (std::size_t configs : {4u, 8u}) {
      for (std::size_t dcs : {3u, 5u}) {
        for (int rep = 0; rep < 4; ++rep) {
          shapes.push_back({seed++, slots, configs, dcs});
        }
      }
    }
  }
  return shapes;  // 3 * 2 * 2 * 4 = 48 cases
}

INSTANTIATE_TEST_SUITE_P(Shapes, ProvisioningShapedDifferentialTest,
                         ::testing::ValuesIn(make_prov_shapes()),
                         [](const auto& info) {
                           const ProvShape& p = info.param;
                           return "seed" + std::to_string(p.seed) + "_t" +
                                  std::to_string(p.slots) + "_c" +
                                  std::to_string(p.configs) + "_d" +
                                  std::to_string(p.dcs);
                         });

/// Degenerate instances solved with stall_limit = 1, so the sparse engine
/// drops to Bland's rule after a single non-improving pivot — the
/// anti-cycling path must still reach the dense engine's optimum.
class BlandFallbackTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BlandFallbackTest, DegenerateInstancesSolveUnderBland) {
  const Model m = make_degenerate_lp(GetParam());
  SolveOptions sparse_opt;
  sparse_opt.method = Method::kSparse;
  sparse_opt.stall_limit = 1;
  expect_sparse_matches_dense(m, sparse_opt, GetParam());
}

TEST_P(BlandFallbackTest, DegenerateInstancesSolveUnderDualBland) {
  // Same degenerate instances through the dual engine: its stall detector
  // must engage lowest-index selection (flips disabled) and still finish —
  // directly or via the primal fallback.
  const Model m = make_degenerate_lp(GetParam());
  SolveOptions dual_opt;
  dual_opt.method = Method::kDual;
  dual_opt.stall_limit = 1;
  expect_sparse_matches_dense(m, dual_opt, GetParam());
}

INSTANTIATE_TEST_SUITE_P(Seeds, BlandFallbackTest,
                         ::testing::Range<std::uint64_t>(700, 712));

/// Shapes large enough (slots > 6) that the per-DC peak columns clear the
/// degree cutoff and detect_blocks finds one block per slot.
class DecomposeDifferentialTest : public ::testing::TestWithParam<ProvShape> {};

TEST_P(DecomposeDifferentialTest, DecomposedMatchesDense) {
  const ProvShape& p = GetParam();
  const Model m = make_provisioning_lp(p.slots, p.configs, p.dcs, p.seed);
  SolveOptions opt;
  opt.method = Method::kSparse;
  opt.decompose = DecomposePolicy::kForce;
  expect_sparse_matches_dense(m, opt, p.seed);
}

TEST_P(DecomposeDifferentialTest, ParallelDecompositionIsBitIdentical) {
  const ProvShape& p = GetParam();
  const Model m = make_provisioning_lp(p.slots, p.configs, p.dcs, p.seed);
  SolveOptions opt;
  opt.method = Method::kSparse;
  opt.decompose = DecomposePolicy::kForce;
  opt.decompose_threads = 1;
  const Solution sequential = solve(m, opt);
  opt.decompose_threads = 4;
  const Solution parallel = solve(m, opt);
  ASSERT_EQ(sequential.status, parallel.status) << "seed=" << p.seed;
  ASSERT_EQ(sequential.values.size(), parallel.values.size());
  for (std::size_t i = 0; i < sequential.values.size(); ++i) {
    // Bit-identical, not merely close: subproblems are independent and the
    // stitch walks blocks in index order regardless of thread count.
    EXPECT_EQ(sequential.values[i], parallel.values[i])
        << "seed=" << p.seed << " var=" << i;
  }
  ASSERT_EQ(sequential.basis, parallel.basis) << "seed=" << p.seed;
  EXPECT_EQ(sequential.iterations, parallel.iterations);
}

std::vector<ProvShape> make_decompose_shapes() {
  std::vector<ProvShape> shapes;
  std::uint64_t seed = 40000;
  for (std::size_t slots : {8u, 12u}) {
    for (std::size_t configs : {3u, 6u}) {
      for (std::size_t dcs : {3u, 4u}) {
        shapes.push_back({seed++, slots, configs, dcs});
      }
    }
  }
  return shapes;  // 2 * 2 * 2 = 8 cases
}

INSTANTIATE_TEST_SUITE_P(Shapes, DecomposeDifferentialTest,
                         ::testing::ValuesIn(make_decompose_shapes()),
                         [](const auto& info) {
                           const ProvShape& p = info.param;
                           return "seed" + std::to_string(p.seed) + "_t" +
                                  std::to_string(p.slots) + "_c" +
                                  std::to_string(p.configs) + "_d" +
                                  std::to_string(p.dcs);
                         });

}  // namespace
}  // namespace sb::lp
