// Performance smoke tests for the cold-solve path (ctest label lp_perf,
// run in both compiler CI jobs and under TSan). These are regression
// tripwires, not benchmarks: they solve a small decomposed provisioning
// shape and assert (a) the iteration count stays under a threshold far
// below the pre-decomposition cost, (b) parallel subproblem solves produce
// bit-identical output to the sequential run (the TSan job makes this a
// data-race check on the decomposition fan-out), and (c) the Devex
// framework and decomposition counters actually tick, so the metrics CI
// dashboards key on cannot silently go dead.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "lp/block_decompose.h"
#include "lp/solver.h"
#include "lp/standard_form.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "lp_models.h"

namespace sb::lp {
namespace {

using test::make_provisioning_lp;

TEST(LpPerfSmoke, DetectionFindsOneBlockPerSlot) {
  const std::size_t slots = 16;
  const Model m = make_provisioning_lp(slots, 6, 4, 91);
  const StandardForm sf = to_standard_form(m, BoundPolicy::kInline);
  const BlockPlan plan = detect_blocks(sf);
  EXPECT_EQ(plan.block_count, slots);
  EXPECT_EQ(plan.coupling_cols, 4u);  // the per-DC peaks
  // Every row lands in a block: completeness and capacity rows all touch
  // slot-local columns.
  for (int b : plan.row_block) EXPECT_GE(b, 0);
}

TEST(LpPerfSmoke, DecomposedIterationCountStaysBounded) {
  const Model m = make_provisioning_lp(16, 6, 4, 91);
  SolveOptions opt;
  opt.method = Method::kSparse;
  opt.decompose = DecomposePolicy::kForce;
  const Solution decomposed = solve(m, opt);
  ASSERT_TRUE(decomposed.optimal());

  SolveOptions plain;
  plain.method = Method::kSparse;
  plain.decompose = DecomposePolicy::kOff;
  const Solution monolithic = solve(m, plain);
  ASSERT_TRUE(monolithic.optimal());
  EXPECT_NEAR(decomposed.objective, monolithic.objective,
              1e-6 * std::max(1.0, std::abs(monolithic.objective)));

  // Regression tripwires. Total decomposed iterations (sub-solves +
  // clean-up) can exceed the monolithic count on a shape this small — the
  // point is that each sub-iteration runs on a ~25-row basis instead of the
  // monolithic 160-row one — but both counts must stay far below the
  // one-iteration-per-variable regime (~390 variables here; ~330 and ~175
  // iterations respectively when this was written).
  EXPECT_LT(decomposed.iterations, 1000u);
  EXPECT_LT(monolithic.iterations, 500u);
}

TEST(LpPerfSmoke, ParallelAndSequentialDecompositionBitIdentical) {
  const Model m = make_provisioning_lp(12, 5, 4, 17);
  SolveOptions opt;
  opt.method = Method::kSparse;
  opt.decompose = DecomposePolicy::kForce;
  opt.decompose_threads = 1;
  const Solution sequential = solve(m, opt);
  ASSERT_TRUE(sequential.optimal());
  opt.decompose_threads = 4;
  const Solution parallel = solve(m, opt);
  ASSERT_TRUE(parallel.optimal());

  ASSERT_EQ(sequential.values.size(), parallel.values.size());
  for (std::size_t i = 0; i < sequential.values.size(); ++i) {
    EXPECT_EQ(sequential.values[i], parallel.values[i]) << "var=" << i;
  }
  EXPECT_EQ(sequential.iterations, parallel.iterations);
  EXPECT_EQ(sequential.basis, parallel.basis);
  EXPECT_EQ(sequential.row_basis, parallel.row_basis);
}

#ifdef SB_METRICS_ENABLED
TEST(LpPerfSmoke, EngineCountersTick) {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::global();
  const obs::MetricsSnapshot before = reg.snapshot();
  const Model m = make_provisioning_lp(16, 6, 4, 91);
  SolveOptions opt;
  opt.method = Method::kSparse;
  opt.decompose = DecomposePolicy::kForce;
  ASSERT_TRUE(solve(m, opt).optimal());
  const obs::MetricsSnapshot delta = obs::snapshot_diff(before, reg.snapshot());
  EXPECT_GT(delta.counter_value("sb.lp.decompose_solves"), 0u);
  EXPECT_GT(delta.counter_value("sb.lp.decompose_blocks"), 0u);
  EXPECT_GT(delta.counter_value("sb.lp.decompose_sub_iterations"), 0u);
}
#endif

}  // namespace
}  // namespace sb::lp
