// Performance smoke tests for the cold-solve path (ctest label lp_perf,
// run in both compiler CI jobs and under TSan). These are regression
// tripwires, not benchmarks: they solve a small decomposed provisioning
// shape and assert (a) the iteration count stays under a threshold far
// below the pre-decomposition cost, (b) every master round of the
// decomposition records its span with consistent attributes, and (c) the
// Devex framework and decomposition counters actually tick, so the metrics
// CI dashboards key on cannot silently go dead.
#include <gtest/gtest.h>

#include <cmath>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "lp/block_decompose.h"
#include "lp/solver.h"
#include "lp/standard_form.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/span.h"
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

#ifdef SB_TRACING_ENABLED
TEST(LpPerfSmoke, DecompositionRecordsOneSpanPerMasterRound) {
  obs::SpanRecorder& recorder = obs::SpanRecorder::global();
  recorder.reset();
  recorder.set_enabled(true);
  const Model m = make_provisioning_lp(16, 6, 4, 91);
  SolveOptions opt;
  opt.method = Method::kSparse;
  opt.decompose = DecomposePolicy::kForce;
  const Solution solution = solve(m, opt);
  ASSERT_TRUE(solution.optimal());

  // collect() sorts by wall start, so the rounds come out in order.
  const std::vector<obs::SpanData> spans = recorder.collect();
  const obs::SpanData* decompose = nullptr;
  std::vector<const obs::SpanData*> rounds;
  for (const obs::SpanData& s : spans) {
    const std::string_view name = s.name;
    if (name == "lp.decompose") {
      ASSERT_EQ(decompose, nullptr) << "one decomposed solve, one span";
      decompose = &s;
    } else if (name == "lp.decompose.round") {
      rounds.push_back(&s);
    }
  }
  ASSERT_NE(decompose, nullptr);
  ASSERT_FALSE(rounds.empty());

  const auto attr = [](const obs::SpanData& s, obs::AttrKey key) {
    const obs::SpanAttr* a = s.find_attr(key);
    EXPECT_NE(a, nullptr) << obs::to_string(key);
    return a != nullptr ? a->value : -1;
  };
  std::int64_t round_iterations = 0;
  for (std::size_t i = 0; i < rounds.size(); ++i) {
    const obs::SpanData& round = *rounds[i];
    EXPECT_EQ(round.parent, decompose->id) << "round " << i;
    EXPECT_EQ(round.subsystem, obs::Subsystem::kLp);
    EXPECT_GE(round.wall_start_ns, decompose->wall_start_ns);
    EXPECT_LE(round.wall_end_ns, decompose->wall_end_ns);
    const std::int64_t rows = attr(round, obs::AttrKey::kRows);
    const std::int64_t blocks = attr(round, obs::AttrKey::kBlocks);
    const std::int64_t joined = attr(round, obs::AttrKey::kJoined);
    EXPECT_GT(rows, 0);
    EXPECT_GT(attr(round, obs::AttrKey::kCols), 0);
    EXPECT_GT(blocks, 0) << "16 blocks, a few in the master";
    EXPECT_LT(blocks, 16);
    EXPECT_GE(joined, 0);
    EXPECT_LE(joined, blocks);
    round_iterations += attr(round, obs::AttrKey::kIterations);
    if (i + 1 < rounds.size()) {
      // Blocks that joined are refined no more, and the master grows by
      // their rows.
      const obs::SpanData& next = *rounds[i + 1];
      EXPECT_GT(joined, 0) << "only a grown master starts another round";
      EXPECT_EQ(attr(next, obs::AttrKey::kBlocks), blocks - joined);
      EXPECT_GT(attr(next, obs::AttrKey::kRows), rows);
    } else {
      EXPECT_EQ(joined, 0) << "the last round stitches";
    }
  }
  // The rounds hold the master and block iterations; the clean-up adds the
  // rest of the solve's total.
  EXPECT_GT(round_iterations, 0);
  EXPECT_LE(round_iterations,
            static_cast<std::int64_t>(solution.iterations));
  EXPECT_EQ(attr(*decompose, obs::AttrKey::kIterations),
            static_cast<std::int64_t>(solution.iterations));
}
#endif

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
