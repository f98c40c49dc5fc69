// Tests for the discrete-event simulator and its allocator adapters:
// conservation of usage, migration behaviour per scheme, and latency
// ordering across schemes.
#include <gtest/gtest.h>

#include "sim/simulator.h"
#include "trace/scenario.h"

namespace sb {
namespace {

/// Sum of the realized per-DC core peaks.
double total_peak_cores(const SimReport& report) {
  double total = 0.0;
  for (double v : report.dc_peak_cores) total += v;
  return total;
}

class SimFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_apac_scenario());
    loads_ = new LoadModel(LoadModel::paper_default());
    ctx_ = new EvalContext{&scenario_->world(), &scenario_->topology(),
                           &scenario_->latency(), scenario_->registry.get(),
                           loads_};
    // Four busy hours of a Tuesday.
    const double start = kSecondsPerDay + 3.0 * kSecondsPerHour;
    db_ = new CallRecordDatabase(
        scenario_->trace->generate(start, start + 4.0 * kSecondsPerHour));
  }
  static void TearDownTestSuite() {
    delete db_;
    delete ctx_;
    delete loads_;
    delete scenario_;
  }

  static Scenario* scenario_;
  static LoadModel* loads_;
  static EvalContext* ctx_;
  static CallRecordDatabase* db_;
};
Scenario* SimFixture::scenario_ = nullptr;
LoadModel* SimFixture::loads_ = nullptr;
EvalContext* SimFixture::ctx_ = nullptr;
CallRecordDatabase* SimFixture::db_ = nullptr;

TEST_F(SimFixture, ProcessesEveryCallOnce) {
  Simulator sim(*ctx_);
  RoundRobinAllocator rr(*ctx_);
  const SimReport report = sim.run(*db_, rr);
  EXPECT_EQ(report.calls, db_->size());
  EXPECT_EQ(report.allocator, "round-robin");
  EXPECT_GT(report.peak_concurrent_calls, 0u);
  EXPECT_GT(total_peak_cores(report), 0.0);
}

TEST_F(SimFixture, RoundRobinNeverMigrates) {
  Simulator sim(*ctx_);
  RoundRobinAllocator rr(*ctx_);
  const SimReport report = sim.run(*db_, rr);
  EXPECT_EQ(report.migrations, 0u);
}

TEST_F(SimFixture, LocalityFirstMigratesSmallFraction) {
  // §6.4: LF migrates ~1.53% of calls — the ones whose first joiner was not
  // in the majority country (or whose majority sits closer to another DC).
  Simulator sim(*ctx_);
  LocalityFirstAllocator lf(*ctx_);
  const SimReport report = sim.run(*db_, lf);
  EXPECT_GT(report.migration_fraction, 0.001);
  EXPECT_LT(report.migration_fraction, 0.10);
}

TEST_F(SimFixture, AclOrderingLfBelowRr) {
  Simulator sim(*ctx_);
  RoundRobinAllocator rr(*ctx_);
  LocalityFirstAllocator lf(*ctx_);
  const SimReport rr_report = sim.run(*db_, rr);
  const SimReport lf_report = sim.run(*db_, lf);
  EXPECT_LT(lf_report.mean_acl_ms, 0.7 * rr_report.mean_acl_ms);
}

TEST_F(SimFixture, FirstJoinerMajorityMatchesTraceTarget) {
  Simulator sim(*ctx_);
  RoundRobinAllocator rr(*ctx_);
  const SimReport report = sim.run(*db_, rr);
  EXPECT_NEAR(report.first_joiner_majority_fraction, 0.952, 0.02);
}

TEST_F(SimFixture, SwitchboardWithoutPlanBehavesLikeLocalityFirst) {
  // With no allocation plan the controller's selector assigns closest-DC and
  // re-homes unplanned configs to their min-ACL DC, i.e. LF behaviour.
  Simulator sim(*ctx_);
  Switchboard controller(*ctx_, {});
  ControllerAllocator sb_alloc(controller);
  LocalityFirstAllocator lf(*ctx_);
  const SimReport sb_report = sim.run(*db_, sb_alloc);
  const SimReport lf_report = sim.run(*db_, lf);
  EXPECT_NEAR(sb_report.mean_acl_ms, lf_report.mean_acl_ms,
              0.1 * lf_report.mean_acl_ms);
}

TEST_F(SimFixture, UsagePeaksScaleWithLoadModel) {
  // Realized peaks must be bounded by "every call at its largest media
  // everywhere" and above zero; a coarse sanity envelope.
  Simulator sim(*ctx_);
  LocalityFirstAllocator lf(*ctx_);
  const SimReport report = sim.run(*db_, lf);
  double upper = 0.0;
  for (const CallRecord& r : db_->records()) {
    const CallConfig& config = scenario_->registry->get(r.config);
    upper += loads_->cores_per_participant(config.media()) *
             config.total_participants();
  }
  EXPECT_GT(total_peak_cores(report), 0.0);
  EXPECT_LT(total_peak_cores(report), upper);
}

TEST_F(SimFixture, ConcurrentDriverMatchesSequentialCounters) {
  // The plan-less controller decides per call from immutable data
  // (closest DC, min-ACL DC), so its decisions are independent of event
  // interleaving: the sharded driver must reproduce the sequential count
  // and per-call metrics exactly. Concurrent per-DC peaks are time-aligned
  // bucket maxima, so they can never exceed the sequential continuous
  // peaks, and the bucket series itself (an exact snapshot sum across
  // partitions of identical decisions) must match the sequential one.
  Simulator sim(*ctx_);
  Switchboard seq_controller(*ctx_, {});
  ControllerAllocator seq_alloc(seq_controller);
  const SimReport seq = sim.run(*db_, seq_alloc);

  for (std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    Switchboard controller(*ctx_, {});
    ControllerAllocator alloc(controller);
    const SimReport conc = sim.run_concurrent(*db_, alloc, 300.0, threads);
    EXPECT_EQ(conc.calls, seq.calls) << threads;
    EXPECT_EQ(conc.frozen, seq.frozen) << threads;
    EXPECT_EQ(conc.migrations, seq.migrations) << threads;
    EXPECT_NEAR(conc.mean_acl_ms, seq.mean_acl_ms, 1e-9 * seq.mean_acl_ms)
        << threads;
    EXPECT_DOUBLE_EQ(conc.first_joiner_majority_fraction,
                     seq.first_joiner_majority_fraction);
    EXPECT_GE(conc.peak_concurrent_calls, seq.peak_concurrent_calls);
    EXPECT_LE(total_peak_cores(conc), total_peak_cores(seq) + 1e-9);
    ASSERT_EQ(conc.dc_cores_buckets.size(), seq.dc_cores_buckets.size());
    for (std::size_t x = 0; x < seq.dc_cores_buckets.size(); ++x) {
      const auto& s = seq.dc_cores_buckets[x];
      const auto& c = conc.dc_cores_buckets[x];
      // Trailing buckets a driver never sampled are implicitly zero.
      for (std::size_t b = 0; b < std::max(s.size(), c.size()); ++b) {
        EXPECT_NEAR(b < c.size() ? c[b] : 0.0, b < s.size() ? s[b] : 0.0,
                    1e-6)
            << "dc " << x << " bucket " << b << " threads " << threads;
      }
      EXPECT_LE(conc.dc_peak_cores[x], seq.dc_peak_cores[x] + 1e-9);
    }
  }
}

TEST_F(SimFixture, ConcurrentDriverSingleThreadIsBitIdentical) {
  // One partition replays in exactly run()'s event order, so even the
  // floating-point accumulations must match bit for bit.
  Simulator sim(*ctx_);
  Switchboard seq_controller(*ctx_, {});
  ControllerAllocator seq_alloc(seq_controller);
  const SimReport seq = sim.run(*db_, seq_alloc);
  Switchboard controller(*ctx_, {});
  ControllerAllocator alloc(controller);
  const SimReport conc = sim.run_concurrent(*db_, alloc, 300.0, 1);
  EXPECT_EQ(conc.calls, seq.calls);
  EXPECT_EQ(conc.migrations, seq.migrations);
  EXPECT_EQ(conc.mean_acl_ms, seq.mean_acl_ms);
  EXPECT_EQ(conc.peak_concurrent_calls, seq.peak_concurrent_calls);
  // Same event order -> the bucket-boundary samples are bit-identical; the
  // reported peaks differ only in granularity (bucket max vs continuous).
  EXPECT_EQ(conc.dc_cores_buckets, seq.dc_cores_buckets);
  for (std::size_t x = 0; x < seq.dc_peak_cores.size(); ++x) {
    EXPECT_EQ(conc.dc_peak_cores[x], conc.dc_bucket_peak(x));
    EXPECT_LE(conc.dc_peak_cores[x], seq.dc_peak_cores[x]);
  }
  EXPECT_EQ(conc.link_peak_gbps, seq.link_peak_gbps);
}

TEST(SimulatorValidationTest, RejectsBadFreezeDelay) {
  Scenario scenario = make_apac_scenario({.config_count = 50});
  const LoadModel loads = LoadModel::paper_default();
  EvalContext ctx{&scenario.world(), &scenario.topology(),
                  &scenario.latency(), scenario.registry.get(), &loads};
  Simulator sim(ctx);
  RoundRobinAllocator rr(ctx);
  CallRecordDatabase empty;
  EXPECT_THROW(sim.run(empty, rr, 0.0), InvalidArgument);
  const SimReport report = sim.run(empty, rr);
  EXPECT_EQ(report.calls, 0u);
  EXPECT_DOUBLE_EQ(report.mean_acl_ms, 0.0);
}

}  // namespace
}  // namespace sb
