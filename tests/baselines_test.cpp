// Tests for the RR and LF baselines and the §3 provisioning relationships
// between them (local peaks vs global peak, backup skew, WAN ordering).
#include <gtest/gtest.h>

#include "baselines/locality_first.h"
#include "baselines/round_robin.h"
#include "trace/scenario.h"

namespace sb {
namespace {

/// Shared APAC workload: one business day of expected demand over the top
/// configs.
class BaselineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_apac_scenario());
    loads_ = new LoadModel(LoadModel::paper_default());
    ctx_ = new EvalContext{&scenario_->world(), &scenario_->topology(),
                           &scenario_->latency(), scenario_->registry.get(),
                           loads_};
    // Tuesday, 30-minute slots, top-30 configs by base rate.
    demand_ = new DemandMatrix(design_day_demand(*scenario_, 1800.0, 30));
  }
  static void TearDownTestSuite() {
    delete demand_;
    delete ctx_;
    delete loads_;
    delete scenario_;
  }

  static Scenario* scenario_;
  static LoadModel* loads_;
  static EvalContext* ctx_;
  static DemandMatrix* demand_;
};
Scenario* BaselineFixture::scenario_ = nullptr;
LoadModel* BaselineFixture::loads_ = nullptr;
EvalContext* BaselineFixture::ctx_ = nullptr;
DemandMatrix* BaselineFixture::demand_ = nullptr;

TEST_F(BaselineFixture, RoundRobinSpreadsEqually) {
  const PlacementMatrix p = round_robin_placement(*demand_, *ctx_);
  const std::size_t n = scenario_->world().dc_count();
  for (TimeSlot t = 0; t < demand_->slot_count(); t += 7) {
    for (std::size_t c = 0; c < demand_->config_count(); c += 5) {
      const double d = demand_->demand(t, c);
      for (std::size_t x = 0; x < n; ++x) {
        EXPECT_NEAR(p.calls(t, c, DcId(static_cast<std::uint32_t>(x))),
                    d / static_cast<double>(n), 1e-9);
      }
    }
  }
}

TEST_F(BaselineFixture, LocalityFirstPicksMinAclDc) {
  const PlacementMatrix p = locality_first_placement(*demand_, *ctx_);
  for (std::size_t c = 0; c < demand_->config_count(); ++c) {
    const CallConfig& config =
        scenario_->registry->get(demand_->config_at(c));
    const DcId best = min_acl_dc(config, scenario_->world().dc_ids(),
                                 scenario_->latency());
    for (TimeSlot t = 0; t < demand_->slot_count(); t += 11) {
      const double d = demand_->demand(t, c);
      EXPECT_NEAR(p.calls(t, c, best), d, 1e-9);
    }
  }
}

TEST_F(BaselineFixture, AclOrderingLfBeatsRr) {
  // §6: LF's mean ACL is much lower than RR's (paper: 0.45x).
  const BaselineOptions options{.with_backup = false};
  const BaselineResult rr = provision_round_robin(*demand_, *ctx_, options);
  const BaselineResult lf =
      provision_locality_first(*demand_, *ctx_, options);
  EXPECT_LT(lf.mean_acl_ms, 0.7 * rr.mean_acl_ms);
}

TEST_F(BaselineFixture, CoresOrderingLfAboveRr) {
  // §3.2: sum of time-shifted local peaks > global peak, so LF provisions
  // more serving cores than RR.
  const BaselineOptions options{.with_backup = false};
  const BaselineResult rr = provision_round_robin(*demand_, *ctx_, options);
  const BaselineResult lf =
      provision_locality_first(*demand_, *ctx_, options);
  EXPECT_GT(lf.capacity.total_cores(), rr.capacity.total_cores() * 1.0);
}

TEST_F(BaselineFixture, WanOrderingRrAboveLf) {
  // §3.1: RR sprays calls to remote DCs and burns far more WAN than LF.
  const BaselineOptions options{.with_backup = false};
  const BaselineResult rr = provision_round_robin(*demand_, *ctx_, options);
  const BaselineResult lf =
      provision_locality_first(*demand_, *ctx_, options);
  EXPECT_GT(rr.capacity.total_wan_gbps(), 2.0 * lf.capacity.total_wan_gbps());
}

TEST_F(BaselineFixture, BackupIncreasesCapacity) {
  const BaselineOptions with{.with_backup = true,
                             .include_link_failures = false};
  const BaselineOptions without{.with_backup = false};
  const BaselineResult rr_with = provision_round_robin(*demand_, *ctx_, with);
  const BaselineResult rr_without =
      provision_round_robin(*demand_, *ctx_, without);
  EXPECT_GT(rr_with.capacity.total_cores(),
            rr_without.capacity.total_cores());
  // RR backup per DC is serving/(n-1).
  const std::size_t n = scenario_->world().dc_count();
  for (std::size_t x = 0; x < n; ++x) {
    EXPECT_NEAR(rr_with.capacity.dc_backup_cores[x],
                rr_with.capacity.dc_serving_cores[x] /
                    static_cast<double>(n - 1),
                1e-9);
  }

  const BaselineResult lf_with =
      provision_locality_first(*demand_, *ctx_, with);
  const BaselineResult lf_without =
      provision_locality_first(*demand_, *ctx_, without);
  EXPECT_GT(lf_with.capacity.total_cores(),
            lf_without.capacity.total_cores());
  // LF's Eq 1-2 backup must cover any single DC's serving capacity.
  double total_backup = 0.0;
  for (double b : lf_with.capacity.dc_backup_cores) total_backup += b;
  for (std::size_t x = 0; x < n; ++x) {
    EXPECT_GE(total_backup - lf_with.capacity.dc_backup_cores[x] + 1e-6,
              lf_with.capacity.dc_serving_cores[x]);
  }
}

TEST_F(BaselineFixture, BackupRaisesWanForLf) {
  // Table 3: LF's WAN jumps sharply once failure scenarios are considered
  // (0.18 -> 0.55 of RR in the paper).
  const BaselineOptions with{.with_backup = true};
  const BaselineOptions without{.with_backup = false};
  const BaselineResult lf_with =
      provision_locality_first(*demand_, *ctx_, with);
  const BaselineResult lf_without =
      provision_locality_first(*demand_, *ctx_, without);
  EXPECT_GT(lf_with.capacity.total_wan_gbps(),
            1.5 * lf_without.capacity.total_wan_gbps());
}

TEST_F(BaselineFixture, ServingCapacityCoversEveryScenarioPlacement) {
  // RR's per-DC serving+backup must fit any single-DC failure re-spread.
  const BaselineOptions options{.with_backup = true,
                                .include_link_failures = false};
  const BaselineResult rr = provision_round_robin(*demand_, *ctx_, options);
  const std::size_t n = scenario_->world().dc_count();
  const UsageProfile base = compute_usage(rr.placement, *demand_, *ctx_);
  const auto base_peaks = base.dc_peaks();
  for (std::size_t x = 0; x < n; ++x) {
    // After a failure, survivors carry n/(n-1) of their equal share.
    const double shifted =
        base_peaks[x] * static_cast<double>(n) / static_cast<double>(n - 1);
    EXPECT_LE(shifted, rr.capacity.dc_total_cores(
                           DcId(static_cast<std::uint32_t>(x))) +
                           1e-6);
  }
}

}  // namespace
}  // namespace sb
