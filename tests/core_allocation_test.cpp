// Tests for the allocation-plan LP (Eq 10), quota rounding, and the
// realtime MP selector's assign/debit/migrate behaviour (§5.4).
#include <gtest/gtest.h>

#include "core/allocation_plan.h"
#include "core/provisioner.h"
#include "core/realtime.h"
#include "two_dc_world.h"

namespace sb {
namespace {

using test::TwoDcWorld;

TEST(AllocationPlanTest, SlotMappingClampsAtHorizon) {
  AllocationPlan plan(4, 1, 1, 1800.0);
  EXPECT_EQ(plan.slot_at(-5.0), 0u);
  EXPECT_EQ(plan.slot_at(0.0), 0u);
  EXPECT_EQ(plan.slot_at(1799.0), 0u);
  EXPECT_EQ(plan.slot_at(1800.0), 1u);
  EXPECT_EQ(plan.slot_at(1e9), 3u);
}

TEST(AllocationPlannerTest, PrefersLocalDcWithAmpleCapacity) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio));
  const ConfigId cb = w.registry.intern(
      CallConfig::make({{LocationId(1), 2}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca, cb}, 2);
  demand.set_demand(0, 0, 10.0);
  demand.set_demand(0, 1, 4.0);
  demand.set_demand(1, 0, 6.0);
  demand.set_demand(1, 1, 8.0);

  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {100.0, 100.0};
  capacity.link_gbps = {10.0};

  AllocationPlanner planner(w.ctx(), {});
  const AllocationPlan plan = planner.plan(demand, capacity, 1800.0);
  // With slack everywhere, Eq 10 places each config at its local DC.
  EXPECT_EQ(plan.quota(0, 0, DcId(0)), 10u);
  EXPECT_EQ(plan.quota(0, 0, DcId(1)), 0u);
  EXPECT_EQ(plan.quota(0, 1, DcId(1)), 4u);
  EXPECT_EQ(plan.quota(1, 1, DcId(1)), 8u);
  EXPECT_GT(plan.mean_acl_ms, 0.0);
}

TEST(AllocationPlannerTest, SpillsWhenLocalCapacityBinds) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca}, 1);
  demand.set_demand(0, 0, 10.0);  // 10 cores needed, DC-A has 6

  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {6.0, 100.0};
  capacity.link_gbps = {10.0};

  AllocationPlanner planner(w.ctx(), {});
  const AllocationPlan plan = planner.plan(demand, capacity, 1800.0);
  EXPECT_NEAR(plan.fractional.calls(0, 0, DcId(0)), 6.0, 1e-6);
  EXPECT_NEAR(plan.fractional.calls(0, 0, DcId(1)), 4.0, 1e-6);
  EXPECT_EQ(plan.quota(0, 0, DcId(0)) + plan.quota(0, 0, DcId(1)), 10u);
}

TEST(AllocationPlannerTest, InfeasibleCapacityThrows) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca}, 1);
  demand.set_demand(0, 0, 10.0);
  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {1.0, 1.0};
  AllocationPlanner planner(w.ctx(), {});
  EXPECT_THROW(planner.plan(demand, capacity, 1800.0), SolveError);
}

TEST(AllocationPlanTest, QuotaRoundingConservesTotals) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca}, 1);
  demand.set_demand(0, 0, 7.3);  // fractional demand
  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {4.0, 100.0};
  capacity.link_gbps = {10.0};
  AllocationPlanner planner(w.ctx(), {});
  const AllocationPlan plan = planner.plan(demand, capacity, 1800.0);
  // ceil(7.3) = 8 integral slots, split across the DCs.
  EXPECT_EQ(plan.quota(0, 0, DcId(0)) + plan.quota(0, 0, DcId(1)), 8u);
}

class RealtimeSelectorTest : public ::testing::Test {
 protected:
  RealtimeSelectorTest() : plan_(1, 1, 2, 1800.0) {
    config_ = CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio);
    config_id_ = world_.registry.intern(config_);
    plan_.config_columns = {config_id_};
    plan_.set_quota(0, 0, DcId(0), 1);  // one slot at the local DC
    plan_.set_quota(0, 0, DcId(1), 1);  // one overflow slot remote
  }

  TwoDcWorld world_;
  AllocationPlan plan_;
  CallConfig config_ = CallConfig::make({{LocationId(0), 1}},
                                        MediaType::kAudio);
  ConfigId config_id_;
};

TEST_F(RealtimeSelectorTest, AssignsClosestDcToFirstJoiner) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  EXPECT_EQ(selector.on_call_start(CallId(1), LocationId(0), 0.0), DcId(0));
  EXPECT_EQ(selector.on_call_start(CallId(2), LocationId(1), 0.0), DcId(1));
  EXPECT_EQ(selector.stats().calls_started, 2u);
  EXPECT_THROW(selector.on_call_start(CallId(1), LocationId(0), 1.0),
               InvalidArgument);
}

TEST_F(RealtimeSelectorTest, DebitsSlotWithoutMigrationWhenPlanAgrees) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  const FreezeResult r = selector.on_config_frozen(CallId(1), config_, 300.0);
  EXPECT_FALSE(r.migrated);
  EXPECT_TRUE(r.planned);
  EXPECT_EQ(r.dc, DcId(0));
  EXPECT_EQ(selector.stats().migrations, 0u);
}

TEST_F(RealtimeSelectorTest, MigratesWhenLocalQuotaExhausted) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  selector.on_config_frozen(CallId(1), config_, 300.0);  // takes DC-A slot
  selector.on_call_start(CallId(2), LocationId(0), 10.0);
  const FreezeResult r = selector.on_config_frozen(CallId(2), config_, 310.0);
  EXPECT_TRUE(r.migrated);
  EXPECT_EQ(r.dc, DcId(1));  // the remaining quota
  EXPECT_EQ(selector.stats().migrations, 1u);

  // Third concurrent call: all quotas gone -> overflow, stays put.
  selector.on_call_start(CallId(3), LocationId(0), 20.0);
  const FreezeResult r3 = selector.on_config_frozen(CallId(3), config_, 320.0);
  EXPECT_FALSE(r3.migrated);
  EXPECT_EQ(selector.stats().overflow, 1u);
}

TEST_F(RealtimeSelectorTest, SlotFreedOnCallEnd) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  selector.on_config_frozen(CallId(1), config_, 300.0);
  selector.on_call_end(CallId(1), 400.0);
  // The DC-A slot is free again for the next call.
  selector.on_call_start(CallId(2), LocationId(0), 500.0);
  const FreezeResult r = selector.on_config_frozen(CallId(2), config_, 800.0);
  EXPECT_FALSE(r.migrated);
  EXPECT_EQ(selector.active_calls(), 1u);
}

TEST_F(RealtimeSelectorTest, UnplannedConfigFallsBackToClosestDc) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  // A config the plan has never seen, majority at B.
  const CallConfig unknown =
      CallConfig::make({{LocationId(1), 3}}, MediaType::kVideo);
  const FreezeResult r = selector.on_config_frozen(CallId(1), unknown, 300.0);
  EXPECT_FALSE(r.planned);
  EXPECT_TRUE(r.migrated);
  EXPECT_EQ(r.dc, DcId(1));
  EXPECT_EQ(selector.stats().unplanned, 1u);
}

TEST_F(RealtimeSelectorTest, NoPlanOperationNeverTracksQuotas) {
  RealtimeSelector selector(world_.ctx(), nullptr, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  const FreezeResult r = selector.on_config_frozen(CallId(1), config_, 300.0);
  EXPECT_FALSE(r.planned);
  EXPECT_EQ(r.dc, DcId(0));  // min-ACL for an A-majority config
  selector.on_call_end(CallId(1), 400.0);
}

}  // namespace
}  // namespace sb
