// Unit tests for the sb_fault subsystem: lock-free health table semantics
// (epoch stamping, redundant-set no-ops, the all_up fast path), fault
// schedule construction and determinism, over-capacity accounting, and a
// multi-threaded stress test racing health flips and DC drains against
// live selector traffic (runs under TSan in CI; label: fault).
#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "common/rng.h"
#include "core/realtime.h"
#include "fault/failover.h"
#include "fault/fault_schedule.h"
#include "fault/health_table.h"
#include "two_dc_world.h"

namespace sb {
namespace {

using test::TwoDcWorld;

TEST(HealthTableTest, StartsAllUpWithEpochZero) {
  fault::HealthTable table(3, 2);
  EXPECT_TRUE(table.all_up());
  EXPECT_EQ(table.down_dcs(), 0u);
  EXPECT_EQ(table.down_links(), 0u);
  for (std::uint32_t x = 0; x < 3; ++x) {
    EXPECT_TRUE(table.dc_up(DcId(x)));
    EXPECT_EQ(table.dc_state(DcId(x)).epoch, 0u);
  }
  for (std::uint32_t l = 0; l < 2; ++l) {
    EXPECT_TRUE(table.link_up(LinkId(l)));
  }
}

TEST(HealthTableTest, FlipBumpsEpochAndRedundantSetIsNoOp) {
  fault::HealthTable table(2, 1);
  const fault::HealthState down = table.set_dc(DcId(0), false);
  EXPECT_FALSE(down.up);
  EXPECT_EQ(down.epoch, 1u);
  EXPECT_FALSE(table.all_up());
  EXPECT_FALSE(table.dc_up(DcId(0)));
  EXPECT_TRUE(table.dc_up(DcId(1)));

  // Redundant down: state and epoch unchanged, down counter not double-
  // counted (a second recovery would otherwise underflow it).
  const fault::HealthState again = table.set_dc(DcId(0), false);
  EXPECT_EQ(again.epoch, 1u);
  EXPECT_EQ(table.down_dcs(), 1u);

  const fault::HealthState up = table.set_dc(DcId(0), true);
  EXPECT_TRUE(up.up);
  EXPECT_EQ(up.epoch, 2u);
  EXPECT_TRUE(table.all_up());

  // Epochs distinguish "went down, recovered, went down again" from
  // "still down".
  table.set_dc(DcId(0), false);
  EXPECT_EQ(table.dc_state(DcId(0)).epoch, 3u);
}

TEST(HealthTableTest, LinksAndDcsCountIndependently) {
  fault::HealthTable table(2, 3);
  table.set_link(LinkId(1), false);
  EXPECT_FALSE(table.all_up());
  EXPECT_EQ(table.down_dcs(), 0u);
  EXPECT_EQ(table.down_links(), 1u);
  EXPECT_FALSE(table.link_up(LinkId(1)));
  table.set_dc(DcId(0), false);
  EXPECT_EQ(table.down_dcs(), 1u);
  table.set_link(LinkId(1), true);
  EXPECT_FALSE(table.all_up());  // the DC is still down
  table.set_dc(DcId(0), true);
  EXPECT_TRUE(table.all_up());
}

TEST(FaultScheduleTest, EventsSortByTimeWithStableInsertionOrder) {
  fault::FaultSchedule schedule;
  schedule.dc_up(DcId(0), 500.0);
  schedule.link_down(LinkId(2), 100.0);
  schedule.dc_down(DcId(0), 100.0);  // same instant as the link event
  const auto events = schedule.events();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].kind, fault::FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(events[1].kind, fault::FaultEvent::Kind::kDcDown);
  EXPECT_EQ(events[2].kind, fault::FaultEvent::Kind::kDcUp);
  EXPECT_TRUE(events[0].is_down());
  EXPECT_FALSE(events[0].is_dc());
  EXPECT_TRUE(events[1].is_dc());
}

TEST(FaultScheduleTest, FailPairProducesDownThenUp) {
  fault::FaultSchedule schedule;
  schedule.fail_dc(DcId(1), 1000.0, 600.0).fail_link(LinkId(0), 1200.0, 60.0);
  const auto events = schedule.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].kind, fault::FaultEvent::Kind::kDcDown);
  EXPECT_DOUBLE_EQ(events[0].time, 1000.0);
  EXPECT_EQ(events[1].kind, fault::FaultEvent::Kind::kLinkDown);
  EXPECT_EQ(events[2].kind, fault::FaultEvent::Kind::kLinkUp);
  EXPECT_DOUBLE_EQ(events[2].time, 1260.0);
  EXPECT_EQ(events[3].kind, fault::FaultEvent::Kind::kDcUp);
  EXPECT_DOUBLE_EQ(events[3].time, 1600.0);
}

// The §5.3 experiment shape (sec53_failover): one down/up outage per DC,
// each at the moment its own planned core usage peaks.
TEST(FaultScheduleTest, EachDcAtPeakFailsEveryDcAtItsOwnPeakSlot) {
  // DC 0 peaks in slot 2, DC 1 in slot 0 (ties resolve earliest).
  const std::vector<std::vector<double>> dc_cores = {{1.0, 3.0, 9.0, 2.0},
                                                     {5.0, 5.0, 1.0, 0.0}};
  EXPECT_EQ(fault::FaultSchedule::peak_slot(dc_cores[0]), 2u);
  EXPECT_EQ(fault::FaultSchedule::peak_slot(dc_cores[1]), 0u);
  fault::FaultSchedule schedule;
  for (std::uint32_t x = 0; x < dc_cores.size(); ++x) {
    const double peak =
        static_cast<double>(fault::FaultSchedule::peak_slot(dc_cores[x]));
    schedule.fail_dc(DcId(x), 86400.0 + peak * 1800.0, 900.0);
  }
  const auto events = schedule.events();
  ASSERT_EQ(events.size(), 4u);  // one down/up pair per DC
  // DC 1's outage (slot 0) comes first.
  EXPECT_EQ(events[0].dc, DcId(1));
  EXPECT_DOUBLE_EQ(events[0].time, 86400.0);
  EXPECT_EQ(events[1].dc, DcId(1));
  EXPECT_DOUBLE_EQ(events[1].time, 86400.0 + 900.0);
  EXPECT_EQ(events[2].dc, DcId(0));
  EXPECT_DOUBLE_EQ(events[2].time, 86400.0 + 2 * 1800.0);
  EXPECT_TRUE(events[2].is_down());
}

TEST(FaultScheduleTest, RandomScheduleIsDeterministicAndBounded) {
  Rng rng_a(42);
  Rng rng_b(42);
  const fault::FaultSchedule a =
      fault::FaultSchedule::random(rng_a, 4, 3, 20, 0.0, 3600.0, 300.0);
  const fault::FaultSchedule b =
      fault::FaultSchedule::random(rng_b, 4, 3, 20, 0.0, 3600.0, 300.0);
  const auto ea = a.events();
  const auto eb = b.events();
  ASSERT_EQ(ea.size(), eb.size());
  ASSERT_EQ(ea.size(), 40u);  // 20 down/up pairs
  for (std::size_t i = 0; i < ea.size(); ++i) {
    EXPECT_EQ(ea[i].kind, eb[i].kind) << i;
    EXPECT_DOUBLE_EQ(ea[i].time, eb[i].time) << i;
    if (ea[i].is_dc()) {
      EXPECT_EQ(ea[i].dc, eb[i].dc);
      EXPECT_LT(ea[i].dc.value(), 4u);
    } else {
      EXPECT_EQ(ea[i].link, eb[i].link);
      EXPECT_LT(ea[i].link.value(), 3u);
    }
  }
  for (std::size_t i = 1; i < ea.size(); ++i) {
    EXPECT_GE(ea[i].time, ea[i - 1].time);
  }
  for (const fault::FaultEvent& ev : ea) {
    if (ev.is_down()) {
      EXPECT_GE(ev.time, 0.0);
    }
  }
}

TEST(OverCapacityTest, IntegratesOnlyTheExcess) {
  // DC 0: 2 cores over for 2 buckets; DC 1 never exceeds.
  const std::vector<std::vector<double>> buckets = {{8.0, 12.0, 12.0, 10.0},
                                                    {1.0, 2.0, 1.0, 0.0}};
  const std::vector<double> capacity = {10.0, 5.0};
  EXPECT_DOUBLE_EQ(fault::over_capacity_core_s(buckets, capacity, 60.0),
                   (2.0 + 2.0) * 60.0);
  EXPECT_DOUBLE_EQ(
      fault::over_capacity_core_s(buckets, {100.0, 100.0}, 60.0), 0.0);
}

TEST(HealthStressTest, FlipsAndDrainsRaceSelectorEvents) {
  // 8 threads total: six drive call traffic through a health-aware selector
  // while two flip DC health up/down and drain the just-failed DC. The
  // invariants: no data race (TSan), the atomic quota table stays exactly
  // conserved (debits == credits once everything ends), and every call
  // remains accounted for (moved or ended, never lost).
  TwoDcWorld world;
  CallConfig config = CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio);
  const ConfigId config_id = world.registry.intern(config);
  AllocationPlan plan(1, 1, 2, 1800.0);
  plan.config_columns = {config_id};
  plan.set_quota(0, 0, DcId(0), 64);
  plan.set_quota(0, 0, DcId(1), 64);

  fault::HealthTable health(2, 1);
  RealtimeSelector selector(world.ctx(), &plan, {.shard_count = 8}, 0.0,
                            &health);

  constexpr std::size_t kEventThreads = 6;
  constexpr std::uint32_t kCallsPerThread = 400;
  std::vector<std::thread> threads;
  threads.reserve(kEventThreads + 2);
  for (std::size_t t = 0; t < kEventThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kCallsPerThread; ++i) {
        const CallId id(static_cast<std::uint32_t>(t) * kCallsPerThread + i +
                        1);
        selector.on_call_start(id, LocationId(i % 2), 0.0);
        if (i % 3 != 0) selector.on_config_frozen(id, config, 300.0);
        selector.on_call_end(id, 600.0);
      }
    });
  }
  // One flipper fails and drains DC 0; the other flaps the WAN link. DC 1
  // always survives, so the empty-budget drain can always re-home (a drop
  // would orphan the event threads' later on_call_end).
  threads.emplace_back([&] {
    for (int round = 0; round < 50; ++round) {
      health.set_dc(DcId(0), false);
      selector.drain_dc(DcId(0), 300.0, {});
      health.set_dc(DcId(0), true);
    }
  });
  threads.emplace_back([&] {
    for (int round = 0; round < 50; ++round) {
      health.set_link(LinkId(0), false);
      health.set_link(LinkId(0), true);
    }
  });
  for (std::thread& t : threads) t.join();

  EXPECT_TRUE(health.all_up());
  EXPECT_EQ(health.dc_state(DcId(0)).epoch, 100u);  // 50 down/up rounds
  const RealtimeSelector::Stats stats = selector.stats();
  EXPECT_EQ(stats.calls_started, kEventThreads * kCallsPerThread);
  EXPECT_EQ(stats.failover_drops, 0u);  // empty budget never drops
  EXPECT_EQ(stats.slot_debits, stats.slot_credits);
  EXPECT_EQ(selector.held_slots(), 0u);
  EXPECT_EQ(selector.active_calls(), 0u);
  EXPECT_DOUBLE_EQ(selector.dc_cores_used(DcId(0)), 0.0);
  EXPECT_DOUBLE_EQ(selector.dc_cores_used(DcId(1)), 0.0);
}

}  // namespace
}  // namespace sb
