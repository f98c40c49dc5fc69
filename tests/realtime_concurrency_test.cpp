// Concurrency tests for the lock-striped realtime selector (DESIGN.md
// "Threading model"): edge paths of the slot accounting (overflow, unplanned
// configs, end-before-freeze) and a multi-threaded stress test asserting the
// atomic quota table stays exactly conserved (debits == credits + active
// held slots) under contention, plus the controller's event batches (a
// batch covers one controller only; swap-lock methods fail fast inside
// one). Runs under TSan in CI (label: realtime).
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "calls/demand.h"
#include "common/error.h"
#include "core/controller.h"
#include "core/realtime.h"
#include "obs/metrics.h"
#include "two_dc_world.h"

namespace sb {
namespace {

using test::TwoDcWorld;

class RealtimeConcurrencyTest : public ::testing::Test {
 protected:
  RealtimeConcurrencyTest() : plan_(1, 1, 2, 1800.0) {
    config_ = CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio);
    config_id_ = world_.registry.intern(config_);
    plan_.config_columns = {config_id_};
  }

  TwoDcWorld world_;
  AllocationPlan plan_;
  CallConfig config_ = CallConfig::make({{LocationId(0), 1}},
                                        MediaType::kAudio);
  ConfigId config_id_;
};

TEST_F(RealtimeConcurrencyTest, EndBeforeFreezeReleasesNothing) {
  plan_.set_quota(0, 0, DcId(0), 4);
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  selector.on_call_end(CallId(1), 100.0);  // never froze, holds no slot
  const RealtimeSelector::Stats stats = selector.stats();
  EXPECT_EQ(stats.slot_debits, 0u);
  EXPECT_EQ(stats.slot_credits, 0u);
  EXPECT_EQ(selector.held_slots(), 0u);
  EXPECT_EQ(selector.active_calls(), 0u);
}

TEST_F(RealtimeConcurrencyTest, OverflowKeepsCallPutAndQuotaSaturated) {
  plan_.set_quota(0, 0, DcId(0), 1);
  plan_.set_quota(0, 0, DcId(1), 1);
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  for (std::uint32_t c = 1; c <= 3; ++c) {
    selector.on_call_start(CallId(c), LocationId(0), 0.0);
  }
  EXPECT_FALSE(selector.on_config_frozen(CallId(1), config_, 300.0).migrated);
  EXPECT_TRUE(selector.on_config_frozen(CallId(2), config_, 301.0).migrated);
  // Both quotas taken: the third call overflows and stays at its initial DC.
  const FreezeResult r3 = selector.on_config_frozen(CallId(3), config_, 302.0);
  EXPECT_FALSE(r3.migrated);
  EXPECT_EQ(r3.dc, DcId(0));
  const RealtimeSelector::Stats stats = selector.stats();
  EXPECT_EQ(stats.overflow, 1u);
  EXPECT_EQ(stats.slot_debits, 2u);
  EXPECT_EQ(selector.held_slots(), 2u);  // never exceeds total quota
}

TEST_F(RealtimeConcurrencyTest, UnplannedConfigTakesNoSlot) {
  plan_.set_quota(0, 0, DcId(0), 4);
  RealtimeSelector selector(world_.ctx(), &plan_, {.shard_count = 4});
  selector.on_call_start(CallId(7), LocationId(0), 0.0);
  const CallConfig unknown =
      CallConfig::make({{LocationId(1), 3}}, MediaType::kVideo);
  const FreezeResult r = selector.on_config_frozen(CallId(7), unknown, 300.0);
  EXPECT_FALSE(r.planned);
  EXPECT_EQ(r.dc, DcId(1));  // min-ACL fallback
  EXPECT_EQ(selector.stats().unplanned, 1u);
  EXPECT_EQ(selector.held_slots(), 0u);
  selector.on_call_end(CallId(7), 400.0);
  EXPECT_EQ(selector.stats().slot_credits, 0u);
}

TEST_F(RealtimeConcurrencyTest, StressConservesQuotaAccounting) {
  // 8 threads hammer one scarce config: every freeze either debits a slot
  // (possibly migrating) or overflows; a third of calls end before freezing.
  // The atomic quota table must stay exact: no lost debits, no double
  // credits, never above quota.
  constexpr std::size_t kThreads = 8;
  constexpr std::uint32_t kCallsPerThread = 500;
  constexpr std::uint32_t kQuotaPerDc = 40;
  plan_.set_quota(0, 0, DcId(0), kQuotaPerDc);
  plan_.set_quota(0, 0, DcId(1), kQuotaPerDc);
  RealtimeSelector selector(world_.ctx(), &plan_, {});

  std::vector<std::thread> workers;
  std::vector<std::vector<CallId>> leftover(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kCallsPerThread; ++i) {
        const CallId call(static_cast<std::uint32_t>(t) * kCallsPerThread + i);
        const LocationId joiner(i % 2);
        selector.on_call_start(call, joiner, 0.0);
        if (i % 3 == 0) {
          selector.on_call_end(call, 100.0);  // gone before the freeze
          continue;
        }
        selector.on_config_frozen(call, config_, 300.0);
        if (i % 3 == 1) {
          selector.on_call_end(call, 400.0);
        } else {
          leftover[t].push_back(call);  // stays active past the stress loop
        }
      }
    });
  }
  for (auto& w : workers) w.join();

  const RealtimeSelector::Stats mid = selector.stats();
  EXPECT_EQ(mid.calls_started, kThreads * kCallsPerThread);
  EXPECT_EQ(mid.unplanned, 0u);
  // Every frozen call either took a slot or overflowed.
  EXPECT_EQ(mid.calls_frozen, mid.slot_debits + mid.overflow);
  // Conservation: debits == credits + slots still held, and the table never
  // exceeds the plan's total quota.
  EXPECT_EQ(mid.slot_debits, mid.slot_credits + selector.held_slots());
  EXPECT_LE(selector.held_slots(), 2u * kQuotaPerDc);
  EXPECT_GT(mid.overflow, 0u);  // quota is scarce by construction

  for (const auto& calls : leftover) {
    for (CallId call : calls) selector.on_call_end(call, 1000.0);
  }
  const RealtimeSelector::Stats done = selector.stats();
  EXPECT_EQ(selector.active_calls(), 0u);
  EXPECT_EQ(selector.held_slots(), 0u);
  EXPECT_EQ(done.slot_debits, done.slot_credits);
}

TEST_F(RealtimeConcurrencyTest, ControllerEventsRunConcurrently) {
  // Events through the Switchboard facade (no plan, no store) from several
  // threads: the facade has no global event lock, so this exercises the
  // shared swap guard + striped selector under TSan.
  ControllerOptions options;
  Switchboard controller(world_.ctx(), options);
  constexpr std::size_t kThreads = 4;
  constexpr std::uint32_t kCallsPerThread = 400;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kCallsPerThread; ++i) {
        const CallId call(static_cast<std::uint32_t>(t) * kCallsPerThread + i);
        controller.call_started(call, LocationId(i % 2), 0.0);
        controller.config_frozen(call, config_, 300.0);
        controller.call_ended(call, 400.0);
      }
    });
  }
  for (auto& w : workers) w.join();
  const RealtimeSelector::Stats stats = controller.realtime_stats();
  EXPECT_EQ(stats.calls_started, kThreads * kCallsPerThread);
  EXPECT_EQ(stats.calls_frozen, kThreads * kCallsPerThread);
  EXPECT_EQ(stats.unplanned, kThreads * kCallsPerThread);  // no plan attached
}

TEST_F(RealtimeConcurrencyTest, PlanRebuildDuringEventsIsRaceFree) {
  // Regression test: build_allocation_plan once reassigned plan_ before
  // taking swap_mutex_ exclusively, mutating the AllocationPlan storage that
  // in-flight events were still reading through the old selector (a data
  // race / use-after-free TSan catches). Here one thread rebuilds the plan
  // continuously while event threads hammer the facade. A rebuild resets the
  // selector, so a call started under the previous plan may throw "unknown
  // call" on its later events — that is documented behaviour and tolerated;
  // the assertion is that TSan stays silent and the facade stays usable.
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.provision.with_backup = false;
  DemandMatrix demand = make_demand_matrix({config_id_}, 1);
  demand.set_demand(0, 0, 8.0);
  Switchboard controller(world_.ctx(), options);
  controller.provision(demand);
  controller.build_allocation_plan(demand, 0.0);

  std::atomic<bool> stop{false};
  std::atomic<std::uint32_t> next_call{0};
  constexpr std::size_t kThreads = 4;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        const CallId call(next_call.fetch_add(1, std::memory_order_relaxed));
        try {
          controller.call_started(call, LocationId(call.value() % 2), 0.0);
          controller.config_frozen(call, config_, 300.0);
          controller.call_ended(call, 400.0);
        } catch (const Error&) {
          // A plan swap landed mid-cycle; this call's remaining events are
          // orphaned by the selector reset.
        }
      }
    });
  }
  for (int i = 0; i < 25; ++i) {
    controller.provision(demand);
    controller.build_allocation_plan(demand, 0.0);
  }
  stop.store(true, std::memory_order_relaxed);
  for (auto& w : workers) w.join();

  // The facade is fully functional after the churn.
  const CallId last(next_call.fetch_add(1, std::memory_order_relaxed));
  controller.call_started(last, LocationId(0), 0.0);
  EXPECT_TRUE(controller.config_frozen(last, config_, 300.0).planned);
  controller.call_ended(last, 400.0);
  // Only events since the last rebuild are counted on the fresh selector.
  EXPECT_GE(controller.realtime_stats().calls_started, 1u);
}

TEST_F(RealtimeConcurrencyTest, BatchOnOneControllerLeavesAnotherLocked) {
  // The batch flag names its controller: while this thread batches on A,
  // its events on B still take B's swap lock (and record their latency),
  // so the plan installs another thread keeps landing on B cannot race
  // them. TSan flags the race if B's events skip the lock.
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.provision.with_backup = false;
  DemandMatrix demand = make_demand_matrix({config_id_}, 1);
  demand.set_demand(0, 0, 8.0);
  Switchboard a(world_.ctx(), options);
  Switchboard b(world_.ctx(), options);
  b.provision(demand);
  b.build_allocation_plan(demand, 0.0);

  std::jthread installer([&](const std::stop_token& stop) {
    while (!stop.stop_requested()) b.install_plan(demand, 0.0, 0.0);
  });
  obs::Histogram& start_latency =
      obs::MetricsRegistry::global().histogram("sb.realtime.start_latency_s");
  const std::uint64_t timed_before = start_latency.collect().count;
  constexpr std::uint32_t kCalls = 200;
  a.lock_events_shared();
  EXPECT_TRUE(a.in_event_batch());
  EXPECT_FALSE(b.in_event_batch());
  for (std::uint32_t i = 0; i < kCalls; ++i) {
    const CallId call(i);
    a.call_started(call, LocationId(i % 2), 0.0);
    b.call_started(call, LocationId(i % 2), 0.0);
    b.config_frozen(call, config_, 300.0);
    b.call_ended(call, 400.0);
    a.call_ended(call, 400.0);
  }
  a.unlock_events_shared();
  installer.request_stop();
  installer.join();

  EXPECT_FALSE(a.in_event_batch());
  EXPECT_EQ(b.active_calls(), 0u);
  EXPECT_EQ(b.held_slots(), 0u);
  EXPECT_EQ(b.realtime_stats().calls_frozen, kCalls);
#ifdef SB_METRICS_ENABLED
  // B's starts are timed one by one; A's batched starts are not.
  EXPECT_EQ(start_latency.collect().count - timed_before, kCalls);
#else
  (void)timed_before;
#endif
}

TEST_F(RealtimeConcurrencyTest, SwapLockMethodsThrowInsideOwnBatch) {
  // The swap lock is not recursive: a thread that holds an event batch and
  // then takes the swap lock again on the same controller could deadlock.
  // Every such method fails fast instead, and works again once the batch
  // is closed.
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.provision.with_backup = false;
  DemandMatrix demand = make_demand_matrix({config_id_}, 1);
  demand.set_demand(0, 0, 8.0);
  Switchboard controller(world_.ctx(), options);
  controller.provision(demand);
  controller.build_allocation_plan(demand, 0.0);

  controller.lock_events_shared();
  controller.call_started(CallId(1), LocationId(0), 0.0);
  EXPECT_TRUE(controller.config_frozen(CallId(1), config_, 300.0).planned);
  EXPECT_THROW(controller.install_plan(demand, 0.0, 300.0), InvalidArgument);
  EXPECT_THROW(controller.build_allocation_plan(demand, 0.0),
               InvalidArgument);
  EXPECT_THROW(controller.provision(demand), InvalidArgument);
  EXPECT_THROW(controller.dc_failed(DcId(0), 300.0), InvalidArgument);
  EXPECT_THROW(controller.defragment_dc(DcId(0)), InvalidArgument);
  EXPECT_THROW((void)controller.held_slots(), InvalidArgument);
  EXPECT_THROW((void)controller.realtime_stats(), InvalidArgument);
  EXPECT_THROW(controller.lock_events_shared(), InvalidArgument);
  controller.call_ended(CallId(1), 400.0);
  controller.unlock_events_shared();

  EXPECT_NO_THROW(controller.install_plan(demand, 0.0, 400.0));
  EXPECT_TRUE(controller.health().all_up());  // the refused drain never ran
  EXPECT_EQ(controller.held_slots(), 0u);
  EXPECT_EQ(controller.realtime_stats().calls_started, 1u);
}

}  // namespace
}  // namespace sb
