// Integration tests for runtime failover (DESIGN.md "Failure model &
// runtime failover"): selector drains (slot re-debit, backup hosting, the
// drop-only-when-exhausted policy), controller fail/recover cycles with
// exact quota conservation, the §5.3 provisioning property that survivors
// can always absorb a failed DC's planned load, and fault-schedule replay
// through both simulator drivers (label: fault).
#include <gtest/gtest.h>

#include <algorithm>

#include "calls/demand.h"
#include "core/controller.h"
#include "core/provisioner.h"
#include "core/realtime.h"
#include "fault/fault_schedule.h"
#include "sim/simulator.h"
#include "trace/scenario.h"
#include "two_dc_world.h"

namespace sb {
namespace {

using test::TwoDcWorld;

class FailoverTest : public ::testing::Test {
 protected:
  FailoverTest() : plan_(1, 1, 2, 1800.0) {
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

TEST_F(FailoverTest, DrainMovesSlotHoldersToSurvivingQuota) {
  plan_.set_quota(0, 0, DcId(0), 4);
  plan_.set_quota(0, 0, DcId(1), 4);
  fault::HealthTable health(2, 1);
  RealtimeSelector selector(world_.ctx(), &plan_, {}, 0.0, &health);
  for (std::uint32_t c = 1; c <= 3; ++c) {
    selector.on_call_start(CallId(c), LocationId(0), 0.0);
    selector.on_config_frozen(CallId(c), config_, 300.0);
  }
  EXPECT_EQ(selector.held_slots(), 3u);

  health.set_dc(DcId(0), false);
  const fault::FailoverOutcome outcome = selector.drain_dc(DcId(0), 400.0, {});
  EXPECT_EQ(outcome.moved.size(), 3u);
  EXPECT_TRUE(outcome.dropped.empty());
  for (const fault::FailoverMove& m : outcome.moved) {
    EXPECT_EQ(m.from, DcId(0));
    EXPECT_EQ(m.to, DcId(1));
  }
  // Slots were credited at DC 0's cell and re-debited at DC 1's: still
  // exactly three held, and the load followed the calls.
  EXPECT_EQ(selector.held_slots(), 3u);
  EXPECT_DOUBLE_EQ(selector.dc_cores_used(DcId(0)), 0.0);
  EXPECT_DOUBLE_EQ(selector.dc_cores_used(DcId(1)), 3 * 2 * 1.0);
  EXPECT_EQ(selector.stats().failover_moves, 3u);

  for (std::uint32_t c = 1; c <= 3; ++c) {
    selector.on_call_end(CallId(c), 500.0);
  }
  EXPECT_EQ(selector.held_slots(), 0u);
  const RealtimeSelector::Stats stats = selector.stats();
  EXPECT_EQ(stats.slot_debits + stats.failover_moves,
            stats.slot_credits + stats.failover_moves);
  EXPECT_EQ(stats.slot_debits, stats.slot_credits);
}

TEST_F(FailoverTest, DrainFallsBackToBackupWhenQuotaExhausted) {
  // DC 1 has quota for one call only; the other two slot-holders keep their
  // DC-0 accounting cells and are hosted on DC 1's backup budget.
  plan_.set_quota(0, 0, DcId(0), 4);
  plan_.set_quota(0, 0, DcId(1), 1);
  fault::HealthTable health(2, 1);
  RealtimeSelector selector(world_.ctx(), &plan_, {}, 0.0, &health);
  for (std::uint32_t c = 1; c <= 3; ++c) {
    selector.on_call_start(CallId(c), LocationId(0), 0.0);
    selector.on_config_frozen(CallId(c), config_, 300.0);
  }

  health.set_dc(DcId(0), false);
  const std::vector<double> budget = {0.0, 100.0};  // plenty at DC 1
  const fault::FailoverOutcome outcome =
      selector.drain_dc(DcId(0), 400.0, budget);
  EXPECT_EQ(outcome.moved.size(), 3u);
  EXPECT_TRUE(outcome.dropped.empty());
  EXPECT_EQ(selector.held_slots(), 3u);  // 1 at DC 1's cell + 2 kept at DC 0's
  EXPECT_DOUBLE_EQ(selector.dc_cores_used(DcId(1)), 6.0);

  // Ending a backup-hosted call credits the cell it still holds (DC 0's),
  // not its hosting DC — the conservation check would fail otherwise.
  for (std::uint32_t c = 1; c <= 3; ++c) {
    selector.on_call_end(CallId(c), 500.0);
  }
  EXPECT_EQ(selector.held_slots(), 0u);
  EXPECT_EQ(selector.stats().slot_debits, selector.stats().slot_credits);
}

TEST_F(FailoverTest, DropsOnlyWhenBackupTrulyExhausted) {
  plan_.set_quota(0, 0, DcId(0), 8);
  plan_.set_quota(0, 0, DcId(1), 0);
  fault::HealthTable health(2, 1);
  RealtimeSelector selector(world_.ctx(), &plan_, {}, 0.0, &health);
  for (std::uint32_t c = 1; c <= 4; ++c) {
    selector.on_call_start(CallId(c), LocationId(0), 0.0);
    selector.on_config_frozen(CallId(c), config_, 300.0);
  }
  // Budget fits exactly two of the 2-core calls at DC 1 (no quota there).
  health.set_dc(DcId(0), false);
  const std::vector<double> budget = {0.0, 4.0};
  const fault::FailoverOutcome outcome =
      selector.drain_dc(DcId(0), 400.0, budget);
  EXPECT_EQ(outcome.moved.size(), 2u);
  EXPECT_EQ(outcome.dropped.size(), 2u);
  EXPECT_DOUBLE_EQ(selector.dc_cores_used(DcId(1)), 4.0);
  EXPECT_DOUBLE_EQ(selector.dc_cores_used(DcId(0)), 0.0);
  // Dropped calls credited their slots on the way out; the two survivors
  // kept theirs.
  EXPECT_EQ(selector.held_slots(), 2u);
  EXPECT_EQ(selector.active_calls(), 2u);
  const RealtimeSelector::Stats stats = selector.stats();
  EXPECT_EQ(stats.failover_drops, 2u);

  for (const fault::FailoverMove& m : outcome.moved) {
    selector.on_call_end(m.call, 500.0);
  }
  EXPECT_EQ(selector.held_slots(), 0u);
  EXPECT_EQ(selector.stats().slot_debits, selector.stats().slot_credits);
}

TEST_F(FailoverTest, UnfrozenCallsRehomeAndAreNeverCapacityDropped) {
  fault::HealthTable health(2, 1);
  RealtimeSelector selector(world_.ctx(), &plan_, {}, 0.0, &health);
  selector.on_call_start(CallId(1), LocationId(0), 0.0);  // not yet frozen
  health.set_dc(DcId(0), false);
  const std::vector<double> budget = {0.0, 0.0};  // zero budget everywhere
  const fault::FailoverOutcome outcome =
      selector.drain_dc(DcId(0), 100.0, budget);
  ASSERT_EQ(outcome.moved.size(), 1u);
  EXPECT_TRUE(outcome.dropped.empty());
  EXPECT_EQ(outcome.moved[0].to, DcId(1));
  // Its config (and load) is unknown, so no budget check applies.
  selector.on_call_end(CallId(1), 200.0);
  EXPECT_EQ(selector.active_calls(), 0u);
}

TEST_F(FailoverTest, DegradedStartAndFreezeAvoidDownDcs) {
  plan_.set_quota(0, 0, DcId(0), 4);
  plan_.set_quota(0, 0, DcId(1), 4);
  fault::HealthTable health(2, 1);
  RealtimeSelector selector(world_.ctx(), &plan_, {}, 0.0, &health);
  health.set_dc(DcId(0), false);
  // Location 0's closest DC is the down DC-A: the degraded start heuristic
  // must pick DC-B instead, and the freeze must debit there too.
  EXPECT_EQ(selector.on_call_start(CallId(1), LocationId(0), 0.0), DcId(1));
  const FreezeResult r = selector.on_config_frozen(CallId(1), config_, 300.0);
  EXPECT_EQ(r.dc, DcId(1));
  EXPECT_FALSE(r.migrated);
  health.set_dc(DcId(0), true);
  // Healthy again: back to the plain closest-DC heuristic, bit-identical to
  // a selector with no health table.
  EXPECT_EQ(selector.on_call_start(CallId(2), LocationId(0), 400.0), DcId(0));
}

TEST_F(FailoverTest, ControllerFailRecoverCycleConservesQuota) {
  TwoDcWorld& w = world_;
  ControllerOptions options;
  Switchboard controller(w.ctx(), options);

  // No plan yet: the controller still serves and fails over (no budgets, so
  // nothing can drop).
  for (std::uint32_t c = 1; c <= 6; ++c) {
    controller.call_started(CallId(c), LocationId(0), 0.0);
    controller.config_frozen(CallId(c), config_, 300.0);
  }
  EXPECT_TRUE(controller.health().all_up());
  const fault::FailoverOutcome outcome =
      controller.dc_failed(DcId(0), 400.0);
  EXPECT_FALSE(controller.health().dc_up(DcId(0)));
  EXPECT_EQ(outcome.moved.size(), 6u);
  EXPECT_TRUE(outcome.dropped.empty());

  // While degraded, new calls land on the survivor.
  EXPECT_EQ(controller.call_started(CallId(7), LocationId(0), 450.0),
            DcId(1));
  controller.dc_recovered(DcId(0), 500.0);
  EXPECT_TRUE(controller.health().all_up());
  EXPECT_EQ(controller.call_started(CallId(8), LocationId(0), 550.0),
            DcId(0));

  for (std::uint32_t c = 1; c <= 8; ++c) {
    controller.call_ended(CallId(c), 600.0);
  }
  const RealtimeSelector::Stats stats = controller.realtime_stats();
  EXPECT_EQ(stats.failover_moves, 6u);
  EXPECT_EQ(stats.failover_drops, 0u);
  EXPECT_EQ(stats.slot_debits, stats.slot_credits);
}

TEST(FailoverPropertyTest, SurvivorsCoverEverySingleDcFailureAtPeak) {
  // The §5.3 guarantee the runtime failover leans on: for every single-DC
  // failure scenario, the surviving DCs' provisioned serving+backup must
  // cover the ENTIRE planned demand peak — the failed DC's share included.
  Scenario scenario = make_apac_scenario({.config_count = 60});
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};

  const DemandMatrix demand = design_day_demand(scenario, 7200.0, 15);

  ProvisionOptions options;
  options.include_link_failures = false;
  SwitchboardProvisioner provisioner(ctx, options);
  const ProvisionResult result = provisioner.provision(demand);
  const UsageProfile usage =
      compute_usage(result.base_placement, demand, ctx);

  const std::vector<FailureScenario> scenarios = enumerate_failures(
      scenario.world(), scenario.topology(), /*include_link_failures=*/false);
  std::size_t dc_scenarios = 0;
  for (const FailureScenario& s : scenarios) {
    if (s.type != FailureScenario::Type::kDc) continue;
    ++dc_scenarios;
    double survivor_capacity = 0.0;
    for (DcId y : scenario.world().dc_ids()) {
      if (y == s.dc) continue;
      survivor_capacity += result.capacity.dc_total_cores(y);
    }
    // Total demand peak with the failed DC's planned load folded in: all of
    // it must fit on the survivors.
    double total_peak = 0.0;
    const std::size_t slots = usage.dc_cores.empty()
                                  ? 0
                                  : usage.dc_cores.front().size();
    for (std::size_t t = 0; t < slots; ++t) {
      double at_t = 0.0;
      for (std::size_t x = 0; x < usage.dc_cores.size(); ++x) {
        at_t += usage.dc_cores[x][t];
      }
      total_peak = std::max(total_peak, at_t);
    }
    EXPECT_GE(survivor_capacity + 1e-5, total_peak) << s.name;
    // The scenario is non-trivial: a DC the plan actually provisions carried
    // real planned load. (A DC the optimizer left empty — zero cores — is
    // trivially coverable; engines differ only in whether its usage row
    // holds an exact zero or 1e-15 numerical dust, so don't assert on it.)
    if (result.capacity.dc_total_cores(s.dc) > 1e-6) {
      const auto& failed_series = usage.dc_cores[s.dc.value()];
      EXPECT_GT(*std::max_element(failed_series.begin(), failed_series.end()),
                1e-9)
          << s.name;
    }
  }
  EXPECT_EQ(dc_scenarios, scenario.world().dc_count());
}

TEST(FaultSimulationTest, ScheduledOutageDrainsAndRecoversDeterministically) {
  // Replay a window with a mid-window DC outage through the sequential
  // driver twice: identical reports (fault injection is deterministic), a
  // non-zero drain, zero drops (empty budget), and nobody left on the dead
  // DC while it is down.
  Scenario scenario = make_apac_scenario({.config_count = 80});
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const double start = kSecondsPerDay + 10.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(start, start + kSecondsPerHour);
  ASSERT_GT(db.size(), 0u);

  fault::FaultSchedule faults;
  const DcId victim(0);
  faults.fail_dc(victim, start + 0.4 * kSecondsPerHour,
                 0.3 * kSecondsPerHour);

  Simulator sim(ctx);
  SimReport reports[2];
  for (int i = 0; i < 2; ++i) {
    Switchboard controller(ctx, {});
    ControllerAllocator alloc(controller);
    reports[i] = sim.run(db, alloc, 300.0, &faults);
    // Outage recovered inside the window.
    EXPECT_TRUE(controller.health().all_up());
  }
  EXPECT_GT(reports[0].failover_migrations, 0u);
  EXPECT_EQ(reports[0].dropped_calls, 0u);
  EXPECT_EQ(reports[0].failover_migrations, reports[1].failover_migrations);
  EXPECT_EQ(reports[0].mean_acl_ms, reports[1].mean_acl_ms);
  EXPECT_EQ(reports[0].dc_cores_buckets, reports[1].dc_cores_buckets);

  // While the DC is down, its bucketed usage must be exactly zero (the
  // drain cleared it and the degraded heuristic admits nobody new).
  const double down_from = 0.4 * kSecondsPerHour + start;
  const double up_at = down_from + 0.3 * kSecondsPerHour;
  const auto& buckets = reports[0].dc_cores_buckets[victim.value()];
  for (std::size_t b = 0; b < buckets.size(); ++b) {
    const double bucket_end = (b + 1) * reports[0].bucket_s;
    if (bucket_end > down_from && bucket_end < up_at) {
      // Accumulated add/sub of doubles leaves ~1e-17 residue, not exact 0.
      EXPECT_NEAR(buckets[b], 0.0, 1e-9) << "bucket " << b;
    }
  }
}

TEST(FaultSimulationTest, ConcurrentDriverMatchesSequentialUnderFaults) {
  // The fault barrier must make the concurrent drain equivalent to the
  // sequential one: with the slotless (no-plan) selector every decision is
  // order-independent, so moved/dropped counts and the time-aligned bucket
  // series must match exactly across drivers and thread counts.
  Scenario scenario = make_apac_scenario({.config_count = 80});
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const double start = kSecondsPerDay + 10.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(start, start + kSecondsPerHour);

  fault::FaultSchedule faults;
  faults.fail_dc(DcId(0), start + 0.3 * kSecondsPerHour,
                 0.2 * kSecondsPerHour);
  faults.fail_dc(DcId(1), start + 0.6 * kSecondsPerHour,
                 0.2 * kSecondsPerHour);

  Simulator sim(ctx);
  Switchboard seq_controller(ctx, {});
  ControllerAllocator seq_alloc(seq_controller);
  const SimReport seq = sim.run(db, seq_alloc, 300.0, &faults);

  for (std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    Switchboard controller(ctx, {});
    ControllerAllocator alloc(controller);
    const SimReport conc =
        sim.run_concurrent(db, alloc, 300.0, threads, &faults);
    EXPECT_EQ(conc.calls, seq.calls) << threads;
    EXPECT_EQ(conc.failover_migrations, seq.failover_migrations) << threads;
    EXPECT_EQ(conc.dropped_calls, seq.dropped_calls) << threads;
    ASSERT_EQ(conc.dc_cores_buckets.size(), seq.dc_cores_buckets.size());
    for (std::size_t x = 0; x < seq.dc_cores_buckets.size(); ++x) {
      const auto& s = seq.dc_cores_buckets[x];
      const auto& c = conc.dc_cores_buckets[x];
      for (std::size_t b = 0; b < std::max(s.size(), c.size()); ++b) {
        EXPECT_NEAR(b < c.size() ? c[b] : 0.0, b < s.size() ? s[b] : 0.0,
                    1e-6)
            << "dc " << x << " bucket " << b << " threads " << threads;
      }
    }
  }
}

}  // namespace
}  // namespace sb
