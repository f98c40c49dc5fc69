// Tests for the sb_cluster control plane (DESIGN.md "Distributed control
// plane"): shard partitioning, the workers==1 bit-identity guarantee,
// expedited and TTL-driven re-adoption with WAL replay, sticky restarts,
// degraded direct mode, epoch fencing via admit(), and whole-simulation
// invisibility of worker kills to the media plane (label: cluster).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "calls/call_config.h"
#include "calls/media.h"
#include "cluster/allocator.h"
#include "cluster/controller.h"
#include "cluster/shard_map.h"
#include "cluster/wal.h"
#include "common/error.h"
#include "core/controller.h"
#include "fault/fault_schedule.h"
#include "sim/allocator.h"
#include "sim/simulator.h"
#include "trace/diurnal.h"
#include "trace/scenario.h"
#include "two_dc_world.h"

namespace sb {
namespace {

using cluster::ClusterController;
using cluster::ClusterOptions;
using cluster::ClusterStats;
using cluster::ShardMap;
using cluster::WorkerStatus;
using test::TwoDcWorld;

TEST(ShardMapTest, ContiguousBalancedPartition) {
  const ShardMap map(8, 3, 1);
  EXPECT_EQ(map.shard_count(), 8u);
  EXPECT_EQ(map.worker_count(), 3u);
  // 8 = 3+3+2: the first 8 % 3 = 2 workers get the extra shard.
  EXPECT_EQ(map.initial_range(WorkerId(0)), (std::pair<std::size_t,
                                             std::size_t>{0, 3}));
  EXPECT_EQ(map.initial_range(WorkerId(1)), (std::pair<std::size_t,
                                             std::size_t>{3, 6}));
  EXPECT_EQ(map.initial_range(WorkerId(2)), (std::pair<std::size_t,
                                             std::size_t>{6, 8}));
  for (std::uint32_t w = 0; w < 3; ++w) {
    const auto [begin, end] = map.initial_range(WorkerId(w));
    EXPECT_EQ(map.shards_owned(WorkerId(w)), end - begin);
    for (std::size_t s = begin; s < end; ++s) {
      EXPECT_EQ(map.shard(s).owner, WorkerId(w));
      EXPECT_EQ(map.shard(s).epoch, 1u);
      EXPECT_FALSE(map.shard(s).dirty);
    }
  }
  EXPECT_EQ(map.orphaned_shards(), 0u);
  EXPECT_FALSE(map.any_dirty());
}

TEST(ShardMapTest, RejectsDegenerateShapes) {
  EXPECT_THROW(ShardMap(8, 0, 1), InvalidArgument);
  EXPECT_THROW(ShardMap(4, 5, 1), InvalidArgument);
  // One worker owning everything is the degenerate-but-legal shape.
  const ShardMap solo(4, 1, 1);
  EXPECT_EQ(solo.shards_owned(WorkerId(0)), 4u);
}

TEST(WalCodecTest, RoundTripsSnapshotsExactly) {
  RealtimeSelector::CallSnapshot snap;
  snap.dc = DcId(3);
  snap.first_joiner = LocationId(7);
  snap.plan_col = 12;
  snap.holds_slot = true;
  snap.slot_dc = DcId(1);
  snap.cores = 0.30000000000000004;  // denormal-ish double: %a must survive
  snap.server = ServerId(9);
  const RealtimeSelector::CallSnapshot back =
      cluster::decode_wal_record(cluster::encode_wal_record(snap));
  EXPECT_EQ(back.dc, snap.dc);
  EXPECT_EQ(back.first_joiner, snap.first_joiner);
  EXPECT_EQ(back.plan_col, snap.plan_col);
  EXPECT_EQ(back.holds_slot, snap.holds_slot);
  EXPECT_EQ(back.slot_dc, snap.slot_dc);
  EXPECT_EQ(back.cores, snap.cores);  // bit-exact via hexfloat
  EXPECT_EQ(back.server, snap.server);

  // Invalid ids (kInvalid sentinels) must survive the round trip too: an
  // unfrozen call has no slot DC and no server.
  RealtimeSelector::CallSnapshot unfrozen;
  unfrozen.dc = DcId(0);
  unfrozen.first_joiner = LocationId(2);
  const RealtimeSelector::CallSnapshot u =
      cluster::decode_wal_record(cluster::encode_wal_record(unfrozen));
  EXPECT_FALSE(u.holds_slot);
  EXPECT_FALSE(u.slot_dc.valid());
  EXPECT_FALSE(u.server.valid());
  EXPECT_EQ(u.plan_col, AllocationPlan::npos);

  EXPECT_EQ(cluster::call_from_wal_key(cluster::wal_key(5, CallId(42))),
            CallId(42));
}

ControllerOptions small_controller_options(std::size_t workers) {
  ControllerOptions copts;
  copts.realtime.shard_count = 8;
  copts.worker_rows = workers;
  return copts;
}

class ClusterFacadeTest : public ::testing::Test {
 protected:
  ClusterFacadeTest()
      : config_(CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio)) {}

  /// First `n` call ids whose shard falls inside `w`'s INITIAL range.
  static std::vector<CallId> calls_of(const ClusterController& cl, WorkerId w,
                                      std::size_t n) {
    const auto [begin, end] = cl.shard_map().initial_range(w);
    std::vector<CallId> out;
    for (std::uint32_t id = 1; out.size() < n && id < 1000; ++id) {
      const std::size_t s = cl.shard_of(CallId(id));
      if (s >= begin && s < end) out.emplace_back(id);
    }
    return out;
  }

  TwoDcWorld world_;
  CallConfig config_;
};

TEST_F(ClusterFacadeTest, WorkersOneNoKillMatchesPlainSwitchboard) {
  // The workers==1 contract: every event's RESULT and the controller's
  // final accounting are bit-identical to the unwrapped Switchboard.
  Switchboard plain(world_.ctx(), small_controller_options(0));
  Switchboard wrapped(world_.ctx(), small_controller_options(1));
  ClusterController cl(wrapped, {.workers = 1});
  for (std::uint32_t c = 1; c <= 12; ++c) {
    EXPECT_EQ(plain.call_started(CallId(c), LocationId(c % 2), 10.0 * c),
              cl.call_started(CallId(c), LocationId(c % 2), 10.0 * c));
    const FreezeResult a = plain.config_frozen(CallId(c), config_,
                                               10.0 * c + 300.0);
    const FreezeResult b = cl.config_frozen(CallId(c), config_,
                                            10.0 * c + 300.0);
    EXPECT_EQ(a.dc, b.dc);
    EXPECT_EQ(a.migrated, b.migrated);
  }
  EXPECT_EQ(cl.wal_size(), 12u);  // every live call has exactly one record
  for (std::uint32_t c = 1; c <= 12; ++c) {
    plain.call_ended(CallId(c), 2000.0);
    cl.call_ended(CallId(c), 2000.0);
  }
  const RealtimeSelector::Stats sp = plain.realtime_stats();
  const RealtimeSelector::Stats sc = wrapped.realtime_stats();
  EXPECT_EQ(sp.calls_started, sc.calls_started);
  EXPECT_EQ(sp.calls_frozen, sc.calls_frozen);
  EXPECT_EQ(sp.migrations, sc.migrations);
  EXPECT_EQ(sp.slot_debits, sc.slot_debits);
  EXPECT_EQ(sp.slot_credits, sc.slot_credits);
  EXPECT_EQ(cl.wal_size(), 0u);
  EXPECT_EQ(cl.epoch(), 1u);  // no ownership change ever happened
  const ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.events_applied, 36u);
  EXPECT_EQ(stats.takeovers_expedited + stats.takeovers_ttl, 0u);
  EXPECT_EQ(stats.degraded_applies, 0u);
}

TEST_F(ClusterFacadeTest, ExpeditedReadoptionReplaysAndConserves) {
  Switchboard sb(world_.ctx(), small_controller_options(2));
  // A huge TTL isolates the expedited path: the health row (in-process
  // alive flag), not lease expiry, must drive the takeover.
  ClusterController cl(sb, {.workers = 2, .lease_ttl_s = 1e6});
  const std::vector<CallId> mine = calls_of(cl, WorkerId(0), 4);
  const std::vector<CallId> theirs = calls_of(cl, WorkerId(1), 4);
  ASSERT_EQ(mine.size(), 4u);
  ASSERT_EQ(theirs.size(), 4u);
  for (const CallId c : mine) {
    cl.call_started(c, LocationId(0), 0.0);
    cl.config_frozen(c, config_, 300.0);
  }
  for (const CallId c : theirs) {
    cl.call_started(c, LocationId(1), 0.0);
    cl.config_frozen(c, config_, 300.0);
  }
  EXPECT_EQ(sb.active_calls(), 8u);

  // Kill worker 0: its shards' controller rows vanish with no credits, the
  // media plane keeps hosting, and the sim-visible outcome is empty.
  const fault::FailoverOutcome outcome = cl.worker_failed(WorkerId(0), 400.0);
  EXPECT_TRUE(outcome.empty());
  EXPECT_EQ(sb.active_calls(), 8u - mine.size());
  EXPECT_EQ(cl.wal_size(), 8u);  // the WAL survives the crash

  // The next event touching an orphaned shard expedites adoption of the
  // whole orphaned range and replays it from the WAL.
  cl.call_ended(mine[0], 500.0);
  const ClusterStats mid = cl.stats();
  EXPECT_EQ(mid.takeovers_expedited, 1u);
  EXPECT_EQ(mid.takeovers_ttl, 0u);
  EXPECT_EQ(mid.replayed_records, mine.size());
  EXPECT_GT(cl.epoch(), 1u);
  EXPECT_EQ(cl.shard_map().orphaned_shards(), 0u);
  EXPECT_FALSE(cl.shard_map().any_dirty());
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(1)), 8u);
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(0)), 0u);

  for (std::size_t i = 1; i < mine.size(); ++i) cl.call_ended(mine[i], 600.0);
  for (const CallId c : theirs) cl.call_ended(c, 600.0);
  // Exactly-once across the crash: every start matched by one end, nothing
  // stranded, nothing double-credited.
  EXPECT_EQ(sb.active_calls(), 0u);
  EXPECT_EQ(cl.wal_size(), 0u);
  const RealtimeSelector::Stats s = sb.realtime_stats();
  EXPECT_EQ(s.calls_started, 8u);
  EXPECT_EQ(s.calls_frozen, 8u);
  EXPECT_EQ(s.slot_debits, s.slot_credits);
  const std::vector<WorkerStatus> table = cl.worker_table();
  EXPECT_FALSE(table[0].alive);
  EXPECT_EQ(table[1].takeovers, 4u);
}

TEST_F(ClusterFacadeTest, LeaseExpiryAdoptsIdleOrphanedShards) {
  Switchboard sb(world_.ctx(), small_controller_options(2));
  ClusterController cl(sb, {.workers = 2, .lease_ttl_s = 50.0});
  const std::vector<CallId> mine = calls_of(cl, WorkerId(0), 2);
  const std::vector<CallId> theirs = calls_of(cl, WorkerId(1), 2);
  for (const CallId c : mine) {
    cl.call_started(c, LocationId(0), 0.0);
    cl.config_frozen(c, config_, 10.0);
  }
  for (const CallId c : theirs) cl.call_started(c, LocationId(1), 0.0);
  cl.worker_failed(WorkerId(0), 20.0);

  // Dispatch ONLY to the live worker's range, past the dead worker's TTL:
  // the per-event tick must sweep the lapsed lease and adopt the orphans
  // even though nothing touched them directly.
  cl.call_ended(theirs[0], 200.0);
  const ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.takeovers_ttl, 1u);
  EXPECT_EQ(stats.takeovers_expedited, 0u);
  EXPECT_GE(stats.lease_expiries, 1u);
  EXPECT_EQ(stats.replayed_records, mine.size());
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(1)), 8u);

  cl.call_ended(theirs[1], 300.0);
  for (const CallId c : mine) cl.call_ended(c, 300.0);
  EXPECT_EQ(sb.active_calls(), 0u);
  EXPECT_EQ(cl.wal_size(), 0u);
  const RealtimeSelector::Stats s = sb.realtime_stats();
  EXPECT_EQ(s.slot_debits, s.slot_credits);
}

TEST_F(ClusterFacadeTest, RestartBeforeAdoptionReplaysOwnShards) {
  Switchboard sb(world_.ctx(), small_controller_options(2));
  ClusterController cl(sb, {.workers = 2, .lease_ttl_s = 1e6});
  const std::vector<CallId> mine = calls_of(cl, WorkerId(0), 3);
  for (const CallId c : mine) {
    cl.call_started(c, LocationId(0), 0.0);
    cl.config_frozen(c, config_, 300.0);
  }
  cl.worker_failed(WorkerId(0), 400.0);
  EXPECT_EQ(sb.active_calls(), 0u);

  // Nobody touched the orphaned range; the restarted worker replays its own
  // dirty shards at a fresh epoch and keeps its ownership.
  cl.worker_restarted(WorkerId(0), 450.0);
  const ClusterStats stats = cl.stats();
  EXPECT_EQ(stats.worker_restarts, 1u);
  EXPECT_EQ(stats.replayed_records, mine.size());
  EXPECT_EQ(stats.takeovers_expedited + stats.takeovers_ttl, 0u);
  EXPECT_EQ(sb.active_calls(), mine.size());
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(0)), 4u);
  EXPECT_FALSE(cl.shard_map().any_dirty());

  for (const CallId c : mine) cl.call_ended(c, 500.0);
  EXPECT_EQ(sb.active_calls(), 0u);
  EXPECT_EQ(cl.wal_size(), 0u);
  EXPECT_EQ(sb.realtime_stats().slot_debits, sb.realtime_stats().slot_credits);
}

TEST_F(ClusterFacadeTest, RestartAfterAdoptionIsSticky) {
  Switchboard sb(world_.ctx(), small_controller_options(2));
  ClusterController cl(sb, {.workers = 2, .lease_ttl_s = 1e6});
  const std::vector<CallId> mine = calls_of(cl, WorkerId(0), 2);
  for (const CallId c : mine) cl.call_started(c, LocationId(0), 0.0);
  cl.worker_failed(WorkerId(0), 100.0);
  cl.call_ended(mine[0], 200.0);  // worker 1 expedites adoption
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(1)), 8u);

  // Shards already adopted stay adopted: the restarted worker comes back
  // alive but empty-handed.
  cl.worker_restarted(WorkerId(0), 300.0);
  EXPECT_TRUE(cl.worker_table()[0].alive);
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(0)), 0u);

  // It is the least-loaded adopter for the NEXT crash, though.
  cl.worker_failed(WorkerId(1), 400.0);
  cl.call_ended(mine[1], 500.0);
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(0)), 8u);
  EXPECT_EQ(sb.active_calls(), 0u);
  EXPECT_EQ(cl.wal_size(), 0u);
}

TEST_F(ClusterFacadeTest, DegradedDirectModeSurvivesTotalWorkerLoss) {
  Switchboard sb(world_.ctx(), small_controller_options(1));
  ClusterController cl(sb, {.workers = 1, .lease_ttl_s = 1e6});
  cl.call_started(CallId(1), LocationId(0), 0.0);
  cl.config_frozen(CallId(1), config_, 300.0);
  cl.worker_failed(WorkerId(0), 400.0);

  // Every worker dead: the coordinator applies events directly, replaying
  // the touched shard first, and parks ownership as invalid.
  cl.call_ended(CallId(1), 500.0);
  cl.call_started(CallId(2), LocationId(1), 600.0);
  cl.call_ended(CallId(2), 700.0);
  const ClusterStats stats = cl.stats();
  EXPECT_GE(stats.degraded_applies, 3u);
  EXPECT_EQ(stats.replayed_records, 1u);
  EXPECT_GT(cl.shard_map().orphaned_shards(), 0u);
  EXPECT_EQ(sb.active_calls(), 0u);
  EXPECT_EQ(cl.wal_size(), 0u);
  EXPECT_EQ(sb.realtime_stats().slot_debits, sb.realtime_stats().slot_credits);

  // Restart semantics after degraded mode: the worker re-adopts the shards
  // still parked under its (dead) name, while the shards the coordinator
  // touched — now owned by nobody — stay orphaned until routed to again.
  const std::size_t touched =
      cl.shard_of(CallId(1)) == cl.shard_of(CallId(2)) ? 1 : 2;
  cl.worker_restarted(WorkerId(0), 800.0);
  EXPECT_EQ(cl.shard_map().orphaned_shards(), touched);
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(0)), 8u - touched);

  // The next event routed to an orphaned shard wins ALL orphans back.
  const std::size_t orphan = cl.shard_of(CallId(1));
  CallId poke;
  for (std::uint32_t id = 3; id < 1000; ++id) {
    if (cl.shard_of(CallId(id)) == orphan) {
      poke = CallId(id);
      break;
    }
  }
  cl.call_started(poke, LocationId(0), 900.0);
  cl.call_ended(poke, 950.0);
  EXPECT_EQ(cl.shard_map().orphaned_shards(), 0u);
  EXPECT_EQ(cl.shard_map().shards_owned(WorkerId(0)), 8u);
}

TEST_F(ClusterFacadeTest, AdmitFencesZombiesAndStaleEpochs) {
  Switchboard sb(world_.ctx(), small_controller_options(2));
  ClusterController cl(sb, {.workers = 2, .lease_ttl_s = 1e6});
  const std::size_t shard = cl.shard_map().initial_range(WorkerId(0)).first;

  // Current owner at the current epoch with a live lease: admitted.
  EXPECT_TRUE(cl.admit(shard, WorkerId(0), 1, 10.0));
  // Wrong epoch, wrong owner: fenced.
  EXPECT_FALSE(cl.admit(shard, WorkerId(0), 0, 10.0));
  EXPECT_FALSE(cl.admit(shard, WorkerId(1), 1, 10.0));

  // Kill + adoption: the zombie's stamps are fenced at BOTH the old epoch
  // (epoch mismatch) and the new one (dead worker), while the adopter's
  // current stamp is admitted.
  const CallId victim = calls_of(cl, WorkerId(0), 1).front();
  cl.call_started(victim, LocationId(0), 20.0);
  cl.worker_failed(WorkerId(0), 30.0);
  cl.call_ended(victim, 40.0);  // expedited adoption by worker 1
  const std::uint64_t e = cl.epoch();
  EXPECT_GT(e, 1u);
  EXPECT_FALSE(cl.admit(shard, WorkerId(0), 1, 50.0));
  EXPECT_FALSE(cl.admit(shard, WorkerId(0), e, 50.0));
  EXPECT_TRUE(cl.admit(shard, WorkerId(1), e, 50.0));
  EXPECT_EQ(cl.stats().stale_events_fenced, 4u);
}

TEST_F(ClusterFacadeTest, EpochMirrorsKvStoreUnderCas) {
  Switchboard sb(world_.ctx(), small_controller_options(2));
  ClusterController cl(sb, {.workers = 2, .lease_ttl_s = 1e6});
  EXPECT_EQ(cl.store().get("cluster:epoch").value_or(""), "1");
  const CallId c = calls_of(cl, WorkerId(0), 1).front();
  cl.call_started(c, LocationId(0), 0.0);
  cl.worker_failed(WorkerId(0), 10.0);
  cl.call_ended(c, 20.0);
  EXPECT_GT(cl.epoch(), 1u);
  EXPECT_EQ(cl.store().get("cluster:epoch").value_or(""),
            std::to_string(cl.epoch()));
  // The epoch key is create-only at birth: a pre-seeded key means another
  // coordinator already owns this store, and construction must fail loudly
  // rather than split-brain.
  KvStore seeded({.shard_count = 4, .inject_latency = false});
  EXPECT_TRUE(seeded.put_if("cluster:epoch", "7", 0).has_value());
  EXPECT_FALSE(seeded.put_if("cluster:epoch", "8", 0).has_value());
}

// ---------------------------------------------------------------------------
// Whole-simulation properties on a realistic trace.
// ---------------------------------------------------------------------------

void expect_reports_equal(const SimReport& a, const SimReport& b) {
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.frozen, b.frozen);
  EXPECT_EQ(a.migrations, b.migrations);
  EXPECT_EQ(a.dropped_calls, b.dropped_calls);
  EXPECT_EQ(a.failover_migrations, b.failover_migrations);
  EXPECT_EQ(a.mean_acl_ms, b.mean_acl_ms);
  EXPECT_EQ(a.dc_cores_buckets, b.dc_cores_buckets);
}

TEST(ClusterSimTest, WorkersOneSimulationIsBitIdenticalToPreClusterPath) {
  Scenario scenario = make_apac_scenario({.config_count = 60});
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const double start = kSecondsPerDay + 10.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(start, start + 0.5 * kSecondsPerHour);
  ASSERT_GT(db.size(), 0u);
  fault::FaultSchedule faults;
  faults.fail_dc(DcId(0), start + 600.0, 300.0);  // drains flow through too

  const Simulator sim(ctx);
  ControllerOptions copts;
  Switchboard plain(ctx, copts);
  ControllerAllocator plain_alloc(plain);
  HostingLog plain_log;
  const SimReport plain_rep =
      sim.run(db, plain_alloc, 300.0, &faults, 60.0, &plain_log);

  ControllerOptions wopts;
  wopts.worker_rows = 1;
  Switchboard wrapped(ctx, wopts);
  ClusterController cl(wrapped, {.workers = 1});
  cluster::ClusterAllocator cl_alloc(cl);
  HostingLog cl_log;
  const SimReport cl_rep =
      sim.run(db, cl_alloc, 300.0, &faults, 60.0, &cl_log);

  expect_reports_equal(plain_rep, cl_rep);
  EXPECT_TRUE(plain_log == cl_log);
  EXPECT_EQ(cl.wal_size(), 0u);
  EXPECT_EQ(cl.epoch(), 1u);
}

TEST(ClusterSimTest, WorkerKillStormIsInvisibleToTheMediaPlane) {
  // A worker crash re-homes controller state, never calls: the report of a
  // kill-storm run must be bit-identical to the same run without kills, and
  // every lifecycle record must clear through the WAL exactly once.
  Scenario scenario = make_apac_scenario({.config_count = 60});
  const LoadModel loads = LoadModel::paper_default();
  const EvalContext ctx{&scenario.world(), &scenario.topology(),
                        &scenario.latency(), scenario.registry.get(), &loads};
  const double start = kSecondsPerDay + 10.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario.trace->generate(start, start + 0.5 * kSecondsPerHour);
  ASSERT_GT(db.size(), 0u);

  const auto run_with = [&](const fault::FaultSchedule* faults,
                            ClusterController** out_cl,
                            std::unique_ptr<Switchboard>& sb_slot,
                            std::unique_ptr<ClusterController>& cl_slot,
                            HostingLog& log) {
    ControllerOptions copts;
    copts.worker_rows = 4;
    sb_slot = std::make_unique<Switchboard>(ctx, copts);
    cl_slot = std::make_unique<ClusterController>(
        *sb_slot, ClusterOptions{.workers = 4, .lease_ttl_s = 120.0});
    *out_cl = cl_slot.get();
    cluster::ClusterAllocator alloc(*cl_slot);
    const Simulator sim(ctx);
    return sim.run(db, alloc, 300.0, faults, 60.0, &log);
  };

  std::unique_ptr<Switchboard> sb_a;
  std::unique_ptr<ClusterController> cl_a;
  ClusterController* quiet = nullptr;
  HostingLog quiet_log;
  const SimReport quiet_rep =
      run_with(nullptr, &quiet, sb_a, cl_a, quiet_log);

  // Recovery times stay inside the trace window: fault events are sim
  // events, so a recovery past the last call would stretch the bucket grid
  // and (vacuously) break the bit-identity comparison below.
  fault::FaultSchedule kills;
  kills.fail_worker(WorkerId(0), start + 300.0, 400.0);
  kills.fail_worker(WorkerId(2), start + 700.0, 600.0);
  kills.fail_worker(WorkerId(1), start + 900.0, 200.0);
  std::unique_ptr<Switchboard> sb_b;
  std::unique_ptr<ClusterController> cl_b;
  ClusterController* stormy = nullptr;
  HostingLog storm_log;
  const SimReport storm_rep =
      run_with(&kills, &stormy, sb_b, cl_b, storm_log);

  expect_reports_equal(quiet_rep, storm_rep);
  EXPECT_TRUE(quiet_log == storm_log);
  EXPECT_EQ(storm_rep.dropped_calls, quiet_rep.dropped_calls);

  // Zero duplicate or lost lifecycle transitions across the crashes: the
  // WAL drained, nothing is dirty, the epoch moved, takeovers happened.
  EXPECT_EQ(stormy->wal_size(), 0u);
  EXPECT_FALSE(stormy->shard_map().any_dirty());
  const ClusterStats s = stormy->stats();
  EXPECT_EQ(s.worker_kills, 3u);
  EXPECT_EQ(s.worker_restarts, 3u);
  EXPECT_GT(s.takeovers_expedited + s.takeovers_ttl, 0u);
  EXPECT_GT(stormy->epoch(), 1u);
  const RealtimeSelector::Stats rs = sb_b->realtime_stats();
  EXPECT_EQ(rs.slot_debits, rs.slot_credits);
  EXPECT_EQ(sb_b->active_calls(), 0u);

  const ClusterStats q = quiet->stats();
  EXPECT_EQ(q.worker_kills, 0u);
  EXPECT_EQ(q.takeovers_expedited + q.takeovers_ttl, 0u);
}

}  // namespace
}  // namespace sb
