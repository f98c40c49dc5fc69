// The realtime MP selector (§5.4): assigns a DC the moment a call's first
// participant joins (closest DC to the first joiner), then reconciles with
// the precomputed allocation plan once the call config freezes A minutes in
// — debiting a plan slot, or migrating the call when the initial choice
// disagrees with the plan. Unplanned configs fall back to their closest DC.
//
// Concurrency (DESIGN.md "Threading model"): call state is lock-striped
// across N shards keyed by CallId % N, so events for different calls on
// different shards never contend. Plan-slot quotas live outside the shards
// in one shared table of atomic counters debited/credited with CAS, which
// keeps freeze/migrate/overflow accounting exact without any global lock.
// Stats are per-shard atomics folded on read. Driven single-threaded, the
// selector makes bit-identical decisions to the pre-sharded implementation.
//
// Fault awareness (DESIGN.md "Failure model & runtime failover"): when a
// fault::HealthTable is attached, call start and config freeze consult it
// lock-free — the no-fault fast path is one relaxed load (all_up()) and
// then identical to a selector with no fault domain. drain_dc() evacuates a
// failed DC's live calls in bounded batches, re-homing through the same
// atomic quota table (slot accounting stays exact across the drain) and
// falling back to provisioned backup capacity; calls are dropped only when
// no surviving DC has headroom left.
#pragma once

#include <atomic>
#include <cstdint>
#include <limits>
#include <memory>
#include <mutex>
#include <optional>

#include "common/flat_map.h"
#include "core/allocation_plan.h"
#include "fault/failover.h"
#include "fault/health_table.h"
#include "pack/packer.h"

namespace sb {

namespace obs {
class Span;
}  // namespace obs

struct RealtimeOptions {
  /// §6.4: the config freezes A = 300 s after call start (~80% of
  /// participants have joined by then, Fig 8).
  double freeze_delay_s = 300.0;
  /// Lock stripes over the call table (shard = CallId % shard_count).
  /// Events for calls on different shards proceed concurrently.
  std::size_t shard_count = 16;
  /// TEST-ONLY mutation knob for the sb_check oracle suite: when set, a
  /// drain-time tier-1 re-home does NOT credit the vacated quota cell,
  /// deliberately leaking a slot debit per failover move. This exists to
  /// prove the fuzzer's conservation oracles actually detect the class of
  /// bug they claim to (quota accounting drift); nothing in production code
  /// sets it. See tools/sb_fuzz --chaos.
  bool chaos_skip_drain_credit = false;
  /// TEST-ONLY mutation knob, the server-level twin of
  /// chaos_skip_drain_credit: when set, a drain-time re-pack/re-home does
  /// NOT release the vacated server's cores, deliberately leaking
  /// per-server occupancy. Proves the per-server conservation oracle
  /// detects core-accounting drift; nothing in production code sets it.
  /// See tools/sb_fuzz --chaos skip-server-credit.
  bool chaos_skip_server_credit = false;
  /// Packing knobs; consulted only when the world registers a server fleet.
  pack::PackOptions pack = {};
};

/// Outcome of freezing one call's config.
struct FreezeResult {
  DcId dc;                ///< final hosting DC
  bool migrated = false;  ///< true if the call moved to a different DC
  bool planned = false;   ///< true if the config had plan slots
  ServerId server;        ///< hosting media server (invalid without a fleet)
};

/// Thread-safe selector state machine: any number of call-signaling threads
/// may invoke the three event methods concurrently. Tracks per-(config, DC)
/// active frozen calls against the plan's slot quotas.
class RealtimeSelector {
 public:
  /// `plan` may be null (no-plan operation: every call sticks to the
  /// closest-DC heuristic and freezing only re-homes unplanned configs).
  /// `health` may be null (no fault domain: availability checks compile to
  /// nothing on the event path); when set it must outlive the selector.
  RealtimeSelector(EvalContext ctx, const AllocationPlan* plan,
                   RealtimeOptions options, SimTime plan_start_s = 0.0,
                   const fault::HealthTable* health = nullptr);

  /// (a) of §5.4: a new call starts; returns the initial DC — the one
  /// closest (lowest latency) to the first joiner's location.
  DcId on_call_start(CallId call, LocationId first_joiner, SimTime now);

  /// (b)/(c) of §5.4: the call's config is now known. Debits a plan slot at
  /// the current DC if available, otherwise migrates to the planned DC with
  /// spare quota and the lowest ACL. Unplanned configs go to the min-ACL DC.
  /// `id_hint`, when valid, must be the registry's id for `config`; it
  /// spares the hot path a full-config hash lookup (the simulator already
  /// holds the interned id for every replayed record).
  FreezeResult on_config_frozen(CallId call, const CallConfig& config,
                                SimTime now, ConfigId id_hint = ConfigId());

  /// Releases the call's slot (if it held one).
  void on_call_end(CallId call, SimTime now);

  /// Drains every live call hosted at `failed` (which should already be
  /// marked down in the health table so no new call lands there), shard by
  /// shard in batches of 64 calls per lock acquisition so signaling events
  /// on other calls of the same shard are only ever blocked for one bounded
  /// batch. Re-homing policy per call:
  ///   1. a call holding a plan slot moves to the surviving DC with spare
  ///      quota for its config and the lowest ACL (slot credited at the old
  ///      cell and CAS-debited at the new one — accounting stays exact);
  ///   2. with every surviving quota exhausted, the call keeps its original
  ///      slot accounting and is hosted on provisioned backup capacity: the
  ///      min-ACL surviving DC whose tracked core load stays within
  ///      `budget_cores` (per-DC provisioned serving+backup; empty = no
  ///      capacity limit);
  ///   3. only when no surviving DC has headroom (backup truly exhausted)
  ///      is the call dropped: its slot is credited, its state erased.
  /// Unfrozen calls re-run the closest-DC heuristic over surviving DCs and
  /// are never capacity-dropped (their config — and so their load — is not
  /// yet known). Thread-safe against concurrent events.
  fault::FailoverOutcome drain_dc(DcId failed, SimTime now,
                                  const std::vector<double>& budget_cores);

  /// The server-level drain (fleet worlds only): evacuates every packed
  /// call hosted on `failed` (already marked down in the health table), in
  /// the same bounded shard batches as drain_dc. Re-homing policy per call:
  ///   S1. bounded re-pack onto an up sibling server of the same DC (quota
  ///       accounting untouched — the DC itself is healthy; the move is
  ///       recorded with from == to and the new to_server);
  ///   S2/S3. with the fleet full, spill cross-DC through drain_dc's
  ///       quota-then-backup tiers (the call leaves the DC);
  ///   S4. before dropping in an otherwise healthy DC, overflow onto the
  ///       least-loaded up sibling (overcommit admit, counted);
  ///   S5. only with no up sibling and every cross-DC tier exhausted is the
  ///       call dropped.
  /// Calls not yet frozen have no server and are never touched.
  fault::FailoverOutcome drain_server(ServerId failed, SimTime now,
                                      const std::vector<double>& budget_cores);

  /// Intra-DC defragmentation pass (fleet worlds only): snapshots the DC's
  /// packed calls, computes a best-fit-decreasing target assignment offline,
  /// and applies up to `max_moves` migrations — each re-verified against the
  /// live call state under its shard lock, so the pass is safe (if not
  /// optimal) under concurrent events. Never invoked by the simulator
  /// drivers; benches and operators call it at known-quiescent points.
  pack::DefragResult defragment_dc(
      DcId dc, std::size_t max_moves = std::numeric_limits<std::size_t>::max());

  /// The fleet packer; null when the world registers no servers.
  [[nodiscard]] const pack::ServerPacker* packer() const {
    return packer_.get();
  }

  /// Re-binds every live call's slot accounting to `new_plan` WITHOUT
  /// moving any call — the closed-loop plan-install path (see
  /// Switchboard::install_plan). Caller contract: exclusive access (the
  /// controller holds its swap lock; no event may be in flight). For each
  /// frozen call of a planned config, the old plan column is mapped through
  /// `old_plan.config_columns` to its ConfigId and then to the new plan's
  /// column; a call that held a slot re-debits the new cell at its
  /// accounting DC (falling back to overflow accounting — credit recorded,
  /// no cell held — when the new quota is already full), and an overflow
  /// call may acquire a slot the old plan denied it (debit recorded). The
  /// quota-conservation invariant `held_slots() == slot_debits -
  /// slot_credits` survives exactly. dc_cores_, the packer, and every
  /// hosting decision are untouched.
  void rebind_plan(const AllocationPlan& old_plan,
                   const AllocationPlan* new_plan, SimTime plan_start_s,
                   SimTime now);

  struct Stats {
    std::uint64_t calls_started = 0;
    std::uint64_t calls_frozen = 0;
    std::uint64_t migrations = 0;    ///< §6.4's headline metric
    std::uint64_t unplanned = 0;     ///< configs with no plan column
    std::uint64_t overflow = 0;      ///< plan slots exhausted; call stayed put
    std::uint64_t slot_debits = 0;   ///< plan slots acquired at freeze
    std::uint64_t slot_credits = 0;  ///< plan slots released at call end
    std::uint64_t failover_moves = 0;  ///< calls re-homed by drain_dc
    std::uint64_t failover_drops = 0;  ///< calls dropped by drain_dc
  };
  /// Folds the per-shard stat atomics; weakly consistent under concurrent
  /// events, exact when the selector is quiescent.
  [[nodiscard]] Stats stats() const;
  [[nodiscard]] std::size_t active_calls() const;
  /// Plan slots currently held (sum over the atomic usage table); always
  /// equals slot_debits - slot_credits when quiescent.
  [[nodiscard]] std::uint64_t held_slots() const;
  [[nodiscard]] std::size_t shard_count() const { return shard_count_; }
  /// The stripe a call's state lives on; the simulator's concurrent driver
  /// uses the same function to give each call thread affinity.
  [[nodiscard]] static std::size_t shard_of(CallId call, std::size_t shards) {
    return call.value() % shards;
  }
  [[nodiscard]] double freeze_delay_s() const {
    return options_.freeze_delay_s;
  }

  // --- Crash-recovery hooks (sb_cluster) ---
  //
  // These three methods move call-table rows without touching the quota
  // table, dc_cores, the packer, or any stats counter. They model a
  // controller worker losing (and later reconstructing, from the KV
  // write-ahead log) its in-memory view of calls that keep running on the
  // media plane — lifecycle accounting must happen exactly once regardless
  // of how many crash/replay cycles the row survives.

  /// One call's controller-side row: what the call tables hold, what the
  /// cluster WAL persists and what adopt_call() replays verbatim.
  struct CallSnapshot {
    DcId dc;
    LocationId first_joiner;  ///< for re-running the start heuristic on drain
    /// The config's plan column, recorded for every frozen planned call —
    /// including overflow calls that hold no slot — so a later
    /// rebind_plan() can re-attach them to the new plan's quotas.
    std::size_t plan_col = AllocationPlan::npos;
    bool holds_slot = false;
    DcId slot_dc;        ///< the DC of the debited quota cell (== dc except
                         ///< for calls hosted on backup capacity)
    double cores = 0.0;  ///< core footprint once frozen (0 before freeze)
    ServerId server;     ///< packed media server (invalid without a fleet,
                         ///< or before freeze)
  };
  /// The call's current row, or nullopt when unknown (never throws — the
  /// cluster layer probes liberally).
  [[nodiscard]] std::optional<CallSnapshot> snapshot_call(CallId call) const;
  /// Erases every row whose shard index is in [shard_begin, shard_end)
  /// WITHOUT crediting quota, cores, or packer occupancy (the media plane
  /// still hosts those calls). Returns the number of rows erased.
  std::size_t drop_shards(std::size_t shard_begin, std::size_t shard_end);
  /// Re-inserts a row dropped by drop_shards() exactly as snapshotted,
  /// WITHOUT re-debiting anything. Throws on a duplicate call id — replay
  /// must be exactly-once.
  void adopt_call(CallId call, const CallSnapshot& snap);
  /// Tracked core load of frozen calls hosted at `dc` (weakly consistent
  /// under concurrent events). This is what drain_dc checks provisioned
  /// backup budgets against.
  [[nodiscard]] double dc_cores_used(DcId dc) const;

 private:
  /// One lock stripe: its own mutex and call table, padded so neighbouring
  /// shards' locks never share a cache line.
  struct alignas(64) CallShard {
    mutable std::mutex mutex;
    FlatIdMap<CallId, CallSnapshot> calls;
  };

  /// Per-shard event counters; incremented with relaxed atomics from inside
  /// that shard's critical section, folded on read.
  struct alignas(64) ShardStats {
    std::atomic<std::uint64_t> calls_started{0};
    std::atomic<std::uint64_t> calls_frozen{0};
    std::atomic<std::uint64_t> migrations{0};
    std::atomic<std::uint64_t> unplanned{0};
    std::atomic<std::uint64_t> overflow{0};
    std::atomic<std::uint64_t> slot_debits{0};
    std::atomic<std::uint64_t> slot_credits{0};
    std::atomic<std::uint64_t> failover_moves{0};
    std::atomic<std::uint64_t> failover_drops{0};
  };

  [[nodiscard]] CallShard& shard(CallId call) {
    return shards_[shard_of(call, shard_count_)];
  }
  [[nodiscard]] ShardStats& shard_stats(CallId call) {
    return stats_[shard_of(call, shard_count_)];
  }
  [[nodiscard]] std::atomic<std::uint32_t>& usage(std::size_t col, DcId dc) {
    return usage_[col * plan_->dc_count() + dc.value()];
  }
  /// CAS loop: acquires one slot of (col, dc) iff usage < quota. Exact under
  /// contention — never debits past the quota, never loses a debit. When
  /// `retries` is set it accumulates the failed CAS attempts (contention
  /// telemetry on the freeze/drain spans).
  bool try_debit(std::size_t col, DcId dc, std::uint32_t quota,
                 std::uint32_t* retries = nullptr);

  [[nodiscard]] bool degraded() const {
    return health_ != nullptr && !health_->all_up();
  }
  [[nodiscard]] bool dc_ok(DcId dc) const {
    return health_ == nullptr || health_->dc_up(dc);
  }
  /// Closest DC whose health (and, when possible, WAN path from the joiner)
  /// is intact; falls back to ignoring links, then to every DC (fail open —
  /// a degraded placement beats refusing service).
  [[nodiscard]] DcId closest_available_dc(LocationId joiner) const;
  /// True when `dc` can absorb `cores` more within `budget_cores` (empty
  /// budget = unlimited).
  [[nodiscard]] bool within_budget(DcId dc, double cores,
                                   const std::vector<double>& budget) const;
  void add_cores(DcId dc, double cores);
  /// §5.4c (shard lock held): CAS-debits one slot of `col` at the lowest-ACL
  /// DC that `usable` admits and whose quota has room, rescanning when a
  /// racing event takes the last slot first (each rescan counted in
  /// `retries` when set). Invalid when every usable quota reads exhausted.
  template <typename Usable>
  DcId debit_min_acl(std::size_t col, TimeSlot slot, const CallConfig& config,
                     Usable usable, std::uint32_t* retries);
  /// Tiers 0-2 of a drain (shard lock held): tries to move the call off
  /// `failed` without dropping it, re-packing at the destination when a
  /// fleet exists. Returns false when no surviving DC has room; the caller
  /// decides between server-overflow (drain_server) and a drop.
  bool rehome_move(CallId call, CallSnapshot& state, DcId failed, SimTime now,
                   const std::vector<double>& budget,
                   fault::FailoverOutcome& out);
  /// Every drain move (shard lock held): releases the vacated server,
  /// records the move, carries the tracked cores to `to` and updates the row.
  void move_call(CallId call, CallSnapshot& state, DcId to, ServerId to_server,
                 fault::FailoverOutcome& out);
  /// A leaving call (shard lock held): credits its slot, returns its cores
  /// and its packed server. The caller erases the row.
  void release_call(CallId call, const CallSnapshot& state);
  /// The bounded-batch drain loop behind drain_dc and drain_server: evacuates
  /// every row `victim` selects, shard by shard, kDrainBatch calls per lock
  /// acquisition; a call `evacuate` cannot move is released and dropped.
  /// Records the moved and dropped counts on `span`.
  template <typename Victim, typename Evacuate>
  fault::FailoverOutcome drain(obs::Span& span, Victim victim,
                               Evacuate evacuate);
  /// Packs a freshly frozen call; invalid when no fleet exists.
  ServerId pack_admit(DcId dc, double cores, std::uint32_t* retries);

  EvalContext ctx_;
  const AllocationPlan* plan_;
  RealtimeOptions options_;
  SimTime plan_start_s_;
  std::size_t shard_count_;
  const fault::HealthTable* health_;
  /// health_ when it covers this world's servers, else null: the packer and
  /// defragmentation read server health only through it.
  const fault::HealthTable* server_health_ = nullptr;
  std::vector<DcId> all_dcs_;
  /// LocationId -> closest DC over the immutable latency matrix, resolved
  /// once at construction; call starts index it instead of re-scanning the
  /// matrix (the degraded path still scans, health filters the candidates).
  std::vector<DcId> closest_dc_;
  std::unique_ptr<CallShard[]> shards_;
  std::unique_ptr<ShardStats[]> stats_;
  /// [plan col][dc] active frozen calls, shared across shards.
  std::unique_ptr<std::atomic<std::uint32_t>[]> usage_;
  /// Per-DC tracked core load of frozen calls (relaxed fetch_add; consulted
  /// only by drain_dc's backup-budget check, never by planning decisions).
  std::unique_ptr<std::atomic<double>[]> dc_cores_;
  /// Intra-DC fleet packer; null when the world registers no servers, which
  /// keeps every no-fleet code path (and its decisions) bit-identical to the
  /// pre-packing selector. Owned per selector so a plan rebuild resets
  /// packing state exactly like the quota table.
  std::unique_ptr<pack::ServerPacker> packer_;
};

}  // namespace sb
