// sb_cluster: the Switchboard realtime path split across N controller
// workers with epoch/lease HA (DESIGN.md "Distributed control plane").
//
// Deployment model. One shared Switchboard is the media plane plus system
// of truth for quota/core/packer accounting (those tables stand in for the
// actual media servers hosting calls — they survive any controller crash).
// Each worker owns a contiguous range of the selector's call shards and is
// the only party allowed to apply events for calls in that range. Every
// applied event is mirrored into the sharded KvStore as a write-ahead
// call-lifecycle record (see wal.h), and liveness is advertised through
// per-worker TTL leases in the same store.
//
// Crash/recovery. Killing a worker erases the controller-side call rows of
// its shards (RealtimeSelector::drop_shards) — the media plane keeps
// serving, so a kill drops and moves nothing. Its shards are re-adopted by
// survivors through two paths: expedited (the next event routed to an
// orphaned shard adopts immediately — the health table's worker row is the
// crash notification that short-circuits the TTL) or lease expiry (the
// per-dispatch tick sweeps expired leases). Adoption bumps the cluster
// epoch via `put_if` CAS on `cluster:epoch`, replays the range's WAL into
// the selector verbatim (no re-debit), and re-points ownership to the
// adopter with the fewest shards (ties: lowest id) — shards move, calls
// don't. A restarted worker re-acquires only shards still orphaned under
// its name; anything already adopted stays where it is (sticky). With every
// worker dead the coordinator applies events directly ("degraded direct
// mode"), still WAL-logged, so conservation survives total control-plane
// loss. Events stamped with a stale epoch are fenced (admit()).
//
// With workers == 1 and no kills, the apply path is byte-for-byte the
// single-process Switchboard path: plans, simulator metrics, and the
// HostingLog are bit-identical (asserted by cluster_test).
//
// Known semantic (documented, oracle-clean): a DC/server drain that runs
// while a shard is orphaned cannot see that shard's calls; they keep their
// pre-drain placement after replay instead of being re-homed. Lifecycle
// accounting still balances exactly — the end event credits once.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "cluster/shard_map.h"
#include "core/controller.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"

namespace sb::cluster {

struct ClusterOptions {
  /// Controller workers; must be >= 1 and <= the selector's shard count.
  std::size_t workers = 4;
  /// Worker lease TTL in sim seconds. Lease expiry is the slow crash
  /// detector; the health table's worker row is the fast one.
  double lease_ttl_s = 30.0;
  /// TEST-ONLY mutation knob (tools/sb_fuzz --chaos skip-wal-freeze): the
  /// WAL record is NOT rewritten at config freeze, so a crash + replay
  /// resurrects the pre-freeze row and the end event credits nothing —
  /// planted drift the conservation oracle must catch. Nothing in
  /// production code sets it.
  bool chaos_skip_wal_freeze = false;
};

/// Weakly-consistent cluster counters (exact when quiescent).
struct ClusterStats {
  std::uint64_t events_applied = 0;
  std::uint64_t wal_writes = 0;
  std::uint64_t takeovers_expedited = 0;
  std::uint64_t takeovers_ttl = 0;
  std::uint64_t replayed_records = 0;
  std::uint64_t stale_events_fenced = 0;
  std::uint64_t degraded_applies = 0;
  std::uint64_t lease_acquires = 0;
  std::uint64_t lease_renewals = 0;
  std::uint64_t lease_expiries = 0;
  std::uint64_t worker_kills = 0;
  std::uint64_t worker_restarts = 0;
};

/// One row of the per-worker status table (examples/live_controller).
struct WorkerStatus {
  WorkerId id;
  bool alive = true;
  std::size_t shards_owned = 0;
  std::size_t initial_begin = 0;  ///< initial contiguous range [begin, end)
  std::size_t initial_end = 0;
  std::uint64_t events_applied = 0;
  std::uint64_t takeovers = 0;  ///< orphaned shards this worker adopted
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
};

/// Facade with the Switchboard realtime event signature, routing every
/// event through shard ownership, lease fencing, and the WAL. Thread-safe:
/// cluster bookkeeping is guarded by one mutex (taken per event, cold by
/// selector standards); the Switchboard apply itself runs outside it and
/// keeps its own lock striping.
class ClusterController {
 public:
  /// Borrows `controller` (must outlive this object). The controller should
  /// be constructed with ControllerOptions::worker_rows == options.workers
  /// so kills/restarts can flip health rows; a controller without worker
  /// rows still works (health integration is skipped).
  ClusterController(Switchboard& controller, ClusterOptions options);

  // --- Realtime events (Switchboard signature) ---
  DcId call_started(CallId call, LocationId first_joiner, SimTime now);
  FreezeResult config_frozen(CallId call, const CallConfig& config,
                             SimTime now);
  void call_ended(CallId call, SimTime now);

  // --- Media-plane faults: passthrough + WAL rewrite for affected calls ---
  fault::FailoverOutcome dc_failed(DcId dc, SimTime now);
  void dc_recovered(DcId dc, SimTime now);
  void link_failed(LinkId link, SimTime now);
  void link_recovered(LinkId link, SimTime now);
  fault::FailoverOutcome server_failed(ServerId server, SimTime now);
  void server_recovered(ServerId server, SimTime now);

  // --- Control-plane faults ---
  /// Kills the worker: drops its shards' controller rows, stops its lease
  /// renewals, flips its health row. Returns an EMPTY outcome by design —
  /// the media plane is untouched, so the simulator's usage accounting
  /// must not move.
  fault::FailoverOutcome worker_failed(WorkerId worker, SimTime now);
  /// Restarts the worker: fresh lease, and re-adoption (with WAL replay) of
  /// only those shards still orphaned under its name.
  void worker_restarted(WorkerId worker, SimTime now);

  // --- Fencing probe ---
  /// True iff an event stamped (worker, epoch) for `shard` would be
  /// accepted right now: the worker must own the shard at exactly that
  /// epoch and be alive with a live lease. A rejected probe counts one
  /// sb.cluster.stale_events_fenced — this is the zombie-worker test hook
  /// (the in-process dispatch path stamps under the same mutex it applies
  /// under, so its own stamps never go stale).
  bool admit(std::size_t shard, WorkerId as_worker, std::uint64_t epoch,
             SimTime now);

  // --- Introspection ---
  [[nodiscard]] std::size_t shard_of(CallId call) const;
  [[nodiscard]] const ShardMap& shard_map() const { return map_; }
  /// Monotone cluster epoch (CAS-maintained in the KV at `cluster:epoch`).
  [[nodiscard]] std::uint64_t epoch() const;
  [[nodiscard]] ClusterStats stats() const;
  [[nodiscard]] std::vector<WorkerStatus> worker_table() const;
  /// Live WAL records across all shards (0 at quiescence).
  [[nodiscard]] std::size_t wal_size() const;
  [[nodiscard]] KvStore& store() { return kv_; }
  [[nodiscard]] Switchboard& controller() { return sb_; }
  [[nodiscard]] const ClusterOptions& options() const { return options_; }

 private:
  struct Worker {
    bool alive = true;
    SimTime killed_at = 0.0;
    std::uint64_t events_applied = 0;
    std::uint64_t takeovers = 0;
    std::uint64_t kills = 0;
    std::uint64_t restarts = 0;
  };

  /// sb.cluster.* metric handles, resolved once.
  struct Metrics {
    obs::Counter& lease_acquires;
    obs::Counter& lease_renewals;
    obs::Counter& lease_expiries;
    obs::Counter& takeovers_expedited;
    obs::Counter& takeovers_ttl;
    obs::Counter& replayed_records;
    obs::Counter& stale_events_fenced;
    obs::Counter& degraded_applies;
    obs::Counter& worker_kills;
    obs::Counter& worker_restarts;
    obs::Histogram& readoption_latency_s;
    obs::Histogram& replay_depth;
    Metrics();
  };

  [[nodiscard]] static std::string lease_key(WorkerId w) {
    return "lease:w" + std::to_string(w.value());
  }
  [[nodiscard]] std::string worker_name(WorkerId w) const {
    return "worker-" + std::to_string(w.value());
  }

  /// Pre-apply routing (mutex_ held by caller): lease upkeep, TTL sweep,
  /// expedited adoption of a touched orphan shard. Returns the worker that
  /// will apply (invalid = degraded direct mode).
  WorkerId route_locked(std::size_t shard, SimTime now);
  void tick_locked(SimTime now);
  /// Adopts every shard whose owner is dead or invalid onto `adopter` at a
  /// fresh epoch, replaying dirty shards' WAL. `expedited` picks the metric.
  void take_over_orphans_locked(WorkerId adopter, SimTime now, bool expedited);
  /// Replays one dirty shard's WAL into the selector; clears dirty.
  std::size_t replay_shard_locked(std::size_t shard);
  /// Alive worker with the fewest shards (ties: lowest id); invalid if none.
  [[nodiscard]] WorkerId choose_adopter_locked() const;
  std::uint64_t bump_epoch_locked();
  void write_wal(CallId call, std::size_t shard);
  /// Re-images (moved) or erases (dropped) the WAL rows a drain touched.
  void rewrite_wal_locked(const fault::FailoverOutcome& outcome);
  void note_apply(WorkerId worker);

  Switchboard& sb_;
  ClusterOptions options_;
  KvStore kv_;
  Metrics metrics_;
  mutable std::mutex mutex_;
  ShardMap map_;
  std::vector<Worker> workers_;
  std::uint64_t epoch_ = 1;          ///< cached mirror of cluster:epoch
  std::uint64_t epoch_version_ = 0;  ///< KV version of cluster:epoch
  ClusterStats stats_;
};

}  // namespace sb::cluster
