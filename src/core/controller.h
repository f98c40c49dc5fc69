// The Switchboard controller facade (Fig 6): wires the offline pipeline
// (demand -> capacity provisioning -> allocation plan) to the realtime MP
// selector, with optional per-event persistence to a KV store (the paper's
// Redis) — the configuration the Fig 10 controller benchmark measures.
//
// This is the primary public API of the library; see examples/quickstart.cpp.
#pragma once

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "common/slotted_shared_mutex.h"
#include "core/allocation_plan.h"
#include "core/provisioner.h"
#include "core/realtime.h"
#include "kvstore/kvstore.h"
#include "obs/metrics.h"

namespace sb {

namespace obs {
class Span;
}  // namespace obs

struct ControllerOptions {
  ProvisionOptions provision;
  AllocationOptions allocation;
  RealtimeOptions realtime;
  /// Provisioning/allocation slot width in seconds (§5.2: 30 minutes).
  double slot_s = 1800.0;
  /// Number of sb_cluster controller-worker rows to track in the health
  /// table (0 = single-process deployment, the default). Worker rows never
  /// affect placement: they live outside the table's all_up() fast path.
  std::size_t worker_rows = 0;
};

/// One controller instance per deployment. Offline methods (provision,
/// build_allocation_plan) are heavyweight and not thread-safe against each
/// other; realtime methods are thread-safe and may be called concurrently
/// by many call-signaling threads.
///
/// Threading (DESIGN.md "Threading model"): there is no global event lock.
/// The selector is internally lock-striped, so concurrent events contend
/// only when they hit the same call shard; KV-store persistence happens
/// after the shard lock is released. Per-call store writes stay
/// last-writer-wins because each call's events are ordered by its driver
/// (signaling threads and the concurrent simulator both give every call a
/// single-thread affinity), and distinct calls never share a key.
class Switchboard {
 public:
  Switchboard(EvalContext ctx, ControllerOptions options);

  /// Runs MP capacity provisioning (§5.3); stores and returns the result.
  /// `basis_out` (optional) is the ScenarioBasisHint that
  /// SwitchboardProvisioner::provision reads and writes in place. With
  /// `warm` null it is emptied first, so the provision solves cold and fills
  /// it; with `warm == basis_out` the closed-loop re-provision path
  /// re-solves each scenario from the previous round's model and basis. Any
  /// other `warm` throws InvalidArgument.
  const ProvisionResult& provision(const DemandMatrix& demand,
                                   const ScenarioBasisHint* warm = nullptr,
                                   ScenarioBasisHint* basis_out = nullptr);

  /// Builds the daily allocation plan (Eq 10) from the last provision()
  /// capacities, and resets the realtime selector to consume it.
  /// `plan_start_s` anchors slot 0 of the plan on the simulation clock.
  const AllocationPlan& build_allocation_plan(const DemandMatrix& demand,
                                              SimTime plan_start_s);

  /// Rebuilds the allocation plan from `demand` and installs it into the
  /// LIVE selector without dropping call state — the closed-loop re-plan
  /// path. Where build_allocation_plan replaces the selector (orphaning
  /// in-flight calls by design, a day-boundary operation), install_plan
  /// re-binds every live call's slot accounting to the new plan under the
  /// exclusive swap lock: calls never move (MP selection stays sticky), but
  /// each frozen call re-debits its config's quota cell in the new plan at
  /// its current accounting DC; calls whose config lost its column — or
  /// whose cell is already full — fall back to unplanned/overflow
  /// accounting, and overflow calls may gain a slot the old plan denied
  /// them. `plan_start_s` must be the anchor of the plan being replaced so
  /// slot indices stay aligned across the install. `hint` (optional) is the
  /// caller's PlanLpHint, read and written in place, so a caller that
  /// replans repeatedly (the closed loop) re-solves each slot's retained LP
  /// (see AllocationPlanner::plan); the controller keeps none itself.
  /// Requires a prior build_allocation_plan. Thread-safe against concurrent
  /// realtime events (they drain before the install and resume after), but
  /// not against another install through the same hint.
  const AllocationPlan& install_plan(const DemandMatrix& demand,
                                     SimTime plan_start_s, SimTime now,
                                     PlanLpHint* hint = nullptr);

  /// Monotone epoch bumped by every plan publication (build_allocation_plan
  /// and install_plan). Readers use it to detect that a re-plan landed
  /// without taking the swap lock.
  [[nodiscard]] std::uint64_t plan_epoch() const {
    return plan_epoch_.load(std::memory_order_acquire);
  }

  /// Realtime events (§5.4). call_started returns the initial DC. Each
  /// event is one body: selector call, KV write, sb.realtime.* counters.
  DcId call_started(CallId call, LocationId first_joiner, SimTime now);
  /// `id_hint`, when valid, must be the registry id for `config`; drivers
  /// that already hold the interned id (the simulator's replay engines)
  /// pass it so the selector skips the full-config hash lookup.
  FreezeResult config_frozen(CallId call, const CallConfig& config,
                             SimTime now, ConfigId id_hint = ConfigId());
  void call_ended(CallId call, SimTime now);

  // --- Event batches (high-throughput drivers) ---
  //
  // Outside a batch an event takes swap_mutex_ shared for its selector
  // call only (the KV write follows unlocked), opens a ctl.* span and
  // records its sb.realtime.*_latency_s histogram. Taking and dropping the
  // lock shared each write only the thread's own reader slot (and read the
  // writer flag), so readers no longer contend on one cache line; the span
  // and histogram stay per-event costs. A batched driver brackets a run of
  // events with lock_events_shared() and unlock_events_shared(): one shared
  // acquisition per batch, and the thread is marked as batching on this
  // controller, so its events here skip the lock, span and histogram (the
  // driver times whole batches).
  // Batches do not nest; close one before parking at any barrier. On a
  // batching thread every other method that takes swap_mutex_ (provision,
  // plan builds and installs, drains, defrag, the read passthroughs)
  // throws InvalidArgument instead of self-deadlocking.
  void lock_events_shared() const;
  void unlock_events_shared() const;
  /// True while the calling thread holds an event batch on this controller.
  [[nodiscard]] bool in_event_batch() const;

  /// Fault events (DESIGN.md "Failure model & runtime failover"). dc_failed
  /// marks the DC down in the health table (so no new call lands there) and
  /// then drains its live calls through the selector in bounded batches,
  /// re-homing onto surviving plan slots and provisioned backup capacity —
  /// the per-DC serving+backup budgets from the last provision() — and
  /// dropping calls only when backup is truly exhausted. Returns who moved
  /// where and who was dropped; KV state for affected calls is rewritten
  /// after the drain. A dropped call is torn down completely (its state is
  /// erased) — the caller must not deliver its later call_ended event.
  /// Thread-safe against concurrent realtime events.
  fault::FailoverOutcome dc_failed(DcId dc, SimTime now);
  /// Marks the DC healthy again; new calls may land there immediately.
  /// Live calls are not migrated back (the paper's MP selection is sticky;
  /// the next plan rebuild naturally repopulates the DC).
  void dc_recovered(DcId dc, SimTime now);
  /// Link faults only gate placement (the selector avoids DCs whose WAN
  /// path from the first joiner crosses a down link); no drain.
  void link_failed(LinkId link, SimTime now);
  void link_recovered(LinkId link, SimTime now);
  /// Media-server faults (DESIGN.md "Server packing layer"): server_failed
  /// marks the server down, then drains its calls tier by tier — bounded
  /// re-pack onto up siblings first (DC quota untouched), then the cross-DC
  /// quota/backup tiers a DC drain uses, then overcommit onto the least
  /// loaded up sibling, dropping only when every tier is exhausted. Only
  /// valid when the World has a fleet.
  fault::FailoverOutcome server_failed(ServerId server, SimTime now);
  /// Marks the server healthy; calls drift back on future admits (sticky,
  /// like dc_recovered). Runs no migration.
  void server_recovered(ServerId server, SimTime now);
  /// Intra-DC defragmentation pass (offline best-fit-decreasing re-pack of
  /// `dc`'s calls, applied move by move under the shard locks). No-op
  /// without a fleet.
  pack::DefragResult defragment_dc(DcId dc, std::size_t max_moves = 1024);
  /// Lock-free availability table consulted by the realtime hot path; the
  /// simulator's fault weaving reads it too.
  [[nodiscard]] const fault::HealthTable& health() const { return *health_; }
  /// Mutable view for the sb_cluster layer, which flips the worker rows
  /// sized by ControllerOptions::worker_rows. Media-plane rows (DCs, links,
  /// servers) must only be flipped through the fault event methods above.
  [[nodiscard]] fault::HealthTable& health_mut() { return *health_; }

  // --- Crash-recovery passthroughs (sb_cluster; see RealtimeSelector) ---
  // Shared-lock wrappers so the cluster layer can snapshot, drop, and
  // replay controller-side call rows against the live selector without
  // racing a plan swap.
  [[nodiscard]] std::optional<RealtimeSelector::CallSnapshot> snapshot_call(
      CallId call) const;
  std::size_t drop_shards(std::size_t shard_begin, std::size_t shard_end);
  void adopt_call(CallId call, const RealtimeSelector::CallSnapshot& snap);
  /// Shard count of the live selector (the cluster layer partitions these
  /// shards into contiguous per-worker ranges).
  [[nodiscard]] std::size_t realtime_shard_count() const;

  [[nodiscard]] RealtimeSelector::Stats realtime_stats() const;
  /// Plan slots currently held by the live selector (sum of the atomic
  /// quota-usage table). Zero at quiescence — the sb_check conservation
  /// oracle asserts exactly that after every run.
  [[nodiscard]] std::uint64_t held_slots() const;
  /// Calls currently tracked by the live selector (exact when quiescent).
  [[nodiscard]] std::size_t active_calls() const;
  [[nodiscard]] const std::optional<ProvisionResult>& provision_result() const {
    return provision_result_;
  }
  [[nodiscard]] double freeze_delay_s() const {
    return options_.realtime.freeze_delay_s;
  }
  /// Live packer of the current selector, or null without a fleet. The
  /// pointer is invalidated by the next plan rebuild — snapshot stats, do
  /// not hold it across build_allocation_plan().
  [[nodiscard]] const pack::ServerPacker* packer() const;

  /// Attaches a state store; subsequent realtime events persist call state
  /// (writes happen outside the selector lock so they overlap).
  void attach_store(KvStore* store) { store_ = store; }

 private:
  class EventScope;

  /// Throws InvalidArgument when the calling thread holds an event batch on
  /// this controller: `what` would take swap_mutex_ a second time.
  void require_no_batch(const char* what) const;
  /// The shared tail of dc_failed/server_failed: runs `drain` under the
  /// shared swap lock with the provisioned per-DC budgets, then rewrites
  /// the KV state of moved/dropped calls and counts the outcome.
  template <typename Drain>
  fault::FailoverOutcome drain_and_record(obs::Span& span, Drain&& drain);

  /// sb.realtime.* / sb.provisioner.* handles, resolved once at controller
  /// construction so the concurrent event path never does a name lookup.
  struct Metrics {
    obs::Counter& calls_started;
    obs::Counter& configs_frozen;
    obs::Counter& calls_ended;
    obs::Counter& migrations;
    obs::Counter& unplanned;
    obs::Histogram& start_latency_s;
    obs::Histogram& freeze_latency_s;
    obs::Histogram& end_latency_s;
    obs::Histogram& provision_s;
    obs::Histogram& allocation_plan_s;
    obs::Counter& dc_failures;
    obs::Counter& dc_recoveries;
    obs::Counter& link_failures;
    obs::Counter& link_recoveries;
    obs::Counter& failover_migrations;
    obs::Counter& dropped_calls;
    obs::Histogram& drain_s;
    obs::Histogram& recovery_s;
    obs::Counter& server_failures;
    obs::Counter& server_recoveries;
    obs::Counter& defrag_moves;
    Metrics();
  };

  EvalContext ctx_;
  ControllerOptions options_;
  Metrics metrics_;
  std::optional<ProvisionResult> provision_result_;
  std::optional<AllocationPlan> plan_;
  std::unique_ptr<RealtimeSelector> selector_;
  /// Guards installation of a fresh plan: build_allocation_plan (and
  /// provision) publish plan_ / provision_result_ and rebuild selector_
  /// only while holding this exclusively, so the swap waits out every
  /// in-flight event still reading the old plan through the old selector.
  /// Realtime events take it shared, each thread in its own reader slot, so
  /// readers never write a line another reader writes; the selector's own
  /// lock striping provides all per-event synchronization.
  mutable SlottedSharedMutex swap_mutex_;
  /// Owned by the controller, outlives every selector it hands the pointer
  /// to (selector rebuilds reuse the same table, so health state survives
  /// plan swaps).
  std::unique_ptr<fault::HealthTable> health_;
  /// Guards the fail-time bookkeeping below (cold path only).
  std::mutex fault_mutex_;
  std::vector<SimTime> dc_fail_time_;
  std::atomic<std::uint64_t> plan_epoch_{0};
  KvStore* store_ = nullptr;
};

}  // namespace sb
