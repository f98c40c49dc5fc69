// The allocator interface the discrete-event simulator drives, with the
// adapter for the Switchboard controller and the RR/LF baselines. All
// three see the same event stream (call start -> config freeze -> call
// end), which is how §6.4's migration comparison is measured. Switchboard
// runs with or without an allocation plan: a controller that never ran
// provision() serves every call from its plan-less closest-DC selector.
// Fault events (DC/link/server down/up from a fault::FaultSchedule) flow
// through the optional on_* fault hooks; schemes that ignore them simply
// keep placing calls on dead DCs.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "core/controller.h"
#include "core/realtime.h"
#include "fault/failover.h"

namespace sb {

/// Per-call allocation decisions a scheme makes during simulation.
///
/// Thread safety: Simulator::run drives an allocator from one thread;
/// Simulator::run_concurrent issues events for *different* calls from many
/// threads at once (same-call events keep single-thread affinity via shard
/// partitioning). Only the internally synchronized ControllerAllocator
/// (over the lock-striped realtime selector) may be driven concurrently;
/// the RR/LF baselines are single-threaded only.
/// Fault hooks are invoked with every driver thread quiesced (the
/// simulator's fault barrier), so they never race call events.
class CallAllocator {
 public:
  virtual ~CallAllocator() = default;

  /// Batch brackets from the simulator: a replay thread surrounds each run
  /// of call events with batch_begin()/batch_end(now), where `now` is the
  /// time of the batch's last event. Defaults are no-ops (baselines).
  /// ControllerAllocator maps them onto the controller's
  /// event batch, amortizing its plan-swap shared lock over the whole
  /// batch, and the closed-loop AdaptiveController runs its re-plan tick in
  /// batch_end — after the batch is closed, so the install's exclusive
  /// acquisition cannot deadlock against the caller. The simulator
  /// guarantees a batch never spans a fault barrier.
  virtual void batch_begin() {}
  virtual void batch_end(SimTime /*now*/) {}

  /// A call starts with its first joiner; returns the initial DC.
  virtual DcId on_call_start(CallId call, LocationId first_joiner,
                             SimTime now) = 0;

  /// The config freezes A seconds in; may migrate the call.
  virtual FreezeResult on_config_frozen(CallId call, const CallConfig& config,
                                        SimTime now) = 0;

  /// Freeze overload for drivers that already hold the config's interned
  /// id (the simulator resolves every record's ConfigId up front). `id`,
  /// when valid, must be the registry's id for `config`; the default
  /// ignores it, plan-aware schemes forward it so the selector skips the
  /// full-config hash lookup on its hot path.
  virtual FreezeResult on_config_frozen(CallId call, ConfigId id,
                                        const CallConfig& config,
                                        SimTime now) {
    (void)id;
    return on_config_frozen(call, config, now);
  }

  virtual void on_call_end(CallId call, SimTime now) = 0;

  /// Fault hooks; defaults ignore the fault entirely (RR keeps round-
  /// robining onto the dead DC — the §3.1 strawman has no failover story).
  /// on_dc_failed reports which live calls moved where and which dropped so
  /// the simulator can re-point its usage accounting.
  virtual fault::FailoverOutcome on_dc_failed(DcId /*dc*/, SimTime /*now*/) {
    return {};
  }
  virtual void on_dc_recovered(DcId /*dc*/, SimTime /*now*/) {}
  virtual void on_link_failed(LinkId /*link*/, SimTime /*now*/) {}
  virtual void on_link_recovered(LinkId /*link*/, SimTime /*now*/) {}
  /// Media-server faults (fleet-aware schemes only; baselines have no
  /// server notion and ignore them).
  virtual fault::FailoverOutcome on_server_failed(ServerId /*server*/,
                                                  SimTime /*now*/) {
    return {};
  }
  virtual void on_server_recovered(ServerId /*server*/, SimTime /*now*/) {}
  /// Controller-worker crash/restart (sb_cluster HA only). A worker kill is
  /// invisible to the media plane — calls keep running, nothing moves or
  /// drops — so the default (and the returned outcome) is empty; the
  /// cluster allocator overrides these to drop and re-adopt shard state.
  virtual fault::FailoverOutcome on_worker_failed(WorkerId /*worker*/,
                                                  SimTime /*now*/) {
    return {};
  }
  virtual void on_worker_recovered(WorkerId /*worker*/, SimTime /*now*/) {}

  [[nodiscard]] virtual std::string name() const = 0;
};

/// Adapter over the Switchboard controller (selector + KV persistence +
/// health table + provisioned backup budgets). Forwards every hook 1:1;
/// the batch brackets open and close a controller event batch, inside
/// which the controller's own event methods skip their per-event lock.
/// The controller computes failover budgets from its own provision result
/// (none before provision(): drains then never capacity-drop), so this is
/// the end-to-end configuration the §5.3 failover bench drives.
class ControllerAllocator : public CallAllocator {
 public:
  /// Borrows the controller; it must outlive the allocator.
  explicit ControllerAllocator(Switchboard& controller)
      : controller_(&controller) {}

  void batch_begin() override { controller_->lock_events_shared(); }
  void batch_end(SimTime /*now*/) override {
    controller_->unlock_events_shared();
  }
  DcId on_call_start(CallId call, LocationId first_joiner,
                     SimTime now) override {
    return controller_->call_started(call, first_joiner, now);
  }
  FreezeResult on_config_frozen(CallId call, const CallConfig& config,
                                SimTime now) override {
    return controller_->config_frozen(call, config, now);
  }
  FreezeResult on_config_frozen(CallId call, ConfigId id,
                                const CallConfig& config,
                                SimTime now) override {
    return controller_->config_frozen(call, config, now, id);
  }
  void on_call_end(CallId call, SimTime now) override {
    controller_->call_ended(call, now);
  }
  fault::FailoverOutcome on_dc_failed(DcId dc, SimTime now) override {
    return controller_->dc_failed(dc, now);
  }
  void on_dc_recovered(DcId dc, SimTime now) override {
    controller_->dc_recovered(dc, now);
  }
  void on_link_failed(LinkId link, SimTime now) override {
    controller_->link_failed(link, now);
  }
  void on_link_recovered(LinkId link, SimTime now) override {
    controller_->link_recovered(link, now);
  }
  fault::FailoverOutcome on_server_failed(ServerId server,
                                          SimTime now) override {
    return controller_->server_failed(server, now);
  }
  void on_server_recovered(ServerId server, SimTime now) override {
    controller_->server_recovered(server, now);
  }
  [[nodiscard]] std::string name() const override { return "switchboard"; }

 private:
  Switchboard* controller_;
};

/// §3.1 Round-Robin: cycles a per-region counter over the region's DCs at
/// call start; never migrates (the spread, not the config, drives RR).
class RoundRobinAllocator : public CallAllocator {
 public:
  explicit RoundRobinAllocator(EvalContext ctx);

  DcId on_call_start(CallId call, LocationId first_joiner,
                     SimTime now) override;
  FreezeResult on_config_frozen(CallId call, const CallConfig& config,
                                SimTime now) override;
  void on_call_end(CallId call, SimTime now) override;
  [[nodiscard]] std::string name() const override { return "round-robin"; }

 private:
  EvalContext ctx_;
  /// Region membership and DC lists resolved once at construction: call
  /// start is two vector indexes, not a string hash + map lookup per call.
  std::vector<std::size_t> location_region_;   ///< LocationId -> region index
  std::vector<std::vector<DcId>> region_dcs_;  ///< region index -> its DCs
  std::vector<std::size_t> region_cursor_;     ///< region index -> RR cursor
  std::unordered_map<CallId, DcId> active_;
};

/// §3.2 Locality-First: closest DC to the first joiner, then migrates to
/// the config's min-ACL DC at freeze time ("requires knowing the exact
/// spread of all participants", §6.4). On a DC failure it re-homes the
/// dead DC's calls to the closest surviving DC — with no provisioned
/// backup pool, it never drops a call but freely overruns whatever
/// capacity the surviving DCs were given (the §5.3 bench's contrast).
class LocalityFirstAllocator : public CallAllocator {
 public:
  explicit LocalityFirstAllocator(EvalContext ctx);

  DcId on_call_start(CallId call, LocationId first_joiner,
                     SimTime now) override;
  FreezeResult on_config_frozen(CallId call, const CallConfig& config,
                                SimTime now) override;
  void on_call_end(CallId call, SimTime now) override;
  fault::FailoverOutcome on_dc_failed(DcId dc, SimTime now) override;
  void on_dc_recovered(DcId dc, SimTime now) override;
  [[nodiscard]] std::string name() const override { return "locality-first"; }

  [[nodiscard]] std::uint64_t migrations() const { return migrations_; }

 private:
  struct Active {
    DcId dc;
    LocationId first_joiner;
  };
  [[nodiscard]] bool dc_up(DcId dc) const { return dc_down_[dc.value()] == 0; }
  [[nodiscard]] std::vector<DcId> up_dcs() const;

  EvalContext ctx_;
  std::vector<DcId> all_dcs_;
  std::vector<std::uint8_t> dc_down_;
  std::unordered_map<CallId, Active> active_;
  std::uint64_t migrations_ = 0;
};

}  // namespace sb
