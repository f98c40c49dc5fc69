// Closed-loop autoscaling (ROADMAP "closed-loop control"): an
// AdaptiveController wraps the Switchboard facade as a CallAllocator,
// tracks observed per-config concurrency as the trace replays, and on a
// sim-time cadence compares it against the forecast the plan was built
// from. Re-provisioning is ERROR-TRIGGERED: only when the aggregate
// relative deviation leaves the configured band does the loop build a
// corrected demand matrix (forecast rescaled toward the observation,
// floored at what is live right now), re-run capacity provisioning with a
// warm-started F0 LP, and install the new plan into the live selector
// through Switchboard::install_plan — calls never move, their slot
// accounting re-binds. When observation matches forecast, the loop is
// silent: zero triggers, zero replans (the property tests pin this).
//
// The loop reads its signal through the obs::TimeSeriesRecorder feed (the
// same telemetry offline consumers see), falling back to its own shadow
// counters when metrics are compiled out or no recorder is attached.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "calls/demand.h"
#include "core/controller.h"
#include "sim/allocator.h"

namespace sb::obs {
class TimeSeriesRecorder;
}  // namespace sb::obs

namespace sb::loop {

struct LoopOptions {
  /// Sim-time spacing between control ticks.
  double cadence_s = 300.0;
  /// Relative deviation |observed - forecast| / max(forecast, 1) that must
  /// be exceeded before the loop re-provisions. Inside the band the tick is
  /// a no-op (no plan-thrash on steady traces).
  double deviation_band = 0.25;
  /// TEST-ONLY chaos knob (sb_fuzz --chaos skip-replan): the tick counts
  /// the out-of-band trigger but silently drops the re-provision — the
  /// planted bug the loop-replan oracle must catch. Never set in
  /// production configurations.
  bool chaos_skip_replan = false;
};

struct LoopStats {
  std::uint64_t ticks = 0;      ///< cadence points evaluated
  std::uint64_t triggers = 0;   ///< ticks whose deviation left the band
  std::uint64_t replans = 0;    ///< provisions + installs actually executed
  std::uint64_t solve_errors = 0;  ///< triggers whose re-provision LP failed
};

/// A ControllerAllocator over a Switchboard that also maintains observed
/// per-config concurrency and runs the control tick at cadence points.
/// The tick runs only from batch_end(), after the batch and its shared
/// plan lock are closed, so install_plan's exclusive acquisition can always
/// drain the readers; the Simulator brackets every call event in a batch.
/// Thread-safe under the same contract as the Switchboard realtime API.
class AdaptiveController : public ControllerAllocator {
 public:
  /// `sb` must have provision() + build_allocation_plan() already run from
  /// `forecast` (the open-loop plan the trace starts under); `plan_start_s`
  /// is that plan's anchor and `slot_s` its slot width. All borrowed
  /// references must outlive the controller.
  AdaptiveController(Switchboard& sb, EvalContext ctx, DemandMatrix forecast,
                     SimTime plan_start_s, double slot_s, LoopOptions options,
                     obs::TimeSeriesRecorder* recorder = nullptr);

  void batch_end(SimTime now) override;
  FreezeResult on_config_frozen(CallId call, const CallConfig& config,
                                SimTime now) override;
  FreezeResult on_config_frozen(CallId call, ConfigId id,
                                const CallConfig& config,
                                SimTime now) override;
  void on_call_end(CallId call, SimTime now) override;
  fault::FailoverOutcome on_dc_failed(DcId dc, SimTime now) override;
  fault::FailoverOutcome on_server_failed(ServerId server,
                                          SimTime now) override;
  [[nodiscard]] std::string name() const override {
    return "switchboard-loop";
  }

  [[nodiscard]] LoopStats stats() const;
  /// The demand matrix the loop currently believes (the initial forecast
  /// until the first replan, the last corrected matrix after).
  [[nodiscard]] DemandMatrix current_forecast() const;
  /// Sum of live observed per-config concurrency (frozen calls only — the
  /// config is unknown before the freeze).
  [[nodiscard]] double observed_total() const;

 private:
  static constexpr std::size_t kTrackShards = 16;
  struct TrackShard {
    std::mutex mutex;
    std::unordered_map<CallId, std::uint32_t> col_of_call;
  };

  void maybe_tick(SimTime now);
  void tick(SimTime now);
  [[nodiscard]] TimeSlot slot_of(SimTime now) const;
  [[nodiscard]] DemandMatrix corrected_demand(TimeSlot slot) const;
  void track_freeze(CallId call, ConfigId id);
  void untrack(CallId call);
  void untrack_outcome(const fault::FailoverOutcome& outcome);

  Switchboard* sb_;
  EvalContext ctx_;
  SimTime plan_start_s_;
  double slot_s_;
  LoopOptions options_;
  obs::TimeSeriesRecorder* recorder_;

  /// Loop-believed demand; replaced by the corrected matrix on every
  /// replan so deviation is always measured against the installed plan's
  /// demand (guarded by tick_mutex_).
  DemandMatrix forecast_;
  std::unordered_map<ConfigId, std::uint32_t> col_of_;
  std::unique_ptr<std::atomic<std::int64_t>[]> observed_;
  TrackShard track_[kTrackShards];

  mutable std::mutex tick_mutex_;
  std::atomic<double> next_due_;
  /// Every scenario's retained LP and basis, passed to provision() as both
  /// its input and its output hint, so each replan re-solves the previous
  /// replan's models in place (guarded by tick_mutex_). Empty until the
  /// first replan, which therefore provisions cold.
  ScenarioBasisHint warm_basis_;
  /// Every slot's retained Eq 10 LP, passed to install_plan so each replan
  /// re-solves the previous replan's slot LPs in place (guarded by
  /// tick_mutex_). The loop owns it rather than the Switchboard, so plans
  /// built outside the loop keep no LPs alive.
  PlanLpHint plan_hint_;

  std::atomic<std::uint64_t> ticks_{0};
  std::atomic<std::uint64_t> triggers_{0};
  std::atomic<std::uint64_t> replans_{0};
  std::atomic<std::uint64_t> solve_errors_{0};

  obs::Gauge& observed_gauge_;
  obs::Counter& tick_counter_;
  obs::Counter& trigger_counter_;
  obs::Counter& replan_counter_;
  obs::Histogram& tick_s_;
};

}  // namespace sb::loop
