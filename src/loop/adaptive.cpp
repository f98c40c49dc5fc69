#include "loop/adaptive.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "common/error.h"
#include "obs/timer.h"
#include "obs/timeseries.h"

namespace sb::loop {

namespace {
constexpr std::uint32_t kNoCol = std::numeric_limits<std::uint32_t>::max();
/// Clamp on the per-config correction ratio observed/forecast, bounding how
/// hard one tick can rescale the demand matrix.
constexpr double kRatioFloor = 0.25;
constexpr double kRatioCap = 8.0;
}  // namespace

AdaptiveController::AdaptiveController(Switchboard& sb, EvalContext ctx,
                                       DemandMatrix forecast,
                                       SimTime plan_start_s, double slot_s,
                                       LoopOptions options,
                                       obs::TimeSeriesRecorder* recorder)
    : ControllerAllocator(sb),
      sb_(&sb),
      ctx_(ctx),
      plan_start_s_(plan_start_s),
      slot_s_(slot_s),
      options_(options),
      recorder_(recorder),
      forecast_(std::move(forecast)),
      next_due_(plan_start_s + options.cadence_s),
      observed_gauge_(
          obs::MetricsRegistry::global().gauge("sb.loop.observed_calls")),
      tick_counter_(obs::MetricsRegistry::global().counter("sb.loop.ticks")),
      trigger_counter_(
          obs::MetricsRegistry::global().counter("sb.loop.triggers")),
      replan_counter_(
          obs::MetricsRegistry::global().counter("sb.loop.replans")),
      tick_s_(obs::MetricsRegistry::global().histogram("sb.loop.tick_s")) {
  require(ctx_.registry != nullptr, "AdaptiveController: incomplete context");
  require(options_.cadence_s > 0.0, "AdaptiveController: cadence");
  require(slot_s_ > 0.0, "AdaptiveController: slot width");
  require(sb_->provision_result().has_value(),
          "AdaptiveController: controller has no provision result");
  for (std::size_t col = 0; col < forecast_.config_count(); ++col) {
    col_of_.emplace(forecast_.config_at(col), static_cast<std::uint32_t>(col));
  }
  observed_ =
      std::make_unique<std::atomic<std::int64_t>[]>(forecast_.config_count());
  for (std::size_t col = 0; col < forecast_.config_count(); ++col) {
    observed_[col].store(0, std::memory_order_relaxed);
  }
}

void AdaptiveController::batch_end(SimTime now) {
  ControllerAllocator::batch_end(now);
  // The batch (and its shared plan lock) is closed, so a tick here can take
  // the exclusive lock without deadlocking against ourselves.
  maybe_tick(now);
}

FreezeResult AdaptiveController::on_config_frozen(CallId call,
                                                  const CallConfig& config,
                                                  SimTime now) {
  return on_config_frozen(call, ctx_.registry->find(config), config, now);
}

FreezeResult AdaptiveController::on_config_frozen(CallId call, ConfigId id,
                                                  const CallConfig& config,
                                                  SimTime now) {
  const FreezeResult result =
      ControllerAllocator::on_config_frozen(call, id, config, now);
  track_freeze(call, id);
  return result;
}

void AdaptiveController::on_call_end(CallId call, SimTime now) {
  ControllerAllocator::on_call_end(call, now);
  untrack(call);
}

fault::FailoverOutcome AdaptiveController::on_dc_failed(DcId dc, SimTime now) {
  fault::FailoverOutcome outcome = ControllerAllocator::on_dc_failed(dc, now);
  untrack_outcome(outcome);
  return outcome;
}

fault::FailoverOutcome AdaptiveController::on_server_failed(ServerId server,
                                                            SimTime now) {
  fault::FailoverOutcome outcome =
      ControllerAllocator::on_server_failed(server, now);
  untrack_outcome(outcome);
  return outcome;
}

LoopStats AdaptiveController::stats() const {
  return {ticks_.load(std::memory_order_relaxed),
          triggers_.load(std::memory_order_relaxed),
          replans_.load(std::memory_order_relaxed),
          solve_errors_.load(std::memory_order_relaxed)};
}

DemandMatrix AdaptiveController::current_forecast() const {
  std::lock_guard lock(tick_mutex_);
  return forecast_;
}

double AdaptiveController::observed_total() const {
  double total = 0.0;
  for (std::size_t col = 0; col < forecast_.config_count(); ++col) {
    total += static_cast<double>(observed_[col].load(std::memory_order_relaxed));
  }
  return total;
}

void AdaptiveController::track_freeze(CallId call, ConfigId id) {
  std::uint32_t col = kNoCol;
  if (id.valid()) {
    const auto it = col_of_.find(id);
    if (it != col_of_.end()) col = it->second;
  }
  if (col == kNoCol) return;  // config outside the forecast: not observed
  observed_[col].fetch_add(1, std::memory_order_relaxed);
  TrackShard& shard = track_[call.value() % kTrackShards];
  std::lock_guard lock(shard.mutex);
  shard.col_of_call[call] = col;
}

void AdaptiveController::untrack(CallId call) {
  TrackShard& shard = track_[call.value() % kTrackShards];
  std::uint32_t col = kNoCol;
  {
    std::lock_guard lock(shard.mutex);
    const auto it = shard.col_of_call.find(call);
    if (it == shard.col_of_call.end()) return;  // never frozen / untracked
    col = it->second;
    shard.col_of_call.erase(it);
  }
  observed_[col].fetch_sub(1, std::memory_order_relaxed);
}

void AdaptiveController::untrack_outcome(const fault::FailoverOutcome& outcome) {
  // Dropped calls get no on_call_end from the simulator; release their
  // observation here so the live count cannot drift upward across faults.
  for (CallId dropped : outcome.dropped) untrack(dropped);
}

TimeSlot AdaptiveController::slot_of(SimTime now) const {
  const double offset = std::max(0.0, now - plan_start_s_);
  const auto slot = static_cast<std::size_t>(offset / slot_s_);
  const std::size_t last = forecast_.slot_count() == 0
                               ? 0
                               : forecast_.slot_count() - 1;
  return static_cast<TimeSlot>(std::min(slot, last));
}

void AdaptiveController::maybe_tick(SimTime now) {
  if (now < next_due_.load(std::memory_order_relaxed)) return;
  // try_lock: if a peer thread is mid-tick, this cadence point is theirs;
  // blocking the replay behind a provisioning solve would serialize the
  // whole pool for no benefit.
  std::unique_lock lock(tick_mutex_, std::try_to_lock);
  if (!lock.owns_lock()) return;
  if (now < next_due_.load(std::memory_order_relaxed)) return;
  tick(now);
  double due = next_due_.load(std::memory_order_relaxed);
  while (due <= now) due += options_.cadence_s;
  next_due_.store(due, std::memory_order_relaxed);
}

void AdaptiveController::tick(SimTime now) {
  obs::ScopedTimer timer(tick_s_);
  ticks_.fetch_add(1, std::memory_order_relaxed);
  tick_counter_.inc();

  // Publish the shadow observation, cut a telemetry sample at this sim
  // time, and read the signal back THROUGH the recorder feed — the loop
  // consumes the same time series any offline consumer sees. With metrics
  // compiled out (or no recorder attached) the feed reads 0 and the shadow
  // value stands in.
  double observed = observed_total();
  observed_gauge_.set(observed);
  if (recorder_ != nullptr) {
    recorder_->force_sample(now);
    const double fed = recorder_->last("gauge:sb.loop.observed_calls");
    if (fed > 0.0) observed = fed;
  }

  const TimeSlot slot = slot_of(now);
  double forecast_total = 0.0;
  for (std::size_t col = 0; col < forecast_.config_count(); ++col) {
    forecast_total += forecast_.demand(slot, col);
  }
  const double deviation =
      std::abs(observed - forecast_total) / std::max(forecast_total, 1.0);
  if (deviation <= options_.deviation_band) return;

  triggers_.fetch_add(1, std::memory_order_relaxed);
  trigger_counter_.inc();
  if (options_.chaos_skip_replan) return;  // planted bug: trigger, no replan

  DemandMatrix corrected = corrected_demand(slot);
  try {
    sb_->provision(corrected, &warm_basis_, &warm_basis_);
    sb_->install_plan(corrected, plan_start_s_, now, &plan_hint_);
  } catch (const SolveError&) {
    // A corrected demand the scenario LPs cannot serve (capacity ceiling):
    // keep the old plan and forecast, try again next out-of-band tick.
    solve_errors_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  replans_.fetch_add(1, std::memory_order_relaxed);
  replan_counter_.inc();
  // Future deviation is measured against what we just installed, so a
  // correctly-sized correction silences the loop (no thrash).
  forecast_ = std::move(corrected);
}

DemandMatrix AdaptiveController::corrected_demand(TimeSlot slot) const {
  DemandMatrix out = forecast_;
  for (std::size_t col = 0; col < forecast_.config_count(); ++col) {
    const double obs =
        static_cast<double>(observed_[col].load(std::memory_order_relaxed));
    const double fc = forecast_.demand(slot, col);
    double ratio;
    if (fc > 1e-9) {
      ratio = obs / fc;
    } else {
      ratio = obs > 0.0 ? kRatioCap : 1.0;
    }
    ratio = std::clamp(ratio, kRatioFloor, kRatioCap);
    for (TimeSlot t = slot; t < forecast_.slot_count(); ++t) {
      const double scaled = forecast_.demand(t, col) * ratio;
      // The current slot floors at what is live right now: capacity must
      // cover the calls already admitted, whatever the forecast said.
      out.set_demand(t, col, t == slot ? std::max(scaled, obs) : scaled);
    }
  }
  return out;
}

}  // namespace sb::loop
