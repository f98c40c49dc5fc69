#include "core/controller.h"

#include <shared_mutex>
#include <string>

#include "common/error.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace sb {

namespace {

/// The controller the calling thread holds an event batch on (null when it
/// holds none) — the one batch flag of the realtime event path.
thread_local const Switchboard* t_event_batch = nullptr;

/// KV key holding a live call's hosting DC.
std::string dc_key(CallId call) {
  return "call:" + std::to_string(call.value()) + ":dc";
}

}  // namespace

/// Per-event bracket. Outside a batch it opens the event's ctl.* span,
/// starts its latency timer and takes swap_mutex_ shared, in that order;
/// inside a batch on this controller it does none of them (the batch
/// already holds the lock and its driver times whole batches).
class Switchboard::EventScope {
 public:
  EventScope(const Switchboard& sb, const char* span_name,
             obs::Histogram& latency, CallId call, SimTime now)
      : lock_(sb.swap_mutex_, std::defer_lock) {
    if (sb.in_event_batch()) return;
    span_.emplace(span_name, obs::Subsystem::kController, now);
    span_->attr(obs::AttrKey::kCallId,
                static_cast<std::int64_t>(call.value()));
    timer_.emplace(latency);
    lock_.lock();
  }

  /// Releases the per-event lock once the selector call is done, so ~ms KV
  /// round trips overlap freely across threads; span and timer run on.
  void unlock() {
    if (lock_.owns_lock()) lock_.unlock();
  }

 private:
  std::optional<obs::Span> span_;
  std::optional<obs::ScopedTimer> timer_;
  std::shared_lock<SlottedSharedMutex> lock_;
};

Switchboard::Metrics::Metrics()
    : calls_started(
          obs::MetricsRegistry::global().counter("sb.realtime.calls_started")),
      configs_frozen(
          obs::MetricsRegistry::global().counter("sb.realtime.configs_frozen")),
      calls_ended(
          obs::MetricsRegistry::global().counter("sb.realtime.calls_ended")),
      migrations(
          obs::MetricsRegistry::global().counter("sb.realtime.migrations")),
      unplanned(
          obs::MetricsRegistry::global().counter("sb.realtime.unplanned")),
      start_latency_s(obs::MetricsRegistry::global().histogram(
          "sb.realtime.start_latency_s")),
      freeze_latency_s(obs::MetricsRegistry::global().histogram(
          "sb.realtime.freeze_latency_s")),
      end_latency_s(obs::MetricsRegistry::global().histogram(
          "sb.realtime.end_latency_s")),
      provision_s(obs::MetricsRegistry::global().histogram(
          "sb.provisioner.provision_s")),
      allocation_plan_s(obs::MetricsRegistry::global().histogram(
          "sb.provisioner.allocation_plan_s")),
      dc_failures(obs::MetricsRegistry::global().counter("sb.fault.dc_failures")),
      dc_recoveries(
          obs::MetricsRegistry::global().counter("sb.fault.dc_recoveries")),
      link_failures(
          obs::MetricsRegistry::global().counter("sb.fault.link_failures")),
      link_recoveries(
          obs::MetricsRegistry::global().counter("sb.fault.link_recoveries")),
      failover_migrations(obs::MetricsRegistry::global().counter(
          "sb.fault.failover_migrations")),
      dropped_calls(
          obs::MetricsRegistry::global().counter("sb.fault.dropped_calls")),
      drain_s(obs::MetricsRegistry::global().histogram("sb.fault.drain_s")),
      // Outage durations span seconds to days; the default 100 s ceiling
      // would shove every realistic outage into the overflow bucket.
      recovery_s(obs::MetricsRegistry::global().histogram(
          "sb.fault.recovery_s", {.min = 1.0, .max = 1e6, .bucket_count = 60})),
      server_failures(
          obs::MetricsRegistry::global().counter("sb.pack.server_failures")),
      server_recoveries(
          obs::MetricsRegistry::global().counter("sb.pack.server_recoveries")),
      defrag_moves(
          obs::MetricsRegistry::global().counter("sb.pack.defrag_moves")) {}

Switchboard::Switchboard(EvalContext ctx, ControllerOptions options)
    : ctx_(ctx), options_(options) {
  require(ctx_.world && ctx_.topology && ctx_.latency && ctx_.registry &&
              ctx_.loads,
          "Switchboard: incomplete context");
  health_ = std::make_unique<fault::HealthTable>(
      ctx_.world->dc_count(), ctx_.topology->link_count(),
      ctx_.world->server_count(), options_.worker_rows);
  dc_fail_time_.assign(ctx_.world->dc_count(), -1.0);
  // Realtime service is available before any plan exists: the selector then
  // runs pure closest-DC assignment.
  selector_ = std::make_unique<RealtimeSelector>(
      ctx_, nullptr, options_.realtime, 0.0, health_.get());
}

const ProvisionResult& Switchboard::provision(const DemandMatrix& demand,
                                              const ScenarioBasisHint* warm,
                                              ScenarioBasisHint* basis_out) {
  require_no_batch("provision");
  require(warm == nullptr || warm == basis_out,
          "provision: a warm hint must also be the output hint");
  obs::Span span("ctl.provision", obs::Subsystem::kController);
  obs::ScopedTimer timer(metrics_.provision_s);
  // The provisioner reads and writes one hint in place: an output hint
  // without a warm one starts empty, which gives a cold provision that
  // fills it.
  if (warm == nullptr && basis_out != nullptr) basis_out->scenarios.clear();
  SwitchboardProvisioner provisioner(ctx_, options_.provision);
  ProvisionResult result = provisioner.provision(demand, basis_out);
  // Publish under the exclusive lock so a caller overlapping realtime
  // events never mutates state a reader could be observing.
  std::unique_lock lock(swap_mutex_);
  provision_result_ = std::move(result);
  return *provision_result_;
}

const AllocationPlan& Switchboard::build_allocation_plan(
    const DemandMatrix& demand, SimTime plan_start_s) {
  require(provision_result_.has_value(),
          "build_allocation_plan: call provision() first");
  require_no_batch("build_allocation_plan");
  obs::ScopedTimer timer(metrics_.allocation_plan_s);
  obs::Span span("ctl.plan_rebuild", obs::Subsystem::kController,
                 plan_start_s);
  AllocationPlanner planner(ctx_, options_.allocation);
  // Plan into a local first: the live selector dereferences &*plan_, so
  // plan_ may only be reassigned once the exclusive lock has drained every
  // in-flight event holding swap_mutex_ shared. The selector rebuild must
  // happen under the same critical section so no reader ever sees the new
  // plan paired with the old selector (or vice versa).
  AllocationPlan new_plan =
      planner.plan(demand, provision_result_->capacity, options_.slot_s);
  obs::Span publish("ctl.plan_publish", obs::Subsystem::kController,
                    plan_start_s);
  std::unique_lock lock(swap_mutex_);
  plan_ = std::move(new_plan);
  selector_ = std::make_unique<RealtimeSelector>(
      ctx_, &*plan_, options_.realtime, plan_start_s, health_.get());
  plan_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return *plan_;
}

const AllocationPlan& Switchboard::install_plan(const DemandMatrix& demand,
                                                SimTime plan_start_s,
                                                SimTime now, PlanLpHint* hint) {
  require(provision_result_.has_value(),
          "install_plan: call provision() first");
  require(plan_.has_value(),
          "install_plan: call build_allocation_plan() first");
  require_no_batch("install_plan");
  obs::ScopedTimer timer(metrics_.allocation_plan_s);
  obs::Span span("ctl.plan_install", obs::Subsystem::kController, now);
  AllocationPlanner planner(ctx_, options_.allocation);
  AllocationPlan new_plan = planner.plan(
      demand, provision_result_->capacity, options_.slot_s, hint);
  obs::Span publish("ctl.plan_publish", obs::Subsystem::kController, now);
  std::unique_lock lock(swap_mutex_);
  // Swap the plan in place: the optional's storage (and so the selector's
  // plan pointer) keeps its address, and the old plan stays alive locally
  // so rebind_plan can map old columns to configs.
  AllocationPlan old_plan = std::move(*plan_);
  *plan_ = std::move(new_plan);
  selector_->rebind_plan(old_plan, &*plan_, plan_start_s, now);
  plan_epoch_.fetch_add(1, std::memory_order_acq_rel);
  return *plan_;
}

void Switchboard::lock_events_shared() const {
  if (t_event_batch != nullptr) {
    throw InvalidArgument("lock_events_shared: event batches do not nest");
  }
  swap_mutex_.lock_shared();
  t_event_batch = this;
}

void Switchboard::unlock_events_shared() const {
  if (t_event_batch != this) {
    throw InvalidArgument(
        "unlock_events_shared: no event batch open on this controller");
  }
  t_event_batch = nullptr;
  swap_mutex_.unlock_shared();
}

bool Switchboard::in_event_batch() const { return t_event_batch == this; }

void Switchboard::require_no_batch(const char* what) const {
  if (in_event_batch()) {
    throw InvalidArgument(std::string(what) +
                          ": called inside an event batch on this controller "
                          "(the swap lock is not recursive)");
  }
}

DcId Switchboard::call_started(CallId call, LocationId first_joiner,
                               SimTime now) {
  EventScope scope(*this, "ctl.call_started", metrics_.start_latency_s, call,
                   now);
  const DcId dc = selector_->on_call_start(call, first_joiner, now);
  scope.unlock();
  if (store_) store_->set(dc_key(call), std::to_string(dc.value()));
  metrics_.calls_started.inc();
  return dc;
}

FreezeResult Switchboard::config_frozen(CallId call, const CallConfig& config,
                                        SimTime now, ConfigId id_hint) {
  EventScope scope(*this, "ctl.config_frozen", metrics_.freeze_latency_s, call,
                   now);
  const FreezeResult result =
      selector_->on_config_frozen(call, config, now, id_hint);
  scope.unlock();
  if (store_) store_->set(dc_key(call), std::to_string(result.dc.value()));
  metrics_.configs_frozen.inc();
  if (result.migrated) metrics_.migrations.inc();
  if (!result.planned) metrics_.unplanned.inc();
  return result;
}

void Switchboard::call_ended(CallId call, SimTime now) {
  EventScope scope(*this, "ctl.call_ended", metrics_.end_latency_s, call, now);
  selector_->on_call_end(call, now);
  scope.unlock();
  if (store_) store_->erase(dc_key(call));
  metrics_.calls_ended.inc();
}

template <typename Drain>
fault::FailoverOutcome Switchboard::drain_and_record(obs::Span& span,
                                                     Drain&& drain) {
  // Backup budgets are the provisioned serving+backup cores per surviving
  // DC (§5.3's failure-scenario capacities). No provision yet -> no budget
  // (the drain then never capacity-drops).
  std::vector<double> budget;
  fault::FailoverOutcome outcome;
  {
    std::shared_lock lock(swap_mutex_);
    if (provision_result_.has_value()) {
      const CapacityPlan& cap = provision_result_->capacity;
      budget.reserve(ctx_.world->dc_count());
      for (std::size_t x = 0; x < ctx_.world->dc_count(); ++x) {
        budget.push_back(
            cap.dc_total_cores(DcId(static_cast<std::uint32_t>(x))));
      }
    }
    outcome = drain(budget);
  }
  if (store_) {
    for (const fault::FailoverMove& m : outcome.moved) {
      store_->set(dc_key(m.call), std::to_string(m.to.value()));
    }
    for (CallId c : outcome.dropped) store_->erase(dc_key(c));
  }
  metrics_.failover_migrations.inc(outcome.moved.size());
  metrics_.dropped_calls.inc(outcome.dropped.size());
  span.attr(obs::AttrKey::kMoved,
            static_cast<std::int64_t>(outcome.moved.size()));
  span.attr(obs::AttrKey::kDropped,
            static_cast<std::int64_t>(outcome.dropped.size()));
  return outcome;
}

fault::FailoverOutcome Switchboard::dc_failed(DcId dc, SimTime now) {
  require(dc.valid() && dc.value() < ctx_.world->dc_count(),
          "dc_failed: bad dc");
  require_no_batch("dc_failed");
  obs::Span span("ctl.dc_failed", obs::Subsystem::kController, now);
  span.attr(obs::AttrKey::kDc, static_cast<std::int64_t>(dc.value()));
  obs::ScopedTimer timer(metrics_.drain_s);
  metrics_.dc_failures.inc();
  {
    std::lock_guard flock(fault_mutex_);
    dc_fail_time_[dc.value()] = now;
  }
  // Mark down BEFORE draining: from this point the selector's lock-free
  // health check steers new calls away, so the drain converges (nothing
  // keeps landing on the failed DC behind it).
  health_->set_dc(dc, false);
  return drain_and_record(span, [&](const std::vector<double>& budget) {
    return selector_->drain_dc(dc, now, budget);
  });
}

void Switchboard::dc_recovered(DcId dc, SimTime now) {
  require(dc.valid() && dc.value() < ctx_.world->dc_count(),
          "dc_recovered: bad dc");
  health_->set_dc(dc, true);
  metrics_.dc_recoveries.inc();
  SimTime failed_at = -1.0;
  {
    std::lock_guard flock(fault_mutex_);
    failed_at = dc_fail_time_[dc.value()];
    dc_fail_time_[dc.value()] = -1.0;
  }
  if (failed_at >= 0.0 && now >= failed_at) {
    metrics_.recovery_s.record(now - failed_at);
  }
}

void Switchboard::link_failed(LinkId link, SimTime /*now*/) {
  require(link.valid() && link.value() < ctx_.topology->link_count(),
          "link_failed: bad link");
  health_->set_link(link, false);
  metrics_.link_failures.inc();
}

void Switchboard::link_recovered(LinkId link, SimTime /*now*/) {
  require(link.valid() && link.value() < ctx_.topology->link_count(),
          "link_recovered: bad link");
  health_->set_link(link, true);
  metrics_.link_recoveries.inc();
}

fault::FailoverOutcome Switchboard::server_failed(ServerId server,
                                                  SimTime now) {
  require(server.valid() && server.value() < ctx_.world->server_count(),
          "server_failed: bad server");
  require_no_batch("server_failed");
  obs::Span span("ctl.server_failed", obs::Subsystem::kController, now);
  span.attr(obs::AttrKey::kServer,
            static_cast<std::int64_t>(server.value()));
  obs::ScopedTimer timer(metrics_.drain_s);
  metrics_.server_failures.inc();
  // Down before draining, mirroring dc_failed: the packer's best-fit scan
  // consults the same health table, so no new admit lands on this server
  // behind the drain.
  health_->set_server(server, false);
  return drain_and_record(span, [&](const std::vector<double>& budget) {
    return selector_->drain_server(server, now, budget);
  });
}

void Switchboard::server_recovered(ServerId server, SimTime now) {
  require(server.valid() && server.value() < ctx_.world->server_count(),
          "server_recovered: bad server");
  obs::Span span("ctl.server_recovered", obs::Subsystem::kController, now);
  span.attr(obs::AttrKey::kServer,
            static_cast<std::int64_t>(server.value()));
  health_->set_server(server, true);
  metrics_.server_recoveries.inc();
}

pack::DefragResult Switchboard::defragment_dc(DcId dc,
                                              std::size_t max_moves) {
  require_no_batch("defragment_dc");
  pack::DefragResult result;
  {
    std::shared_lock lock(swap_mutex_);
    result = selector_->defragment_dc(dc, max_moves);
  }
  // Defrag never changes a call's DC, so the call:*:dc store entries stay
  // correct as they are.
  metrics_.defrag_moves.inc(result.moves.size());
  return result;
}

RealtimeSelector::Stats Switchboard::realtime_stats() const {
  require_no_batch("realtime_stats");
  std::shared_lock lock(swap_mutex_);
  return selector_->stats();
}

std::optional<RealtimeSelector::CallSnapshot> Switchboard::snapshot_call(
    CallId call) const {
  require_no_batch("snapshot_call");
  std::shared_lock lock(swap_mutex_);
  return selector_->snapshot_call(call);
}

std::size_t Switchboard::drop_shards(std::size_t shard_begin,
                                     std::size_t shard_end) {
  require_no_batch("drop_shards");
  std::shared_lock lock(swap_mutex_);
  return selector_->drop_shards(shard_begin, shard_end);
}

void Switchboard::adopt_call(CallId call,
                             const RealtimeSelector::CallSnapshot& snap) {
  require_no_batch("adopt_call");
  std::shared_lock lock(swap_mutex_);
  selector_->adopt_call(call, snap);
}

std::size_t Switchboard::realtime_shard_count() const {
  require_no_batch("realtime_shard_count");
  std::shared_lock lock(swap_mutex_);
  return selector_->shard_count();
}

std::uint64_t Switchboard::held_slots() const {
  require_no_batch("held_slots");
  std::shared_lock lock(swap_mutex_);
  return selector_->held_slots();
}

std::size_t Switchboard::active_calls() const {
  require_no_batch("active_calls");
  std::shared_lock lock(swap_mutex_);
  return selector_->active_calls();
}

const pack::ServerPacker* Switchboard::packer() const {
  require_no_batch("packer");
  std::shared_lock lock(swap_mutex_);
  return selector_->packer();
}

}  // namespace sb
