#include "cluster/controller.h"

#include <algorithm>

#include "cluster/wal.h"
#include "common/error.h"
#include "obs/span.h"

namespace sb::cluster {

namespace {

/// Options for the cluster's own KV system of record. Latency injection is
/// off so the control plane never perturbs sim timing.
constexpr KvStoreOptions kClusterKvOptions = {.shard_count = 16,
                                              .inject_latency = false};

obs::HistogramOptions readoption_histogram_options() {
  // Sim seconds from kill to re-adoption: sub-second (expedited on the next
  // event) up to hours (TTL on an idle range).
  return {.min = 1e-3, .max = 1e5, .bucket_count = 64};
}

obs::HistogramOptions replay_depth_histogram_options() {
  return {.min = 1.0, .max = 1e6, .bucket_count = 64};
}

}  // namespace

ClusterController::Metrics::Metrics()
    : lease_acquires(
          obs::MetricsRegistry::global().counter("sb.cluster.lease_acquires")),
      lease_renewals(
          obs::MetricsRegistry::global().counter("sb.cluster.lease_renewals")),
      lease_expiries(
          obs::MetricsRegistry::global().counter("sb.cluster.lease_expiries")),
      takeovers_expedited(obs::MetricsRegistry::global().counter(
          "sb.cluster.takeovers_expedited")),
      takeovers_ttl(
          obs::MetricsRegistry::global().counter("sb.cluster.takeovers_ttl")),
      replayed_records(obs::MetricsRegistry::global().counter(
          "sb.cluster.replayed_records")),
      stale_events_fenced(obs::MetricsRegistry::global().counter(
          "sb.cluster.stale_events_fenced")),
      degraded_applies(obs::MetricsRegistry::global().counter(
          "sb.cluster.degraded_applies")),
      worker_kills(
          obs::MetricsRegistry::global().counter("sb.cluster.worker_kills")),
      worker_restarts(
          obs::MetricsRegistry::global().counter("sb.cluster.worker_restarts")),
      readoption_latency_s(obs::MetricsRegistry::global().histogram(
          "sb.cluster.readoption_latency_s", readoption_histogram_options())),
      replay_depth(obs::MetricsRegistry::global().histogram(
          "sb.cluster.replay_depth", replay_depth_histogram_options())) {}

ClusterController::ClusterController(Switchboard& controller,
                                     ClusterOptions options)
    : sb_(controller),
      options_(options),
      kv_(kClusterKvOptions),
      map_(controller.realtime_shard_count(), options.workers, 1),
      workers_(options.workers) {
  require(options_.lease_ttl_s > 0.0, "ClusterController: bad lease TTL");
  // Epoch 1 is the birth epoch, installed with a create-only CAS so a
  // second coordinator against the same store would fail loudly.
  const auto v = kv_.put_if("cluster:epoch", "1", 0);
  require(v.has_value(), "ClusterController: cluster:epoch already exists");
  epoch_version_ = *v;
  // Workers are born alive with a lease from t = 0; the per-event tick
  // re-grants live workers' leases before any expiry sweep, so a sim clock
  // starting hours in never mistakes birth for death.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerId id(static_cast<std::uint32_t>(w));
    kv_.acquire_lease(lease_key(id), worker_name(id), options_.lease_ttl_s,
                      0.0);
    ++stats_.lease_acquires;
    metrics_.lease_acquires.inc();
  }
}

std::size_t ClusterController::shard_of(CallId call) const {
  return RealtimeSelector::shard_of(call, map_.shard_count());
}

std::uint64_t ClusterController::bump_epoch_locked() {
  const std::uint64_t next = epoch_ + 1;
  const auto v =
      kv_.put_if("cluster:epoch", std::to_string(next), epoch_version_);
  require(v.has_value(),
          "ClusterController: epoch CAS lost (second coordinator?)");
  epoch_version_ = *v;
  epoch_ = next;
  return epoch_;
}

std::size_t ClusterController::replay_shard_locked(std::size_t shard) {
  const auto records = kv_.scan_prefix(wal_shard_prefix(shard));
  for (const auto& [key, value] : records) {
    sb_.adopt_call(call_from_wal_key(key), decode_wal_record(value));
  }
  map_.shard_mut(shard).dirty = false;
  stats_.replayed_records += records.size();
  metrics_.replayed_records.inc(records.size());
  return records.size();
}

WorkerId ClusterController::choose_adopter_locked() const {
  WorkerId best;
  std::size_t best_owned = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].alive) continue;
    const WorkerId id(static_cast<std::uint32_t>(w));
    const std::size_t owned = map_.shards_owned(id);
    if (!best.valid() || owned < best_owned) {
      best = id;
      best_owned = owned;
    }
  }
  return best;
}

void ClusterController::take_over_orphans_locked(WorkerId adopter, SimTime now,
                                                 bool expedited) {
  std::vector<std::size_t> orphans;
  for (std::size_t s = 0; s < map_.shard_count(); ++s) {
    const ShardOwnership& o = map_.shard(s);
    if (!o.owner.valid() || !workers_[o.owner.value()].alive) {
      orphans.push_back(s);
    }
  }
  if (orphans.empty()) return;

  const std::uint64_t e = bump_epoch_locked();
  obs::Span span("cluster.takeover", obs::Subsystem::kCluster, now);
  span.attr(obs::AttrKey::kWorker,
            static_cast<std::int64_t>(adopter.value()));
  span.attr(obs::AttrKey::kEpoch, static_cast<std::int64_t>(e));

  std::size_t replayed = 0;
  std::vector<bool> latency_done(workers_.size(), false);
  for (const std::size_t s : orphans) {
    ShardOwnership& o = map_.shard_mut(s);
    if (o.owner.valid() && !latency_done[o.owner.value()]) {
      // One latency sample per crashed worker per takeover: time from its
      // kill to the moment a survivor owns (part of) its range again.
      latency_done[o.owner.value()] = true;
      metrics_.readoption_latency_s.record(
          std::max(1e-3, now - workers_[o.owner.value()].killed_at));
    }
    if (o.dirty) replayed += replay_shard_locked(s);
    o.owner = adopter;
    o.epoch = e;
  }
  span.attr(obs::AttrKey::kReplayed, static_cast<std::int64_t>(replayed));
  metrics_.replay_depth.record(static_cast<double>(replayed));
  workers_[adopter.value()].takeovers += orphans.size();
  if (expedited) {
    ++stats_.takeovers_expedited;
    metrics_.takeovers_expedited.inc();
  } else {
    ++stats_.takeovers_ttl;
    metrics_.takeovers_ttl.inc();
  }
}

void ClusterController::tick_locked(SimTime now) {
  // 1. Live workers keep their leases fresh (the in-process stand-in for
  //    background heartbeats): re-grant inside the half-TTL window, and
  //    re-acquire outright after an event gap longer than the TTL.
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    if (!workers_[w].alive) continue;
    const WorkerId id(static_cast<std::uint32_t>(w));
    const auto info = kv_.lease(lease_key(id));
    if (info && info->expires_at - now > options_.lease_ttl_s / 2) continue;
    if (kv_.renew_lease(lease_key(id), worker_name(id), options_.lease_ttl_s,
                        now)) {
      ++stats_.lease_renewals;
      metrics_.lease_renewals.inc();
    } else {
      kv_.acquire_lease(lease_key(id), worker_name(id), options_.lease_ttl_s,
                        now);
      ++stats_.lease_acquires;
      metrics_.lease_acquires.inc();
    }
  }
  // 2. Expiry sweep: after step 1 only dead workers' leases can lapse. A
  //    lapse is the TTL crash detector — survivors adopt the whole orphaned
  //    set at once.
  const auto expired = kv_.expire_leases(now);
  if (!expired.empty()) {
    stats_.lease_expiries += expired.size();
    metrics_.lease_expiries.inc(expired.size());
    const WorkerId adopter = choose_adopter_locked();
    if (adopter.valid()) {
      take_over_orphans_locked(adopter, now, /*expedited=*/false);
    }
  }
}

WorkerId ClusterController::route_locked(std::size_t shard, SimTime now) {
  tick_locked(now);
  {
    const ShardOwnership& o = map_.shard(shard);
    if (o.owner.valid() && workers_[o.owner.value()].alive) return o.owner;
  }
  // Orphan touched: the health table's worker row is the crash
  // notification, so adoption is expedited — no waiting out the TTL.
  const WorkerId adopter = choose_adopter_locked();
  if (adopter.valid()) {
    take_over_orphans_locked(adopter, now, /*expedited=*/true);
    return adopter;
  }
  // Degraded direct mode: every worker is dead, so the coordinator applies
  // the event itself. The shard must still be replayed first (its rows were
  // dropped with the dead owner), and ownership is parked as invalid until
  // a worker comes back.
  ShardOwnership& o = map_.shard_mut(shard);
  if (o.owner.valid()) {
    o.owner = WorkerId();
    o.epoch = bump_epoch_locked();
  }
  if (o.dirty) {
    const std::size_t replayed = replay_shard_locked(shard);
    metrics_.replay_depth.record(static_cast<double>(replayed));
  }
  return WorkerId();
}

void ClusterController::write_wal(CallId call, std::size_t shard) {
  const auto snap = sb_.snapshot_call(call);
  if (snap.has_value()) {
    kv_.set(wal_key(shard, call), encode_wal_record(*snap));
  } else {
    kv_.erase(wal_key(shard, call));
  }
  std::lock_guard lock(mutex_);
  ++stats_.wal_writes;
}

void ClusterController::note_apply(WorkerId worker) {
  std::lock_guard lock(mutex_);
  ++stats_.events_applied;
  if (worker.valid()) {
    ++workers_[worker.value()].events_applied;
  } else {
    ++stats_.degraded_applies;
    metrics_.degraded_applies.inc();
  }
}

DcId ClusterController::call_started(CallId call, LocationId first_joiner,
                                     SimTime now) {
  const std::size_t shard = shard_of(call);
  WorkerId worker;
  {
    std::lock_guard lock(mutex_);
    worker = route_locked(shard, now);
  }
  const DcId dc = sb_.call_started(call, first_joiner, now);
  write_wal(call, shard);
  note_apply(worker);
  return dc;
}

FreezeResult ClusterController::config_frozen(CallId call,
                                              const CallConfig& config,
                                              SimTime now) {
  const std::size_t shard = shard_of(call);
  WorkerId worker;
  {
    std::lock_guard lock(mutex_);
    worker = route_locked(shard, now);
  }
  const FreezeResult result = sb_.config_frozen(call, config, now);
  if (!options_.chaos_skip_wal_freeze) write_wal(call, shard);
  note_apply(worker);
  return result;
}

void ClusterController::call_ended(CallId call, SimTime now) {
  const std::size_t shard = shard_of(call);
  WorkerId worker;
  {
    std::lock_guard lock(mutex_);
    worker = route_locked(shard, now);
  }
  sb_.call_ended(call, now);
  write_wal(call, shard);  // row gone -> erases the record
  note_apply(worker);
}

void ClusterController::rewrite_wal_locked(
    const fault::FailoverOutcome& outcome) {
  for (const fault::FailoverMove& m : outcome.moved) {
    const std::size_t shard = shard_of(m.call);
    const auto snap = sb_.snapshot_call(m.call);
    if (snap.has_value()) {
      kv_.set(wal_key(shard, m.call), encode_wal_record(*snap));
      ++stats_.wal_writes;
    }
  }
  for (const CallId c : outcome.dropped) {
    kv_.erase(wal_key(shard_of(c), c));
    ++stats_.wal_writes;
  }
}

fault::FailoverOutcome ClusterController::dc_failed(DcId dc, SimTime now) {
  // Fault hooks run at simulator barriers (no realtime event in flight);
  // the drain itself synchronizes through the Switchboard.
  fault::FailoverOutcome outcome = sb_.dc_failed(dc, now);
  std::lock_guard lock(mutex_);
  rewrite_wal_locked(outcome);
  return outcome;
}

void ClusterController::dc_recovered(DcId dc, SimTime now) {
  sb_.dc_recovered(dc, now);
}

void ClusterController::link_failed(LinkId link, SimTime now) {
  sb_.link_failed(link, now);
}

void ClusterController::link_recovered(LinkId link, SimTime now) {
  sb_.link_recovered(link, now);
}

fault::FailoverOutcome ClusterController::server_failed(ServerId server,
                                                        SimTime now) {
  fault::FailoverOutcome outcome = sb_.server_failed(server, now);
  std::lock_guard lock(mutex_);
  rewrite_wal_locked(outcome);
  return outcome;
}

void ClusterController::server_recovered(ServerId server, SimTime now) {
  sb_.server_recovered(server, now);
}

fault::FailoverOutcome ClusterController::worker_failed(WorkerId worker,
                                                        SimTime now) {
  std::lock_guard lock(mutex_);
  require(worker.valid() && worker.value() < workers_.size(),
          "worker_failed: bad worker id");
  Worker& w = workers_[worker.value()];
  if (!w.alive) return {};  // redundant kill
  obs::Span span("cluster.worker_kill", obs::Subsystem::kCluster, now);
  span.attr(obs::AttrKey::kWorker, static_cast<std::int64_t>(worker.value()));
  w.alive = false;
  w.killed_at = now;
  ++w.kills;
  ++stats_.worker_kills;
  metrics_.worker_kills.inc();
  if (sb_.health().worker_count() > worker.value()) {
    sb_.health_mut().set_worker(worker, false);
  }
  // Controller memory loss: every owned shard's rows vanish WITHOUT any
  // credit — the media plane still hosts those calls, and the WAL is the
  // only way the rows come back. The lease stays in the KV un-renewed (a
  // crashed worker cannot release it); expiry or the health row triggers
  // adoption.
  std::size_t dropped = 0;
  for (const std::size_t s : map_.owned_by(worker)) {
    map_.shard_mut(s).dirty = true;
    dropped += sb_.drop_shards(s, s + 1);
  }
  span.attr(obs::AttrKey::kDropped, static_cast<std::int64_t>(dropped));
  // Empty by design: a worker kill moves and drops nothing on the media
  // plane, so the simulator's usage accounting must not budge.
  return {};
}

void ClusterController::worker_restarted(WorkerId worker, SimTime now) {
  std::lock_guard lock(mutex_);
  require(worker.valid() && worker.value() < workers_.size(),
          "worker_restarted: bad worker id");
  Worker& w = workers_[worker.value()];
  if (w.alive) return;  // redundant restart
  obs::Span span("cluster.worker_restart", obs::Subsystem::kCluster, now);
  span.attr(obs::AttrKey::kWorker, static_cast<std::int64_t>(worker.value()));
  w.alive = true;
  ++w.restarts;
  ++stats_.worker_restarts;
  metrics_.worker_restarts.inc();
  if (sb_.health().worker_count() > worker.value()) {
    sb_.health_mut().set_worker(worker, true);
  }
  kv_.acquire_lease(lease_key(worker), worker_name(worker),
                    options_.lease_ttl_s, now);
  ++stats_.lease_acquires;
  metrics_.lease_acquires.inc();
  // Sticky re-adoption: only shards still orphaned under this worker's
  // name come back; anything a survivor already adopted stays adopted.
  std::vector<std::size_t> mine;
  for (const std::size_t s : map_.owned_by(worker)) {
    if (map_.shard(s).dirty) mine.push_back(s);
  }
  if (mine.empty()) return;
  const std::uint64_t e = bump_epoch_locked();
  span.attr(obs::AttrKey::kEpoch, static_cast<std::int64_t>(e));
  std::size_t replayed = 0;
  for (const std::size_t s : mine) {
    replayed += replay_shard_locked(s);
    map_.shard_mut(s).epoch = e;
  }
  span.attr(obs::AttrKey::kReplayed, static_cast<std::int64_t>(replayed));
  metrics_.replay_depth.record(static_cast<double>(replayed));
  metrics_.readoption_latency_s.record(std::max(1e-3, now - w.killed_at));
}

bool ClusterController::admit(std::size_t shard, WorkerId as_worker,
                              std::uint64_t epoch, SimTime now) {
  std::lock_guard lock(mutex_);
  const ShardOwnership& o = map_.shard(shard);
  bool ok = o.owner == as_worker && o.epoch == epoch;
  if (ok && as_worker.valid()) {
    const Worker& w = workers_[as_worker.value()];
    const auto info = kv_.lease(lease_key(as_worker));
    ok = w.alive && info.has_value() &&
         info->owner == worker_name(as_worker) && info->expires_at > now;
  }
  if (!ok) {
    ++stats_.stale_events_fenced;
    metrics_.stale_events_fenced.inc();
  }
  return ok;
}

std::uint64_t ClusterController::epoch() const {
  std::lock_guard lock(mutex_);
  return epoch_;
}

ClusterStats ClusterController::stats() const {
  std::lock_guard lock(mutex_);
  return stats_;
}

std::vector<WorkerStatus> ClusterController::worker_table() const {
  std::lock_guard lock(mutex_);
  std::vector<WorkerStatus> table;
  table.reserve(workers_.size());
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const WorkerId id(static_cast<std::uint32_t>(w));
    const auto [begin, end] = map_.initial_range(id);
    table.push_back(WorkerStatus{id, workers_[w].alive, map_.shards_owned(id),
                                 begin, end, workers_[w].events_applied,
                                 workers_[w].takeovers, workers_[w].kills,
                                 workers_[w].restarts});
  }
  return table;
}

std::size_t ClusterController::wal_size() const {
  return kv_.scan_prefix("wal:").size();
}

}  // namespace sb::cluster
