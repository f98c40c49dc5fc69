#include "core/realtime.h"

#include <algorithm>

#include "calls/acl.h"
#include "common/error.h"
#include "obs/span.h"

namespace sb {

namespace {

/// Calls re-homed per shard-lock acquisition while draining a failed DC or
/// server: bounds how long one drain batch can block signaling events that
/// hash to the same shard.
constexpr std::size_t kDrainBatch = 64;

/// The first of `dcs` that `usable` admits with the lowest `cost`; invalid
/// when `usable` admits none.
template <typename Usable, typename Cost>
DcId min_dc(const std::vector<DcId>& dcs, Usable usable, Cost cost) {
  DcId best;
  double best_cost = 0.0;
  for (DcId dc : dcs) {
    if (!usable(dc)) continue;
    const double c = cost(dc);
    if (!best.valid() || c < best_cost) {
      best = dc;
      best_cost = c;
    }
  }
  return best;
}

}  // namespace

RealtimeSelector::RealtimeSelector(EvalContext ctx, const AllocationPlan* plan,
                                   RealtimeOptions options,
                                   SimTime plan_start_s,
                                   const fault::HealthTable* health)
    : ctx_(ctx),
      plan_(plan),
      options_(options),
      plan_start_s_(plan_start_s),
      shard_count_(std::max<std::size_t>(options.shard_count, 1)),
      health_(health) {
  require(ctx_.world && ctx_.latency && ctx_.registry,
          "RealtimeSelector: incomplete context");
  all_dcs_ = ctx_.world->dc_ids();
  require(!all_dcs_.empty(), "RealtimeSelector: world has no DCs");
  closest_dc_.reserve(ctx_.world->location_count());
  for (std::size_t loc = 0; loc < ctx_.world->location_count(); ++loc) {
    closest_dc_.push_back(ctx_.latency->closest_dc(
        LocationId(static_cast<std::uint32_t>(loc)), all_dcs_));
  }
  shards_ = std::make_unique<CallShard[]>(shard_count_);
  stats_ = std::make_unique<ShardStats[]>(shard_count_);
  if (plan_) {
    const std::size_t cells = plan_->config_count() * plan_->dc_count();
    usage_ = std::make_unique<std::atomic<std::uint32_t>[]>(cells);
    for (std::size_t i = 0; i < cells; ++i) {
      usage_[i].store(0, std::memory_order_relaxed);
    }
  }
  dc_cores_ = std::make_unique<std::atomic<double>[]>(all_dcs_.size());
  for (std::size_t x = 0; x < all_dcs_.size(); ++x) {
    dc_cores_[x].store(0.0, std::memory_order_relaxed);
  }
  if (ctx_.world->server_count() > 0) {
    for (DcId dc : all_dcs_) {
      require(!ctx_.world->servers_in_dc(dc).empty(),
              "RealtimeSelector: fleet must cover every DC");
    }
    // The health table only covers servers when its owner sized it for this
    // world; a mismatched table (e.g. a pre-fleet controller) is ignored.
    if (health_ != nullptr &&
        health_->server_count() == ctx_.world->server_count()) {
      server_health_ = health_;
    }
    packer_ = std::make_unique<pack::ServerPacker>(*ctx_.world, options_.pack,
                                                   server_health_);
  }
}

bool RealtimeSelector::try_debit(std::size_t col, DcId dc,
                                 std::uint32_t quota,
                                 std::uint32_t* retries) {
  std::atomic<std::uint32_t>& u = usage(col, dc);
  std::uint32_t cur = u.load(std::memory_order_relaxed);
  while (cur < quota) {
    if (u.compare_exchange_weak(cur, cur + 1, std::memory_order_acq_rel,
                                std::memory_order_relaxed)) {
      return true;
    }
    if (retries != nullptr) ++*retries;
  }
  return false;
}

template <typename Usable>
DcId RealtimeSelector::debit_min_acl(std::size_t col, TimeSlot slot,
                                     const CallConfig& config, Usable usable,
                                     std::uint32_t* retries) {
  // Another thread can take a candidate's last slot between the scan and our
  // debit, so rescan until a debit lands or every quota reads exhausted; the
  // CAS keeps accounting exact either way.
  for (;;) {
    const DcId best = min_dc(
        all_dcs_,
        [&](DcId dc) {
          return usable(dc) && usage(col, dc).load(std::memory_order_relaxed) <
                                   plan_->quota(slot, col, dc);
        },
        [&](DcId dc) { return acl_ms(config, dc, *ctx_.latency); });
    if (!best.valid() ||
        try_debit(col, best, plan_->quota(slot, col, best), retries)) {
      return best;
    }
    // Lost the scan-to-debit race outright: the rescan is itself a retry.
    if (retries != nullptr) ++*retries;
  }
}

void RealtimeSelector::add_cores(DcId dc, double cores) {
  if (cores != 0.0) {
    dc_cores_[dc.value()].fetch_add(cores, std::memory_order_relaxed);
  }
}

ServerId RealtimeSelector::pack_admit(DcId dc, double cores,
                                      std::uint32_t* retries) {
  if (!packer_) return ServerId();
  return packer_->admit(dc, cores, ServerId(), retries);
}

double RealtimeSelector::dc_cores_used(DcId dc) const {
  return dc_cores_[dc.value()].load(std::memory_order_relaxed);
}

bool RealtimeSelector::within_budget(DcId dc, double cores,
                                     const std::vector<double>& budget) const {
  if (budget.empty()) return true;
  return dc_cores_used(dc) + cores <= budget[dc.value()] + 1e-9;
}

DcId RealtimeSelector::closest_available_dc(LocationId joiner) const {
  // The first lowest-latency up DC reachable without traversing a down link
  // (§5.3 keeps paths fixed, so a placement over a failed link is simply
  // forbidden); when every link-clean DC is gone, relax the path constraint.
  const bool check_links =
      ctx_.topology != nullptr && ctx_.topology->link_count() > 0;
  DcId clean, up;
  double clean_ms = 0.0, up_ms = 0.0;
  for (DcId dc : all_dcs_) {
    if (!health_->dc_up(dc)) continue;
    bool path_ok = true;
    if (check_links) {
      const LocationId dc_loc = ctx_.world->datacenter(dc).location;
      for (LinkId l : ctx_.topology->path(dc_loc, joiner)) {
        if (!health_->link_up(l)) {
          path_ok = false;
          break;
        }
      }
    }
    const double ms = ctx_.latency->latency_ms(dc, joiner);
    if (!up.valid() || ms < up_ms) {
      up = dc;
      up_ms = ms;
    }
    if (path_ok && (!clean.valid() || ms < clean_ms)) {
      clean = dc;
      clean_ms = ms;
    }
  }
  if (clean.valid()) return clean;
  if (up.valid()) return up;
  // Everything is down: fail open to the undegraded heuristic rather
  // than refuse service.
  return ctx_.latency->closest_dc(joiner, all_dcs_);
}

DcId RealtimeSelector::on_call_start(CallId call, LocationId first_joiner,
                                     SimTime now) {
  obs::Span span("sel.admit", obs::Subsystem::kRealtime, now);
  span.attr(obs::AttrKey::kCallId,
            static_cast<std::int64_t>(call.value()));
  span.attr(obs::AttrKey::kShard,
            static_cast<std::int64_t>(shard_of(call, shard_count_)));
  // closest_dc only reads the immutable latency matrix (and, when degraded,
  // the lock-free health table), so it runs before the stripe lock is taken.
  const DcId dc = degraded() ? closest_available_dc(first_joiner)
                  : first_joiner.valid() &&
                          first_joiner.value() < closest_dc_.size()
                      ? closest_dc_[first_joiner.value()]
                      : ctx_.latency->closest_dc(first_joiner, all_dcs_);
  span.attr(obs::AttrKey::kDc, static_cast<std::int64_t>(dc.value()));
  CallShard& s = shard(call);
  {
    std::lock_guard lock(s.mutex);
    const auto [it, inserted] =
        s.calls.emplace(call,
                        CallSnapshot{dc, first_joiner, AllocationPlan::npos,
                                     false, DcId(), 0.0, ServerId()});
    require(inserted, "on_call_start: duplicate call id");
  }
  shard_stats(call).calls_started.fetch_add(1, std::memory_order_relaxed);
  return dc;
}

FreezeResult RealtimeSelector::on_config_frozen(CallId call,
                                                const CallConfig& config,
                                                SimTime now, ConfigId id_hint) {
  obs::Span span("sel.freeze", obs::Subsystem::kRealtime, now);
  span.attr(obs::AttrKey::kCallId,
            static_cast<std::int64_t>(call.value()));
  span.attr(obs::AttrKey::kShard,
            static_cast<std::int64_t>(shard_of(call, shard_count_)));
  std::uint32_t cas_retries = 0;
  CallShard& s = shard(call);
  ShardStats& stat = shard_stats(call);
  std::lock_guard lock(s.mutex);
  const auto it = s.calls.find(call);
  require(it != s.calls.end(), "on_config_frozen: unknown call");
  CallSnapshot& state = it->second;
  stat.calls_frozen.fetch_add(1, std::memory_order_relaxed);

  const ConfigId id = id_hint.valid() ? id_hint : ctx_.registry->find(config);
  const std::size_t col =
      plan_ && id.valid() ? plan_->column_of(id) : AllocationPlan::npos;
  const double call_cores =
      ctx_.loads == nullptr
          ? 0.0
          : config.total_participants() *
                ctx_.loads->cores_per_participant(config.media());
  const bool faulted = degraded();
  const auto up = [&](DcId dc) { return !faulted || dc_ok(dc); };

  FreezeResult result{state.dc, false, col != AllocationPlan::npos,
                      ServerId()};
  DcId target = state.dc;
  if (!result.planned) {
    // §5.4: unanticipated config -> its closest (min ACL) DC, restricted to
    // surviving DCs while a fault is active (every DC when none survives).
    stat.unplanned.fetch_add(1, std::memory_order_relaxed);
    target = min_dc(all_dcs_, up, [&](DcId dc) {
      return acl_ms(config, dc, *ctx_.latency);
    });
    if (!target.valid()) target = min_acl_dc(config, all_dcs_, *ctx_.latency);
  } else {
    // A slot at the initial DC when the heuristic matched the plan (§5.4b),
    // else at the planned DC with spare quota and the lowest ACL (§5.4c).
    const TimeSlot slot = plan_->slot_at(now - plan_start_s_);
    const DcId slot_dc =
        up(state.dc) && try_debit(col, state.dc,
                                  plan_->quota(slot, col, state.dc),
                                  &cas_retries)
            ? state.dc
            : debit_min_acl(col, slot, config, up, &cas_retries);
    // The column is kept even without a slot: every decision path gates on
    // holds_slot, and rebind_plan() uses it to upgrade overflow calls when a
    // re-plan raises this config's quota.
    state.plan_col = col;
    if (slot_dc.valid()) {
      stat.slot_debits.fetch_add(1, std::memory_order_relaxed);
      state.holds_slot = true;
      state.slot_dc = target = slot_dc;
    } else {
      // All quotas exhausted (plan under-estimated this config's
      // concurrency): stay put rather than thrash; provisioning cushions
      // make this rare. If the current host is down (a freeze racing a DC
      // failure), re-home to the closest surviving DC instead of staying
      // on a dead one.
      stat.overflow.fetch_add(1, std::memory_order_relaxed);
      if (!up(state.dc)) target = closest_available_dc(state.first_joiner);
    }
  }
  if (target != state.dc) {
    stat.migrations.fetch_add(1, std::memory_order_relaxed);
    result.migrated = true;
    state.dc = target;
  }
  result.dc = target;
  state.cores = call_cores;
  add_cores(target, call_cores);
  state.server = pack_admit(target, call_cores, &cas_retries);
  result.server = state.server;
  span.attr(obs::AttrKey::kDc, static_cast<std::int64_t>(target.value()));
  span.attr(obs::AttrKey::kCasRetries, cas_retries);
  if (state.server.valid()) {
    span.attr(obs::AttrKey::kServer,
              static_cast<std::int64_t>(state.server.value()));
  }
  return result;
}

void RealtimeSelector::on_call_end(CallId call, SimTime now) {
  obs::Span span("sel.end", obs::Subsystem::kRealtime, now);
  span.attr(obs::AttrKey::kCallId,
            static_cast<std::int64_t>(call.value()));
  CallShard& s = shard(call);
  std::lock_guard lock(s.mutex);
  const auto it = s.calls.find(call);
  require(it != s.calls.end(), "on_call_end: unknown call");
  span.attr(obs::AttrKey::kDc,
            static_cast<std::int64_t>(it->second.dc.value()));
  release_call(call, it->second);
  s.calls.erase(it);
}

void RealtimeSelector::release_call(CallId call, const CallSnapshot& state) {
  if (state.holds_slot) {
    // Debits and credits pair exactly (holds_slot is set only after a
    // successful CAS debit), so the counter cannot underflow. The credited
    // cell is slot_dc, which tracks the accounting DC even when the call
    // was re-homed onto backup capacity during a failover.
    usage(state.plan_col, state.slot_dc)
        .fetch_sub(1, std::memory_order_acq_rel);
    shard_stats(call).slot_credits.fetch_add(1, std::memory_order_relaxed);
  }
  add_cores(state.dc, -state.cores);
  if (packer_ && state.server.valid()) {
    packer_->release(state.server, state.cores);
  }
}

void RealtimeSelector::move_call(CallId call, CallSnapshot& state, DcId to,
                                 ServerId to_server,
                                 fault::FailoverOutcome& out) {
  // The chaos knob leaks the vacated server's release on purpose — see
  // RealtimeOptions::chaos_skip_server_credit.
  if (packer_ && state.server.valid() && !options_.chaos_skip_server_credit) {
    packer_->release(state.server, state.cores);
  }
  out.moved.push_back({call, state.dc, to, to_server});
  if (to != state.dc) {
    add_cores(state.dc, -state.cores);
    add_cores(to, state.cores);
  }
  state.dc = to;
  state.server = to_server;
}

bool RealtimeSelector::rehome_move(CallId call, CallSnapshot& state,
                                   DcId failed, SimTime now,
                                   const std::vector<double>& budget,
                                   fault::FailoverOutcome& out) {
  obs::Span span("sel.rehome", obs::Subsystem::kDrain, now);
  span.attr(obs::AttrKey::kCallId,
            static_cast<std::int64_t>(call.value()));
  span.attr(obs::AttrKey::kFromDc,
            static_cast<std::int64_t>(state.dc.value()));
  const auto survives = [&](DcId dc) {
    return dc != failed && dc_ok(dc) &&
           within_budget(dc, state.cores, budget);
  };
  DcId to;
  std::int64_t tier = 0;
  if (state.holds_slot) {
    const CallConfig& config =
        ctx_.registry->get(plan_->config_columns[state.plan_col]);
    // Tier 1: another planned DC with spare quota, min ACL — the freeze's
    // §5.4c debit over the surviving DCs within budget.
    to = debit_min_acl(state.plan_col, plan_->slot_at(now - plan_start_s_),
                       config, survives, nullptr);
    if (to.valid()) {
      tier = 1;
      if (!options_.chaos_skip_drain_credit) {
        usage(state.plan_col, state.slot_dc)
            .fetch_sub(1, std::memory_order_acq_rel);
      }
      state.slot_dc = to;
    } else {
      // Tier 2: provisioned backup. The call keeps its original slot
      // accounting (the failed DC's planned share is exactly what the §5.3
      // backup guarantee covers) and is hosted wherever the budget still
      // has room, min ACL first.
      tier = 2;
      to = min_dc(all_dcs_, survives, [&](DcId dc) {
        return acl_ms(config, dc, *ctx_.latency);
      });
    }
  } else {
    // Tier 0, no slot held: an unfrozen call (config unknown, load
    // untracked) or a frozen unplanned/overflow call. Re-run the start
    // heuristic over the surviving DCs; capacity-check only calls with known
    // load (no quota moves).
    to = min_dc(
        all_dcs_,
        [&](DcId dc) {
          return dc != failed && dc_ok(dc) &&
                 (state.cores <= 0.0 ||
                  within_budget(dc, state.cores, budget));
        },
        [&](DcId dc) {
          return ctx_.latency->latency_ms(dc, state.first_joiner);
        });
  }
  if (!to.valid()) {
    // Nothing can host it: the caller picks the next tier (server overflow
    // for a server drain, a drop for a DC drain).
    span.attr(obs::AttrKey::kDrainTier, 3);
    return false;
  }
  // A packed call is re-packed at the destination before its vacated server
  // is released.
  move_call(call, state, to,
            packer_ && state.server.valid() ? packer_->admit(to, state.cores)
                                            : ServerId(),
            out);
  span.attr(obs::AttrKey::kDrainTier, tier);
  span.attr(obs::AttrKey::kDc, static_cast<std::int64_t>(to.value()));
  return true;
}

template <typename Victim, typename Evacuate>
fault::FailoverOutcome RealtimeSelector::drain(obs::Span& span, Victim victim,
                                               Evacuate evacuate) {
  fault::FailoverOutcome out;
  std::vector<CallId> pending;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    CallShard& s = shards_[i];
    pending.clear();
    {
      // One cheap pass collects the victims; evacuation then proceeds in
      // bounded batches so concurrent events on this shard interleave.
      std::lock_guard lock(s.mutex);
      for (const auto& [id, state] : s.calls) {
        if (victim(state)) pending.push_back(id);
      }
    }
    std::size_t next = 0;
    while (next < pending.size()) {
      std::lock_guard lock(s.mutex);
      const std::size_t stop = std::min(pending.size(), next + kDrainBatch);
      for (; next < stop; ++next) {
        const CallId call = pending[next];
        const auto it = s.calls.find(call);
        // The call may have ended (or re-frozen or re-packed elsewhere)
        // between the scan and this batch; skip anything no longer a victim.
        if (it == s.calls.end() || !victim(it->second)) continue;
        if (evacuate(call, it->second, out)) {
          stats_[i].failover_moves.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        release_call(call, it->second);
        out.dropped.push_back(call);
        stats_[i].failover_drops.fetch_add(1, std::memory_order_relaxed);
        s.calls.erase(it);
      }
    }
  }
  span.attr(obs::AttrKey::kMoved,
            static_cast<std::int64_t>(out.moved.size()));
  span.attr(obs::AttrKey::kDropped,
            static_cast<std::int64_t>(out.dropped.size()));
  return out;
}

fault::FailoverOutcome RealtimeSelector::drain_dc(
    DcId failed, SimTime now, const std::vector<double>& budget_cores) {
  require(failed.valid() && failed.value() < all_dcs_.size(),
          "drain_dc: bad DC id");
  require(budget_cores.empty() || budget_cores.size() == all_dcs_.size(),
          "drain_dc: budget shape");
  obs::Span span("sel.drain_dc", obs::Subsystem::kDrain, now);
  span.attr(obs::AttrKey::kDc, static_cast<std::int64_t>(failed.value()));
  return drain(
      span, [failed](const CallSnapshot& state) { return state.dc == failed; },
      [&](CallId call, CallSnapshot& state, fault::FailoverOutcome& out) {
        return rehome_move(call, state, failed, now, budget_cores, out);
      });
}

fault::FailoverOutcome RealtimeSelector::drain_server(
    ServerId failed, SimTime now, const std::vector<double>& budget_cores) {
  require(packer_ != nullptr, "drain_server: world has no fleet");
  require(failed.valid() && failed.value() < ctx_.world->server_count(),
          "drain_server: bad server id");
  require(budget_cores.empty() || budget_cores.size() == all_dcs_.size(),
          "drain_server: budget shape");
  obs::Span span("sel.drain_server", obs::Subsystem::kDrain, now);
  span.attr(obs::AttrKey::kServer,
            static_cast<std::int64_t>(failed.value()));
  return drain(
      span,
      [failed](const CallSnapshot& state) { return state.server == failed; },
      [&](CallId call, CallSnapshot& state, fault::FailoverOutcome& out) {
        // Tier S1: bounded re-pack onto an up sibling — the DC is healthy,
        // so quota accounting is untouched; the move keeps from == to.
        ServerId to = packer_->admit_bounded(state.dc, state.cores, failed);
        if (!to.valid()) {
          // Tiers S2/S3: the fleet cannot absorb it within bounds — spill
          // cross-DC through the quota-then-backup tiers a DC drain uses.
          if (rehome_move(call, state, state.dc, now, budget_cores, out)) {
            return true;
          }
          // Tier S4: before dropping in an otherwise healthy DC, overflow
          // onto the least-loaded up sibling (overcommit admit).
          to = packer_->admit_overflow(state.dc, state.cores, failed,
                                       /*up_only=*/true);
        }
        // Tier S5: no up sibling and every cross-DC tier exhausted.
        if (!to.valid()) return false;
        move_call(call, state, state.dc, to, out);
        return true;
      });
}

pack::DefragResult RealtimeSelector::defragment_dc(DcId dc,
                                                   std::size_t max_moves) {
  pack::DefragResult out;
  if (!packer_) return out;
  obs::Span span("sel.defrag", obs::Subsystem::kPack);
  span.attr(obs::AttrKey::kDc, static_cast<std::int64_t>(dc.value()));
  out.fragmentation_before = packer_->fragmentation(dc);
  out.fragmentation_after = out.fragmentation_before;
  const std::vector<ServerId>& fleet = packer_->fleet(dc);
  if (fleet.size() < 2) return out;

  // Snapshot the DC's packed calls (shard by shard, no global freeze).
  struct Cand {
    CallId call;
    ServerId from;
    double cores = 0.0;
  };
  std::vector<Cand> cands;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard lock(shards_[i].mutex);
    for (const auto& [id, state] : shards_[i].calls) {
      if (state.dc == dc && state.server.valid() && state.cores > 0.0) {
        cands.push_back({id, state.server, state.cores});
      }
    }
  }
  if (cands.empty()) return out;

  // Offline best-fit-decreasing target assignment. `pinned` is the load we
  // cannot move (occupancy minus the candidates' own footprints).
  std::vector<double> pinned(fleet.size());
  std::vector<double> capacity(fleet.size());
  const auto pos_of = [&](ServerId sid) -> std::size_t {
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      if (fleet[p] == sid) return p;
    }
    return fleet.size();
  };
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    pinned[p] = packer_->server_cores_used(fleet[p]);
    capacity[p] = packer_->server_capacity(fleet[p]);
  }
  for (const Cand& cand : cands) {
    const std::size_t p = pos_of(cand.from);
    if (p < fleet.size()) pinned[p] = std::max(0.0, pinned[p] - cand.cores);
  }
  std::sort(cands.begin(), cands.end(), [](const Cand& a, const Cand& b) {
    if (a.cores != b.cores) return a.cores > b.cores;
    return a.call < b.call;
  });
  const auto server_up = [&](std::size_t p) {
    return server_health_ == nullptr || server_health_->server_up(fleet[p]);
  };
  std::vector<std::size_t> target(cands.size());
  for (std::size_t c = 0; c < cands.size(); ++c) {
    std::size_t best = fleet.size();
    double best_residual = 0.0;
    for (std::size_t p = 0; p < fleet.size(); ++p) {
      if (!server_up(p)) continue;
      const double residual = capacity[p] - pinned[p] - cands[c].cores;
      if (residual < -1e-9) continue;
      if (best == fleet.size() || residual < best_residual) {
        best = p;
        best_residual = residual;
      }
    }
    if (best == fleet.size()) best = pos_of(cands[c].from);  // keep in place
    target[c] = best;
    if (best < fleet.size()) pinned[best] += cands[c].cores;
  }

  // Improvement guard: BFD minimizes per-placement residual, which on a
  // heterogeneous fleet can SHRED the free block it was meant to grow.
  // `pinned` now holds the full target occupancy, so score the target
  // offline with the same metric fragmentation() uses and bail (zero
  // moves) unless it strictly concentrates free space.
  double total_free = 0.0;
  double max_free = 0.0;
  std::size_t up_servers = 0;
  for (std::size_t p = 0; p < fleet.size(); ++p) {
    if (!server_up(p)) continue;
    ++up_servers;
    const double free_cores = std::max(0.0, capacity[p] - pinned[p]);
    total_free += free_cores;
    max_free = std::max(max_free, free_cores);
  }
  const double target_frag = (up_servers > 1 && total_free > 0.0)
                                 ? 1.0 - max_free / total_free
                                 : 0.0;
  if (target_frag >= out.fragmentation_before - 1e-12) return out;

  // Apply, re-verifying each call against its live state under the shard
  // lock: a call that ended, moved, or re-froze since the snapshot is
  // skipped, as is a target whose capacity a concurrent admit raced away.
  for (std::size_t c = 0; c < cands.size(); ++c) {
    if (out.moves.size() >= max_moves) break;
    if (target[c] >= fleet.size() || fleet[target[c]] == cands[c].from) {
      continue;
    }
    const ServerId to = fleet[target[c]];
    CallShard& s = shard(cands[c].call);
    std::lock_guard lock(s.mutex);
    const auto it = s.calls.find(cands[c].call);
    if (it == s.calls.end() || it->second.dc != dc ||
        it->second.server != cands[c].from ||
        it->second.cores != cands[c].cores) {
      continue;
    }
    if (!packer_->try_admit_to(to, cands[c].cores)) continue;
    packer_->release(cands[c].from, cands[c].cores);
    it->second.server = to;
    out.moves.push_back({cands[c].call, cands[c].from, to});
    obs::Span move_span("pack.repack", obs::Subsystem::kPack);
    move_span.attr(obs::AttrKey::kCallId,
                   static_cast<std::int64_t>(cands[c].call.value()));
    move_span.attr(obs::AttrKey::kFromServer,
                   static_cast<std::int64_t>(cands[c].from.value()));
    move_span.attr(obs::AttrKey::kServer,
                   static_cast<std::int64_t>(to.value()));
  }
  out.fragmentation_after = packer_->fragmentation(dc);
  span.attr(obs::AttrKey::kMoved,
            static_cast<std::int64_t>(out.moves.size()));
  return out;
}

RealtimeSelector::Stats RealtimeSelector::stats() const {
  Stats out;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    const ShardStats& s = stats_[i];
    out.calls_started += s.calls_started.load(std::memory_order_relaxed);
    out.calls_frozen += s.calls_frozen.load(std::memory_order_relaxed);
    out.migrations += s.migrations.load(std::memory_order_relaxed);
    out.unplanned += s.unplanned.load(std::memory_order_relaxed);
    out.overflow += s.overflow.load(std::memory_order_relaxed);
    out.slot_debits += s.slot_debits.load(std::memory_order_relaxed);
    out.slot_credits += s.slot_credits.load(std::memory_order_relaxed);
    out.failover_moves += s.failover_moves.load(std::memory_order_relaxed);
    out.failover_drops += s.failover_drops.load(std::memory_order_relaxed);
  }
  return out;
}

std::size_t RealtimeSelector::active_calls() const {
  std::size_t total = 0;
  for (std::size_t i = 0; i < shard_count_; ++i) {
    std::lock_guard lock(shards_[i].mutex);
    total += shards_[i].calls.size();
  }
  return total;
}

std::optional<RealtimeSelector::CallSnapshot> RealtimeSelector::snapshot_call(
    CallId call) const {
  const CallShard& s = shards_[shard_of(call, shard_count_)];
  std::lock_guard lock(s.mutex);
  const auto it = s.calls.find(call);
  if (it == s.calls.end()) return std::nullopt;
  return it->second;
}

std::size_t RealtimeSelector::drop_shards(std::size_t shard_begin,
                                          std::size_t shard_end) {
  require(shard_begin <= shard_end && shard_end <= shard_count_,
          "drop_shards: bad shard range");
  std::size_t dropped = 0;
  for (std::size_t i = shard_begin; i < shard_end; ++i) {
    std::lock_guard lock(shards_[i].mutex);
    dropped += shards_[i].calls.size();
    // No credits, no core subtraction, no packer release: the media plane
    // still hosts these calls; only the controller's view is lost.
    shards_[i].calls.clear();
  }
  return dropped;
}

void RealtimeSelector::adopt_call(CallId call, const CallSnapshot& snap) {
  CallShard& s = shards_[shard_of(call, shard_count_)];
  std::lock_guard lock(s.mutex);
  require(s.calls.emplace(call, snap).second,
          "adopt_call: duplicate call id (replay must be exactly-once)");
}

void RealtimeSelector::rebind_plan(const AllocationPlan& old_plan,
                                   const AllocationPlan* new_plan,
                                   SimTime plan_start_s, SimTime now) {
  require(new_plan != nullptr, "rebind_plan: null plan");
  require(plan_ != nullptr, "rebind_plan: selector has no plan to replace");
  obs::Span span("sel.rebind", obs::Subsystem::kRealtime, now);
  plan_ = new_plan;
  plan_start_s_ = plan_start_s;
  // Zeroed quota table for the new plan's (config, dc) shape; live calls
  // re-debit it below, so the table never mixes the two plans' cells. A
  // table of the old shape, as every closed-loop replan keeps, is reused.
  const std::size_t cells = new_plan->config_count() * new_plan->dc_count();
  if (cells != old_plan.config_count() * old_plan.dc_count()) {
    usage_ = std::make_unique<std::atomic<std::uint32_t>[]>(cells);
  }
  for (std::size_t i = 0; i < cells; ++i) {
    usage_[i].store(0, std::memory_order_relaxed);
  }
  const TimeSlot slot = new_plan->slot_at(now - plan_start_s_);
  std::int64_t carried = 0;
  std::int64_t demoted = 0;
  std::int64_t upgraded = 0;
  // The caller holds the controller's swap lock exclusively, so no event is
  // in flight; the shard locks are taken anyway (uncontended) to keep the
  // call tables' locking discipline uniform.
  for (std::size_t i = 0; i < shard_count_; ++i) {
    CallShard& s = shards_[i];
    std::lock_guard lock(s.mutex);
    for (auto& [id, state] : s.calls) {
      if (state.plan_col == AllocationPlan::npos) continue;  // unfrozen/unplanned
      const ConfigId cfg = old_plan.config_columns[state.plan_col];
      const std::size_t col = new_plan->column_of(cfg);
      if (col == AllocationPlan::npos) {
        // Config lost its column: the call becomes unplanned. A held slot is
        // credited in the stats (the new table never held it), keeping
        // held_slots() == slot_debits - slot_credits exact.
        if (state.holds_slot) {
          stats_[i].slot_credits.fetch_add(1, std::memory_order_relaxed);
          state.holds_slot = false;
          state.slot_dc = DcId();
          ++demoted;
        }
        state.plan_col = AllocationPlan::npos;
        continue;
      }
      if (state.holds_slot) {
        // Carry the slot into the new plan at the same accounting DC when
        // its quota has room; otherwise the call drops to overflow
        // accounting (stays hosted where it is — calls never move here).
        if (try_debit(col, state.slot_dc,
                      new_plan->quota(slot, col, state.slot_dc))) {
          state.plan_col = col;
          ++carried;
        } else {
          stats_[i].slot_credits.fetch_add(1, std::memory_order_relaxed);
          state.holds_slot = false;
          state.slot_dc = DcId();
          state.plan_col = col;
          ++demoted;
        }
      } else {
        // Overflow call under the old plan: the re-plan may have raised its
        // config's quota at the hosting DC — acquire the slot it was denied.
        state.plan_col = col;
        if (try_debit(col, state.dc, new_plan->quota(slot, col, state.dc))) {
          state.holds_slot = true;
          state.slot_dc = state.dc;
          stats_[i].slot_debits.fetch_add(1, std::memory_order_relaxed);
          ++upgraded;
        }
      }
    }
  }
  span.attr(obs::AttrKey::kMoved, carried);
  span.attr(obs::AttrKey::kDropped, demoted);
  span.attr(obs::AttrKey::kEvents, upgraded);
}

std::uint64_t RealtimeSelector::held_slots() const {
  if (!plan_) return 0;
  std::uint64_t total = 0;
  const std::size_t cells = plan_->config_count() * plan_->dc_count();
  for (std::size_t i = 0; i < cells; ++i) {
    total += usage_[i].load(std::memory_order_relaxed);
  }
  return total;
}

}  // namespace sb
