#include "pack/packer.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/span.h"

namespace sb::pack {

namespace {
/// CAS attempts per candidate before rescanning the fleet.
constexpr std::uint32_t kMaxCasRetries = 8;

// The DC bound word: release count in the high half, and in the low half
// the free-millicore bound plus kBoundBias, clamped to [0, kBoundLow]. The
// clamp only ever raises the bound; kBoundLow itself reads as unbounded.
constexpr std::uint64_t kBoundLow = 0xffffffffu;
constexpr std::uint64_t kBoundCountOne = std::uint64_t{1} << 32;
constexpr std::int64_t kBoundBias = std::int64_t{1} << 31;

std::uint64_t encode_free(std::int64_t free_mc) {
  if (free_mc <= -kBoundBias) return 0;
  if (free_mc >= static_cast<std::int64_t>(kBoundLow) - kBoundBias) {
    return kBoundLow;
  }
  return static_cast<std::uint64_t>(free_mc + kBoundBias);
}

std::int64_t bound_free(std::uint64_t word) {
  const std::uint64_t low = word & kBoundLow;
  if (low == kBoundLow) return std::numeric_limits<std::int64_t>::max();
  return static_cast<std::int64_t>(low) - kBoundBias;
}
}  // namespace

ServerPacker::ServerPacker(const World& world, PackOptions options,
                           const fault::HealthTable* health)
    : world_(&world),
      options_(options),
      health_(health),
      server_count_(world.server_count()),
      admits_metric_(obs::MetricsRegistry::global().counter("sb.pack.admits")),
      releases_metric_(
          obs::MetricsRegistry::global().counter("sb.pack.releases")),
      overcommit_metric_(obs::MetricsRegistry::global().counter(
          "sb.pack.overcommit_admits")),
      cas_retries_metric_(
          obs::MetricsRegistry::global().counter("sb.pack.cas_retries")),
      bounded_skips_metric_(
          obs::MetricsRegistry::global().counter("sb.pack.bounded_skips")) {
  require(server_count_ > 0, "ServerPacker: world has no servers");
  require(health_ == nullptr || health_->server_count() == server_count_,
          "ServerPacker: health table does not cover the fleet");
  used_mc_ = std::make_unique<std::atomic<std::int64_t>[]>(server_count_);
  slots_ = std::make_unique<Slot[]>(server_count_);
  capacity_mc_.reserve(server_count_);
  server_dc_.reserve(server_count_);
  for (const MediaServer& server : world.servers()) {
    capacity_mc_.push_back(to_millicores(server.cores));
    server_dc_.push_back(server.dc);
  }
  // Every server starts empty, so a DC's bound is its largest capacity.
  dc_bound_ = std::make_unique<DcBound[]>(world.dc_count());
  for (DcId dc : world.dc_ids()) {
    std::int64_t largest = 0;
    for (ServerId sid : world.servers_in_dc(dc)) {
      largest = std::max(largest, capacity_mc_[sid.value()]);
    }
    dc_bound_[dc.value()].word.store(encode_free(largest),
                                     std::memory_order_relaxed);
  }
}

bool ServerPacker::try_claim(ServerId server, std::int64_t need_mc,
                             std::uint32_t* retries) {
  std::atomic<std::int64_t>& used_mc = used_mc_[server.value()];
  const std::int64_t cap = capacity_mc_[server.value()];
  std::int64_t used = used_mc.load(std::memory_order_relaxed);
  for (std::uint32_t attempt = 0; attempt < kMaxCasRetries; ++attempt) {
    if (used + need_mc > cap) return false;
    if (used_mc.compare_exchange_weak(used, used + need_mc,
                                      std::memory_order_acq_rel,
                                      std::memory_order_relaxed)) {
      return true;
    }
    if (retries != nullptr) ++*retries;
    cas_retries_metric_.inc();
  }
  return false;
}

void ServerPacker::record_admit(ServerId server, std::int64_t need_mc) {
  Slot& slot = slots_[server.value()];
  slot.admits.fetch_add(1, std::memory_order_relaxed);
  slot.admitted_mc.fetch_add(need_mc, std::memory_order_relaxed);
  admits_metric_.inc();
}

void ServerPacker::raise_bound(ServerId server, std::int64_t free_mc) {
  std::atomic<std::uint64_t>& bound =
      dc_bound_[server_dc_[server.value()].value()].word;
  const std::uint64_t low = encode_free(free_mc);
  // The count moves even when the bound already covers free_mc: a scan that
  // read the word before this release must then fail to lower it.
  std::uint64_t cur = bound.load(std::memory_order_relaxed);
  std::uint64_t next = 0;
  do {
    next = ((cur & ~kBoundLow) + kBoundCountOne) |
           std::max(cur & kBoundLow, low);
  } while (!bound.compare_exchange_weak(cur, next, std::memory_order_acq_rel,
                                        std::memory_order_relaxed));
}

ServerId ServerPacker::admit_bounded(DcId dc, double cores, ServerId exclude,
                                     std::uint32_t* retries) {
  const std::vector<ServerId>& fleet = world_->servers_in_dc(dc);
  if (fleet.empty()) return ServerId();
  const std::int64_t need_mc = to_millicores(cores);
  const std::int64_t penalty_mc =
      to_millicores(options_.anti_frag_empty_penalty_cores);
  // Residuals are never negative and only an empty server adds the penalty,
  // so no score falls below this: the first server that reaches it wins.
  const std::int64_t floor_score = std::min<std::int64_t>(0, penalty_mc);
  std::atomic<std::uint64_t>& bound = dc_bound_[dc.value()].word;
  // Rescan until a claim lands or no candidate fits. Each failed claim means
  // another thread took the residual we saw, so progress is global.
  for (;;) {
    const std::uint64_t seen = bound.load(std::memory_order_acquire);
    if (bound_free(seen) < need_mc) {
      bounded_skips_metric_.inc();
      return ServerId();
    }
    // all_up() means no DC, link or server is down, so skipping the
    // per-server health read is exact; otherwise check every candidate.
    const bool check_health = health_ != nullptr && !health_->all_up();
    ServerId best;
    std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
    // A scan that finds no candidate saw less than need_mc free on every
    // server it could use, so only the excluded and down ones can raise the
    // bound it stores.
    std::int64_t max_free = need_mc - 1;
    for (ServerId sid : fleet) {
      const std::int64_t used =
          used_mc_[sid.value()].load(std::memory_order_relaxed);
      const std::int64_t free_mc = capacity_mc_[sid.value()] - used;
      if (sid == exclude || (check_health && !server_ok(sid))) {
        max_free = std::max(max_free, free_mc);
        continue;
      }
      const std::int64_t residual = free_mc - need_mc;
      if (residual < 0) continue;
      // Best fit: minimum residual after placement; waking an empty server
      // costs an extra penalty. Ties break on the lowest ServerId (fleet is
      // in id order), so the scan is deterministic.
      const std::int64_t score = residual + (used == 0 ? penalty_mc : 0);
      if (score < best_score) {
        best_score = score;
        best = sid;
        if (score == floor_score) break;
      }
    }
    if (!best.valid()) {
      // max_free bounds every server of the DC, excluded and down ones too.
      // A release since `seen` moved the count, and then the bound stays.
      std::uint64_t expected = seen;
      bound.compare_exchange_strong(
          expected, (seen & ~kBoundLow) | encode_free(max_free),
          std::memory_order_acq_rel, std::memory_order_relaxed);
      return ServerId();
    }
    if (try_claim(best, need_mc, retries)) {
      record_admit(best, need_mc);
      return best;
    }
  }
}

ServerId ServerPacker::admit_overflow(DcId dc, double cores, ServerId exclude,
                                      bool up_only) {
  const std::vector<ServerId>& fleet = world_->servers_in_dc(dc);
  // As in admit_bounded: with everything up, no server needs a health read.
  const bool check_health =
      up_only && health_ != nullptr && !health_->all_up();
  ServerId chosen;
  double best_ratio = std::numeric_limits<double>::max();
  for (ServerId sid : fleet) {
    if (sid == exclude) continue;
    if (check_health && !server_ok(sid)) continue;
    const double used = static_cast<double>(
        used_mc_[sid.value()].load(std::memory_order_relaxed));
    const double cap = static_cast<double>(capacity_mc_[sid.value()]);
    const double ratio = cap > 0.0 ? used / cap : used;
    if (ratio < best_ratio) {
      best_ratio = ratio;
      chosen = sid;
    }
  }
  if (!chosen.valid()) return chosen;
  const std::int64_t need_mc = to_millicores(cores);
  used_mc_[chosen.value()].fetch_add(need_mc, std::memory_order_acq_rel);
  record_admit(chosen, need_mc);
  overcommit_admits_.fetch_add(1, std::memory_order_relaxed);
  overcommit_metric_.inc();
  return chosen;
}

ServerId ServerPacker::admit(DcId dc, double cores, ServerId exclude,
                             std::uint32_t* retries) {
  obs::Span span("pack.admit", obs::Subsystem::kPack);
  span.attr(obs::AttrKey::kDc, dc.value());
  std::uint32_t local_retries = 0;
  ServerId chosen = admit_bounded(dc, cores, exclude, &local_retries);
  if (!chosen.valid()) {
    // Fail open: overflow onto the relatively least-loaded server, up
    // servers first. A down fleet still hosts (degraded beats refusing
    // service — the selector's DC failover handles real evacuation).
    chosen = admit_overflow(dc, cores, exclude, /*up_only=*/true);
    if (!chosen.valid()) {
      chosen = admit_overflow(dc, cores, exclude, /*up_only=*/false);
    }
  }
  if (retries != nullptr) *retries += local_retries;
  if (chosen.valid()) span.attr(obs::AttrKey::kServer, chosen.value());
  span.attr(obs::AttrKey::kCasRetries, local_retries);
  return chosen;
}

bool ServerPacker::try_admit_to(ServerId server, double cores) {
  require(server.valid() && server.value() < server_count_,
          "try_admit_to: bad server id");
  const std::int64_t need_mc = to_millicores(cores);
  if (!try_claim(server, need_mc, nullptr)) return false;
  record_admit(server, need_mc);
  return true;
}

void ServerPacker::release(ServerId server, double cores) {
  require(server.valid() && server.value() < server_count_,
          "release: bad server id");
  const std::int64_t need_mc = to_millicores(cores);
  const std::int64_t used_before =
      used_mc_[server.value()].fetch_sub(need_mc, std::memory_order_acq_rel);
  raise_bound(server,
              capacity_mc_[server.value()] - (used_before - need_mc));
  Slot& slot = slots_[server.value()];
  slot.releases.fetch_add(1, std::memory_order_relaxed);
  slot.released_mc.fetch_add(need_mc, std::memory_order_relaxed);
  releases_metric_.inc();
}

double ServerPacker::server_cores_used(ServerId server) const {
  require(server.valid() && server.value() < server_count_,
          "server_cores_used: bad server id");
  return static_cast<double>(
             used_mc_[server.value()].load(std::memory_order_acquire)) /
         1000.0;
}

double ServerPacker::server_capacity(ServerId server) const {
  require(server.valid() && server.value() < server_count_,
          "server_capacity: bad server id");
  return static_cast<double>(capacity_mc_[server.value()]) / 1000.0;
}

double ServerPacker::dc_cores_used(DcId dc) const {
  std::int64_t total = 0;
  for (ServerId sid : world_->servers_in_dc(dc)) {
    total += used_mc_[sid.value()].load(std::memory_order_acquire);
  }
  return static_cast<double>(total) / 1000.0;
}

double ServerPacker::fragmentation(DcId dc) const {
  std::int64_t total_free = 0;
  std::int64_t max_free = 0;
  for (ServerId sid : world_->servers_in_dc(dc)) {
    if (!server_ok(sid)) continue;
    const std::int64_t used =
        used_mc_[sid.value()].load(std::memory_order_acquire);
    const std::int64_t free_mc =
        std::max<std::int64_t>(0, capacity_mc_[sid.value()] - used);
    total_free += free_mc;
    max_free = std::max(max_free, free_mc);
  }
  if (total_free <= 0) return 0.0;
  return 1.0 - static_cast<double>(max_free) / static_cast<double>(total_free);
}

std::vector<ServerStats> ServerPacker::stats() const {
  std::vector<ServerStats> out;
  out.reserve(server_count_);
  for (std::size_t i = 0; i < server_count_; ++i) {
    const ServerId sid(static_cast<std::uint32_t>(i));
    const Slot& slot = slots_[i];
    out.push_back({
        .server = sid,
        .dc = world_->server(sid).dc,
        .capacity_cores = static_cast<double>(capacity_mc_[i]) / 1000.0,
        .used_cores =
            static_cast<double>(used_mc_[i].load(std::memory_order_acquire)) /
            1000.0,
        .admits = slot.admits.load(std::memory_order_relaxed),
        .releases = slot.releases.load(std::memory_order_relaxed),
        .admitted_mc = slot.admitted_mc.load(std::memory_order_relaxed),
        .released_mc = slot.released_mc.load(std::memory_order_relaxed),
    });
  }
  return out;
}

}  // namespace sb::pack
