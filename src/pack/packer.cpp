#include "pack/packer.h"

#include <algorithm>
#include <limits>

#include "common/error.h"
#include "obs/span.h"

namespace sb::pack {

namespace {
/// CAS attempts per candidate before rescanning the fleet.
constexpr std::uint32_t kMaxCasRetries = 8;
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
          obs::MetricsRegistry::global().counter("sb.pack.cas_retries")) {
  require(server_count_ > 0, "ServerPacker: world has no servers");
  require(health_ == nullptr || health_->server_count() == server_count_,
          "ServerPacker: health table does not cover the fleet");
  used_mc_ = std::make_unique<std::atomic<std::int64_t>[]>(server_count_);
  slots_ = std::make_unique<Slot[]>(server_count_);
  capacity_mc_.reserve(server_count_);
  for (const MediaServer& server : world.servers()) {
    capacity_mc_.push_back(to_millicores(server.cores));
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

ServerId ServerPacker::admit_bounded(DcId dc, double cores, ServerId exclude,
                                     std::uint32_t* retries) {
  const std::vector<ServerId>& fleet = world_->servers_in_dc(dc);
  if (fleet.empty()) return ServerId();
  const std::int64_t need_mc = to_millicores(cores);
  const std::int64_t penalty_mc =
      to_millicores(options_.anti_frag_empty_penalty_cores);
  // Rescan until a claim lands or no candidate fits. Each failed claim means
  // another thread took the residual we saw, so progress is global.
  for (;;) {
    // all_up() means no DC, link or server is down, so skipping the
    // per-server health read is exact; otherwise check every candidate.
    const bool check_health = health_ != nullptr && !health_->all_up();
    ServerId best;
    std::int64_t best_score = std::numeric_limits<std::int64_t>::max();
    for (ServerId sid : fleet) {
      if (sid == exclude || (check_health && !server_ok(sid))) continue;
      const std::int64_t used =
          used_mc_[sid.value()].load(std::memory_order_relaxed);
      const std::int64_t residual = capacity_mc_[sid.value()] - used - need_mc;
      if (residual < 0) continue;
      // Best fit: minimum residual after placement; waking an empty server
      // costs an extra penalty. Ties break on the lowest ServerId (fleet is
      // in id order), so the scan is deterministic.
      const std::int64_t score = residual + (used == 0 ? penalty_mc : 0);
      if (score < best_score) {
        best_score = score;
        best = sid;
      }
    }
    if (!best.valid()) return ServerId();
    if (try_claim(best, need_mc, retries)) {
      record_admit(best, need_mc);
      return best;
    }
  }
}

ServerId ServerPacker::admit_overflow(DcId dc, double cores, ServerId exclude,
                                      bool up_only) {
  const std::vector<ServerId>& fleet = world_->servers_in_dc(dc);
  ServerId chosen;
  double best_ratio = std::numeric_limits<double>::max();
  for (ServerId sid : fleet) {
    if (sid == exclude) continue;
    if (up_only && !server_ok(sid)) continue;
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
  used_mc_[server.value()].fetch_sub(need_mc, std::memory_order_acq_rel);
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
