#include "kvstore/kvstore.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/error.h"
#include "common/rng.h"

namespace sb {

namespace {

/// Seed of the injected-latency generators, mixed with each thread's id.
constexpr std::uint64_t kLatencySeed = 0x5b0a;

/// Latency samples are seconds; the paper's write range is 0.3-4.2 ms, so
/// [10 us, 1 s) with ~13 buckets/decade resolves it comfortably.
obs::HistogramOptions latency_histogram_options() {
  return {.min = 1e-5, .max = 1.0, .bucket_count = 64};
}

}  // namespace

KvStore::KvStore(KvStoreOptions options)
    : options_(options),
      shards_(options.shard_count),
      latency_(latency_histogram_options()),
      ops_metric_(obs::MetricsRegistry::global().counter("sb.kvstore.ops")),
      latency_metric_(obs::MetricsRegistry::global().histogram(
          "sb.kvstore.op_latency_s", latency_histogram_options())) {
  require(options_.shard_count > 0, "KvStore: need at least one shard");
  require(options_.min_latency_ms > 0.0 &&
              options_.max_latency_ms >= options_.min_latency_ms,
          "KvStore: bad latency range");
}

KvStore::Shard& KvStore::shard_for(const std::string& key) const {
  const std::size_t h = std::hash<std::string>{}(key);
  return shards_[h % shards_.size()];
}

void KvStore::simulate_network() const {
  if (!options_.inject_latency) return;
  // Per-thread generator so concurrent clients draw independent latencies.
  thread_local Rng rng(kLatencySeed ^
                       std::hash<std::thread::id>{}(std::this_thread::get_id()));
  const double ratio = options_.max_latency_ms / options_.min_latency_ms;
  const double latency_ms =
      options_.min_latency_ms * std::pow(ratio, rng.uniform());
  std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
      latency_ms));
  const double latency_s = latency_ms / 1e3;
  latency_.record(latency_s);
  latency_metric_.record(latency_s);
  ops_metric_.inc();
}

void KvStore::set(const std::string& key, std::string value) {
  simulate_network();
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  Entry& entry = shard.map[key];
  entry.value = std::move(value);
  ++entry.version;
}

std::optional<std::string> KvStore::get(const std::string& key) const {
  simulate_network();
  const Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return std::nullopt;
  return it->second.value;
}

std::int64_t KvStore::incr(const std::string& key, std::int64_t delta) {
  simulate_network();
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  std::int64_t current = 0;
  Entry& entry = shard.map[key];
  if (!entry.value.empty()) current = std::stoll(entry.value);
  current += delta;
  entry.value = std::to_string(current);
  ++entry.version;
  return current;
}

std::optional<KvStore::Versioned> KvStore::get_versioned(
    const std::string& key) const {
  simulate_network();
  const Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  if (it == shard.map.end()) return std::nullopt;
  return Versioned{it->second.value, it->second.version};
}

std::optional<std::uint64_t> KvStore::put_if(const std::string& key,
                                             std::string value,
                                             std::uint64_t expected_version) {
  simulate_network();
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  const auto it = shard.map.find(key);
  const std::uint64_t current = it == shard.map.end() ? 0 : it->second.version;
  if (current != expected_version) return std::nullopt;
  Entry& entry = it == shard.map.end() ? shard.map[key] : it->second;
  entry.value = std::move(value);
  ++entry.version;
  return entry.version;
}

std::vector<std::pair<std::string, std::string>> KvStore::scan_prefix(
    const std::string& prefix) const {
  simulate_network();
  std::vector<std::pair<std::string, std::string>> out;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    for (const auto& [key, entry] : shard.map) {
      if (key.rfind(prefix, 0) == 0) out.emplace_back(key, entry.value);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool KvStore::acquire_lease(const std::string& key, const std::string& owner,
                            double ttl_s, double now) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  auto it = leases_.find(key);
  if (it != leases_.end() && it->second.owner != owner &&
      it->second.expires_at > now) {
    return false;  // live and held by someone else
  }
  LeaseInfo& info = leases_[key];
  const std::uint64_t version = info.version;
  info = LeaseInfo{owner, now + ttl_s, version + 1};
  return true;
}

bool KvStore::renew_lease(const std::string& key, const std::string& owner,
                          double ttl_s, double now) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  const auto it = leases_.find(key);
  if (it == leases_.end() || it->second.owner != owner ||
      it->second.expires_at <= now) {
    return false;
  }
  it->second.expires_at = now + ttl_s;
  ++it->second.version;
  return true;
}

bool KvStore::release_lease(const std::string& key, const std::string& owner) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  const auto it = leases_.find(key);
  if (it == leases_.end() || it->second.owner != owner) return false;
  leases_.erase(it);
  return true;
}

std::optional<KvStore::LeaseInfo> KvStore::lease(
    const std::string& key) const {
  std::lock_guard lock(lease_mutex_);
  const auto it = leases_.find(key);
  if (it == leases_.end()) return std::nullopt;
  return it->second;
}

std::vector<std::string> KvStore::expire_leases(double now) {
  simulate_network();
  std::lock_guard lock(lease_mutex_);
  std::vector<std::string> expired;
  for (auto it = leases_.begin(); it != leases_.end();) {
    if (it->second.expires_at <= now) {
      expired.push_back(it->first);
      it = leases_.erase(it);
    } else {
      ++it;
    }
  }
  std::sort(expired.begin(), expired.end());
  return expired;
}

bool KvStore::erase(const std::string& key) {
  simulate_network();
  Shard& shard = shard_for(key);
  std::lock_guard lock(shard.mutex);
  return shard.map.erase(key) > 0;
}

std::size_t KvStore::size() const {
  std::size_t total = 0;
  for (const Shard& shard : shards_) {
    std::lock_guard lock(shard.mutex);
    total += shard.map.size();
  }
  return total;
}

KvStore::OpStats KvStore::stats() const {
  const obs::HistogramData data = latency_.collect();
  OpStats stats;
  stats.ops = data.count;
  stats.total_latency_ms = data.sum * 1e3;
  stats.min_latency_ms = data.min * 1e3;
  stats.max_latency_ms = data.max * 1e3;
  return stats;
}

void KvStore::reset_stats() { latency_.reset(); }

}  // namespace sb
