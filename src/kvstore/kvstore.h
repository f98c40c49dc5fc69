// In-memory sharded key-value store standing in for the Azure Redis
// instance the paper's controller writes call state to (§6.6). Each
// operation optionally injects a simulated network round-trip in the
// 0.3-4.2 ms range the paper reports for writes, which is what makes the
// Fig 10 throughput experiment scale with writer threads: threads overlap
// their waits on the (remote) store.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace sb {

struct KvStoreOptions {
  std::size_t shard_count = 16;
  bool inject_latency = true;
  /// Injected per-op latency is log-uniform over [min, max] ms, matching
  /// the paper's observed 0.3-4.2 ms write latencies.
  double min_latency_ms = 0.3;
  double max_latency_ms = 4.2;
};

/// Thread-safe string store with per-shard locking. Latency injection
/// happens outside the shard lock (it models the network, not the server),
/// so concurrent clients overlap their waits.
class KvStore {
 public:
  explicit KvStore(KvStoreOptions options = {});

  void set(const std::string& key, std::string value);
  [[nodiscard]] std::optional<std::string> get(const std::string& key) const;
  /// Atomically adds `delta` to an integer value (missing keys start at 0);
  /// returns the new value.
  std::int64_t incr(const std::string& key, std::int64_t delta);
  /// Removes a key; returns whether it existed.
  bool erase(const std::string& key);

  [[nodiscard]] std::size_t size() const;

  // --- Versioned CAS (the cluster coordinator's fencing primitive) ---

  /// A value plus its monotone per-key version. Every plain `set` bumps the
  /// version too, so CAS users and blind writers can share a key.
  struct Versioned {
    std::string value;
    std::uint64_t version = 0;
  };
  [[nodiscard]] std::optional<Versioned> get_versioned(
      const std::string& key) const;
  /// Compare-and-swap on the key's version. `expected_version == 0` means
  /// "create only if absent". On success stores `value` and returns the new
  /// version; on version mismatch (or create-on-existing) returns nullopt
  /// and leaves the entry untouched.
  std::optional<std::uint64_t> put_if(const std::string& key,
                                      std::string value,
                                      std::uint64_t expected_version);

  /// All keys starting with `prefix`, sorted by key for deterministic
  /// replay. Snapshot semantics per shard (not cross-shard atomic), which
  /// is fine for the cluster WAL: replay only runs on quiesced shards.
  [[nodiscard]] std::vector<std::pair<std::string, std::string>> scan_prefix(
      const std::string& prefix) const;

  // --- TTL leases (cluster worker liveness) ---
  //
  // Leases live in their own table keyed by name; expiry is driven by a
  // caller-supplied clock (sim time in tests and in the cluster layer) so
  // behaviour stays deterministic. `version` bumps on every acquire/renew,
  // giving lease holders a fencing token.

  struct LeaseInfo {
    std::string owner;
    double expires_at = 0.0;
    std::uint64_t version = 0;
  };
  /// Grants (or re-grants to the same owner) when the lease is absent,
  /// expired at `now`, or already held by `owner`; refuses otherwise.
  bool acquire_lease(const std::string& key, const std::string& owner,
                     double ttl_s, double now);
  /// Extends only an unexpired lease held by `owner`.
  bool renew_lease(const std::string& key, const std::string& owner,
                   double ttl_s, double now);
  /// Drops the lease if held by `owner`; returns whether it was.
  bool release_lease(const std::string& key, const std::string& owner);
  [[nodiscard]] std::optional<LeaseInfo> lease(const std::string& key) const;
  /// Sweeps out every lease expired at `now`; returns the expired keys
  /// (sorted) so the caller can react to each lapse.
  std::vector<std::string> expire_leases(double now);

  /// Snapshot view over the per-instance latency histogram (kept for
  /// backward compatibility with the pre-sb::obs API). With SB_METRICS=OFF
  /// all fields are zero.
  struct OpStats {
    std::uint64_t ops = 0;
    double total_latency_ms = 0.0;
    double min_latency_ms = 0.0;
    double max_latency_ms = 0.0;

    [[nodiscard]] double mean_latency_ms() const {
      return ops == 0 ? 0.0 : total_latency_ms / static_cast<double>(ops);
    }
  };
  [[nodiscard]] OpStats stats() const;
  void reset_stats();

  /// Per-instance op latency distribution (seconds). The same samples also
  /// feed the process-wide `sb.kvstore.op_latency_s` registry histogram.
  [[nodiscard]] obs::HistogramData latency_histogram() const {
    return latency_.collect();
  }

 private:
  struct Entry {
    std::string value;
    std::uint64_t version = 0;
  };
  struct Shard {
    mutable std::mutex mutex;
    std::unordered_map<std::string, Entry> map;
  };

  [[nodiscard]] Shard& shard_for(const std::string& key) const;
  /// Sleeps for a sampled latency and records it; no-op when injection is
  /// disabled.
  void simulate_network() const;

  KvStoreOptions options_;
  mutable std::vector<Shard> shards_;
  mutable std::mutex lease_mutex_;
  std::unordered_map<std::string, LeaseInfo> leases_;
  /// Sharded-atomic latency histogram: the realtime write path records one
  /// sample with no lock (the old OpStats took a mutex per op for min/max).
  mutable obs::Histogram latency_;
  obs::Counter& ops_metric_;            ///< sb.kvstore.ops
  obs::Histogram& latency_metric_;      ///< sb.kvstore.op_latency_s
};

}  // namespace sb
