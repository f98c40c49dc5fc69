// Intra-DC server packing (the Tetris direction, PAPERS.md arXiv
// 2508.00426): beneath the DC-granular realtime selector, calls are
// bin-packed onto the DC's fleet of media servers. The packer owns one
// atomic millicore occupancy word per server, so admits and releases
// compose with the selector's lock-striped shards without any new lock —
// the accounting contract mirrors the plan-slot quota table:
//
//  - admit() picks the best-fit server (minimum residual after placement,
//    plus an anti-fragmentation penalty for waking an empty server) and
//    claims the cores with a bounded CAS against the server's capacity.
//    Ties break on the lowest ServerId, so a single-threaded caller is
//    fully deterministic.
//  - when no up server has bounded room, admit() fails open: the call
//    overflows onto the relatively least-loaded up server (unbounded
//    fetch_add, counted in overcommit_admits) — a degraded placement beats
//    refusing service, exactly like the selector's plan-overflow path.
//  - release() returns the exact millicores admit() claimed. All
//    footprints cross the double->millicore boundary through
//    to_millicores(), so per-server conservation is checkable by exact
//    integer comparison (sb_check's per-server recount oracle).
//
// The occupancy words are dense (eight servers per cache line, indexed by
// ServerId), so the best-fit scan over a fleet of consecutive ids streams
// through memory. Cumulative per-server admit/release totals live apart in
// padded slots: they are written once per admit or release and read only
// by stats(). At quiescence occupancy == admitted - released == 0, which
// is the invariant the oracle recounts from the HostingLog.
//
// Each DC also keeps one padded 64-bit bound word: an upper bound on the
// free millicores of any of its servers (low 32 bits) and a release count
// (high 32 bits). A bounded admit whose need exceeds the bound returns "no
// server" without scanning (counted in sb.pack.bounded_skips); a full scan
// that finds no room lowers the bound to need - 1, or to the free space of
// an excluded or down server that has more, unless a release bumped the
// count meanwhile; release() raises it. Claims only
// lower free space, so they leave it alone. The bound only ever skips a
// scan that would have found nothing, so decisions are unchanged.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.h"
#include "fault/health_table.h"
#include "geo/world.h"
#include "obs/metrics.h"

namespace sb::pack {

/// Exact integer footprint used for all per-server accounting. Shared with
/// the sb_check recount so both sides quantize identically.
[[nodiscard]] inline std::int64_t to_millicores(double cores) {
  return std::llround(cores * 1000.0);
}

struct PackOptions {
  /// Added to a candidate's best-fit score when the server is currently
  /// empty: keeps small calls consolidating onto warm servers instead of
  /// spreading one call per server (the fragmentation the Tetris paper
  /// measures). In cores; 0 disables.
  double anti_frag_empty_penalty_cores = 0.25;
};

/// One call moved by an intra-DC defragmentation pass.
struct RepackMove {
  CallId call;
  ServerId from;
  ServerId to;
};

/// Result of RealtimeSelector::defragment_dc.
struct DefragResult {
  std::vector<RepackMove> moves;
  double fragmentation_before = 0.0;
  double fragmentation_after = 0.0;
};

/// Immutable per-server snapshot (stats() / tests / benches).
struct ServerStats {
  ServerId server;
  DcId dc;
  double capacity_cores = 0.0;
  double used_cores = 0.0;
  std::uint64_t admits = 0;
  std::uint64_t releases = 0;
  std::int64_t admitted_mc = 0;  ///< cumulative millicores claimed
  std::int64_t released_mc = 0;  ///< cumulative millicores returned
};

/// Thread-safe fleet packer for one World. Any number of selector shards
/// may admit/release concurrently; every operation is atomics-only.
class ServerPacker {
 public:
  /// `world` must have at least one server and outlive the packer.
  /// `health` may be null (no server fault domain); when set it must cover
  /// exactly world.server_count() servers and outlive the packer.
  explicit ServerPacker(const World& world, PackOptions options = {},
                        const fault::HealthTable* health = nullptr);

  /// Packs `cores` onto a server of `dc` (best-fit-decreasing admit; see
  /// file comment). `exclude` is skipped entirely — a server drain excludes
  /// the failed server. Returns the chosen server; invalid only when the DC
  /// owns no servers at all. `retries` accumulates failed CAS attempts.
  ServerId admit(DcId dc, double cores, ServerId exclude = ServerId(),
                 std::uint32_t* retries = nullptr);

  /// Like admit() but never overcommits: returns invalid when no up,
  /// non-excluded server has bounded room. Tier-1 of a server drain.
  ServerId admit_bounded(DcId dc, double cores, ServerId exclude = ServerId(),
                         std::uint32_t* retries = nullptr);

  /// Unbounded overflow claim on the relatively least-loaded candidate;
  /// `up_only` restricts to up servers. Counted in overcommit_admits.
  /// Invalid when no candidate exists.
  ServerId admit_overflow(DcId dc, double cores, ServerId exclude,
                          bool up_only);

  /// Claims `cores` on `server` iff it fits within capacity (bounded CAS);
  /// the defragmentation pass uses this to apply a precomputed target.
  bool try_admit_to(ServerId server, double cores);

  /// Returns the cores a prior admit claimed on `server`.
  void release(ServerId server, double cores);

  /// Both throw InvalidArgument on an invalid or out-of-range id.
  [[nodiscard]] double server_cores_used(ServerId server) const;
  [[nodiscard]] double server_capacity(ServerId server) const;
  /// Sum of server occupancies in `dc` (weakly consistent under load).
  [[nodiscard]] double dc_cores_used(DcId dc) const;
  [[nodiscard]] std::size_t server_count() const { return server_count_; }
  [[nodiscard]] const std::vector<ServerId>& fleet(DcId dc) const {
    return world_->servers_in_dc(dc);
  }

  /// Fragmentation of `dc`'s free space: 1 - (largest free block / total
  /// free), over up servers. 0 = all free space on one server (a whole-call
  /// hole), -> 1 = free space shredded across the fleet. 0 when no free
  /// space or a single server.
  [[nodiscard]] double fragmentation(DcId dc) const;

  [[nodiscard]] std::uint64_t overcommit_admits() const {
    return overcommit_admits_.load(std::memory_order_relaxed);
  }

  /// Per-server snapshot, ordered by ServerId. Weakly consistent under
  /// concurrent events, exact at quiescence.
  [[nodiscard]] std::vector<ServerStats> stats() const;

 private:
  /// Cumulative totals of one server, padded so concurrent admits on
  /// neighbouring servers never share a line.
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> admits{0};
    std::atomic<std::uint64_t> releases{0};
    std::atomic<std::int64_t> admitted_mc{0};
    std::atomic<std::int64_t> released_mc{0};
  };

  /// The per-DC bound word (file comment), alone on its cache line: every
  /// release in the DC bumps it.
  struct alignas(64) DcBound {
    std::atomic<std::uint64_t> word{0};
  };

  [[nodiscard]] bool server_ok(ServerId server) const {
    return health_ == nullptr || health_->server_up(server);
  }
  /// Bounded CAS claim of `need_mc` on `server`; false when it no longer
  /// fits (another thread raced the capacity away).
  bool try_claim(ServerId server, std::int64_t need_mc,
                 std::uint32_t* retries);
  void record_admit(ServerId server, std::int64_t need_mc);
  /// Raises `server`'s DC bound to at least `free_mc` and bumps its release
  /// count.
  void raise_bound(ServerId server, std::int64_t free_mc);

  const World* world_;
  PackOptions options_;
  const fault::HealthTable* health_;
  std::size_t server_count_;
  std::unique_ptr<std::atomic<std::int64_t>[]> used_mc_;  ///< per server
  std::unique_ptr<Slot[]> slots_;
  std::vector<std::int64_t> capacity_mc_;  ///< per server, immutable
  std::vector<DcId> server_dc_;            ///< per server, immutable
  std::unique_ptr<DcBound[]> dc_bound_;    ///< per DC
  std::atomic<std::uint64_t> overcommit_admits_{0};

  obs::Counter& admits_metric_;
  obs::Counter& releases_metric_;
  obs::Counter& overcommit_metric_;
  obs::Counter& cas_retries_metric_;
  obs::Counter& bounded_skips_metric_;
};

}  // namespace sb::pack
