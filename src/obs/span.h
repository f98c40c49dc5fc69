// sb_span: lock-free per-thread ring-buffer span recorder — the causal
// complement to the aggregate metrics in obs/metrics.h. A span is one timed
// region of the controller stack (an event handled, a drain tier walked, an
// LP phase run) carrying its subsystem, wall-clock start/end, the sim-time
// it executed at, its parent span, and up to kSpanAttrMax small typed
// attributes (call id, DC, drain tier, iteration counts, ...).
//
// Design constraints, mirroring metrics.h:
//  - recording is allocation-free and lock-free: each thread appends
//    completed spans to its own fixed-capacity ring through relaxed atomics
//    (single producer); collect() snapshots all rings without stopping
//    writers, discarding any slot a wrap overtook mid-copy;
//  - the ring IS the flight recorder: it retains the last `ring_capacity`
//    spans per thread, so after an oracle failure or a crash the causal tail
//    is still there to dump (see check/oracles.h and tools/sb_fuzz);
//  - the whole layer compiles away: configure with -DSB_TRACING=OFF and
//    Span/SpanRecorder become inline no-op stubs (same API, zero state, no
//    span symbols on the hot path).
//
// Span names must be string literals (static storage): slots store the
// pointer, never a copy. Export to Chrome trace-event JSON (Perfetto) and
// per-name stats live in obs/trace_export.h.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace sb::obs {

/// Sentinel sim-time for spans recorded outside any simulated clock (LP
/// solves during provisioning, bench setup, ...).
inline constexpr double kNoSimTime = -1.0;

/// Max typed attributes per span; extra attr() calls are dropped silently.
inline constexpr std::size_t kSpanAttrMax = 6;

/// Coarse origin of a span; becomes the Chrome trace event category.
enum class Subsystem : std::uint8_t {
  kController = 0,
  kRealtime,
  kDrain,
  kLp,
  kProvisioner,
  kSim,
  kCheck,
  kPack,
  kCluster,
  kOther,
};
[[nodiscard]] const char* to_string(Subsystem subsystem);

/// Typed attribute keys. Values are int64 (ids, counts, tiers, 0/1 flags).
enum class AttrKey : std::uint8_t {
  kNone = 0,
  kCallId,
  kDc,
  kFromDc,
  kConfigId,
  kDrainTier,  ///< 1 = slot re-home, 2 = provisioned backup, 3 = dropped
  kShard,
  kCasRetries,
  kIterations,
  kFactorizations,
  kPricingPasses,
  kWarmStart,  ///< 1 = warm basis applied, 0 = cold
  kScenario,
  kMoved,
  kDropped,
  kPartition,
  kEvents,
  kRows,
  kCols,
  kStatus,
  kServer,
  kFromServer,
  kWorker,
  kEpoch,
  kReplayed,
  kBlocks,  ///< LP decomposition: blocks refined in a master round
  kJoined,  ///< LP decomposition: refined blocks that join the master
};
[[nodiscard]] const char* to_string(AttrKey key);

struct SpanAttr {
  AttrKey key = AttrKey::kNone;
  std::int64_t value = 0;
};

/// One completed span as copied out of a ring. Plain data — always compiled
/// (export and tests handle it even in -DSB_TRACING=OFF builds, where
/// collect() simply returns none).
struct SpanData {
  const char* name = "";  ///< static-lifetime literal
  Subsystem subsystem = Subsystem::kOther;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint32_t thread = 0;  ///< recorder thread-buffer index
  std::int64_t wall_start_ns = 0;  ///< steady-clock ns since recorder epoch
  std::int64_t wall_end_ns = 0;
  double sim_time = kNoSimTime;  ///< sim-time at span start; kNoSimTime = none

  std::array<SpanAttr, kSpanAttrMax> attrs{};
  std::uint32_t attr_count = 0;

  [[nodiscard]] double duration_s() const {
    return static_cast<double>(wall_end_ns - wall_start_ns) * 1e-9;
  }
  /// nullptr when the span does not carry `key`.
  [[nodiscard]] const SpanAttr* find_attr(AttrKey key) const {
    for (std::uint32_t i = 0; i < attr_count && i < attrs.size(); ++i) {
      if (attrs[i].key == key) return &attrs[i];
    }
    return nullptr;
  }
};

struct SpanRecorderOptions {
  /// Runtime master switch; a disabled recorder makes Span construction a
  /// single relaxed load.
  bool enabled = true;
  /// Ring slots per thread buffer (rounded up to a power of two). The ring
  /// retains the most recent `ring_capacity` spans — small values give the
  /// bounded "flight recorder" mode, large values retain whole runs for
  /// trace export. Applies only to buffers created after configure() (live
  /// threads keep raw pointers into theirs), so size the recorder before
  /// the first span is recorded.
  std::size_t ring_capacity = 1u << 15;
};

#ifdef SB_TRACING_ENABLED

/// Process-wide span sink. Threads acquire a ring buffer on first use and
/// return it to a free list at thread exit (data retained), so short-lived
/// pool threads reuse buffers instead of growing the registry unboundedly.
class SpanRecorder {
 public:
  static SpanRecorder& global();

  /// See SpanRecorderOptions for which fields apply when.
  void configure(const SpanRecorderOptions& options);
  void set_enabled(bool on) {
    enabled_.store(on, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t ring_capacity() const;

  /// Weakly consistent snapshot of every ring, sorted by wall start. Safe
  /// concurrent with writers: slots a wrap overtook mid-copy are discarded.
  [[nodiscard]] std::vector<SpanData> collect() const;

  /// Empties every ring (and re-sizes them if configure() changed the
  /// capacity). Call only while no thread is recording.
  void reset();

  /// Spans overwritten by ring wrap since the last reset — collect() output
  /// is complete iff this is 0 (sb_report surfaces the truncation).
  [[nodiscard]] std::uint64_t dropped() const;

  /// Innermost open span id on the calling thread (0 = none). Capture this
  /// before handing work to another thread and pass it as the explicit
  /// parent to keep cross-thread spans (sim partitions, pool tasks)
  /// nested under their initiator.
  [[nodiscard]] static std::uint64_t current_span();

 private:
  friend class Span;
  struct ThreadBuffer;
  struct Tls;

  SpanRecorder();
  [[nodiscard]] static Tls& tls_slot();
  [[nodiscard]] ThreadBuffer* local_buffer();
  void release_buffer(ThreadBuffer* buffer);
  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t now_ns() const;

  std::atomic<bool> enabled_{true};
  std::atomic<std::uint64_t> next_id_{1};
  std::int64_t epoch_ns_ = 0;  ///< steady-clock origin of wall_*_ns

  mutable std::mutex mutex_;  ///< guards the buffer registry + options
  std::size_t capacity_ = SpanRecorderOptions{}.ring_capacity;
  std::vector<std::unique_ptr<ThreadBuffer>> buffers_;
  std::vector<ThreadBuffer*> free_buffers_;
};

/// RAII span: records into the calling thread's ring when destroyed (or
/// finish()ed). When the recorder is disabled the constructor is one relaxed
/// load and everything else is dead.
class Span {
 public:
  /// `parent` defaults to the innermost open span on this thread; pass
  /// SpanRecorder::current_span() captured on another thread to parent
  /// across a fan-out, or 0 to force a root span.
  static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};

  explicit Span(const char* name, Subsystem subsystem,
                double sim_time = kNoSimTime,
                std::uint64_t parent = kInheritParent);
  ~Span() { finish(); }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Attaches a typed attribute; silently dropped past kSpanAttrMax or when
  /// the span is not recording.
  void attr(AttrKey key, std::int64_t value) {
    if (id_ != 0 && attr_count_ < kSpanAttrMax) {
      attrs_[attr_count_++] = {key, value};
    }
  }

  /// 0 when the recorder was disabled at construction.
  [[nodiscard]] std::uint64_t id() const { return id_; }

  /// Ends the span now (idempotent; the destructor is then a no-op).
  void finish();

 private:
  const char* name_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  std::int64_t start_ns_ = 0;
  double sim_time_;
  Subsystem subsystem_;
  std::uint32_t attr_count_ = 0;
  std::array<SpanAttr, kSpanAttrMax> attrs_{};
};

#else  // !SB_TRACING_ENABLED — same API, zero state, zero cost.

class SpanRecorder {
 public:
  static SpanRecorder& global() {
    static SpanRecorder recorder;
    return recorder;
  }
  void configure(const SpanRecorderOptions&) {}
  void set_enabled(bool) {}
  [[nodiscard]] bool enabled() const { return false; }
  [[nodiscard]] std::size_t ring_capacity() const { return 0; }
  [[nodiscard]] std::vector<SpanData> collect() const { return {}; }
  void reset() {}
  [[nodiscard]] std::uint64_t dropped() const { return 0; }
  [[nodiscard]] static std::uint64_t current_span() { return 0; }
};

class Span {
 public:
  static constexpr std::uint64_t kInheritParent = ~std::uint64_t{0};
  explicit Span(const char*, Subsystem, double = kNoSimTime,
                std::uint64_t = kInheritParent) {}
  void attr(AttrKey, std::int64_t) {}
  [[nodiscard]] std::uint64_t id() const { return 0; }
  void finish() {}
};

#endif  // SB_TRACING_ENABLED

}  // namespace sb::obs
