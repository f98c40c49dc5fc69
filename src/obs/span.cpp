#include "obs/span.h"

#include <algorithm>
#include <chrono>

namespace sb::obs {

const char* to_string(Subsystem subsystem) {
  switch (subsystem) {
    case Subsystem::kController:
      return "controller";
    case Subsystem::kRealtime:
      return "realtime";
    case Subsystem::kDrain:
      return "drain";
    case Subsystem::kLp:
      return "lp";
    case Subsystem::kProvisioner:
      return "provisioner";
    case Subsystem::kSim:
      return "sim";
    case Subsystem::kCheck:
      return "check";
    case Subsystem::kPack:
      return "pack";
    case Subsystem::kCluster:
      return "cluster";
    case Subsystem::kOther:
      break;
  }
  return "other";
}

const char* to_string(AttrKey key) {
  switch (key) {
    case AttrKey::kCallId:
      return "call";
    case AttrKey::kDc:
      return "dc";
    case AttrKey::kFromDc:
      return "from_dc";
    case AttrKey::kConfigId:
      return "config";
    case AttrKey::kDrainTier:
      return "drain_tier";
    case AttrKey::kShard:
      return "shard";
    case AttrKey::kCasRetries:
      return "cas_retries";
    case AttrKey::kIterations:
      return "iterations";
    case AttrKey::kFactorizations:
      return "factorizations";
    case AttrKey::kPricingPasses:
      return "pricing_passes";
    case AttrKey::kWarmStart:
      return "warm";
    case AttrKey::kScenario:
      return "scenario";
    case AttrKey::kMoved:
      return "moved";
    case AttrKey::kDropped:
      return "dropped";
    case AttrKey::kPartition:
      return "partition";
    case AttrKey::kEvents:
      return "events";
    case AttrKey::kRows:
      return "rows";
    case AttrKey::kCols:
      return "cols";
    case AttrKey::kStatus:
      return "status";
    case AttrKey::kServer:
      return "server";
    case AttrKey::kFromServer:
      return "from_server";
    case AttrKey::kWorker:
      return "worker";
    case AttrKey::kEpoch:
      return "epoch";
    case AttrKey::kReplayed:
      return "replayed";
    case AttrKey::kBlocks:
      return "blocks";
    case AttrKey::kJoined:
      return "joined";
    case AttrKey::kNone:
      break;
  }
  return "none";
}

#ifdef SB_TRACING_ENABLED

namespace {

std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return std::max<std::size_t>(p, 2);
}

}  // namespace

/// Single-producer ring of completed spans. Only the owning thread writes
/// (plain relaxed stores into the slot, then a release bump of `head`);
/// collect() copies racing-reader style and discards slots the writer
/// overtook — every field is an atomic, so the race is benign AND clean
/// under TSan.
struct SpanRecorder::ThreadBuffer {
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> id{0};
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::int64_t> start_ns{0};
    std::atomic<std::int64_t> end_ns{0};
    std::atomic<double> sim_time{kNoSimTime};
    /// subsystem | attr_count << 8, packed so one store publishes both.
    std::atomic<std::uint32_t> meta{0};
    std::atomic<std::uint8_t> attr_key[kSpanAttrMax];
    std::atomic<std::int64_t> attr_val[kSpanAttrMax];
  };

  ThreadBuffer(std::uint32_t tid_in, std::size_t capacity_in)
      : tid(tid_in), capacity(capacity_in) {
    // make_unique for arrays value-initializes: every atomic starts zeroed.
    slots = std::make_unique<Slot[]>(capacity);
  }

  void push(const char* name, Subsystem subsystem, std::uint64_t id,
            std::uint64_t parent, std::int64_t start_ns, std::int64_t end_ns,
            double sim_time, const std::array<SpanAttr, kSpanAttrMax>& attrs,
            std::uint32_t attr_count) {
    const std::uint64_t h = head.load(std::memory_order_relaxed);
    Slot& slot = slots[h & (capacity - 1)];
    slot.name.store(name, std::memory_order_relaxed);
    slot.id.store(id, std::memory_order_relaxed);
    slot.parent.store(parent, std::memory_order_relaxed);
    slot.start_ns.store(start_ns, std::memory_order_relaxed);
    slot.end_ns.store(end_ns, std::memory_order_relaxed);
    slot.sim_time.store(sim_time, std::memory_order_relaxed);
    slot.meta.store(static_cast<std::uint32_t>(subsystem) | (attr_count << 8),
                    std::memory_order_relaxed);
    for (std::uint32_t a = 0; a < attr_count; ++a) {
      slot.attr_key[a].store(static_cast<std::uint8_t>(attrs[a].key),
                             std::memory_order_relaxed);
      slot.attr_val[a].store(attrs[a].value, std::memory_order_relaxed);
    }
    head.store(h + 1, std::memory_order_release);
  }

  std::uint32_t tid;
  std::size_t capacity;  ///< power of two
  std::unique_ptr<Slot[]> slots;
  /// Count of spans ever completed on this buffer; slot = head & (cap - 1).
  std::atomic<std::uint64_t> head{0};
};

/// Thread-local recorder state: the thread's buffer (returned to the free
/// list at thread exit, data retained) and the innermost open span id.
struct SpanRecorder::Tls {
  ThreadBuffer* buffer = nullptr;
  std::uint64_t current = 0;

  ~Tls() {
    if (buffer != nullptr) SpanRecorder::global().release_buffer(buffer);
  }
};

SpanRecorder::Tls& SpanRecorder::tls_slot() {
  thread_local Tls tls;
  return tls;
}

SpanRecorder::SpanRecorder()
    : epoch_ns_(std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now().time_since_epoch())
                    .count()) {}

SpanRecorder& SpanRecorder::global() {
  // Leaked: thread_local destructors (release_buffer) and static-destruction
  //-time spans must never observe a destroyed recorder.
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
             .count() -
         epoch_ns_;
}

void SpanRecorder::configure(const SpanRecorderOptions& options) {
  {
    std::lock_guard lock(mutex_);
    capacity_ = round_up_pow2(std::max<std::size_t>(options.ring_capacity, 2));
  }
  enabled_.store(options.enabled, std::memory_order_relaxed);
}

std::size_t SpanRecorder::ring_capacity() const {
  std::lock_guard lock(mutex_);
  return capacity_;
}

SpanRecorder::ThreadBuffer* SpanRecorder::local_buffer() {
  Tls& tls = tls_slot();
  if (tls.buffer == nullptr) {
    std::lock_guard lock(mutex_);
    if (!free_buffers_.empty()) {
      tls.buffer = free_buffers_.back();
      free_buffers_.pop_back();
    } else {
      buffers_.push_back(std::make_unique<ThreadBuffer>(
          static_cast<std::uint32_t>(buffers_.size()), capacity_));
      tls.buffer = buffers_.back().get();
    }
  }
  return tls.buffer;
}

void SpanRecorder::release_buffer(ThreadBuffer* buffer) {
  std::lock_guard lock(mutex_);
  free_buffers_.push_back(buffer);
}

std::uint64_t SpanRecorder::current_span() { return tls_slot().current; }

std::vector<SpanData> SpanRecorder::collect() const {
  std::vector<SpanData> out;
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    const std::uint64_t h = buffer->head.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, buffer->capacity);
    for (std::uint64_t i = h - n; i < h; ++i) {
      const ThreadBuffer::Slot& slot = buffer->slots[i & (buffer->capacity - 1)];
      SpanData d;
      d.name = slot.name.load(std::memory_order_relaxed);
      d.id = slot.id.load(std::memory_order_relaxed);
      d.parent = slot.parent.load(std::memory_order_relaxed);
      d.wall_start_ns = slot.start_ns.load(std::memory_order_relaxed);
      d.wall_end_ns = slot.end_ns.load(std::memory_order_relaxed);
      d.sim_time = slot.sim_time.load(std::memory_order_relaxed);
      const std::uint32_t meta = slot.meta.load(std::memory_order_relaxed);
      d.subsystem = static_cast<Subsystem>(meta & 0xff);
      d.attr_count = std::min<std::uint32_t>(meta >> 8, kSpanAttrMax);
      for (std::uint32_t a = 0; a < d.attr_count; ++a) {
        d.attrs[a].key = static_cast<AttrKey>(
            slot.attr_key[a].load(std::memory_order_relaxed));
        d.attrs[a].value = slot.attr_val[a].load(std::memory_order_relaxed);
      }
      d.thread = buffer->tid;
      // Validate AFTER the copy: the writer may have lapped slot i while we
      // read it. Span number h2 is in flight once head reads h2, writing
      // slot h2 & mask — which aliases i exactly when h2 - i == capacity.
      const std::uint64_t h2 = buffer->head.load(std::memory_order_acquire);
      if (h2 - i >= buffer->capacity) continue;  // torn; wrap overtook us
      if (d.name == nullptr) continue;
      out.push_back(d);
    }
  }
  std::sort(out.begin(), out.end(), [](const SpanData& a, const SpanData& b) {
    return a.wall_start_ns != b.wall_start_ns
               ? a.wall_start_ns < b.wall_start_ns
               : a.id < b.id;
  });
  return out;
}

void SpanRecorder::reset() {
  std::lock_guard lock(mutex_);
  // Buffers are never re-allocated (live threads hold raw pointers into
  // them); a capacity change via configure() applies to buffers created
  // afterwards, so size the recorder before the first span when it matters.
  for (auto& buffer : buffers_) {
    buffer->head.store(0, std::memory_order_relaxed);
  }
}

std::uint64_t SpanRecorder::dropped() const {
  std::uint64_t total = 0;
  std::lock_guard lock(mutex_);
  for (const auto& buffer : buffers_) {
    const std::uint64_t h = buffer->head.load(std::memory_order_relaxed);
    if (h > buffer->capacity) total += h - buffer->capacity;
  }
  return total;
}

Span::Span(const char* name, Subsystem subsystem, double sim_time,
           std::uint64_t parent)
    : name_(name), sim_time_(sim_time), subsystem_(subsystem) {
  SpanRecorder& recorder = SpanRecorder::global();
  if (!recorder.enabled()) return;
  id_ = recorder.next_id();
  SpanRecorder::Tls& tls = SpanRecorder::tls_slot();
  parent_ = parent == kInheritParent ? tls.current : parent;
  tls.current = id_;
  start_ns_ = recorder.now_ns();
}

void Span::finish() {
  if (id_ == 0) return;
  SpanRecorder& recorder = SpanRecorder::global();
  SpanRecorder::Tls& tls = SpanRecorder::tls_slot();
  // Restore the inherited scope even when spans end out of LIFO order
  // (finish() called early): only pop if we are still the innermost.
  if (tls.current == id_) tls.current = parent_;
  recorder.local_buffer()->push(name_, subsystem_, id_, parent_, start_ns_,
                                recorder.now_ns(), sim_time_, attrs_,
                                attr_count_);
  id_ = 0;
}

#endif  // SB_TRACING_ENABLED

}  // namespace sb::obs
