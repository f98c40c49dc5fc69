#include "sim/simulator.h"

#include <algorithm>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace sb {

double SimReport::dc_bucket_peak(std::size_t dc) const {
  if (dc >= dc_cores_buckets.size()) return 0.0;
  double peak = 0.0;
  for (double v : dc_cores_buckets[dc]) peak = std::max(peak, v);
  return peak;
}

namespace {

enum class EventType : std::uint8_t {
  kStart = 0,
  kLegJoin = 1,
  kMediaChange = 2,
  kFreeze = 3,
  kEnd = 4,
  kFault = 5,
};

/// Live call state: trivially small, the joined legs stored as a run in a
/// shared LocationId arena (legs_base/legs_count) instead of a per-call
/// heap vector — no allocation on the replay path.
struct LiveCall {
  DcId dc;
  ServerId server;  ///< packed media server (invalid until freeze / no fleet)
  std::uint32_t legs_base = 0;
  std::uint32_t legs_count = 0;
  MediaType media = MediaType::kAudio;
  bool active = false;
};

/// One replay event: a self-contained 32-byte record. The call id and
/// every per-event payload (joiner location, starting media, media-change
/// target, majority-first flag) are per-record constants, so they are
/// resolved once at event-construction time; the hot loop then never
/// dereferences a CallRecord — one sequential array scan instead of a
/// random cache-missing read per event.
struct Event {
  SimTime time;
  std::uint32_t seq;     ///< unique tie-break at equal times (faults lowest)
  std::uint32_t record;  ///< record index; fault-event index for kFault
  CallId call;           ///< the record's id (unused for kFault)
  LocationId loc;        ///< kStart: first joiner; kLegJoin: the joining leg
  EventType type = EventType::kFault;
  MediaType media = MediaType::kAudio;  ///< kStart: start; kMediaChange: target
  bool majority_first = false;  ///< kStart: first joiner is the majority loc

  friend bool operator>(const Event& a, const Event& b) {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Sorts a partition's events into the replay order: ascending (time, seq),
/// a strict total order since seqs are unique, with faults first at equal
/// times (they hold the lowest seqs). From 4,096 events up, events are
/// distributed into monotonic time buckets (one counting pass + one
/// scatter), then each small bucket is sorted; equal timestamps always
/// share a bucket, so the result is identical to a full comparison sort,
/// at a fraction of the compare/move traffic.
void sort_events(std::vector<Event>& events) {
  constexpr std::size_t kSmall = 1 << 12;
  const auto ascending = [](const Event& a, const Event& b) { return b > a; };
  if (events.size() < kSmall) {
    std::sort(events.begin(), events.end(), ascending);
    return;
  }
  double lo = events.front().time;
  double hi = lo;
  for (const Event& e : events) {
    lo = std::min(lo, e.time);
    hi = std::max(hi, e.time);
  }
  if (!(hi > lo)) {
    std::sort(events.begin(), events.end(), ascending);
    return;
  }
  const std::size_t buckets = events.size() / 16;
  const double scale = static_cast<double>(buckets) / (hi - lo);
  const auto bucket_of = [&](double t) {
    const auto b = static_cast<std::size_t>((t - lo) * scale);
    return std::min(b, buckets - 1);
  };
  std::vector<std::uint32_t> bounds(buckets + 1, 0);
  for (const Event& e : events) ++bounds[bucket_of(e.time) + 1];
  for (std::size_t b = 1; b <= buckets; ++b) bounds[b] += bounds[b - 1];
  std::vector<Event> sorted(events.size());
  {
    std::vector<std::uint32_t> cursor(bounds.begin(), bounds.end() - 1);
    for (const Event& e : events) sorted[cursor[bucket_of(e.time)]++] = e;
  }
  for (std::size_t b = 0; b < buckets; ++b) {
    std::sort(sorted.begin() + bounds[b], sorted.begin() + bounds[b + 1],
              ascending);
  }
  events.swap(sorted);
}

/// Mutable usage counters with peak tracking, plus sample-and-hold bucket
/// sampling of per-DC cores on a grid anchored at t = 0: advance(t) records
/// the current load into every bucket whose end is <= t, so bucket b holds
/// the load at exactly (b+1)*bucket_s. Because every partition samples the
/// same grid, per-bucket values sum exactly across concurrent partitions.
class UsageTracker {
 public:
  UsageTracker(const EvalContext& ctx, double bucket_s)
      : dc_cores_(ctx.world->dc_count(), 0.0),
        dc_peaks_(ctx.world->dc_count(), 0.0),
        link_gbps_(ctx.topology->link_count(), 0.0),
        link_peaks_(ctx.topology->link_count(), 0.0),
        server_cores_(ctx.world->server_count(), 0.0),
        server_peaks_(ctx.world->server_count(), 0.0),
        dc_buckets_(ctx.world->dc_count()),
        loc_count_(ctx.world->location_count()),
        bucket_s_(bucket_s),
        next_bucket_end_(bucket_s) {
    // add_leg runs once per joined leg per event — the most-executed code
    // in a replay. Flatten everything it would otherwise chase through
    // World / LoadModel / Topology (all immutable for the run) into dense
    // tables: per-media load rates and a (dc, location) -> WAN-links CSR so
    // the per-leg work is pure arithmetic on this object's own arrays.
    for (int m = 0; m < 3; ++m) {
      const auto media = static_cast<MediaType>(m);
      cores_media_[m] = ctx.loads->cores_per_participant(media);
      gbps_media_[m] = ctx.loads->mbps_per_participant(media) / kMbpsPerGbps;
    }
    const std::size_t dcs = ctx.world->dc_count();
    path_off_.reserve(dcs * loc_count_ + 1);
    path_off_.push_back(0);
    for (std::size_t dc = 0; dc < dcs; ++dc) {
      const LocationId dc_loc = ctx.world->datacenter(DcId(dc)).location;
      for (std::size_t loc = 0; loc < loc_count_; ++loc) {
        for (LinkId l : ctx.topology->path(dc_loc, LocationId(loc))) {
          path_flat_.push_back(l);
        }
        path_off_.push_back(static_cast<std::uint32_t>(path_flat_.size()));
      }
    }
  }

  /// Call before applying any event at time `t` (events AT a bucket
  /// boundary land in the bucket that starts there, not the one ending).
  void advance(SimTime t) {
    while (next_bucket_end_ <= t) {
      for (std::size_t x = 0; x < dc_cores_.size(); ++x) {
        dc_buckets_[x].push_back(dc_cores_[x]);
      }
      next_bucket_end_ += bucket_s_;
    }
  }

  void add_leg(DcId dc, MediaType media, LocationId loc, double sign) {
    // Same arithmetic as the direct model lookups (the tables hold the
    // exact same doubles), so every accumulation is bit-identical.
    const double cores = cores_media_[static_cast<int>(media)] * sign;
    dc_cores_[dc.value()] += cores;
    if (sign > 0) {
      dc_peaks_[dc.value()] =
          std::max(dc_peaks_[dc.value()], dc_cores_[dc.value()]);
    }
    const double gbps = gbps_media_[static_cast<int>(media)] * sign;
    const std::size_t pair = dc.value() * loc_count_ + loc.value();
    const std::uint32_t end = path_off_[pair + 1];
    for (std::uint32_t i = path_off_[pair]; i < end; ++i) {
      const std::size_t l = path_flat_[i].value();
      link_gbps_[l] += gbps;
      if (sign > 0) {
        link_peaks_[l] = std::max(link_peaks_[l], link_gbps_[l]);
      }
    }
  }

  /// Every joined leg of one call: a LocationId run in the shared leg
  /// arena, applied in join order.
  void add_legs(DcId dc, MediaType media, const LocationId* locs,
                std::size_t count, double sign) {
    for (std::size_t i = 0; i < count; ++i) {
      add_leg(dc, media, locs[i], sign);
    }
  }

  /// Packer-footprint accounting (static frozen footprint, not joined
  /// legs — the packer's own unit). No-op for an invalid server.
  void add_server(ServerId server, double cores) {
    if (!server.valid() || server.value() >= server_cores_.size()) return;
    server_cores_[server.value()] += cores;
    if (cores > 0.0) {
      server_peaks_[server.value()] = std::max(
          server_peaks_[server.value()], server_cores_[server.value()]);
    }
  }

  [[nodiscard]] const std::vector<double>& dc_peaks() const {
    return dc_peaks_;
  }
  [[nodiscard]] const std::vector<double>& link_peaks() const {
    return link_peaks_;
  }
  [[nodiscard]] const std::vector<double>& server_peaks() const {
    return server_peaks_;
  }
  [[nodiscard]] std::vector<std::vector<double>>&& take_dc_buckets() {
    return std::move(dc_buckets_);
  }

 private:
  std::vector<double> dc_cores_;
  std::vector<double> dc_peaks_;
  std::vector<double> link_gbps_;
  std::vector<double> link_peaks_;
  std::vector<double> server_cores_;
  std::vector<double> server_peaks_;
  std::vector<std::vector<double>> dc_buckets_;
  std::size_t loc_count_;
  double cores_media_[3] = {0.0, 0.0, 0.0};
  double gbps_media_[3] = {0.0, 0.0, 0.0};
  /// CSR over (dc, location): links on the WAN path, in path order.
  std::vector<std::uint32_t> path_off_;
  std::vector<LinkId> path_flat_;
  double bucket_s_;
  SimTime next_bucket_end_;
};

}  // namespace

/// Per-partition accumulator; one per driver thread, merged after the join.
struct Simulator::Partial {
  std::uint64_t calls = 0;
  std::uint64_t frozen = 0;
  std::uint64_t migrations = 0;
  double acl_sum = 0.0;
  std::uint64_t majority_first = 0;
  std::uint64_t peak_concurrent = 0;
  std::uint64_t failover_migrations = 0;
  std::uint64_t dropped = 0;
  std::vector<double> dc_peaks;
  std::vector<double> link_peaks;
  std::vector<double> server_peaks;
  std::vector<std::vector<double>> dc_buckets;
  std::vector<HostingEvent> hosting;  ///< filled only when a log was requested

  void merge(Partial& other) {
    calls += other.calls;
    frozen += other.frozen;
    migrations += other.migrations;
    acl_sum += other.acl_sum;
    majority_first += other.majority_first;
    failover_migrations += other.failover_migrations;
    dropped += other.dropped;
    // Peaks merge as sums of per-partition peaks: an upper bound on the
    // time-aligned peak (partitions replay without a shared clock).
    peak_concurrent += other.peak_concurrent;
    if (dc_peaks.empty()) dc_peaks.assign(other.dc_peaks.size(), 0.0);
    for (std::size_t i = 0; i < other.dc_peaks.size(); ++i) {
      dc_peaks[i] += other.dc_peaks[i];
    }
    if (link_peaks.empty()) link_peaks.assign(other.link_peaks.size(), 0.0);
    for (std::size_t i = 0; i < other.link_peaks.size(); ++i) {
      link_peaks[i] += other.link_peaks[i];
    }
    if (server_peaks.empty()) {
      server_peaks.assign(other.server_peaks.size(), 0.0);
    }
    for (std::size_t i = 0; i < other.server_peaks.size(); ++i) {
      server_peaks[i] += other.server_peaks[i];
    }
    // Bucket samples sum exactly: every partition samples the same grid. A
    // partition whose stream ended early contributes zero to later buckets
    // (all its calls have ended by then), so padding is implicit.
    if (dc_buckets.empty()) dc_buckets.resize(other.dc_buckets.size());
    for (std::size_t x = 0; x < other.dc_buckets.size(); ++x) {
      if (dc_buckets[x].size() < other.dc_buckets[x].size()) {
        dc_buckets[x].resize(other.dc_buckets[x].size(), 0.0);
      }
      for (std::size_t b = 0; b < other.dc_buckets[x].size(); ++b) {
        dc_buckets[x][b] += other.dc_buckets[x][b];
      }
    }
    // Hosting events concatenate partition-by-partition: each record lives
    // in exactly one partition, so its events stay in replay order.
    hosting.insert(hosting.end(),
                   std::make_move_iterator(other.hosting.begin()),
                   std::make_move_iterator(other.hosting.end()));
  }
};

/// Shared coordination for fault events. In sequential mode (parties <= 1)
/// the replaying thread invokes the allocator hook inline. In concurrent
/// mode every partition's queue carries every fault event, so each fault is
/// a rendezvous: arrivals block until all `parties` partitions reach it,
/// the last arrival invokes the hook (all peers are parked in the wait, so
/// the drain races no call event — same semantics as the sequential
/// driver), and the outcome lands in a per-event slot each partition then
/// applies to its own calls.
struct Simulator::FaultRuntime {
  std::vector<fault::FaultEvent> events;
  std::vector<fault::FailoverOutcome> outcomes;
  std::size_t parties = 1;
  std::mutex mutex;
  std::condition_variable cv;
  std::size_t waiting = 0;
  std::uint64_t generation = 0;

  explicit FaultRuntime(const fault::FaultSchedule& schedule,
                        std::size_t parties_in)
      : events(schedule.events()),
        outcomes(events.size()),
        parties(parties_in) {}

  static void invoke(CallAllocator& allocator, const fault::FaultEvent& fe,
                     fault::FailoverOutcome& slot) {
    switch (fe.kind) {
      case fault::FaultEvent::Kind::kDcDown:
        slot = allocator.on_dc_failed(fe.dc, fe.time);
        break;
      case fault::FaultEvent::Kind::kDcUp:
        allocator.on_dc_recovered(fe.dc, fe.time);
        break;
      case fault::FaultEvent::Kind::kLinkDown:
        allocator.on_link_failed(fe.link, fe.time);
        break;
      case fault::FaultEvent::Kind::kLinkUp:
        allocator.on_link_recovered(fe.link, fe.time);
        break;
      case fault::FaultEvent::Kind::kServerDown:
        slot = allocator.on_server_failed(fe.server, fe.time);
        break;
      case fault::FaultEvent::Kind::kServerUp:
        allocator.on_server_recovered(fe.server, fe.time);
        break;
      case fault::FaultEvent::Kind::kWorkerDown:
        slot = allocator.on_worker_failed(fe.worker, fe.time);
        break;
      case fault::FaultEvent::Kind::kWorkerUp:
        allocator.on_worker_recovered(fe.worker, fe.time);
        break;
    }
  }

  /// Returns once `outcomes[index]` is populated for this event.
  void arrive(CallAllocator& allocator, std::size_t index) {
    if (parties <= 1) {
      invoke(allocator, events[index], outcomes[index]);
      return;
    }
    std::unique_lock lock(mutex);
    if (++waiting == parties) {
      // Last arrival: every peer is parked in the wait below, so the hook
      // (e.g. a full drain through the selector) runs with the allocator
      // quiesced, exactly like the sequential driver.
      invoke(allocator, events[index], outcomes[index]);
      waiting = 0;
      ++generation;
      cv.notify_all();
    } else {
      const std::uint64_t gen = generation;
      cv.wait(lock, [&] { return generation != gen; });
    }
  }
};

Simulator::Metrics::Metrics(const EvalContext& ctx)
    : calls(obs::MetricsRegistry::global().counter("sb.sim.calls")),
      frozen(obs::MetricsRegistry::global().counter("sb.sim.frozen")),
      migrations(obs::MetricsRegistry::global().counter("sb.sim.migrations")),
      acl_ms(obs::MetricsRegistry::global().histogram(
          "sb.sim.acl_ms", {.min = 0.1, .max = 1000.0, .bucket_count = 80})),
      run_s(obs::MetricsRegistry::global().histogram("sb.sim.run_s")),
      peak_concurrent_calls(obs::MetricsRegistry::global().gauge(
          "sb.sim.peak_concurrent_calls")) {
  require(ctx.world != nullptr, "Simulator: incomplete context");
  dc_peak_cores.reserve(ctx.world->dc_count());
  for (std::size_t x = 0; x < ctx.world->dc_count(); ++x) {
    dc_peak_cores.push_back(&obs::MetricsRegistry::global().gauge(
        "sb.sim.dc_peak_cores." + std::to_string(x)));
  }
}

Simulator::Simulator(EvalContext ctx) : ctx_(ctx), metrics_(ctx_) {
  require(ctx_.world && ctx_.topology && ctx_.latency && ctx_.registry &&
              ctx_.loads,
          "Simulator: incomplete context");
}

void Simulator::replay_partition(const CallRecordDatabase& db,
                                 CallAllocator& allocator,
                                 double freeze_delay_s,
                                 const std::vector<std::uint8_t>& mine,
                                 Partial& out, FaultRuntime* faults,
                                 double bucket_s, bool log_hosting,
                                 std::size_t partition,
                                 std::uint64_t parent_span) const {
  obs::Span span("sim.partition", obs::Subsystem::kSim, obs::kNoSimTime,
                 parent_span);
  span.attr(obs::AttrKey::kPartition, static_cast<std::int64_t>(partition));
  std::uint64_t event_count = 0;
  const auto& records = db.records();

  // SoA precompute: one pass resolves every owned record's config and its
  // packer footprint, so the hot loop never touches the registry. Slots for
  // records of other partitions stay null/zero and are never read.
  std::vector<const CallConfig*> configs(records.size(), nullptr);
  std::vector<ConfigId> config_ids(records.size());
  std::vector<double> footprints(records.size(), 0.0);
  std::vector<LiveCall> live(records.size());
  std::uint32_t arena_size = 0;

  // Events get seqs in insertion order: faults first, so at an equal
  // timestamp a fault orders before any call event in every partition, then
  // each record's start, leg joins, media change, freeze and end. Sorting
  // by (time, seq) gives the replay order. Every per-record constant an
  // event needs (the call id, the first joiner, the starting media, the
  // majority-first flag, the media-change target) is folded into the event
  // here, where the record is already hot.
  std::vector<Event> events;
  {
    // Upper bound: start + freeze + end + media change + joins per record.
    std::size_t cap = faults != nullptr ? faults->events.size() : 0;
    for (std::size_t r = 0; r < records.size(); ++r) {
      if (mine[r]) cap += records[r].legs.size() + 3;
    }
    events.reserve(cap);
  }
  std::uint32_t seq = 0;
  std::unordered_map<CallId, std::size_t> id_to_record;
  if (faults != nullptr) {
    for (std::size_t f = 0; f < faults->events.size(); ++f) {
      events.push_back({faults->events[f].time, seq++,
                        static_cast<std::uint32_t>(f), CallId(), LocationId(),
                        EventType::kFault});
    }
  }
  for (std::size_t r = 0; r < records.size(); ++r) {
    if (!mine[r]) continue;
    const CallRecord& rec = records[r];
    if (faults != nullptr) id_to_record.emplace(rec.id, r);
    const CallConfig& config = ctx_.registry->get(rec.config);
    configs[r] = &config;
    config_ids[r] = rec.config;
    footprints[r] = config.total_participants() *
                    ctx_.loads->cores_per_participant(config.media());
    live[r].legs_base = arena_size;
    arena_size += static_cast<std::uint32_t>(rec.legs.size());
    const auto r32 = static_cast<std::uint32_t>(r);
    const LocationId first = rec.legs.front().location;
    const MediaType start_media = rec.media_change_offset_s > 0.0
                                      ? MediaType::kAudio
                                      : config.media();
    events.push_back({rec.start_s, seq++, r32, rec.id, first,
                      EventType::kStart, start_media,
                      first == config.majority_location()});
    for (std::size_t leg = 1; leg < rec.legs.size(); ++leg) {
      events.push_back({rec.start_s + rec.legs[leg].join_offset_s, seq++, r32,
                        rec.id, rec.legs[leg].location, EventType::kLegJoin});
    }
    if (config.media() != MediaType::kAudio && rec.media_change_offset_s > 0.0) {
      events.push_back({rec.start_s + rec.media_change_offset_s, seq++, r32,
                        rec.id, LocationId(), EventType::kMediaChange,
                        config.media()});
    }
    if (rec.duration_s > freeze_delay_s) {
      events.push_back({rec.start_s + freeze_delay_s, seq++, r32, rec.id,
                        LocationId(), EventType::kFreeze});
    }
    events.push_back({rec.start_s + rec.duration_s, seq++, r32, rec.id,
                      LocationId(), EventType::kEnd});
  }
  sort_events(events);

  UsageTracker usage(ctx_, bucket_s);
  // The joined-leg arena: each owned record's legs occupy the contiguous
  // run [legs_base, legs_base + legs_count) in insertion order.
  std::vector<LocationId> arena(arena_size);
  std::uint64_t concurrent = 0;
  // ACL histogram records are deferred and flushed once per partition, in
  // call-end order: the same histogram state as recording at each end,
  // minus one atomic RMW per call end on the hot path.
  std::vector<double> acl_deferred;

  const std::size_t n = events.size();
  std::size_t i = 0;
  while (i < n) {
    if (events[i].type == EventType::kFault) {
      // Faults run outside any batch: the allocator's batch lock (if any)
      // has been released, so the barrier hook (drain) and the peers parked
      // at the rendezvous never hold the controller's shared lock.
      const Event ev = events[i];
      usage.advance(ev.time);
      ++event_count;
      faults->arrive(allocator, ev.record);
      const fault::FailoverOutcome& outcome = faults->outcomes[ev.record];
      for (const fault::FailoverMove& m : outcome.moved) {
        const auto it = id_to_record.find(m.call);
        if (it == id_to_record.end()) continue;
        LiveCall& call = live[it->second];
        if (!call.active) continue;
        const LocationId* legs = arena.data() + call.legs_base;
        usage.add_legs(call.dc, call.media, legs, call.legs_count, -1.0);
        call.dc = m.to;
        usage.add_legs(call.dc, call.media, legs, call.legs_count, +1.0);
        if (call.server != m.to_server) {
          const double fp = footprints[it->second];
          usage.add_server(call.server, -fp);
          call.server = m.to_server;
          usage.add_server(call.server, +fp);
        }
        ++out.failover_migrations;
        if (log_hosting) {
          out.hosting.push_back({it->second, ev.time,
                                 HostingEvent::Kind::kMove, m.to,
                                 m.to_server});
        }
      }
      for (CallId dropped : outcome.dropped) {
        const auto it = id_to_record.find(dropped);
        if (it == id_to_record.end()) continue;
        LiveCall& call = live[it->second];
        if (!call.active) continue;
        usage.add_legs(call.dc, call.media, arena.data() + call.legs_base,
                       call.legs_count, -1.0);
        if (call.server.valid()) {
          usage.add_server(call.server, -footprints[it->second]);
          call.server = ServerId();
        }
        call.active = false;
        --concurrent;
        ++out.dropped;
        if (log_hosting) {
          out.hosting.push_back({it->second, ev.time,
                                 HostingEvent::Kind::kDrop, DcId(),
                                 ServerId()});
        }
      }
      ++i;
      continue;
    }

    // One batch: up to batch_events_ call events, capped at the next fault.
    std::size_t end = std::min(n, i + batch_events_);
    for (std::size_t j = i; j < end; ++j) {
      if (events[j].type == EventType::kFault) {
        end = j;
        break;
      }
    }
    allocator.batch_begin();
    const SimTime batch_last = events[end - 1].time;
    for (; i < end; ++i) {
      const Event& ev = events[i];
      usage.advance(ev.time);
      ++event_count;
      LiveCall& call = live[ev.record];

      switch (ev.type) {
        case EventType::kStart: {
          call.dc = allocator.on_call_start(ev.call, ev.loc, ev.time);
          call.media = ev.media;
          arena[call.legs_base] = ev.loc;
          call.legs_count = 1;
          call.active = true;
          usage.add_leg(call.dc, call.media, ev.loc, +1.0);
          ++out.calls;
          if (log_hosting) {
            out.hosting.push_back({ev.record, ev.time,
                                   HostingEvent::Kind::kStart, call.dc,
                                   ServerId()});
          }
          if (ev.majority_first) ++out.majority_first;
          ++concurrent;
          out.peak_concurrent = std::max(out.peak_concurrent, concurrent);
          break;
        }
        case EventType::kLegJoin: {
          if (!call.active) break;  // leg joined after the call ended
          arena[call.legs_base + call.legs_count] = ev.loc;
          ++call.legs_count;
          usage.add_leg(call.dc, call.media, ev.loc, +1.0);
          break;
        }
        case EventType::kMediaChange: {
          if (!call.active) break;
          const LocationId* legs = arena.data() + call.legs_base;
          usage.add_legs(call.dc, call.media, legs, call.legs_count, -1.0);
          call.media = ev.media;
          usage.add_legs(call.dc, call.media, legs, call.legs_count, +1.0);
          break;
        }
        case EventType::kFreeze: {
          if (!call.active) break;
          ++out.frozen;
          const FreezeResult result = allocator.on_config_frozen(
              ev.call, config_ids[ev.record], *configs[ev.record], ev.time);
          if (result.server.valid()) {
            call.server = result.server;
            usage.add_server(call.server, +footprints[ev.record]);
          }
          if (result.migrated) {
            ++out.migrations;
            const LocationId* legs = arena.data() + call.legs_base;
            usage.add_legs(call.dc, call.media, legs, call.legs_count, -1.0);
            call.dc = result.dc;
            usage.add_legs(call.dc, call.media, legs, call.legs_count, +1.0);
            if (log_hosting) {
              out.hosting.push_back({ev.record, ev.time,
                                     HostingEvent::Kind::kMove, call.dc,
                                     call.server});
            }
          } else if (result.server.valid() && log_hosting) {
            out.hosting.push_back({ev.record, ev.time,
                                   HostingEvent::Kind::kPack, call.dc,
                                   call.server});
          }
          break;
        }
        case EventType::kEnd: {
          if (!call.active) break;  // dropped by a failover before its end
          usage.add_legs(call.dc, call.media, arena.data() + call.legs_base,
                         call.legs_count, -1.0);
          if (call.server.valid()) {
            usage.add_server(call.server, -footprints[ev.record]);
          }
          call.active = false;
          if (log_hosting) {
            out.hosting.push_back({ev.record, ev.time,
                                   HostingEvent::Kind::kEnd, DcId(),
                                   ServerId()});
          }
          allocator.on_call_end(ev.call, ev.time);
          const double final_acl_ms =
              acl_ms(*configs[ev.record], call.dc, *ctx_.latency);
          out.acl_sum += final_acl_ms;
          acl_deferred.push_back(final_acl_ms);
          --concurrent;
          break;
        }
        case EventType::kFault:
          break;  // unreachable: batches never span a fault
      }
    }
    allocator.batch_end(batch_last);
  }
  for (double v : acl_deferred) metrics_.acl_ms.record(v);
  out.dc_peaks = usage.dc_peaks();
  out.link_peaks = usage.link_peaks();
  out.server_peaks = usage.server_peaks();
  out.dc_buckets = usage.take_dc_buckets();
  span.attr(obs::AttrKey::kEvents, static_cast<std::int64_t>(event_count));
}

SimReport Simulator::finalize(CallAllocator& allocator, const Partial& total,
                              double bucket_s, bool bucket_peaks) const {
  SimReport report;
  report.allocator = allocator.name();
  report.calls = total.calls;
  report.frozen = total.frozen;
  report.migrations = total.migrations;
  report.peak_concurrent_calls = total.peak_concurrent;
  report.failover_migrations = total.failover_migrations;
  report.dropped_calls = total.dropped;
  report.migration_fraction =
      report.calls == 0
          ? 0.0
          : static_cast<double>(report.migrations) /
                static_cast<double>(report.calls);
  report.mean_acl_ms =
      report.calls == 0 ? 0.0
                        : total.acl_sum / static_cast<double>(report.calls);
  report.first_joiner_majority_fraction =
      report.calls == 0
          ? 0.0
          : static_cast<double>(total.majority_first) /
                static_cast<double>(report.calls);
  report.dc_cores_buckets = total.dc_buckets;
  report.bucket_s = bucket_s;

  metrics_.calls.inc(report.calls);
  metrics_.frozen.inc(report.frozen);
  metrics_.migrations.inc(report.migrations);
  // One pass copies the realized peaks into the report and raises the
  // process-wide peak gauges (handles resolved at construction; no per-run
  // name lookups or second accounting loop).
  if (bucket_peaks) {
    // Concurrent driver: the time-aligned bucket maximum, exact at bucket
    // granularity (the summed per-partition continuous peaks in
    // total.dc_peaks are only an upper bound).
    report.dc_peak_cores.resize(total.dc_buckets.size(), 0.0);
    for (std::size_t x = 0; x < total.dc_buckets.size(); ++x) {
      report.dc_peak_cores[x] = report.dc_bucket_peak(x);
    }
  } else {
    report.dc_peak_cores = total.dc_peaks;
  }
  for (std::size_t x = 0; x < report.dc_peak_cores.size(); ++x) {
    metrics_.dc_peak_cores[x]->max_of(report.dc_peak_cores[x]);
  }
  report.link_peak_gbps = total.link_peaks;
  report.server_peak_cores = total.server_peaks;
  metrics_.peak_concurrent_calls.max_of(
      static_cast<double>(report.peak_concurrent_calls));
  return report;
}

SimReport Simulator::run(const CallRecordDatabase& db, CallAllocator& allocator,
                         double freeze_delay_s,
                         const fault::FaultSchedule* faults,
                         double bucket_s, HostingLog* hosting_log) const {
  require(freeze_delay_s > 0.0, "Simulator::run: freeze delay");
  require(bucket_s > 0.0, "Simulator::run: bucket width");
  obs::ScopedTimer run_timer(metrics_.run_s);
  obs::Span span("sim.run", obs::Subsystem::kSim);
  Partial total;
  const std::vector<std::uint8_t> all(db.records().size(), 1);
  const bool log_hosting = hosting_log != nullptr;
  std::unique_ptr<FaultRuntime> runtime;
  if (faults != nullptr && !faults->empty()) {
    runtime = std::make_unique<FaultRuntime>(*faults, 1);
  }
  replay_partition(db, allocator, freeze_delay_s, all, total, runtime.get(),
                   bucket_s, log_hosting, 0, span.id());
  if (hosting_log != nullptr) hosting_log->events = std::move(total.hosting);
  return finalize(allocator, total, bucket_s, /*bucket_peaks=*/false);
}

SimReport Simulator::run_concurrent(const CallRecordDatabase& db,
                                    CallAllocator& allocator,
                                    double freeze_delay_s, std::size_t threads,
                                    const fault::FaultSchedule* faults,
                                    double bucket_s,
                                    HostingLog* hosting_log) const {
  require(freeze_delay_s > 0.0, "Simulator::run_concurrent: freeze delay");
  require(bucket_s > 0.0, "Simulator::run_concurrent: bucket width");
  if (threads == 0) {
    threads = std::max<std::size_t>(std::thread::hardware_concurrency(), 1);
  }
  obs::ScopedTimer run_timer(metrics_.run_s);
  obs::Span span("sim.run_concurrent", obs::Subsystem::kSim);
  const auto& records = db.records();

  // Partition by call shard: every event of a call replays on one thread,
  // which preserves per-call ordering (start < freeze < end) and gives the
  // controller's KV writes per-key last-writer-wins for free.
  std::vector<std::vector<std::uint8_t>> mine(
      threads, std::vector<std::uint8_t>(records.size(), 0));
  for (std::size_t r = 0; r < records.size(); ++r) {
    mine[records[r].id.value() % threads][r] = 1;
  }

  // The fault rendezvous needs every partition live at once: the pool below
  // has exactly `threads` workers for `threads` partition tasks, so all
  // parties can reach each fault barrier.
  std::unique_ptr<FaultRuntime> runtime;
  if (faults != nullptr && !faults->empty()) {
    runtime = std::make_unique<FaultRuntime>(*faults, threads);
  }

  ThreadPool pool(threads);
  std::vector<std::future<Partial>> futures;
  futures.reserve(threads);
  const bool log_hosting = hosting_log != nullptr;
  const std::uint64_t root_span = span.id();
  for (std::size_t p = 0; p < threads; ++p) {
    futures.push_back(pool.submit([this, &db, &allocator, freeze_delay_s,
                                   part = &mine[p], rt = runtime.get(),
                                   bucket_s, log_hosting, p, root_span] {
      Partial out;
      replay_partition(db, allocator, freeze_delay_s, *part, out, rt, bucket_s,
                       log_hosting, p, root_span);
      return out;
    }));
  }
  Partial total;
  for (auto& f : futures) {
    Partial part = f.get();
    total.merge(part);
  }
  if (hosting_log != nullptr) hosting_log->events = std::move(total.hosting);
  return finalize(allocator, total, bucket_s, /*bucket_peaks=*/true);
}

}  // namespace sb
