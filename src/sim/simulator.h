// Discrete-event call simulator: replays a call-record trace against an
// allocator, tracking per-DC core usage, per-link traffic, per-call ACL,
// and migrations. This is the evaluation harness behind §6.4 (migration
// frequency) and the realized-usage sanity checks against provisioned
// capacity.
//
// Event model per call: the first joiner starts the call (allocator picks
// the initial DC); remaining legs join at their offsets; the media type may
// escalate mid-call; the config freezes A seconds in (allocator may
// migrate); the call ends. Loads follow the Table 1 model and the joined
// participant set at each instant.
//
// Fault injection: pass a fault::FaultSchedule and its DC/link down/up
// events are woven into the replayed stream in strict time order, invoking
// the allocator's fault hooks (drain/failover for Switchboard) and
// re-pointing usage accounting for every call the allocator moved or
// dropped. In the concurrent driver each fault is a barrier: all partitions
// align at the fault time, exactly one invokes the hook, then all apply the
// outcome — so a drain observes precisely the events before the fault,
// matching the sequential semantics.
//
// Replay: each partition materializes its events once, sorts them into
// (time, seq) order (seqs unique, faults lowest, so a fault applies before
// any call event at its instant) and replays them in allocator-bracketed
// batches, with per-record payloads folded into the events and the joined
// legs kept in a flat arena (DESIGN.md "Batched replay engine").
//
// Two driver modes: run() replays the whole event stream on the calling
// thread in strict (time, seq) order, run_concurrent() partitions calls by
// shard (CallId % threads) across a thread pool to drive a thread-safe
// allocator at scale — see the method comment for which report fields stay
// exact.
#pragma once

#include "calls/call_record.h"
#include "fault/fault_schedule.h"
#include "obs/metrics.h"
#include "sim/allocator.h"

namespace sb {

struct SimReport {
  std::string allocator;
  std::uint64_t calls = 0;
  std::uint64_t frozen = 0;      ///< calls that lived past the freeze point
  std::uint64_t migrations = 0;
  double migration_fraction = 0.0;  ///< migrations / calls (§6.4)
  /// Call-weighted mean ACL at the final hosting DC.
  double mean_acl_ms = 0.0;
  /// Fraction of calls whose first joiner is in the majority country
  /// (§5.4 reports 95.2% in Teams).
  double first_joiner_majority_fraction = 0.0;
  std::vector<double> dc_peak_cores;   ///< realized per-DC peaks
  std::vector<double> link_peak_gbps;  ///< realized per-link peaks
  std::uint64_t peak_concurrent_calls = 0;
  /// Fault outcomes (0 when no schedule was passed).
  std::uint64_t failover_migrations = 0;  ///< calls moved off failed DCs
  std::uint64_t dropped_calls = 0;        ///< calls lost to exhausted backup
  /// Realized per-media-server core peaks (packer footprint units), indexed
  /// by global ServerId. Empty when the World has no fleet. In the
  /// concurrent driver these are summed per-partition peaks (upper bounds),
  /// like link_peak_gbps.
  std::vector<double> server_peak_cores;
  /// Realized per-DC core usage sampled at bucket boundaries:
  /// dc_cores_buckets[x][b] is DC x's load at time (b+1)*bucket_s (buckets
  /// anchored at t = 0). Sample-and-hold at bucket ends, so the series is
  /// an exact time-aligned snapshot in both driver modes — this is what
  /// realized-vs-provisioned comparisons should read.
  std::vector<std::vector<double>> dc_cores_buckets;
  double bucket_s = 0.0;

  /// Max over buckets of dc_cores_buckets[dc]; 0 when out of range/empty.
  [[nodiscard]] double dc_bucket_peak(std::size_t dc) const;
};

/// One hosting decision captured by the optional HostingLog: which record
/// was (re)hosted where, or left the system. Events of a single record
/// appear in replay order; events of different records may interleave
/// arbitrarily (concurrent partitions are concatenated), so consumers must
/// group by `record`.
struct HostingEvent {
  enum class Kind : std::uint8_t {
    kStart,  ///< call admitted; `dc` is the initial hosting DC
    kMove,   ///< freeze migration or failover move; `dc` is the new DC
    kDrop,   ///< dropped by failover (usage released; no kEnd follows)
    kEnd,    ///< normal end (usage released)
    kPack,   ///< packed onto `server` at freeze without changing DC (fleet
             ///< runs only — a no-fleet run's log is byte-identical to the
             ///< pre-fleet format)
  };
  std::size_t record = 0;  ///< index into the replayed CallRecordDatabase
  SimTime time = 0.0;
  Kind kind = Kind::kStart;
  DcId dc;  ///< hosting DC after the event (kStart/kMove/kPack only)
  /// Hosting media server after the event (kMove/kPack; invalid without a
  /// fleet or before the call's freeze).
  ServerId server;

  friend bool operator==(const HostingEvent&, const HostingEvent&) = default;
};

/// Opt-in capture of every hosting decision a run made. The sb_check oracle
/// suite replays it single-threaded to recount dc_cores_buckets
/// independently of the UsageTracker (see check/oracles.h).
struct HostingLog {
  std::vector<HostingEvent> events;

  friend bool operator==(const HostingLog&, const HostingLog&) = default;
};

class Simulator {
 public:
  explicit Simulator(EvalContext ctx);

  /// Max call events per allocator batch_begin()/batch_end() bracket
  /// (bounds how long one partition holds the controller's shared plan
  /// lock, and so the latency of a closed-loop plan install racing the
  /// replay). 1 sends every event in a bracket of its own, so a closed loop
  /// ticks after every event.
  void set_batch_events(std::size_t n) { batch_events_ = n == 0 ? 1 : n; }

  /// Replays `db` against `allocator` on the calling thread, every event in
  /// strict (time, insertion) order. `freeze_delay_s` is the A parameter
  /// (§6.4); calls shorter than it are never frozen or migrated. Fault
  /// events from `faults` (optional) interleave at their times, ordered
  /// before call events at the same instant. `bucket_s` sets the sampling
  /// grain of dc_cores_buckets. `hosting_log` (optional) receives every
  /// hosting decision the run made.
  SimReport run(const CallRecordDatabase& db, CallAllocator& allocator,
                double freeze_delay_s = 300.0,
                const fault::FaultSchedule* faults = nullptr,
                double bucket_s = 60.0, HostingLog* hosting_log = nullptr) const;

  /// Multi-threaded driver: partitions the event stream by CallId % threads
  /// and replays each partition on the shared thread pool. Every call's
  /// events land in exactly one partition, so each call keeps single-thread
  /// affinity and strict per-call event order (which also keeps per-call KV
  /// writes last-writer-wins). Requires a thread-safe allocator
  /// (ControllerAllocator over the Switchboard; NOT the RR/LF baselines).
  ///
  /// Count and per-call fields (calls, frozen, migrations, mean_acl_ms,
  /// first_joiner_majority_fraction) are exact sums over partitions.
  /// dc_peak_cores is exact at bucket granularity: partitions sample their
  /// usage on a shared bucket grid (anchored at t = 0), the per-bucket
  /// samples sum exactly across partitions, and the peak is the max over
  /// buckets — time-aligned, unlike a sum of per-partition peaks, though it
  /// can sit below run()'s continuous peak by whatever spike fits inside
  /// one bucket. link_peak_gbps and peak_concurrent_calls remain summed
  /// per-partition peaks (upper bounds). Use run() when exact continuous
  /// peaks matter.
  ///
  /// `threads` == 0 picks hardware_concurrency; 1 degenerates to a single
  /// pool-driven partition (same event order as run()).
  SimReport run_concurrent(const CallRecordDatabase& db,
                           CallAllocator& allocator,
                           double freeze_delay_s = 300.0,
                           std::size_t threads = 0,
                           const fault::FaultSchedule* faults = nullptr,
                           double bucket_s = 60.0,
                           HostingLog* hosting_log = nullptr) const;

 private:
  struct Partial;       // per-partition accumulator (simulator.cpp)
  struct FaultRuntime;  // shared fault-event coordination (simulator.cpp)

  /// sb.sim.* handles resolved once so run() never does a registry name
  /// lookup; per-DC peak gauges are updated in the same pass that copies
  /// the peaks into the report (no second accounting path).
  struct Metrics {
    obs::Counter& calls;
    obs::Counter& frozen;
    obs::Counter& migrations;
    obs::Histogram& acl_ms;
    obs::Histogram& run_s;
    obs::Gauge& peak_concurrent_calls;
    std::vector<obs::Gauge*> dc_peak_cores;
    explicit Metrics(const EvalContext& ctx);
  };

  /// Replays the records selected by `mine` (record index -> bool) and
  /// accumulates into `out`, driven off one sorted event vector in
  /// allocator-bracketed batches of up to batch_events_ call events.
  /// Batches never span a fault event: the batch (and its shared lock) ends
  /// before the partition arrives at the fault barrier.
  /// `partition`/`parent_span` label the per-partition trace span (parented
  /// under the driver's root span across the pool fan-out).
  void replay_partition(const CallRecordDatabase& db, CallAllocator& allocator,
                        double freeze_delay_s,
                        const std::vector<std::uint8_t>& mine, Partial& out,
                        FaultRuntime* faults, double bucket_s,
                        bool log_hosting, std::size_t partition,
                        std::uint64_t parent_span) const;
  SimReport finalize(CallAllocator& allocator, const Partial& total,
                     double bucket_s, bool bucket_peaks) const;

  EvalContext ctx_;
  Metrics metrics_;
  std::size_t batch_events_ = 256;
};

}  // namespace sb
