// Golden-digest suite for the simulator's replay engine. Every case replays
// sequentially at batch sizes 1, 7 and 256. The three runs must give one
// digest, and it must match the digest captured from the heap-driven
// reference engine the batched loop replaced: FNV-1a over the hosting log,
// the report's counts, the length of each DC's bucket series and the bits
// of every DC, link and server peak. The bucket series and the mean ACL
// are checked by independent recount instead (check::recount_oracle, and
// each ended record's ACL at its final DC), and the sb.sim.* metric deltas
// against the report.
//
// A case's digest moves when its hosting decisions or its peaks move,
// which a change to the LP can do for the planned seeds. On a mismatch the
// test prints the new digest in kGolden form; paste it in only once the
// change is known to be meant. The digests were captured and checked with
// GCC 12.2 only. Under another compiler, a digest that differs from the
// golden while the three batch sizes still agree is drift in the compiled
// arithmetic or the LP's choices; batch sizes that disagree are a batching
// fault under any compiler.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "calls/acl.h"
#include "check/fuzz_case.h"
#include "check/fuzzer.h"
#include "check/oracles.h"
#include "core/controller.h"
#include "loop/demand_schedule.h"
#include "obs/metrics.h"
#include "sim/allocator.h"
#include "sim/simulator.h"

namespace sb {
namespace {

using check::build_demand;
using check::FuzzCase;
using check::Materialized;
using check::ScenarioFuzzer;

constexpr std::size_t kSeeds = 32;
constexpr std::size_t kBatches[] = {1, 7, 256};

/// Digests captured from the reference engine, one per fuzz seed.
constexpr std::uint64_t kGolden[kSeeds] = {
    0xb3fa866cf40cccb6ULL, 0x818d8f23517d9969ULL, 0xea35ba05a9056cdcULL,
    0x35633ee8bb135704ULL, 0x39545e0382767ccbULL, 0x043102b63e452aeeULL,
    0xaaf557c4ec96260aULL, 0x8c70739499960774ULL, 0x6b121034065d2c68ULL,
    0xeee38a604c37e16eULL, 0xa80710bb21fcfaa5ULL, 0x3e9ab5bfe2fb9efaULL,
    0xf5b1650d78670fa9ULL, 0xd7455aa231dba0c1ULL, 0xefb3d7c96a16f07bULL,
    0x8325deb75764e765ULL, 0x7a9564a77410c4c0ULL, 0xd134717d3ab71aceULL,
    0xb79358ed1ee500bcULL, 0x52a1e0430acbea94ULL, 0xba1cc9a941146c45ULL,
    0x34cba2fbe99447abULL, 0x38b0f9cc96e5665cULL, 0xabd327de9b4fd490ULL,
    0x58df53aaf96962e4ULL, 0xc37b6d249e3c7992ULL, 0x32d5dfb2ee3be4d6ULL,
    0x308bb262b054b0beULL, 0x186de9282673e5adULL, 0x4230ae2b8262f807ULL,
    0x0ef2d94939b84981ULL, 0x1ceb2ee653e993c2ULL,
};
/// The bucket-path case's digest, captured the same way.
constexpr std::uint64_t kBucketPathGolden = 0x3aeb114e7c9d3b9bULL;

/// What a metric read returns: `value`, or 0 from the stubs of an
/// SB_METRICS=OFF build.
template <typename T>
T metric(T value) {
#ifdef SB_METRICS_ENABLED
  return value;
#else
  (void)value;
  return T{};
#endif
}

/// One controller per run (fresh state, like the fuzz executor). A case
/// with a plan provisions and builds one; a plan-less case leaves the
/// controller on its closest-DC selector.
struct Harness {
  Switchboard sb;
  ControllerAllocator alloc{sb};

  Harness(const Materialized& m, const FuzzCase& c,
          const DemandMatrix* demand)
      : sb(m.ctx(), check::controller_options(c.options)) {
    if (c.options.use_plan) {
      sb.provision(*demand);
      sb.build_allocation_plan(*demand, c.window_start_s);
    }
  }
};

/// Peak gauges accumulate via max_of across runs and the ACL histogram sum
/// is floating point. Reset both so a run's metrics accumulate from zero.
void reset_run_metrics(std::size_t dc_count) {
  auto& reg = obs::MetricsRegistry::global();
  reg.histogram("sb.sim.acl_ms").reset();
  reg.gauge("sb.sim.peak_concurrent_calls").reset();
  for (std::size_t x = 0; x < dc_count; ++x) {
    reg.gauge("sb.sim.dc_peak_cores." + std::to_string(x)).reset();
  }
}

/// A replay plus the sb.sim.* metric state it left: counter deltas, the
/// ACL histogram and the peak gauges (both reset before the run).
struct RunResult {
  SimReport rep;
  HostingLog log;
  std::uint64_t d_calls = 0;
  std::uint64_t d_frozen = 0;
  std::uint64_t d_migrations = 0;
  obs::HistogramData acl;
  double peak_concurrent = 0.0;
  std::vector<double> dc_peak_gauges;
};

RunResult replay(const Materialized& m, const FuzzCase& c,
                 const DemandMatrix* demand, std::size_t batch_events,
                 std::size_t threads) {
  Harness h(m, c, demand);
  Simulator sim(m.ctx());
  sim.set_batch_events(batch_events);
  const fault::FaultSchedule* faults = m.faults.empty() ? nullptr : &m.faults;
  const std::size_t dc_count = m.world.dc_count();
  reset_run_metrics(dc_count);
  auto& reg = obs::MetricsRegistry::global();
  const std::uint64_t calls0 = reg.counter("sb.sim.calls").value();
  const std::uint64_t frozen0 = reg.counter("sb.sim.frozen").value();
  const std::uint64_t migrations0 = reg.counter("sb.sim.migrations").value();
  RunResult r;
  if (threads <= 1) {
    r.rep = sim.run(m.db, h.alloc, c.options.freeze_delay_s, faults,
                    c.options.bucket_s, &r.log);
  } else {
    r.rep = sim.run_concurrent(m.db, h.alloc, c.options.freeze_delay_s,
                               threads, faults, c.options.bucket_s, &r.log);
  }
  r.d_calls = reg.counter("sb.sim.calls").value() - calls0;
  r.d_frozen = reg.counter("sb.sim.frozen").value() - frozen0;
  r.d_migrations = reg.counter("sb.sim.migrations").value() - migrations0;
  r.acl = reg.histogram("sb.sim.acl_ms").collect();
  r.peak_concurrent = reg.gauge("sb.sim.peak_concurrent_calls").value();
  for (std::size_t x = 0; x < dc_count; ++x) {
    r.dc_peak_gauges.push_back(
        reg.gauge("sb.sim.dc_peak_cores." + std::to_string(x)).value());
  }
  return r;
}

/// FNV-1a (64-bit) over the hosting log, the report's counts, the length
/// of each DC's bucket series and the bits of every DC, link and server
/// peak.
std::uint64_t digest(const SimReport& rep, const HostingLog& log) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto add = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  add(log.events.size());
  for (const HostingEvent& e : log.events) {
    add(e.record);
    add(std::bit_cast<std::uint64_t>(e.time));
    add(static_cast<std::uint64_t>(e.kind));
    add(e.dc.value());
    add(e.server.value());
  }
  for (const std::uint64_t v :
       {rep.calls, rep.frozen, rep.migrations, rep.peak_concurrent_calls,
        rep.failover_migrations, rep.dropped_calls}) {
    add(v);
  }
  for (const auto& row : rep.dc_cores_buckets) add(row.size());
  for (const std::vector<double>* peaks :
       {&rep.dc_peak_cores, &rep.link_peak_gbps, &rep.server_peak_cores}) {
    add(peaks->size());
    for (const double v : *peaks) add(std::bit_cast<std::uint64_t>(v));
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char line[32];
  std::snprintf(line, sizeof line, "0x%016llxULL",
                static_cast<unsigned long long>(v));
  return line;
}

/// Checks a sequential run's bucket series and mean ACL by independent
/// recount from its hosting log and the call records, and its sb.sim.*
/// metric deltas against the report.
void expect_recounts_hold(const Materialized& m, const FuzzCase& c,
                          const RunResult& r, const std::string& what) {
  const SimReport& rep = r.rep;
  std::vector<check::OracleFailure> failures;
  check::recount_oracle(m, c, rep, r.log, "recount", failures);
  for (const check::OracleFailure& f : failures) {
    ADD_FAILURE() << what << ": " << f.detail;
  }
  // A bucket samples the load between events, which never exceeds the
  // continuous peak.
  ASSERT_EQ(rep.dc_peak_cores.size(), rep.dc_cores_buckets.size()) << what;
  for (std::size_t x = 0; x < rep.dc_peak_cores.size(); ++x) {
    EXPECT_GE(rep.dc_peak_cores[x], rep.dc_bucket_peak(x))
        << what << ": dc " << x;
  }

  // Mean ACL over every started call, each ended call contributing the
  // ACL at its final DC (a dropped call contributes nothing). A sequential
  // replay adds the same values in the same order as its log, so the sums
  // agree to the bit.
  const auto& records = m.db.records();
  std::vector<DcId> final_dc(records.size());
  std::uint64_t started = 0;
  std::uint64_t ended = 0;
  std::uint64_t majority_first = 0;
  double acl_sum = 0.0;
  for (const HostingEvent& e : r.log.events) {
    const CallRecord& rec = records[e.record];
    const CallConfig& config = m.registry.get(rec.config);
    switch (e.kind) {
      case HostingEvent::Kind::kStart:
        ++started;
        if (rec.legs.front().location == config.majority_location()) {
          ++majority_first;
        }
        final_dc[e.record] = e.dc;
        break;
      case HostingEvent::Kind::kMove:
      case HostingEvent::Kind::kPack:
        final_dc[e.record] = e.dc;
        break;
      case HostingEvent::Kind::kEnd:
        ++ended;
        acl_sum += acl_ms(config, final_dc[e.record], m.latency);
        break;
      case HostingEvent::Kind::kDrop:
        break;
    }
  }
  ASSERT_EQ(started, rep.calls) << what;
  const auto calls = static_cast<double>(rep.calls);
  EXPECT_EQ(rep.mean_acl_ms, rep.calls == 0 ? 0.0 : acl_sum / calls) << what;
  EXPECT_EQ(rep.first_joiner_majority_fraction,
            rep.calls == 0 ? 0.0 : static_cast<double>(majority_first) / calls)
      << what;
  EXPECT_EQ(rep.migration_fraction,
            rep.calls == 0 ? 0.0 : static_cast<double>(rep.migrations) / calls)
      << what;

  EXPECT_EQ(r.d_calls, metric(rep.calls)) << what;
  EXPECT_EQ(r.d_frozen, metric(rep.frozen)) << what;
  EXPECT_EQ(r.d_migrations, metric(rep.migrations)) << what;
  EXPECT_EQ(r.acl.count, metric(ended)) << what;
  EXPECT_EQ(r.acl.sum, metric(acl_sum)) << what;
  EXPECT_EQ(r.peak_concurrent,
            metric(static_cast<double>(rep.peak_concurrent_calls)))
      << what;
  ASSERT_EQ(r.dc_peak_gauges.size(), rep.dc_peak_cores.size()) << what;
  for (std::size_t x = 0; x < rep.dc_peak_cores.size(); ++x) {
    EXPECT_EQ(r.dc_peak_gauges[x], metric(rep.dc_peak_cores[x]))
        << what << ": dc " << x;
  }
}

/// Engine-pure fuzz cases: the cluster / closed-loop wrappers are stripped
/// so the suite isolates the replay engine itself (both wrappers are
/// differentially tested by their own suites).
FuzzCase engine_case(std::uint64_t seed) {
  FuzzCase c = ScenarioFuzzer().generate(seed);
  c.options.workers = 0;
  c.options.use_loop = false;
  c.options.chaos_skip_replan = false;
  c.options.rebuild_storm = false;
  // Dropping the cluster leaves its worker-kill schedule dangling.
  std::erase_if(c.faults, [](const fault::FaultEvent& e) {
    return e.kind == fault::FaultEvent::Kind::kWorkerDown ||
           e.kind == fault::FaultEvent::Kind::kWorkerUp;
  });
  return c;
}

/// Replays `m` sequentially at every batch size in kBatches: each run must
/// pass the recounts, every run must give the first run's digest, and that
/// digest must match `golden`.
void expect_golden(const Materialized& m, const FuzzCase& c,
                   std::uint64_t golden, const std::string& name) {
  std::optional<DemandMatrix> demand;
  if (c.options.use_plan) demand.emplace(build_demand(m, c));
  const DemandMatrix* dp = demand ? &*demand : nullptr;
  std::uint64_t first = 0;
  for (const std::size_t batch : kBatches) {
    const std::string what = name + " batch " + std::to_string(batch);
    const RunResult r = replay(m, c, dp, batch, 1);
    expect_recounts_hold(m, c, r, what);
    const std::uint64_t got = digest(r.rep, r.log);
    if (batch == kBatches[0]) {
      first = got;
    } else if (got != first) {
      ADD_FAILURE() << what << ": digest " << hex(got) << " differs from batch "
                    << kBatches[0] << "'s " << hex(first)
                    << " (a batching fault)";
    }
    if (::testing::Test::HasFailure()) return;
  }
  if (first != golden) {
    ADD_FAILURE() << name << ": digest " << hex(first) << " does not match the "
                  << "golden " << hex(golden)
                  << "; if the change is meant, re-capture it";
  }
}

TEST(SimDifferential, SequentialReplayMatchesReferenceDigests) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = engine_case(seed);
    const std::unique_ptr<Materialized> m = c.materialize();
    expect_golden(*m, c, kGolden[seed], "seed " + std::to_string(seed));
    if (::testing::Test::HasFailure()) break;
  }
}

/// Fuzz seeds sort at most ~1,200 events per replay, below sort_events'
/// bucket threshold of 4,096. This case crosses it: plan-less seed
/// kBucketSeed's trace duplicated 12x by DemandSchedule::scale_trace
/// without jitter, so every copy shares its original's timestamps and only
/// the (time, seq) tie-break orders them. Plan-less, so the digest does not
/// depend on the LP.
TEST(SimDifferential, BucketSortedReplayMatchesReferenceDigest) {
  constexpr std::uint64_t kBucketSeed = 12;
  FuzzCase c = engine_case(kBucketSeed);
  ASSERT_FALSE(c.options.use_plan);
  const std::unique_ptr<Materialized> m = c.materialize();
  loop::DemandSchedule duplicate;
  duplicate.add_phase({std::numeric_limits<double>::lowest(),
                       std::numeric_limits<double>::max(), 12.0, LocationId()});
  m->db = duplicate.scale_trace(m->db, kBucketSeed);
  // Every record starts, ends and joins its other legs: a lower bound on
  // the events one sequential partition sorts.
  std::size_t events = m->faults.events().size();
  for (const CallRecord& rec : m->db.records()) events += rec.legs.size() + 1;
  ASSERT_GE(events, std::size_t{4096});
  expect_golden(*m, c, kBucketPathGolden, "bucket path");
}

/// run_concurrent against run on the same case, under the fuzz oracle's
/// policy: call conservation always, and for plan-less cases without a
/// server outage (decisions are then pure functions of health state) every
/// count and the bucket series up to summation order.
TEST(SimDifferential, ConcurrentMatchesSequentialPolicy) {
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = engine_case(seed);
    const std::unique_ptr<Materialized> mp = c.materialize();
    const Materialized& m = *mp;
    std::optional<DemandMatrix> demand;
    if (c.options.use_plan) demand.emplace(build_demand(m, c));
    const DemandMatrix* dp = demand ? &*demand : nullptr;

    const RunResult seq = replay(m, c, dp, 256, 1);
    const RunResult conc = replay(m, c, dp, 256, c.options.sim_threads);
    const std::string what = "seed " + std::to_string(seed);
    EXPECT_EQ(seq.rep.calls, conc.rep.calls) << what;

    bool server_outage = false;
    for (const fault::FaultEvent& e : c.faults) {
      server_outage |= e.kind == fault::FaultEvent::Kind::kServerDown;
    }
    if (!c.options.use_plan &&
        !(server_outage && m.world.server_count() > 0)) {
      EXPECT_EQ(seq.rep.frozen, conc.rep.frozen) << what;
      EXPECT_EQ(seq.rep.migrations, conc.rep.migrations) << what;
      EXPECT_EQ(seq.rep.dropped_calls, conc.rep.dropped_calls) << what;
      EXPECT_EQ(seq.rep.failover_migrations, conc.rep.failover_migrations)
          << what;
      EXPECT_TRUE(
          check::buckets_close(seq.rep.dc_cores_buckets,
                               conc.rep.dc_cores_buckets))
          << what;
    }
    if (::testing::Test::HasFailure()) break;
  }
}

}  // namespace
}  // namespace sb
