// Differential suite for the batched/SoA simulator engine: across fuzzed
// scenarios the batched engine must be BIT-IDENTICAL to the reference
// per-event engine on sequential replay — same SimReport (every field,
// floating point included: the batched engine preserves per-event
// accumulation order), same HostingLog, same dc_cores_buckets, and the
// same sb.sim.* metric deltas. Concurrent replay mirrors the fuzz oracle
// policy: call conservation always, full outcome equality for plan-less
// cases (where decisions are pure functions of health state).
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "check/fuzz_case.h"
#include "check/fuzzer.h"
#include "check/oracles.h"
#include "common/error.h"
#include "core/controller.h"
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

/// Snapshot of the sb.sim.* metric state surrounding one run; deltas are
/// what the run itself contributed.
struct MetricState {
  std::uint64_t calls = 0;
  std::uint64_t frozen = 0;
  std::uint64_t migrations = 0;
  obs::HistogramData acl;
  double peak_concurrent = 0.0;
  std::vector<double> dc_peaks;

  static MetricState read(std::size_t dc_count) {
    auto& reg = obs::MetricsRegistry::global();
    MetricState s;
    s.calls = reg.counter("sb.sim.calls").value();
    s.frozen = reg.counter("sb.sim.frozen").value();
    s.migrations = reg.counter("sb.sim.migrations").value();
    s.acl = reg.histogram("sb.sim.acl_ms").collect();
    s.peak_concurrent = reg.gauge("sb.sim.peak_concurrent_calls").value();
    for (std::size_t x = 0; x < dc_count; ++x) {
      s.dc_peaks.push_back(
          reg.gauge("sb.sim.dc_peak_cores." + std::to_string(x)).value());
    }
    return s;
  }
};

/// Peak gauges accumulate via max_of across runs and the ACL histogram sum
/// is floating point — subtracting a shared baseline would compare
/// differently-rounded partial sums. Reset both so every run's metrics
/// accumulate from zero and the deltas are exact.
void reset_run_metrics(std::size_t dc_count) {
  auto& reg = obs::MetricsRegistry::global();
  reg.histogram("sb.sim.acl_ms").reset();
  reg.gauge("sb.sim.peak_concurrent_calls").reset();
  for (std::size_t x = 0; x < dc_count; ++x) {
    reg.gauge("sb.sim.dc_peak_cores." + std::to_string(x)).reset();
  }
}

struct RunResult {
  SimReport rep;
  HostingLog log;
  std::uint64_t d_calls = 0;
  std::uint64_t d_frozen = 0;
  std::uint64_t d_migrations = 0;
  std::uint64_t d_acl_count = 0;
  double d_acl_sum = 0.0;
  double peak_concurrent = 0.0;
  std::vector<double> dc_peak_gauges;
};

RunResult run_engine(const Materialized& m, const FuzzCase& c,
                     const DemandMatrix* demand, Simulator::Engine engine,
                     std::size_t batch_events, std::size_t threads) {
  Harness h(m, c, demand);
  Simulator sim(m.ctx());
  sim.set_engine(engine);
  sim.set_batch_events(batch_events);
  const fault::FaultSchedule* faults = m.faults.empty() ? nullptr : &m.faults;
  const std::size_t dc_count = m.world.dc_count();
  reset_run_metrics(dc_count);
  const MetricState before = MetricState::read(dc_count);
  RunResult r;
  if (threads <= 1) {
    r.rep = sim.run(m.db, h.alloc, c.options.freeze_delay_s, faults,
                    c.options.bucket_s, &r.log);
  } else {
    r.rep = sim.run_concurrent(m.db, h.alloc, c.options.freeze_delay_s,
                               threads, faults, c.options.bucket_s, &r.log);
  }
  const MetricState after = MetricState::read(dc_count);
  r.d_calls = after.calls - before.calls;
  r.d_frozen = after.frozen - before.frozen;
  r.d_migrations = after.migrations - before.migrations;
  r.d_acl_count = after.acl.count - before.acl.count;
  r.d_acl_sum = after.acl.sum - before.acl.sum;
  r.peak_concurrent = after.peak_concurrent;
  r.dc_peak_gauges = after.dc_peaks;
  return r;
}

void expect_reports_identical(const SimReport& a, const SimReport& b,
                              const std::string& what) {
  EXPECT_EQ(a.calls, b.calls) << what;
  EXPECT_EQ(a.frozen, b.frozen) << what;
  EXPECT_EQ(a.migrations, b.migrations) << what;
  EXPECT_EQ(a.migration_fraction, b.migration_fraction) << what;
  EXPECT_EQ(a.mean_acl_ms, b.mean_acl_ms) << what;
  EXPECT_EQ(a.first_joiner_majority_fraction,
            b.first_joiner_majority_fraction)
      << what;
  EXPECT_EQ(a.dc_peak_cores, b.dc_peak_cores) << what;
  EXPECT_EQ(a.link_peak_gbps, b.link_peak_gbps) << what;
  EXPECT_EQ(a.server_peak_cores, b.server_peak_cores) << what;
  EXPECT_EQ(a.peak_concurrent_calls, b.peak_concurrent_calls) << what;
  EXPECT_EQ(a.failover_migrations, b.failover_migrations) << what;
  EXPECT_EQ(a.dropped_calls, b.dropped_calls) << what;
  EXPECT_EQ(a.dc_cores_buckets, b.dc_cores_buckets) << what;
}

void expect_logs_identical(const HostingLog& a, const HostingLog& b,
                           const std::string& what) {
  ASSERT_EQ(a.events.size(), b.events.size()) << what;
  for (std::size_t i = 0; i < a.events.size(); ++i) {
    ASSERT_TRUE(a.events[i] == b.events[i])
        << what << ": hosting event " << i << " diverged";
  }
}

bool close(double a, double b) {
  return std::abs(a - b) <= 1e-6 * std::max({1.0, std::abs(a), std::abs(b)});
}

/// Engine-pure fuzz cases: the cluster / closed-loop wrappers are stripped
/// so the differential isolates the replay engines themselves (both
/// wrappers are differentially tested by their own suites).
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

TEST(SimDifferential, SequentialBatchedBitIdenticalToReference) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = engine_case(seed);
    const std::unique_ptr<Materialized> mp = c.materialize();
    const Materialized& m = *mp;
    std::optional<DemandMatrix> demand;
    if (c.options.use_plan) demand.emplace(build_demand(m, c));
    const DemandMatrix* dp = demand ? &*demand : nullptr;

    // Vary the batch size across seeds so batch boundaries land everywhere
    // (1 = a batch per event, 7 = odd small batches, 256 = default).
    const std::size_t batches[] = {1, 7, 256};
    const std::size_t batch = batches[seed % 3];

    RunResult ref;
    try {
      ref = run_engine(m, c, dp, Simulator::Engine::kReference, batch, 1);
    } catch (const SolveError&) {
      continue;  // provisioning infeasible: nothing to differentiate
    }
    const RunResult bat =
        run_engine(m, c, dp, Simulator::Engine::kBatched, batch, 1);
    const std::string what = "seed " + std::to_string(seed) + " batch " +
                             std::to_string(batch);
    expect_reports_identical(ref.rep, bat.rep, what);
    expect_logs_identical(ref.log, bat.log, what);
    EXPECT_EQ(ref.d_calls, bat.d_calls) << what;
    EXPECT_EQ(ref.d_frozen, bat.d_frozen) << what;
    EXPECT_EQ(ref.d_migrations, bat.d_migrations) << what;
    EXPECT_EQ(ref.d_acl_count, bat.d_acl_count) << what;
    EXPECT_EQ(ref.d_acl_sum, bat.d_acl_sum) << what;
    EXPECT_EQ(ref.peak_concurrent, bat.peak_concurrent) << what;
    EXPECT_EQ(ref.dc_peak_gauges, bat.dc_peak_gauges) << what;
    ++checked;
    if (::testing::Test::HasFailure()) break;
  }
  // The fuzzer rarely generates an infeasible world; the sweep must not
  // silently degenerate into skipping everything.
  EXPECT_GE(checked, kSeeds - 4);
}

TEST(SimDifferential, ConcurrentBatchedMatchesReferencePolicy) {
  std::size_t checked = 0;
  for (std::uint64_t seed = 0; seed < kSeeds; ++seed) {
    const FuzzCase c = engine_case(seed);
    const std::unique_ptr<Materialized> mp = c.materialize();
    const Materialized& m = *mp;
    std::optional<DemandMatrix> demand;
    if (c.options.use_plan) demand.emplace(build_demand(m, c));
    const DemandMatrix* dp = demand ? &*demand : nullptr;

    RunResult ref;
    try {
      ref = run_engine(m, c, dp, Simulator::Engine::kReference, 256,
                       c.options.sim_threads);
    } catch (const SolveError&) {
      continue;
    }
    const RunResult bat = run_engine(m, c, dp, Simulator::Engine::kBatched,
                                     256, c.options.sim_threads);
    const std::string what = "seed " + std::to_string(seed);

    // Call conservation always holds across engines and drivers.
    EXPECT_EQ(ref.rep.calls, bat.rep.calls) << what;

    // Plan-less decisions are pure functions of health state, so the two
    // engines must agree on every outcome (bucket series up to summation
    // order). A server outage breaks this — packer CAS interleavings pick
    // different hosts — mirroring the fuzz oracle's comparison policy.
    bool server_outage = false;
    for (const fault::FaultEvent& e : c.faults) {
      server_outage |= e.kind == fault::FaultEvent::Kind::kServerDown;
    }
    if (!c.options.use_plan &&
        !(server_outage && m.world.server_count() > 0)) {
      EXPECT_EQ(ref.rep.frozen, bat.rep.frozen) << what;
      EXPECT_EQ(ref.rep.migrations, bat.rep.migrations) << what;
      EXPECT_EQ(ref.rep.dropped_calls, bat.rep.dropped_calls) << what;
      EXPECT_EQ(ref.rep.failover_migrations, bat.rep.failover_migrations)
          << what;
      ASSERT_EQ(ref.rep.dc_cores_buckets.size(),
                bat.rep.dc_cores_buckets.size())
          << what;
      for (std::size_t x = 0; x < ref.rep.dc_cores_buckets.size(); ++x) {
        const auto& a = ref.rep.dc_cores_buckets[x];
        const auto& b = bat.rep.dc_cores_buckets[x];
        const std::size_t n = std::max(a.size(), b.size());
        for (std::size_t i = 0; i < n; ++i) {
          const double av = i < a.size() ? a[i] : 0.0;
          const double bv = i < b.size() ? b[i] : 0.0;
          ASSERT_TRUE(close(av, bv))
              << what << ": dc " << x << " bucket " << i << " " << av
              << " vs " << bv;
        }
      }
    }
    ++checked;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GE(checked, kSeeds - 4);
}

}  // namespace
}  // namespace sb
