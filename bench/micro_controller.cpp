// google-benchmark microbenchmarks for the controller: MP selector
// assign/freeze/end cycles (single-threaded and contended multi-threaded),
// the server packer's admit+release over fleets of 16..4096 servers per DC
// (half full, or saturated),
// KV-store operations (without injected latency, to measure the
// data-structure cost itself), and the closed loop's re-provision (cold
// versus warm through the previous provision's hint). Alongside the usual
// console table, results are emitted as `{"bench": ...}` JSON lines (see
// bench_util.h).
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <random>

#include "bench_util.h"
#include "core/allocation_plan.h"
#include "core/provisioner.h"
#include "core/realtime.h"
#include "fault/health_table.h"
#include "geo/world_presets.h"
#include "kvstore/kvstore.h"
#include "obs/span.h"
#include "pack/packer.h"

namespace sb {
namespace {

struct Fixture {
  GeoModel geo = make_apac_world();
  CallConfigRegistry registry;
  LoadModel loads = LoadModel::paper_default();
  AllocationPlan plan{48, 1, 5, 1800.0};
  CallConfig config = CallConfig::make({{LocationId(0), 3}},
                                       MediaType::kVideo);

  Fixture() {
    const ConfigId id = registry.intern(config);
    plan.config_columns = {id};
    for (TimeSlot t = 0; t < 48; ++t) {
      for (std::uint32_t x = 0; x < 5; ++x) {
        plan.set_quota(t, 0, DcId(x), 1u << 20);  // effectively unlimited
      }
    }
  }

  [[nodiscard]] EvalContext ctx() {
    return EvalContext{&geo.world, &geo.topology, &geo.latency, &registry,
                       &loads};
  }
};

void BM_SelectorAssignFreezeEnd(benchmark::State& state) {
  Fixture f;
  RealtimeSelector selector(f.ctx(), &f.plan, {});
  std::uint32_t next = 0;
  for (auto _ : state) {
    const CallId call(next++);
    selector.on_call_start(call, LocationId(0), 0.0);
    selector.on_config_frozen(call, f.config, 300.0);
    selector.on_call_end(call, 400.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3);
}
BENCHMARK(BM_SelectorAssignFreezeEnd);

// Shared lock-striped selector driven by google-benchmark's thread pool:
// measures the whole assign/freeze/end cycle under contention. Call ids
// come from one atomic counter, so threads spread across shards exactly
// like production signaling traffic. The selector is rebuilt per run so the
// Threads(1)/(4)/(8) variants all start from identical state (empty call
// tables, zeroed stats/usage) instead of inheriting the previous variant's
// bucket growth and counters. Thread 0 does the rebuild; the barrier at
// loop entry orders it before any thread's first iteration.
class SelectorContended : public benchmark::Fixture {
 public:
  void SetUp(benchmark::State& state) override {
    if (state.thread_index() == 0) {
      world_ = std::make_unique<sb::Fixture>();
      selector_ = std::make_unique<RealtimeSelector>(
          world_->ctx(), &world_->plan, RealtimeOptions{});
      next_.store(0, std::memory_order_relaxed);
    }
  }
  void TearDown(benchmark::State& state) override {
    if (state.thread_index() == 0) {
      selector_.reset();
      world_.reset();
    }
  }

 protected:
  std::unique_ptr<sb::Fixture> world_;
  std::unique_ptr<RealtimeSelector> selector_;
  std::atomic<std::uint32_t> next_{0};
};

BENCHMARK_DEFINE_F(SelectorContended, Cycle)(benchmark::State& state) {
  for (auto _ : state) {
    const CallId call(next_.fetch_add(1, std::memory_order_relaxed));
    selector_->on_call_start(call, LocationId(0), 0.0);
    selector_->on_config_frozen(call, world_->config, 300.0);
    selector_->on_call_end(call, 400.0);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 3);
}
BENCHMARK_REGISTER_F(SelectorContended, Cycle)
    ->Threads(1)
    ->Threads(4)
    ->Threads(8);

/// An APAC world with a uniform fleet of 16-core servers, each held just
/// under 50% full, and a health table sized for the fleet as Switchboard
/// sizes it.
struct PackFleet {
  GeoModel geo = make_apac_world();
  std::unique_ptr<fault::HealthTable> health;
  std::unique_ptr<pack::ServerPacker> packer;
  std::vector<double> sizes;  ///< 0.1..1.0-core footprints, fixed seed

  explicit PackFleet(std::size_t servers_per_dc) {
    add_uniform_fleet(geo.world, servers_per_dc, 16.0);
    health = std::make_unique<fault::HealthTable>(geo.world.dc_count(),
                                                  geo.topology.link_count(),
                                                  geo.world.server_count());
    packer = std::make_unique<pack::ServerPacker>(geo.world,
                                                  pack::PackOptions{},
                                                  health.get());
    std::mt19937 rng(1);
    std::uniform_real_distribution<double> footprint(0.1, 1.0);
    sizes.resize(1024);
    for (double& size : sizes) size = footprint(rng);
    std::size_t next = 0;
    for (ServerId sid : geo.world.server_ids()) {
      while (packer->server_cores_used(sid) + sizes[next % sizes.size()] <=
             8.0) {
        packer->try_admit_to(sid, sizes[next++ % sizes.size()]);
      }
    }
  }
};

/// One fleet per size, built on first use and shared by every run of that
/// size: an admit plus its release leaves the occupancy exactly as it was,
/// and World::add_server's duplicate-name check makes registering 20k
/// servers quadratic.
PackFleet& pack_fleet(std::size_t servers_per_dc) {
  static std::map<std::size_t, std::unique_ptr<PackFleet>> fleets;
  std::unique_ptr<PackFleet>& fleet = fleets[servers_per_dc];
  if (fleet == nullptr) fleet = std::make_unique<PackFleet>(servers_per_dc);
  return *fleet;
}

// One packer admit plus one release of 0.1..1.0 cores, rotating over the
// DCs, so the best-fit scan over a DC's `servers_per_dc` servers is the
// whole cost. With the second argument set one server is down, so the scan
// checks every server's health. With the third set every server is first
// topped up to its capacity, so no admit finds bounded room: it skips its
// best-fit scan on the DC bound and overflows (the top-ups are released
// after the run). Spans are off, as in an untraced replay.
void BM_PackAdmitRelease(benchmark::State& state) {
  PackFleet& fleet = pack_fleet(static_cast<std::size_t>(state.range(0)));
  fleet.health->set_server(ServerId(0), state.range(1) == 0);
  std::vector<std::pair<ServerId, double>> top_ups;
  if (state.range(2) != 0) {
    for (ServerId sid : fleet.geo.world.server_ids()) {
      const double free_cores = fleet.packer->server_capacity(sid) -
                                fleet.packer->server_cores_used(sid);
      if (fleet.packer->try_admit_to(sid, free_cores)) {
        top_ups.emplace_back(sid, free_cores);
      }
    }
  }
  obs::SpanRecorder& spans = obs::SpanRecorder::global();
  const bool spans_were_enabled = spans.enabled();
  spans.set_enabled(false);
  const std::vector<DcId> dcs = fleet.geo.world.dc_ids();
  std::size_t i = 0;
  for (auto _ : state) {
    const double cores = fleet.sizes[i % fleet.sizes.size()];
    const ServerId sid = fleet.packer->admit(dcs[i % dcs.size()], cores);
    benchmark::DoNotOptimize(sid);
    fleet.packer->release(sid, cores);
    ++i;
  }
  spans.set_enabled(spans_were_enabled);
  for (const auto& [sid, cores] : top_ups) fleet.packer->release(sid, cores);
  fleet.health->set_server(ServerId(0), true);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
// Args: servers per DC, servers down (0 or 1), saturated (0 or 1).
BENCHMARK(BM_PackAdmitRelease)
    ->ArgsProduct({{16, 64, 256, 1024, 4096}, {0, 1}, {0, 1}});

void BM_ClosestDcLookup(benchmark::State& state) {
  Fixture f;
  const std::vector<DcId> dcs = f.geo.world.dc_ids();
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(f.geo.latency.closest_dc(
        LocationId(i++ % f.geo.world.location_count()), dcs));
  }
}
BENCHMARK(BM_ClosestDcLookup);

void BM_KvStoreSetNoLatency(benchmark::State& state) {
  KvStoreOptions options;
  options.inject_latency = false;
  KvStore store(options);
  std::uint64_t i = 0;
  for (auto _ : state) {
    store.set("call:" + std::to_string(i++ % 4096) + ":dc", "3");
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_KvStoreSetNoLatency);

void BM_KvStoreIncrNoLatency(benchmark::State& state) {
  KvStoreOptions options;
  options.inject_latency = false;
  KvStore store(options);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        store.incr("call:" + std::to_string(i++ % 64) + ":legs", 1));
  }
}
BENCHMARK(BM_KvStoreIncrNoLatency);

void BM_AclComputation(benchmark::State& state) {
  Fixture f;
  const CallConfig spread = CallConfig::make(
      {{LocationId(0), 4}, {LocationId(1), 2}, {LocationId(5), 1}},
      MediaType::kVideo);
  for (auto _ : state) {
    benchmark::DoNotOptimize(acl_ms(spread, DcId(1), f.geo.latency));
  }
}
BENCHMARK(BM_AclComputation);

/// provision_perf_smoke_test's fixture: the APAC preset (scenario seed 1),
/// top 30 configs of one design day in 3600 s slots, provisioned for F0
/// plus the five single-DC failures as the closed loop does.
struct ReprovisionDay {
  Scenario scenario = make_apac_scenario({.seed = 1});
  LoadModel loads = LoadModel::paper_default();
  DemandMatrix demand = design_day_demand(scenario, 3600.0, 30);

  [[nodiscard]] EvalContext ctx() const {
    return {&scenario.world(), &scenario.topology(), &scenario.latency(),
            scenario.registry.get(), &loads};
  }
};

enum class Reprovision { kCold, kUniform, kPerConfig, kSteady };

/// The demand a variant provisions: the design day itself (cold), the
/// loop's uniform x1.15 correction (also the steady row's), or per-config
/// factors 0.8..1.2.
DemandMatrix reprovision_demand(const DemandMatrix& day, Reprovision variant) {
  DemandMatrix out = day;
  for (TimeSlot t = 0; t < out.slot_count(); ++t) {
    for (std::size_t c = 0; c < out.config_count(); ++c) {
      const double factor =
          variant == Reprovision::kUniform ||
                  variant == Reprovision::kSteady
              ? 1.15
          : variant == Reprovision::kPerConfig
              ? 0.8 + 0.1 * static_cast<double>(c % 5)
              : 1.0;
      out.set_demand(t, c, out.demand(t, c) * factor);
    }
  }
  return out;
}

// One provision per iteration. The cold row solves every scenario from
// scratch; the uniform_115 and per_config rows re-provision through a fresh
// copy of the cold run's hint (copied untimed), so each re-solves the six
// retained models at new right-hand sides, keeping their standard forms but
// building each dual engine anew. The steady row primes one hint with an
// untimed x1.15 re-provision and then re-provisions in place through it at
// the same demand: every scenario re-solves its retained LP and engine in 0
// iterations, so the row measures a steady-state replan's fixed cost.
// Counters: wall ms and summed LP iterations per provision. Spans are off,
// as in an untraced run.
void BM_Reprovision(benchmark::State& state, Reprovision variant) {
  static const ReprovisionDay day;
  ProvisionOptions options;
  options.include_link_failures = false;
  const SwitchboardProvisioner prov(day.ctx(), options);
  const DemandMatrix demand = reprovision_demand(day.demand, variant);
  obs::SpanRecorder& spans = obs::SpanRecorder::global();
  const bool spans_were_enabled = spans.enabled();
  spans.set_enabled(false);
  ScenarioBasisHint cold;
  (void)prov.provision(day.demand, &cold);
  ScenarioBasisHint hint;
  if (variant == Reprovision::kSteady) {
    hint = cold;
    (void)prov.provision(demand, &hint);
  }
  std::size_t lp_iterations = 0;
  double provision_s = 0.0;
  for (auto _ : state) {
    if (variant == Reprovision::kUniform ||
        variant == Reprovision::kPerConfig) {
      state.PauseTiming();
      hint = cold;
      state.ResumeTiming();
    }
    const auto t0 = std::chrono::steady_clock::now();
    const ProvisionResult result =
        variant == Reprovision::kCold ? prov.provision(demand)
                                      : prov.provision(demand, &hint);
    provision_s += std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
    benchmark::DoNotOptimize(result);
    for (const ScenarioOutcome& s : result.scenarios) {
      lp_iterations += s.lp_iterations;
    }
  }
  spans.set_enabled(spans_were_enabled);
  const auto provisions = static_cast<double>(
      std::max<benchmark::IterationCount>(state.iterations(), 1));
  state.counters["ms/provision"] = provision_s * 1e3 / provisions;
  state.counters["iters/provision"] =
      static_cast<double>(lp_iterations) / provisions;
}
BENCHMARK_CAPTURE(BM_Reprovision, cold, Reprovision::kCold);
BENCHMARK_CAPTURE(BM_Reprovision, uniform_115, Reprovision::kUniform);
BENCHMARK_CAPTURE(BM_Reprovision, per_config, Reprovision::kPerConfig);
BENCHMARK_CAPTURE(BM_Reprovision, steady, Reprovision::kSteady);

enum class Replan { kCold, kRetained };

// One allocation plan (Eq 10, one LP per slot) per iteration, at the loop's
// x1.15 correction under the capacities provisioned for it (untimed). The
// cold row plans without a hint: every slot LP is built and solved cold, as
// build_allocation_plan does. The retained row primes a hint with an
// untimed cold plan of the design day and an untimed re-plan at x1.15, then
// re-plans in place through it at the same demand: every slot re-solves its
// retained LP and dual engine, so the row measures a steady-state replan's
// install_plan solve. Counters: wall ms and summed LP iterations per plan.
// Spans are off, as in an untraced run.
void BM_Plan(benchmark::State& state, Replan variant) {
  static const ReprovisionDay day;
  ProvisionOptions options;
  options.include_link_failures = false;
  const SwitchboardProvisioner prov(day.ctx(), options);
  const DemandMatrix demand =
      reprovision_demand(day.demand, Reprovision::kUniform);
  const CapacityPlan capacity = prov.provision(demand).capacity;
  const AllocationPlanner planner(day.ctx(), {});
  obs::SpanRecorder& spans = obs::SpanRecorder::global();
  const bool spans_were_enabled = spans.enabled();
  spans.set_enabled(false);
  PlanLpHint hint;
  PlanLpHint* hint_ptr = nullptr;
  if (variant == Replan::kRetained) {
    (void)planner.plan(day.demand, prov.provision(day.demand).capacity,
                       3600.0, &hint);
    (void)planner.plan(demand, capacity, 3600.0, &hint);
    hint_ptr = &hint;
  }
  std::size_t lp_iterations = 0;
  double plan_s = 0.0;
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    const AllocationPlan plan = planner.plan(demand, capacity, 3600.0, hint_ptr);
    plan_s += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                            t0)
                  .count();
    benchmark::DoNotOptimize(plan);
    lp_iterations += plan.lp_iterations;
  }
  spans.set_enabled(spans_were_enabled);
  const auto plans = static_cast<double>(
      std::max<benchmark::IterationCount>(state.iterations(), 1));
  state.counters["ms/plan"] = plan_s * 1e3 / plans;
  state.counters["iters/plan"] = static_cast<double>(lp_iterations) / plans;
}
BENCHMARK_CAPTURE(BM_Plan, cold, Replan::kCold);
BENCHMARK_CAPTURE(BM_Plan, retained, Replan::kRetained);

/// ConsoleReporter that also emits one bench_util JSON line per run
/// (`micro_controller` bench, metric `<name>.ns_per_op`), so the
/// microbenches feed the same BENCH_*.json scraping as the table benches.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  // Colour only on a terminal, as google-benchmark's own reporter: off one,
  // a colour reset would start each JSON line and hide it from the grep.
  JsonLineReporter()
      : ConsoleReporter(isatty(STDOUT_FILENO) ? OO_Defaults : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      bench::emit_json("micro_controller", run.benchmark_name() + ".ns_per_op",
                       run.GetAdjustedRealTime());
    }
  }
};

}  // namespace
}  // namespace sb

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  sb::JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
