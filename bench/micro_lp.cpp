// google-benchmark microbenchmarks for the LP solvers: dense tableau vs
// the sparse LU/eta engine vs the block-angular decomposition, across
// random instances and provisioning-LP-shaped instances (sparse columns,
// capacity peaks) from the real Switchboard scale of 168 half-hour slots x
// 40 configs x 12 DCs up to the planet-scale 720 x 100 x 50 cold solve.
// Decomposed variants additionally report per-phase timings (detect /
// subproblems / clean-up) from the sb.lp.decompose_*_s registry histograms.
//
// Besides google-benchmark's own wall-time mean, each benchmark reports
// p50/p99 solve latency and iterations-per-solve sourced from the sb::obs
// registry (lp::solve times itself into sb.lp.solve_s), by diffing registry
// snapshots around the timed loop. Provisioning benches additionally emit
// `{"bench": ...}` JSON lines (see bench_util.h) so BENCH_lp.json can track
// the dense-vs-sparse trajectory over time, one line per metric from the
// run google-benchmark reports (its calibration runs print none):
//
//   ./bench/micro_lp --benchmark_min_time=0.05 | grep '^{"bench"'
#include <benchmark/benchmark.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/rng.h"
#include "lp/solver.h"
#include "obs/snapshot.h"

namespace sb::lp {
namespace {

/// The `{"bench"` metrics, in print order. A benchmark sets the ones it
/// reports as state.counters and names its JSON bench by its label.
constexpr const char* kJsonMetrics[] = {
    "mean_ms",
    "objective",
    "iters_per_solve",
    "cold_iters",
    "factorizations_per_solve",
    "pricing_passes_per_solve",
    "bound_flips_per_solve",
    "devex_resets_per_solve",
    "detect_ms_per_solve",
    "subproblems_ms_per_solve",
    "cleanup_ms_per_solve",
    "sub_iters_per_solve",
    "cleanup_iters_per_solve",
};

/// ConsoleReporter that also prints each labelled run's kJsonMetrics
/// counters through bench::emit_json, under the label as bench name.
class JsonLineReporter : public benchmark::ConsoleReporter {
 public:
  // Colour only on a terminal, as google-benchmark's own reporter: off one,
  // a colour reset would start each JSON line and hide it from the grep.
  JsonLineReporter()
      : ConsoleReporter(isatty(STDOUT_FILENO) ? OO_Defaults : OO_Tabular) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    benchmark::ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration ||
          run.report_label.empty()) {
        continue;
      }
      for (const char* metric : kJsonMetrics) {
        const auto it = run.counters.find(metric);
        if (it != run.counters.end()) {
          bench::emit_json(run.report_label, metric, it->second.value);
        }
      }
    }
  }
};

/// Attaches registry-sourced percentile counters for the samples recorded
/// between `before` and now to the benchmark's output row.
void report_registry_latencies(benchmark::State& state,
                               const obs::MetricsSnapshot& before) {
  const obs::MetricsSnapshot delta = obs::snapshot_diff(
      before, obs::MetricsRegistry::global().snapshot());
  const obs::HistogramSample* solve = delta.find_histogram("sb.lp.solve_s");
  if (solve == nullptr || solve->data.count == 0) return;  // SB_METRICS=OFF
  state.counters["p50_us"] = solve->data.p50() * 1e6;
  state.counters["p99_us"] = solve->data.p99() * 1e6;
  state.counters["iters/solve"] =
      static_cast<double>(delta.counter_value("sb.lp.simplex_iterations")) /
      static_cast<double>(solve->data.count);
}

Model make_random_lp(std::size_t vars, std::size_t rows, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<double> witness(vars);
  for (std::size_t i = 0; i < vars; ++i) {
    witness[i] = rng.uniform(0.0, 10.0);
    m.add_variable(0.0, kInf, rng.uniform(0.1, 5.0));
  }
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<Term> terms;
    double lhs = 0.0;
    for (std::size_t i = 0; i < vars; ++i) {
      if (!rng.chance(0.3)) continue;
      const double coeff = rng.uniform(-2.0, 3.0);
      terms.push_back({static_cast<int>(i), coeff});
      lhs += coeff * witness[i];
    }
    if (terms.empty()) continue;
    m.add_constraint(std::move(terms),
                     rng.chance(0.5) ? Sense::kLe : Sense::kGe,
                     lhs + (rng.chance(0.5) ? 1.0 : -1.0) * rng.uniform(0, 2));
  }
  return m;
}

/// A provisioning-shaped LP: T slots x C configs x X DCs share variables
/// with per-slot capacity-peak rows and completeness equalities.
Model make_provisioning_lp(std::size_t slots, std::size_t configs,
                           std::size_t dcs, std::uint64_t seed) {
  Rng rng(seed);
  Model m;
  std::vector<int> cp(dcs);
  for (std::size_t x = 0; x < dcs; ++x) {
    cp[x] = m.add_variable(0.0, kInf, rng.uniform(0.9, 1.4));
  }
  for (std::size_t t = 0; t < slots; ++t) {
    std::vector<std::vector<Term>> dc_rows(dcs);
    for (std::size_t c = 0; c < configs; ++c) {
      std::vector<Term> completeness;
      for (std::size_t x = 0; x < dcs; ++x) {
        const int s = m.add_variable(0.0, kInf, 1e-6 * rng.uniform(5, 100));
        dc_rows[x].push_back({s, rng.uniform(0.01, 0.1)});
        completeness.push_back({s, 1.0});
      }
      m.add_constraint(std::move(completeness), Sense::kEq,
                       rng.uniform(0.0, 50.0));
    }
    for (std::size_t x = 0; x < dcs; ++x) {
      dc_rows[x].push_back({cp[x], -1.0});
      m.add_constraint(std::move(dc_rows[x]), Sense::kLe, 0.0);
    }
  }
  return m;
}

/// Provisioning-bench variant ids. The id is the 4th Args element and so
/// part of each benchmark's name, which filters (micro_lp_smoke) select
/// on: keep the values stable.
enum ProvVariant : int {
  kVarDense = 0,
  kVarSparse = 2,     ///< monolithic sparse engine (decomposition off)
  kVarDecompose = 3,  ///< sparse engine, DecomposePolicy::kForce
};

const char* variant_name(int variant) {
  switch (variant) {
    case kVarDense:
      return "dense";
    case kVarDecompose:
      return "decomposed";
    default:
      return "sparse";
  }
}

std::string prov_bench_name(benchmark::State& state, const char* variant) {
  return "lp_prov_t" + std::to_string(state.range(0)) + "_c" +
         std::to_string(state.range(1)) + "_d" +
         std::to_string(state.range(2)) + "_" + variant;
}

void BM_DenseSimplexRandom(benchmark::State& state) {
  const Model m = make_random_lp(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)), 7);
  SolveOptions options;
  options.method = Method::kDense;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(m, options));
  }
  report_registry_latencies(state, before);
}
BENCHMARK(BM_DenseSimplexRandom)->Args({20, 15})->Args({60, 40})->Args({120, 80});

void BM_SparseSimplexRandom(benchmark::State& state) {
  const Model m = make_random_lp(static_cast<std::size_t>(state.range(0)),
                                 static_cast<std::size_t>(state.range(1)), 7);
  SolveOptions options;
  options.method = Method::kSparse;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  for (auto _ : state) {
    benchmark::DoNotOptimize(solve(m, options));
  }
  report_registry_latencies(state, before);
}
BENCHMARK(BM_SparseSimplexRandom)
    ->Args({20, 15})
    ->Args({60, 40})
    ->Args({120, 80});

/// Args: {slots, configs, dcs, ProvVariant}. The dense tableau is
/// registered only at the shapes its quadratic memory can stomach; the
/// monolithic sparse engine goes up to the paper-scale 168x40x12 and the
/// decomposed variant to the planet-scale 720x100x50.
void BM_ProvisioningShapedLp(benchmark::State& state) {
  const Model m = make_provisioning_lp(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)),
      static_cast<std::size_t>(state.range(2)), 11);
  const int variant = static_cast<int>(state.range(3));
  SolveOptions options;
  switch (variant) {
    case kVarDense:
      options.method = Method::kDense;
      break;
    case kVarDecompose:
      options.method = Method::kSparse;
      options.decompose = DecomposePolicy::kForce;
      break;
    default:
      options.method = Method::kSparse;
      // Keep the monolithic rows monolithic even at shapes kAuto would
      // decompose, so the before/after trajectory stays comparable.
      options.decompose = DecomposePolicy::kOff;
      break;
  }
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  double objective = 0.0;
  double total_s = 0.0;
  std::size_t solves = 0;
  std::size_t iters = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const Solution s = solve(m, options);
    total_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    ++solves;
    if (!s.optimal()) state.SkipWithError("not optimal");
    objective = s.objective;
    iters += s.iterations;
    benchmark::DoNotOptimize(s.objective);
  }
  report_registry_latencies(state, before);
  state.counters["objective"] = objective;
  if (solves > 0) {
    state.SetLabel(prov_bench_name(state, variant_name(variant)));
    const auto per_solve = [&](std::uint64_t total) {
      return static_cast<double>(total) / static_cast<double>(solves);
    };
    state.counters["mean_ms"] = total_s / solves * 1e3;
    state.counters["iters_per_solve"] = static_cast<double>(iters) / solves;
    const obs::MetricsSnapshot delta = obs::snapshot_diff(
        before, obs::MetricsRegistry::global().snapshot());
    state.counters["factorizations_per_solve"] =
        per_solve(delta.counter_value("sb.lp.factorizations"));
    state.counters["pricing_passes_per_solve"] =
        per_solve(delta.counter_value("sb.lp.pricing_passes"));
    state.counters["bound_flips_per_solve"] =
        per_solve(delta.counter_value("sb.lp.bound_flips"));
    state.counters["devex_resets_per_solve"] =
        per_solve(delta.counter_value("sb.lp.devex_resets"));
    if (variant == kVarDecompose) {
      // Per-phase wall time and iteration split for the decomposition.
      const auto phase_ms = [&](const char* histogram) {
        const obs::HistogramSample* h = delta.find_histogram(histogram);
        return h == nullptr
                   ? 0.0
                   : h->data.sum / static_cast<double>(solves) * 1e3;
      };
      state.counters["detect_ms_per_solve"] =
          phase_ms("sb.lp.decompose_detect_s");
      state.counters["subproblems_ms_per_solve"] =
          phase_ms("sb.lp.decompose_sub_s");
      state.counters["cleanup_ms_per_solve"] =
          phase_ms("sb.lp.decompose_cleanup_s");
      state.counters["sub_iters_per_solve"] =
          per_solve(delta.counter_value("sb.lp.decompose_sub_iterations"));
      state.counters["cleanup_iters_per_solve"] = per_solve(
          delta.counter_value("sb.lp.decompose_cleanup_iterations"));
    }
  }
}
BENCHMARK(BM_ProvisioningShapedLp)
    ->Args({6, 10, 5, kVarDense})
    ->Args({12, 16, 5, kVarDense})
    ->Args({6, 10, 5, kVarSparse})
    ->Args({12, 16, 5, kVarSparse})
    ->Args({42, 24, 8, kVarSparse})
    ->Args({84, 32, 10, kVarSparse})
    ->Args({168, 40, 12, kVarSparse})
    ->Args({42, 24, 8, kVarDecompose})
    ->Args({84, 32, 10, kVarDecompose})
    ->Args({168, 40, 12, kVarDecompose})
    ->Args({720, 100, 50, kVarDecompose})
    ->Unit(benchmark::kMillisecond);

/// Warm-started re-solve of a provisioning shape: the cold solve's column
/// AND row basis is fed back via SolveOptions::warm_start / warm_start_rows,
/// mimicking the provisioner's failure-scenario loop (same structure,
/// perturbed data).
void BM_ProvisioningWarmStart(benchmark::State& state) {
  const Model m = make_provisioning_lp(
      static_cast<std::size_t>(state.range(0)),
      static_cast<std::size_t>(state.range(1)),
      static_cast<std::size_t>(state.range(2)), 11);
  SolveOptions options;
  options.method = Method::kSparse;
  const Solution cold = solve(m, options);
  if (!cold.optimal()) {
    state.SkipWithError("cold solve not optimal");
    return;
  }
  options.warm_start = cold.basis;
  options.warm_start_rows = cold.row_basis;
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  double total_s = 0.0;
  std::size_t solves = 0;
  std::size_t iters = 0;
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const Solution s = solve(m, options);
    total_s += std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    ++solves;
    if (!s.optimal()) state.SkipWithError("not optimal");
    iters += s.iterations;
    benchmark::DoNotOptimize(s.objective);
  }
  report_registry_latencies(state, before);
  state.counters["cold_iters"] = static_cast<double>(cold.iterations);
  if (solves > 0) {
    state.SetLabel(prov_bench_name(state, "sparse_warm"));
    state.counters["mean_ms"] = total_s / solves * 1e3;
    state.counters["iters_per_solve"] = static_cast<double>(iters) / solves;
  }
}
BENCHMARK(BM_ProvisioningWarmStart)
    ->Args({42, 24, 8})
    ->Args({84, 32, 10})
    ->Args({168, 40, 12})
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace sb::lp

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  sb::lp::JsonLineReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}
