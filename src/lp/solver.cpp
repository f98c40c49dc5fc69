#include "lp/solver.h"

#include <string>

#include "common/error.h"
#include "lp/block_decompose.h"
#include "lp/dual_simplex.h"
#include "lp/presolve.h"
#include "lp/revised_simplex.h"
#include "lp/standard_form.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace sb::lp {

namespace {

/// Handles resolved once; lp::solve is on the provisioning critical path
/// and must not pay a registry lookup per call.
struct SolveMetrics {
  obs::Counter& solves;
  obs::Counter& infeasible;
  obs::Counter& iterations;
  obs::Counter& iterations_warm;
  obs::Counter& iterations_cold;
  obs::Counter& warm_starts;
  obs::Counter& factorizations;
  obs::Counter& pricing_passes;
  obs::Counter& bound_flips;
  obs::Counter& devex_resets;
  obs::Counter& dual_fallbacks;
  obs::Counter& decompose_solves;
  obs::Counter& decompose_blocks;
  obs::Counter& decompose_sub_iterations;
  obs::Counter& decompose_cleanup_iterations;
  obs::Counter& presolve_rows_removed;
  obs::Counter& presolve_bounds_tightened;
  obs::Counter& presolve_variables_fixed;
  obs::Counter& presolve_uppers_implied;
  obs::Histogram& eta_nnz;
  obs::Histogram& solve_s;
  obs::Histogram& solve_dense_s;
  obs::Histogram& solve_sparse_s;
  obs::Histogram& solve_dual_s;
  obs::Histogram& decompose_detect_s;
  obs::Histogram& decompose_sub_s;
  obs::Histogram& decompose_cleanup_s;

  static SolveMetrics& get() {
    static SolveMetrics metrics = [] {
      obs::MetricsRegistry& r = obs::MetricsRegistry::global();
      return SolveMetrics{
          r.counter("sb.lp.solves"),
          r.counter("sb.lp.infeasible"),
          r.counter("sb.lp.simplex_iterations"),
          r.counter("sb.lp.iterations_warm"),
          r.counter("sb.lp.iterations_cold"),
          r.counter("sb.lp.warm_starts"),
          r.counter("sb.lp.factorizations"),
          r.counter("sb.lp.pricing_passes"),
          r.counter("sb.lp.bound_flips"),
          r.counter("sb.lp.devex_resets"),
          r.counter("sb.lp.dual_fallbacks"),
          r.counter("sb.lp.decompose_solves"),
          r.counter("sb.lp.decompose_blocks"),
          r.counter("sb.lp.decompose_sub_iterations"),
          r.counter("sb.lp.decompose_cleanup_iterations"),
          r.counter("sb.lp.presolve_rows_removed"),
          r.counter("sb.lp.presolve_bounds_tightened"),
          r.counter("sb.lp.presolve_variables_fixed"),
          r.counter("sb.lp.presolve_uppers_implied"),
          r.histogram("sb.lp.eta_nnz"),
          r.histogram("sb.lp.solve_s"),
          r.histogram("sb.lp.solve_dense_s"),
          r.histogram("sb.lp.solve_sparse_s"),
          r.histogram("sb.lp.solve_dual_s"),
          r.histogram("sb.lp.decompose_detect_s"),
          r.histogram("sb.lp.decompose_sub_s"),
          r.histogram("sb.lp.decompose_cleanup_s"),
      };
    }();
    return metrics;
  }
};

obs::Histogram& method_timer_for(SolveMetrics& metrics, Method method) {
  switch (method) {
    case Method::kDense:
      return metrics.solve_dense_s;
    case Method::kDual:
      return metrics.solve_dual_s;
    default:
      return metrics.solve_sparse_s;
  }
}

/// The dual / sparse / decomposed engines share the bounded-variable
/// standard form (BoundPolicy::kInline), the warm-start contract, and the
/// status-vector layout.
[[nodiscard]] bool sparse_family(Method method) {
  return method == Method::kSparse || method == Method::kDual;
}

/// Whether a fresh presolve made the decisions `old` recorded, so the
/// standard form built through `old` keeps its structure: the same rows
/// survive, the same variables are fixed, the same uppers are finite.
[[nodiscard]] bool same_decisions(const PresolveResult& old,
                                  const PresolveResult& fresh) {
  if (old.row_map != fresh.row_map) return false;
  for (std::size_t i = 0; i < old.lower.size(); ++i) {
    if ((old.lower[i] == old.upper[i]) !=
            (fresh.lower[i] == fresh.upper[i]) ||
        (old.upper[i] == kInf) != (fresh.upper[i] == kInf)) {
      return false;
    }
  }
  return true;
}

}  // namespace

Solution solve(const Model& model, const SolveOptions& options) {
  RetainedLp once;
  return once.run(model, options, /*own_basis=*/false);
}

RetainedLp::RetainedLp() = default;
RetainedLp::RetainedLp(Model model) : model_(std::move(model)) {}
RetainedLp::RetainedLp(const RetainedLp& other)
    : model_(other.model_),
      repacked_(true),
      prepared_(other.prepared_),
      presolved_(other.presolved_),
      policy_(other.policy_),
      pre_(other.pre_),
      sf_(other.sf_),
      basis_(other.basis_),
      row_basis_(other.row_basis_) {}
RetainedLp& RetainedLp::operator=(const RetainedLp& other) {
  if (this != &other) *this = RetainedLp(other);
  return *this;
}
RetainedLp::RetainedLp(RetainedLp&&) noexcept = default;
RetainedLp& RetainedLp::operator=(RetainedLp&&) noexcept = default;
RetainedLp::~RetainedLp() = default;

Solution RetainedLp::solve(const SolveOptions& options) {
  return run(model_, options, /*own_basis=*/false);
}

Solution RetainedLp::resolve(const SolveOptions& options) {
  if (!repacked_) {
    model_ = Model(model_);
    repacked_ = true;
  }
  return run(model_, options, /*own_basis=*/true);
}

Solution RetainedLp::run(const Model& model, const SolveOptions& options,
                         bool own_basis) {
  SolveMetrics& metrics = SolveMetrics::get();
  metrics.solves.inc();
  obs::ScopedTimer total_timer(metrics.solve_s);
  obs::Span span("lp.solve", obs::Subsystem::kLp);
  span.attr(obs::AttrKey::kRows,
            static_cast<std::int64_t>(model.constraint_count()));
  span.attr(obs::AttrKey::kCols,
            static_cast<std::int64_t>(model.variable_count()));

  // resolve()'s warm start is the last solve's basis; it is consumed into
  // sf_warm below, before this solve overwrites it.
  const std::vector<VarStatus>& warm_start =
      own_basis ? basis_ : options.warm_start;
  const std::vector<VarStatus>& warm_start_rows =
      own_basis ? row_basis_ : options.warm_start_rows;
  const bool dual_resolve = own_basis || options.dual_resolve;

  // Re-derive presolve; the retained standard form keeps its structure
  // only if every decision came out the same (only rhs can have moved).
  bool same_structure = prepared_ && presolved_ == options.use_presolve;
  if (options.use_presolve) {
    obs::Span presolve_span("lp.presolve", obs::Subsystem::kLp);
    PresolveResult pre = presolve(model);
    metrics.presolve_rows_removed.inc(pre.rows_removed);
    metrics.presolve_bounds_tightened.inc(pre.bounds_tightened);
    metrics.presolve_variables_fixed.inc(pre.variables_fixed);
    metrics.presolve_uppers_implied.inc(pre.uppers_implied);
    presolve_span.attr(obs::AttrKey::kRows,
                       static_cast<std::int64_t>(pre.rows_removed));
    if (pre.infeasible) {
      prepared_ = false;
      engine_.reset();
      basis_.clear();
      row_basis_.clear();
      metrics.infeasible.inc();
      Solution solution;
      solution.status = SolveStatus::kInfeasible;
      span.attr(obs::AttrKey::kStatus,
                static_cast<std::int64_t>(SolveStatus::kInfeasible));
      return solution;
    }
    same_structure = same_structure && same_decisions(pre_, pre);
    pre_ = std::move(pre);
  }
  presolved_ = options.use_presolve;
  const PresolveResult* pre = presolved_ ? &pre_ : nullptr;
  const std::size_t rows =
      presolved_ ? pre_.rows_kept : model.constraint_count();

  // kAuto routing table (documented in DESIGN.md): tiny models take the
  // dense tableau; warm re-solves flagged as bound/rhs perturbations take
  // the dual simplex; everything else takes the primal sparse engine, with
  // large cold solves additionally eligible for block decomposition below.
  const bool has_warm_hint =
      !warm_start.empty() && warm_start.size() == model.variable_count();
  Method method = options.method;
  if (method == Method::kAuto) {
    if (rows < kAutoSparseRowCutoff) {
      method = Method::kDense;
    } else if (dual_resolve && has_warm_hint) {
      method = Method::kDual;
    } else {
      method = Method::kSparse;
    }
  }
  const BoundPolicy policy = sparse_family(method) ? BoundPolicy::kInline
                                                   : BoundPolicy::kUpperRows;
  if (same_structure && policy == policy_) {
    refresh_standard_form(model, policy, pre, sf_);
  } else {
    sf_ = to_standard_form(model, policy, pre);
    policy_ = policy;
    engine_.reset();
  }
  prepared_ = true;
  const StandardForm& sf = sf_;
  if (method == Method::kDense && sf.rows.size() > kDenseRowLimit) {
    throw InvalidArgument(
        "lp: dense tableau is limited to " + std::to_string(kDenseRowLimit) +
        " standard-form rows (got " + std::to_string(sf.rows.size()) +
        "); use Method::kSparse or kAuto");
  }

  // Map the warm-start statuses (model variable space) onto the standard
  // form's structural variables. Variables presolve fixed simply drop out.
  std::vector<VarStatus> sf_warm;
  const std::vector<VarStatus>* warm_ptr = nullptr;
  if (sparse_family(method) && has_warm_hint) {
    sf_warm.assign(sf.var_count(), VarStatus::kAtLower);
    for (std::size_t i = 0; i < warm_start.size(); ++i) {
      const int sv = sf.var_map[i];
      if (sv < 0) continue;
      const VarStatus s = warm_start[i];
      sf_warm[static_cast<std::size_t>(sv)] =
          s == VarStatus::kFixed ? VarStatus::kAtLower : s;
    }
    // Row statuses ride along when supplied: the standard form emits one row
    // per surviving constraint in order (BoundPolicy::kInline adds no extra
    // rows), so surviving row r is standard-form logical var_count()+r.
    // Rows presolve removed keep the engine's resting default.
    if (warm_start_rows.size() == model.constraint_count()) {
      sf_warm.resize(sf.var_count() + sf.rows.size(), VarStatus::kAtLower);
      for (std::size_t r = 0; r < warm_start_rows.size(); ++r) {
        const int rr = presolved_ ? pre_.row_map[r] : static_cast<int>(r);
        if (rr < 0) continue;
        sf_warm[sf.var_count() + static_cast<std::size_t>(rr)] =
            warm_start_rows[r];
      }
    }
    warm_ptr = &sf_warm;
    metrics.warm_starts.inc();
  }

  // Cold large sparse solves can go through the block-angular
  // decomposition. A warm hint always wins — the decomposition's stitched
  // crash basis would throw the caller's (better) basis away.
  bool decomposed = false;
  BlockPlan plan;
  if (method == Method::kSparse && warm_ptr == nullptr &&
      options.decompose != DecomposePolicy::kOff &&
      (options.decompose == DecomposePolicy::kForce ||
       sf.rows.size() >= kDecomposeMinRows)) {
    plan = detect_blocks(sf);
    const std::size_t min_blocks =
        options.decompose == DecomposePolicy::kForce ? 2 : kDecomposeMinBlocks;
    decomposed = plan.usable(min_blocks);
  }

  SfSolution raw;
  SparseSolveStats stats;
  bool have_sparse_stats = false;
  {
    obs::ScopedTimer method_timer(method_timer_for(metrics, method));
    switch (method) {
      case Method::kDense:
        raw = solve_dense(sf, options);
        break;
      case Method::kDual: {
        DualSolveStats dual_stats;
        if (sf.rows.empty()) {
          raw = solve_dual(sf, options, warm_ptr, &dual_stats);
        } else {
          // The first dual solve builds the engine; later ones over the
          // same structure reload it with the refreshed rhs and uppers.
          if (engine_ != nullptr) {
            engine_->reload(sf, options);
          } else {
            engine_ = std::make_unique<DualEngine>(sf, options);
          }
          raw = engine_->run(warm_ptr, &dual_stats);
        }
        metrics.factorizations.inc(dual_stats.factorizations);
        metrics.bound_flips.inc(dual_stats.bound_flips);
        metrics.eta_nnz.record(static_cast<double>(dual_stats.eta_nnz));
        if (dual_stats.needs_primal_cleanup ||
            (raw.status != SolveStatus::kOptimal &&
             raw.status != SolveStatus::kInfeasible)) {
          // Fallback contract: the dual's statuses are a valid basis; let
          // the primal engine finish from there.
          metrics.dual_fallbacks.inc();
          const std::size_t dual_iterations = raw.iterations;
          const std::vector<VarStatus> resume = raw.statuses;
          raw = solve_sparse(sf, options,
                             resume.empty() ? warm_ptr : &resume, &stats);
          raw.iterations += dual_iterations;
          have_sparse_stats = true;
        }
        break;
      }
      default: {
        if (decomposed) {
          DecomposeStats dstats;
          raw = solve_decomposed(sf, options, plan,
                                 options.decompose_threads, &dstats);
          metrics.decompose_solves.inc();
          metrics.decompose_blocks.inc(dstats.blocks);
          metrics.decompose_sub_iterations.inc(dstats.sub_iterations);
          metrics.decompose_cleanup_iterations.inc(
              dstats.cleanup_iterations);
          metrics.decompose_detect_s.record(dstats.detect_seconds);
          metrics.decompose_sub_s.record(dstats.sub_seconds);
          metrics.decompose_cleanup_s.record(dstats.cleanup_seconds);
        } else {
          raw = solve_sparse(sf, options, warm_ptr, &stats);
          have_sparse_stats = true;
        }
        break;
      }
    }
  }
  metrics.iterations.inc(raw.iterations);
  (warm_ptr != nullptr ? metrics.iterations_warm : metrics.iterations_cold)
      .inc(raw.iterations);
  if (have_sparse_stats) {
    metrics.factorizations.inc(stats.factorizations);
    metrics.pricing_passes.inc(stats.pricing_passes);
    metrics.bound_flips.inc(stats.bound_flips);
    metrics.devex_resets.inc(stats.devex_resets);
    metrics.eta_nnz.record(static_cast<double>(stats.eta_nnz));
  }
  if (raw.status == SolveStatus::kInfeasible) metrics.infeasible.inc();
  span.attr(obs::AttrKey::kIterations,
            static_cast<std::int64_t>(raw.iterations));
  span.attr(obs::AttrKey::kWarmStart, warm_ptr != nullptr ? 1 : 0);
  span.attr(obs::AttrKey::kStatus, static_cast<std::int64_t>(raw.status));

  Solution solution;
  solution.status = raw.status;
  solution.iterations = raw.iterations;
  if (raw.status == SolveStatus::kOptimal) {
    // Presolve preserves variable indices, so mapping back through the
    // reduced standard form lands in the original variable space.
    solution.values = map_back(sf, raw.values, model.variable_count());
    solution.objective = model.objective_value(solution.values);
    if (sparse_family(method)) {
      // Variables presolve (or upper == lower) substituted out have no
      // standard-form column; they report kFixed. When presolve fixes
      // EVERYTHING the engine sees an empty model and returns no statuses —
      // the all-kFixed basis is still a valid warm start.
      solution.basis.assign(model.variable_count(), VarStatus::kFixed);
      for (std::size_t i = 0; i < sf.var_map.size(); ++i) {
        const int sv = sf.var_map[i];
        if (sv >= 0 && static_cast<std::size_t>(sv) < raw.statuses.size()) {
          solution.basis[i] = raw.statuses[static_cast<std::size_t>(sv)];
        }
      }
      // Logical (row) statuses follow the structural block in the engine's
      // status vector. Rows presolve dropped were redundant — report kBasic
      // (slack basic / row inactive) so re-feeding the basis stays exact.
      solution.row_basis.assign(model.constraint_count(), VarStatus::kBasic);
      for (std::size_t r = 0; r < model.constraint_count(); ++r) {
        const int rr = presolved_ ? pre_.row_map[r] : static_cast<int>(r);
        if (rr < 0) continue;
        const std::size_t idx = sf.var_count() + static_cast<std::size_t>(rr);
        if (idx < raw.statuses.size()) {
          solution.row_basis[r] = raw.statuses[idx];
        }
      }
    }
  }
  basis_ = solution.basis;
  row_basis_ = solution.row_basis;
  return solution;
}

}  // namespace sb::lp
