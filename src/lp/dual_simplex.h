// Dual revised simplex over the same sparse LU/eta basis as the primal
// engine (lp/basis.h, lp/lu_factor.h), with a bound-flipping (long-step)
// ratio test.
//
// Where the primal engine iterates on primal feasibility and prices by
// reduced cost, the dual engine starts from a DUAL-feasible basis (every
// nonbasic reduced cost has the right sign for its bound) and drives out
// primal bound violations row by row. That makes it the natural re-solve
// engine after bound tightening: tightening bounds on an optimal basis
// leaves the duals feasible and only perturbs primal feasibility — exactly
// the dual simplex's starting condition. The provisioner's capacity-floor
// re-solves and the block decomposition's clean-up phase are both that
// shape.
//
// The bound-flipping ratio test is what makes it fast on Switchboard's
// bounded-column LPs: the dual step's objective is piecewise linear in the
// step length, with one breakpoint per candidate entering column. A boxed
// breakpoint column does not have to enter — it can flip to its opposite
// bound, pay its |alpha| * range in slope, and let the step continue. One
// dual pivot can therefore flip arbitrarily many bounded variables (plus a
// single batched FTRAN for all of them) where the primal pays an iteration
// per flip.
//
// The engine never fails hard: any condition it cannot handle — a start
// that cannot be made dual feasible by bound flips, numerical trouble a
// refactorization does not cure, residual dual infeasibility at the end —
// sets DualSolveStats::needs_primal_cleanup and returns the current
// (always valid) basis statuses, which the solver facade feeds to the
// primal engine as a warm start.
//
// DualEngine outlives one solve: a retained LP (lp::RetainedLp) whose rhs
// moved reloads the engine it built on an earlier solve instead of building
// a new one. A reload keeps the column and row stores and the costs,
// overwrites the rhs and structural uppers, and resets everything else to a
// fresh engine's state, so a reloaded run is bit-identical to a fresh one.
#pragma once

#include <memory>
#include <vector>

#include "lp/dense_simplex.h"
#include "lp/revised_simplex.h"
#include "lp/standard_form.h"

namespace sb::lp {

/// Per-solve counters for the dual engine, surfaced as sb.lp.* metrics.
struct DualSolveStats {
  std::size_t factorizations = 0;
  std::size_t eta_nnz = 0;
  std::size_t bound_flips = 0;  ///< nonbasic flips (ratio-test + start repair)
  /// The dual engine could not finish: the returned SfSolution's statuses
  /// hold a valid basis to warm-start the primal engine from; its status
  /// field is kIterationLimit and its values are meaningless.
  bool needs_primal_cleanup = false;
};

/// A dual simplex engine over one standard form's structure. Not copyable;
/// lp::RetainedLp holds it behind a pointer, so the column store its basis
/// points into never moves.
class DualEngine {
 public:
  /// Builds the engine for `sf` (BoundPolicy::kInline, at least one row).
  DualEngine(const StandardForm& sf, const SimplexOptions& options);
  ~DualEngine();

  /// Points the engine at `sf`'s rhs and structural uppers. `sf` must have
  /// the structure the engine was built from: same columns, rows, terms,
  /// senses and costs (refresh_standard_form's output).
  void reload(const StandardForm& sf, const SimplexOptions& options);

  /// One dual solve from `warm` (solve_dual's contract). Counters in
  /// `stats` cover this run only.
  SfSolution run(const std::vector<VarStatus>* warm, DualSolveStats* stats);

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

/// Solves a standard-form LP (BoundPolicy::kInline) with the dual simplex.
/// `warm` has the same contract as solve_sparse: per-structural statuses,
/// optionally followed by per-row logical statuses; null means a cold
/// all-logical start. See DualSolveStats::needs_primal_cleanup for the
/// fallback contract.
SfSolution solve_dual(const StandardForm& sf, const SimplexOptions& options,
                      const std::vector<VarStatus>* warm = nullptr,
                      DualSolveStats* stats = nullptr);

}  // namespace sb::lp
