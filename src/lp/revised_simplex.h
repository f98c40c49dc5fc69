// Production LP engine: bounded-variable two-phase revised simplex over a
// sparse LU/eta basis (lp/lu_factor.h, lp/basis.h).
//
// What makes it scale where the dense reference tableau
// (lp/dense_simplex.h) does not:
//  - the basis is a sparse LU factorization with Markowitz-style pivot
//    ordering, updated between periodic refactorizations by product-form
//    etas — O(nnz) per pivot instead of the tableau's O(m * (n + m));
//  - finite upper bounds live in the variable state (at-lower / at-upper /
//    basic), so the row count is independent of how many variables are
//    bounded (standard form built with BoundPolicy::kInline);
//  - rows need no artificial columns: every row carries one logical
//    (slack) variable and a composite phase 1 drives bound violations of
//    the basic set to zero, which is also what makes warm starts work —
//    any crash basis is a valid phase-1 start;
//  - pricing keeps a rotating candidate list (partial pricing) instead of
//    scanning every column per iteration, scored by a true Devex reference
//    framework (tracked reference set, exact entering-column weights, drift-
//    triggered framework restarts), with Bland's rule as the anti-cycling
//    fallback;
//  - bound flips are batched: a phase-2 bound flip leaves the basis — and
//    therefore the duals — unchanged, so consecutive flips skip the BTRAN
//    and re-pricing pass entirely instead of paying a full iteration each.
//
// The state and operations it shares with the dual engine (the build, the
// warm-start install, basis repair, basic values, export) live in
// lp/simplex_core.h; this engine adds the cold crash, the two phases and
// Devex partial pricing.
#pragma once

#include <vector>

#include "lp/dense_simplex.h"
#include "lp/standard_form.h"

namespace sb::lp {

/// Per-solve counters surfaced as sb.lp.* metrics by the solver facade.
struct SparseSolveStats {
  std::size_t factorizations = 0;  ///< basis (re)factorizations
  std::size_t eta_nnz = 0;         ///< LU + update-eta nonzeros at the end
  std::size_t pricing_passes = 0;  ///< candidate-list refresh scans
  std::size_t bound_flips = 0;     ///< nonbasic bound-to-bound moves
  std::size_t devex_resets = 0;    ///< Devex reference-framework restarts
};

/// Solves a standard-form LP built with BoundPolicy::kInline. `warm`, when
/// non-null, holds one status per standard-form structural variable
/// (optionally followed by one per row logical) from a previous solve of a
/// structurally similar model: nonbasic variables are re-installed at their
/// bounds, the proposed basic set is crash-factorized (dependent columns
/// demoted, uncovered rows filled; the contract is in lp/simplex_core.h),
/// and phase 1 repairs the residual infeasibility. SfSolution::statuses
/// reports the final statuses for the next warm start.
SfSolution solve_sparse(const StandardForm& sf, const SimplexOptions& options,
                        const std::vector<VarStatus>* warm = nullptr,
                        SparseSolveStats* stats = nullptr);

}  // namespace sb::lp
