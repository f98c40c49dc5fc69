// Block-angular decomposition for the cold-solve path.
//
// Switchboard's provisioning LP is block-angular in time slots: each slot
// contributes its own completeness and capacity rows over slot-local
// variables, and only the per-DC peak columns (cp) couple the slots
// together. Solving it monolithically prices every column against every
// other slot's rows for tens of thousands of iterations; solving the slots
// independently and repairing the coupling afterwards is dramatically
// cheaper, because each subproblem is a few hundred rows and the stitched
// crash basis leaves the clean-up solve only the coupling disagreement to
// fix.
//
// The pass is structure-detecting, not provisioning-specific:
//  1. detect_blocks() classifies columns by degree — coupling columns touch
//     far more rows than the block-local median — and unions rows connected
//     through local columns into blocks;
//  2. a MASTER sub-LP over the hardest few blocks (largest total |rhs|,
//     i.e. the busiest slots) is solved with the coupling columns included
//     at their real costs: because it is the parent restricted to a row
//     subset, its optimum is a lower bound on the parent's and its coupling
//     values are optimal for a relaxation;
//  3. every other block solves a small sub-LP (lp/standard_form.h
//     extract_row_subform) with the coupling columns FIXED at the master's
//     values (substituted into the rhs). A block that is infeasible at those
//     values is a binding block the relaxation missed: it joins the master
//     and the loop repeats (constraint generation over blocks). The grown
//     master warm-starts from the previous round's basis — surviving
//     columns and rows keep their statuses, new rows' logicals start basic
//     — and block re-refines warm-start the DUAL simplex from their
//     previous basis, since only the substituted rhs moved (a bound
//     perturbation, the dual engine's designed case);
//  4. when every block is feasible, the stitched point is the master's
//     optimum plus per-block placements that are optimal GIVEN the coupling
//     values, so the remaining gap is only the non-master blocks' influence
//     on the coupling choice. The sub-bases are stitched into one crash
//     basis — each block contributes exactly its square sub-basis, so the
//     crash accepts it without demotions — and a clean-up solve (dual
//     simplex first, then lp/dual_simplex.h's finish_on_primal) closes the
//     gap.
//
// Each master round records one `lp.decompose.round` span under the
// solve's `lp.decompose` span, with the master's rows and columns, the
// blocks refined, the blocks that join the next master, and the round's
// iterations. The master coming back infeasible proves the parent
// infeasible (it is the parent restricted to a row subset); a block sub-LP
// coming back infeasible only sends that block into the master. Any other
// sub-solve failure degrades to a cold clean-up solve, i.e. the plain
// sparse path.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/dense_simplex.h"
#include "lp/standard_form.h"

namespace sb::lp {

/// Row/column classification produced by detect_blocks().
struct BlockPlan {
  /// Per-row block id, or -1 for rows touching only coupling columns
  /// (enforced by the clean-up solve alone).
  std::vector<int> row_block;
  /// Per-column block id, or -1 for coupling columns.
  std::vector<int> col_block;
  std::size_t block_count = 0;
  std::size_t coupling_cols = 0;

  [[nodiscard]] bool usable(std::size_t min_blocks) const {
    return block_count >= min_blocks;
  }
};

/// Classifies the standard form's rows and columns into independent blocks
/// plus coupling columns. Coupling detection is the degree heuristic
/// described above; cost is one pass over the nonzeros.
[[nodiscard]] BlockPlan detect_blocks(const StandardForm& sf);

/// Per-solve counters and phase timings, surfaced as sb.lp.* metrics.
struct DecomposeStats {
  std::size_t blocks = 0;
  std::size_t sub_iterations = 0;      ///< master + block subproblems
  std::size_t cleanup_iterations = 0;  ///< dual + primal clean-up combined
  /// Degraded to a cold clean-up (counted as sb.lp.decompose_cold_cleanups).
  bool sub_solve_failed = false;
  double detect_seconds = 0.0;
  double sub_seconds = 0.0;
  double cleanup_seconds = 0.0;
};

/// Solves `sf` by the decomposition above. `plan` must come from
/// detect_blocks() on the same form. Output matches solve_sparse in shape
/// (values over structurals, statuses over structurals + row logicals).
SfSolution solve_decomposed(const StandardForm& sf,
                            const SimplexOptions& options,
                            const BlockPlan& plan,
                            DecomposeStats* stats = nullptr);

}  // namespace sb::lp
