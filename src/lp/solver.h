// Solver facade: converts a Model to standard form, dispatches to a simplex
// implementation, and maps the answer back to model variable space. This is
// the only LP entry point the rest of Switchboard uses.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/dense_simplex.h"
#include "lp/model.h"

namespace sb::lp {

/// Values are explicit because fuzz repro files store them
/// (FuzzOptions::lp_method). 2 is retired: old repro files may hold it, and
/// the repro loader must keep rejecting it rather than replay it under
/// another engine.
enum class Method {
  kAuto = 0,    ///< routing table below: dense / sparse / dual / decomposed
  kDense = 1,   ///< force the dense tableau (reference implementation)
  kSparse = 3,  ///< force the sparse LU/eta bounded-variable engine
  kDual = 4,    ///< force the dual simplex (lp/dual_simplex.h); falls back to
                ///< the primal sparse engine when it cannot finish
};

/// Whether kAuto may route a cold large solve through the block-angular
/// decomposition (lp/block_decompose.h).
enum class DecomposePolicy {
  kAuto,   ///< decompose when cold, >= kDecomposeMinRows rows, and
           ///< detect_blocks finds >= kDecomposeMinBlocks blocks
  kOff,    ///< never decompose
  kForce,  ///< decompose whenever detection finds >= 2 blocks (testing)
};

/// kAuto cutoff: models with at least this many constraints go to the sparse
/// engine; below it the dense tableau's tiny constant factor wins (tuned
/// with bench/micro_lp.cpp — the crossover sits well under 100 rows because
/// the sparse engine prices and factorizes only nonzeros).
inline constexpr std::size_t kAutoSparseRowCutoff = 32;

/// DecomposePolicy::kAuto thresholds: at least this many standard-form rows
/// (below it the monolithic sparse solve wins outright) ...
inline constexpr std::size_t kDecomposeMinRows = 512;
/// ... and at least this many detected blocks, so the clean-up solve has
/// meaningfully smaller work than the original LP.
inline constexpr std::size_t kDecomposeMinBlocks = 4;

/// The dense tableau materializes an m x (n + m) tableau, quadratic-plus in
/// the row count. Forcing it beyond this limit throws InvalidArgument
/// instead of silently burning memory and time — use Method::kSparse (or
/// kAuto) for large instances. The limit counts standard-form rows, which
/// for this engine include one row per finite upper bound.
inline constexpr std::size_t kDenseRowLimit = 2000;

struct SolveOptions : SimplexOptions {
  Method method = Method::kAuto;
  /// Run the presolve reductions (singleton rows -> bounds, empty rows,
  /// early infeasibility) before the simplex. See lp/presolve.h.
  bool use_presolve = true;
  /// Optional warm start for the sparse engine: one status per model
  /// variable, as returned in Solution::basis by a previous solve of a
  /// structurally similar model (same variables, perturbed rows/bounds —
  /// e.g. the provisioner's F0 LP re-solved at corrected demand). Ignored
  /// by the dense tableau; a mismatched size falls back to a cold start.
  /// A hint also keeps kAuto off the block decomposition, so on large
  /// models it pays only when the hint is a few pivots from the optimum.
  std::vector<VarStatus> warm_start;
  /// Optional companion to `warm_start`: one status per model constraint,
  /// as returned in Solution::row_basis. Supplying it preserves which rows
  /// were tight vs slack in the hint basis, eliminating most of the repair
  /// pivots a variables-only warm start needs. Ignored unless `warm_start`
  /// is also set and both sizes match their model dimensions.
  std::vector<VarStatus> warm_start_rows;
  /// Route warm-started solves through the dual simplex under kAuto. The
  /// dual engine repairs primal bound violations without touching dual
  /// feasibility, which is exactly what a re-solve of the SAME model after
  /// a bound or rhs change perturbs. The provisioner sets it when a
  /// scenario re-solves its own retained model at new demand and floors; a
  /// basis mapped onto a model with other columns stays on the primal,
  /// where the dual measured ~2.4x the iterations.
  bool dual_resolve = false;
  /// Cold-solve decomposition policy; see DecomposePolicy.
  DecomposePolicy decompose = DecomposePolicy::kAuto;
  /// Thread-pool size for parallel subproblem solves; <= 1 solves them
  /// sequentially. Subproblems are independent and stitched in block order,
  /// so the result is bit-identical at any thread count.
  std::size_t decompose_threads = 1;
};

/// Solves `model` (minimization). The returned Solution's `values` cover all
/// model variables, including fixed ones. Throws InvalidArgument for models
/// with non-finite lower bounds or when the dense tableau is forced beyond
/// its row limit; solver failures are reported via Solution::status, not
/// exceptions.
Solution solve(const Model& model, const SolveOptions& options = {});

}  // namespace sb::lp
