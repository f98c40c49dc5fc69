// Solver facade: converts a Model to standard form, dispatches to a simplex
// implementation, and maps the answer back to model variable space. This is
// the only LP entry point the rest of Switchboard uses: lp::solve for a
// one-shot solve, lp::RetainedLp for a model solved again after its
// right-hand sides move. Both run the same solve path.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "lp/dense_simplex.h"
#include "lp/model.h"
#include "lp/presolve.h"
#include "lp/standard_form.h"

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

class DualEngine;

/// A model kept across solves with what its solves prepared: the presolve
/// result, the standard form, a dual engine built the first time a solve
/// routes to the dual simplex, and the basis of the last solve. Only the
/// right-hand sides can change between solves (set_rhs), so a later solve
/// re-derives presolve and checks that its decisions held — the same rows
/// removed, the same variables fixed, the same uppers finite. If they held,
/// it re-derives the standard form's values in place and reloads the
/// retained engine; otherwise it prepares from scratch. Either way every
/// engine sees the inputs lp::solve would compute, so the answers are bit
/// for bit those of lp::solve(model(), options).
///
/// Copies carry the model, the presolve result, the standard form and the
/// last basis, but not the engine: a copy builds its own on its next dual
/// solve and answers bit-identically. Moves keep the engine. One object
/// must not be solved from two threads at once.
class RetainedLp {
 public:
  RetainedLp();
  explicit RetainedLp(Model model);
  RetainedLp(const RetainedLp& other);
  RetainedLp& operator=(const RetainedLp& other);
  RetainedLp(RetainedLp&&) noexcept;
  RetainedLp& operator=(RetainedLp&&) noexcept;
  ~RetainedLp();

  [[nodiscard]] const Model& model() const { return model_; }
  /// Whether a dual engine is retained for the next re-solve: after a dual
  /// solve, until a copy, a structure change or an infeasible presolve.
  [[nodiscard]] bool has_engine() const { return engine_ != nullptr; }
  /// Model::set_rhs on the retained model.
  void set_rhs(int row, double rhs) { model_.set_rhs(row, rhs); }

  /// lp::solve(model(), options), keeping what the solve prepared.
  Solution solve(const SolveOptions& options = {});

  /// Re-solves from the last solve's final basis through the dual simplex:
  /// lp::solve(model(), options) with that solve's Solution::basis and
  /// row_basis as the warm start and dual_resolve set. Without a basis (no
  /// solve yet, a non-optimal one, or the dense tableau's) it solves cold.
  ///
  /// The first resolve() of a model adopted through the constructor first
  /// copies the model into fresh storage, once (a copy changes no value a
  /// solve reads). Left where its builder put it, among the builder's
  /// freed temporaries, the model kept glibc from returning up to ~50 MB
  /// of freed heap at perfbench busy_window's peak (EXPERIMENTS.md,
  /// "Retained re-solves").
  Solution resolve(const SolveOptions& options = {});

 private:
  friend Solution solve(const Model& model, const SolveOptions& options);

  /// The one solve path. `model` is model_ except for lp::solve's one-shot
  /// object; `own_basis` takes the warm start from basis_/row_basis_ and
  /// sets dual_resolve.
  Solution run(const Model& model, const SolveOptions& options,
               bool own_basis);

  Model model_;
  bool repacked_ = false;  ///< model_ was copied into fresh storage
  /// pre_/sf_ describe the model as of the last solve.
  bool prepared_ = false;
  bool presolved_ = false;  ///< sf_ was built through pre_
  BoundPolicy policy_ = BoundPolicy::kInline;
  PresolveResult pre_;
  StandardForm sf_;
  std::unique_ptr<DualEngine> engine_;  ///< built for sf_'s structure
  std::vector<VarStatus> basis_;        ///< last Solution::basis
  std::vector<VarStatus> row_basis_;    ///< last Solution::row_basis
};

}  // namespace sb::lp
