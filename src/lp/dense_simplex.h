// Reference LP solver: two-phase primal simplex on a dense tableau.
// Simple enough to be verifiably correct; the test suite cross-checks the
// revised simplex against it on randomized instances. Suitable for problems
// up to a few hundred rows; larger Switchboard instances use
// revised_simplex.h.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/standard_form.h"

namespace sb::lp {

/// Reduced-cost optimality tolerance of every simplex engine.
inline constexpr double kOptimalityTol = 1e-9;
/// Feasibility / pivot magnitude tolerance of every simplex engine.
inline constexpr double kFeasibilityTol = 1e-7;

/// Tuning knobs shared by the simplex engines.
struct SimplexOptions {
  std::size_t max_iterations = 200000;
  /// Consecutive non-improving iterations before switching to Bland's rule.
  std::size_t stall_limit = 500;
  /// Revised engines only: refactorize the basis every N pivots. The sparse
  /// engine's product-form etas carry near-dense FTRAN images, so every
  /// btran pays O(interval * m) — while a fresh LU costs well under a
  /// millisecond on Switchboard-shaped bases. Short intervals win by a wide
  /// margin (bench/micro_lp.cpp: 32 is ~3x faster than 300 at the
  /// 42x24x8 provisioning shape).
  std::size_t refactor_interval = 32;
};

/// Solver-internal result in standard-form variable space.
struct SfSolution {
  SolveStatus status = SolveStatus::kIterationLimit;
  std::vector<double> values;
  std::size_t iterations = 0;
  /// Final status per standard-form column — var_count() structurals
  /// followed by one logical per row (sparse engine only; empty for the
  /// dense tableau). Feed back via solve_sparse(..., warm) to warm-start;
  /// the engine also accepts a structurals-only prefix.
  std::vector<VarStatus> statuses;
};

/// Solves a standard-form LP with the dense tableau method.
SfSolution solve_dense(const StandardForm& sf, const SimplexOptions& options);

}  // namespace sb::lp
