// LP presolve: cheap reductions applied before the simplex runs.
// Switchboard's provisioning LPs contain many structurally trivial pieces
// (singleton rows that are really variable bounds, empty rows, variables
// fixed by Eq 4's latency pruning); presolve removes them, detects trivial
// infeasibility early, and shrinks the simplex's working set.
//
// Reductions (applied to fixpoint):
//  - empty rows: constant constraints — either trivially satisfied (drop)
//    or proof of infeasibility;
//  - singleton rows: a*x {<=,>=,=} b tightens x's bounds and drops the row;
//  - crossed bounds (lower > upper) after tightening: infeasible;
//  - variables whose bounds meet become fixed (the standard-form conversion
//    substitutes them out);
//  - implied upper bounds from kLe row activity: boxes +inf columns so the
//    simplex engines' long-step ratio tests can bound-flip them.
//
// Presolve never copies the model: it reports the tightened bounds and the
// surviving rows, and to_standard_form (lp/standard_form.h) builds the
// reduced LP straight from the model plus this result.
#pragma once

#include <string>
#include <vector>

#include "lp/model.h"

namespace sb::lp {

struct PresolveResult {
  /// Set when presolve proves the model infeasible; every other field is
  /// then meaningless.
  bool infeasible = false;
  std::string infeasible_reason;
  /// Tightened bounds per model variable (indices are preserved: variables
  /// are fixed via bounds rather than renumbered). upper >= lower always
  /// holds; lower == upper marks a fixed variable.
  std::vector<double> lower;
  std::vector<double> upper;
  /// Original constraint index -> index among the surviving rows (-1 when
  /// the row was removed). Lets callers map row-level data (e.g. warm-start
  /// logical statuses) between the original and reduced LPs.
  std::vector<int> row_map;
  std::size_t rows_kept = 0;
  /// Statistics for logging/tests.
  std::size_t rows_removed = 0;
  std::size_t bounds_tightened = 0;
  std::size_t variables_fixed = 0;
  /// +inf uppers replaced by finite row-activity implied bounds. Changes no
  /// solution, but boxes the column so the long-step ratio tests can
  /// bound-flip it instead of pivoting.
  std::size_t uppers_implied = 0;
};

/// Runs the reductions. `tolerance` guards bound comparisons.
PresolveResult presolve(const Model& model, double tolerance = 1e-9);

}  // namespace sb::lp
