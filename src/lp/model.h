// Linear-program model builder. Switchboard's provisioning (Eq 3-9),
// allocation (Eq 10), and the Locality-First backup plan (Eq 1-2) are all
// expressed against this interface and solved by the from-scratch simplex
// implementations in this module (the paper treats its LP solver as a black
// box; see DESIGN.md substitutions).
//
// Conventions: minimization only; every variable must have a finite lower
// bound (all of Switchboard's variables are non-negative); upper bounds are
// optional.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "common/error.h"

namespace sb::lp {

/// +infinity for "no upper bound".
inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// One coefficient of a constraint row.
struct Term {
  int var = -1;
  double coeff = 0.0;
};

enum class Sense { kLe, kGe, kEq };

struct Variable {
  double lower = 0.0;
  double upper = kInf;
  double cost = 0.0;
  std::string name;
};

struct Constraint {
  std::vector<Term> terms;
  Sense sense = Sense::kLe;
  double rhs = 0.0;
  std::string name;
};

/// A minimization LP under construction.
class Model {
 public:
  /// Adds a variable; returns its index. `lower` must be finite.
  int add_variable(double lower, double upper, double cost,
                   std::string name = "");

  /// Adds a constraint row; duplicate variable terms are merged. Terms with
  /// out-of-range variable indices throw.
  int add_constraint(std::vector<Term> terms, Sense sense, double rhs,
                     std::string name = "");

  /// Replaces row `c`'s right-hand side in place, leaving its terms and
  /// sense alone: the re-solve path, where only demand and capacity floors
  /// moved. A bad index or a non-finite value throws.
  void set_rhs(int c, double rhs);

  [[nodiscard]] std::size_t variable_count() const { return vars_.size(); }
  [[nodiscard]] std::size_t constraint_count() const { return rows_.size(); }
  [[nodiscard]] const Variable& variable(int v) const;
  [[nodiscard]] const Constraint& constraint(int c) const;
  [[nodiscard]] const std::vector<Variable>& variables() const { return vars_; }
  [[nodiscard]] const std::vector<Constraint>& constraints() const {
    return rows_;
  }

  /// Objective value of an assignment (no feasibility check).
  [[nodiscard]] double objective_value(const std::vector<double>& x) const;

 private:
  std::vector<Variable> vars_;
  std::vector<Constraint> rows_;
};

enum class SolveStatus {
  kOptimal,
  kInfeasible,
  kUnbounded,
  kIterationLimit,
};

std::string to_string(SolveStatus s);

/// Simplex status of one variable in an optimal basis. The sparse engine
/// reports these per model variable after a solve (Solution::basis) and can
/// start from them (SolveOptions::warm_start): a warm start re-installs the
/// nonbasic variables at their bounds, crash-factorizes the proposed basic
/// set (repairing rank deficiencies with logicals), and lets phase 1 clean
/// up whatever residual infeasibility the new model introduces.
enum class VarStatus : unsigned char {
  kAtLower,  ///< nonbasic at its lower bound
  kAtUpper,  ///< nonbasic at its (finite) upper bound
  kBasic,    ///< in the basis
  kFixed,    ///< lower == upper; substituted out before the simplex
};

/// Result of a solve. `values` are in the original model's variable space
/// (including fixed/shifted variables mapped back).
struct Solution {
  SolveStatus status = SolveStatus::kIterationLimit;
  double objective = 0.0;
  std::vector<double> values;
  std::size_t iterations = 0;
  /// Final basis, one status per model variable. Filled only by the sparse
  /// engine (Method::kSparse / kAuto dispatching to it) on optimal solves;
  /// empty otherwise. Feed it to SolveOptions::warm_start of a related
  /// model to skip most of phase 1/2.
  std::vector<VarStatus> basis;
  /// Final status of each constraint row's logical (slack/surplus) variable,
  /// one per model constraint; kBasic means the row was inactive (slack
  /// basic) at the optimum. Filled alongside `basis` by the sparse engine;
  /// rows removed by presolve report kBasic. Feed it to
  /// SolveOptions::warm_start_rows together with `basis` — without the row
  /// pattern the engine must guess which rows were tight, which costs
  /// phase-1 repair pivots.
  std::vector<VarStatus> row_basis;

  [[nodiscard]] bool optimal() const { return status == SolveStatus::kOptimal; }
};

/// Feasibility report from validate_solution().
struct ValidationReport {
  bool feasible = true;
  double max_violation = 0.0;
  std::string worst;  ///< name/description of the most violated row or bound
};

/// Independently checks `values` against all bounds and constraints of
/// `model` — the test suite runs every solver answer through this.
ValidationReport validate_solution(const Model& model,
                                   const std::vector<double>& values,
                                   double tolerance = 1e-6);

/// Full-solution variant, the sb_check feasibility-oracle entry point: on
/// top of the bounds/constraints check it verifies that the reported
/// objective matches `model.objective_value(solution.values)` (relative
/// tolerance on large objectives), so a solver that mis-reports its own
/// answer is caught too. Only meaningful for optimal solutions; any other
/// status reports infeasible with `worst` naming the status.
ValidationReport validate_solution(const Model& model, const Solution& solution,
                                   double tolerance = 1e-6);

}  // namespace sb::lp
