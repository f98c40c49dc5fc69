#include "lp/presolve.h"

#include <algorithm>
#include <cmath>

namespace sb::lp {

PresolveResult presolve(const Model& model, double tolerance) {
  PresolveResult result;

  std::vector<double>& lower = result.lower;
  std::vector<double>& upper = result.upper;
  lower.reserve(model.variable_count());
  upper.reserve(model.variable_count());
  for (const Variable& v : model.variables()) {
    lower.push_back(v.lower);
    upper.push_back(v.upper);
  }
  std::vector<bool> row_alive(model.constraint_count(), true);

  auto tighten = [&](int var, Sense sense, double value) -> bool {
    double& lo = lower[static_cast<std::size_t>(var)];
    double& up = upper[static_cast<std::size_t>(var)];
    bool changed = false;
    switch (sense) {
      case Sense::kLe:
        if (value < up - tolerance) {
          up = value;
          changed = true;
        }
        break;
      case Sense::kGe:
        if (value > lo + tolerance) {
          lo = value;
          changed = true;
        }
        break;
      case Sense::kEq:
        if (value > lo + tolerance) {
          lo = value;
          changed = true;
        }
        if (value < up - tolerance) {
          up = value;
          changed = true;
        }
        break;
    }
    if (changed) ++result.bounds_tightened;
    return lo <= up + tolerance;
  };

  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (std::size_t r = 0; r < model.constraint_count(); ++r) {
      if (!row_alive[r]) continue;
      const Constraint& row = model.constraint(static_cast<int>(r));

      // Count live terms (terms on variables fixed by matching bounds stay
      // live — the standard form handles them; only structurally empty and
      // singleton rows are reduced here).
      if (row.terms.empty()) {
        const bool satisfied =
            (row.sense == Sense::kLe && 0.0 <= row.rhs + tolerance) ||
            (row.sense == Sense::kGe && 0.0 >= row.rhs - tolerance) ||
            (row.sense == Sense::kEq && std::abs(row.rhs) <= tolerance);
        if (!satisfied) {
          result.infeasible = true;
          result.infeasible_reason =
              "empty row " + std::to_string(r) + " (" + row.name +
              ") cannot be satisfied";
          return result;
        }
        row_alive[r] = false;
        ++result.rows_removed;
        progressed = true;
        continue;
      }
      if (row.terms.size() == 1 && row.terms[0].coeff != 0.0) {
        const Term& term = row.terms[0];
        const double value = row.rhs / term.coeff;
        // Dividing by a negative coefficient flips the inequality.
        Sense sense = row.sense;
        if (term.coeff < 0.0) {
          if (sense == Sense::kLe) {
            sense = Sense::kGe;
          } else if (sense == Sense::kGe) {
            sense = Sense::kLe;
          }
        }
        if (!tighten(term.var, sense, value)) {
          result.infeasible = true;
          result.infeasible_reason =
              "bounds of variable " + std::to_string(term.var) +
              " crossed via row " + std::to_string(r);
          return result;
        }
        row_alive[r] = false;
        ++result.rows_removed;
        progressed = true;
      }
    }
  }

  // Implied upper bounds: for a kLe row Σ a_k x_k <= b with a_j > 0, every
  // solution has x_j <= (b - Σ_{k≠j} min(a_k x_k)) / a_j. When that value
  // is finite and x_j's upper is +inf, install it. The feasible set over
  // the row's variables is unchanged (the bound is implied), but the column
  // becomes BOXED, which the simplex engines exploit: boxed nonbasic
  // columns can bound-FLIP in the long-step ratio tests (primal and dual)
  // instead of paying a basis change each. One pass, not to fixpoint —
  // implied bounds feed the ratio test, not further reductions.
  for (std::size_t r = 0; r < model.constraint_count(); ++r) {
    if (!row_alive[r]) continue;
    const Constraint& row = model.constraint(static_cast<int>(r));
    if (row.sense != Sense::kLe || row.terms.size() < 2) continue;
    double min_activity = 0.0;
    bool bounded = true;
    for (const Term& t : row.terms) {
      const auto v = static_cast<std::size_t>(t.var);
      const double lo = t.coeff > 0.0 ? t.coeff * lower[v] : t.coeff * upper[v];
      if (!std::isfinite(lo)) {
        bounded = false;
        break;
      }
      min_activity += lo;
    }
    if (!bounded) continue;
    for (const Term& t : row.terms) {
      if (t.coeff <= 0.0) continue;
      const auto v = static_cast<std::size_t>(t.var);
      if (std::isfinite(upper[v])) continue;
      const double without = min_activity - t.coeff * lower[v];
      const double implied = (row.rhs - without) / t.coeff;
      if (std::isfinite(implied)) {
        upper[v] = std::max(implied, lower[v]);
        ++result.uppers_implied;
      }
    }
  }

  // Snap within-tolerance crossings and number the surviving rows.
  for (std::size_t i = 0; i < model.variable_count(); ++i) {
    if (upper[i] < lower[i]) upper[i] = lower[i];
    const Variable& v = model.variable(static_cast<int>(i));
    if (lower[i] == upper[i] && v.lower != v.upper) ++result.variables_fixed;
  }
  result.row_map.assign(model.constraint_count(), -1);
  for (std::size_t r = 0; r < model.constraint_count(); ++r) {
    if (row_alive[r]) result.row_map[r] = static_cast<int>(result.rows_kept++);
  }
  return result;
}

}  // namespace sb::lp
