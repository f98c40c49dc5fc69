#include "lp/model.h"

#include <algorithm>
#include <cmath>

namespace sb::lp {

int Model::add_variable(double lower, double upper, double cost,
                        std::string name) {
  require(std::isfinite(lower), "add_variable: lower bound must be finite");
  require(upper >= lower, "add_variable: upper < lower");
  require(std::isfinite(cost), "add_variable: non-finite cost");
  vars_.push_back(Variable{lower, upper, cost, std::move(name)});
  return static_cast<int>(vars_.size() - 1);
}

int Model::add_constraint(std::vector<Term> terms, Sense sense, double rhs,
                          std::string name) {
  require(std::isfinite(rhs), "add_constraint: non-finite rhs");
  std::sort(terms.begin(), terms.end(),
            [](const Term& a, const Term& b) { return a.var < b.var; });
  std::vector<Term> merged;
  for (const Term& t : terms) {
    require(t.var >= 0 && t.var < static_cast<int>(vars_.size()),
            "add_constraint: variable index out of range");
    require(std::isfinite(t.coeff), "add_constraint: non-finite coefficient");
    if (!merged.empty() && merged.back().var == t.var) {
      merged.back().coeff += t.coeff;
    } else {
      merged.push_back(t);
    }
  }
  rows_.push_back(Constraint{std::move(merged), sense, rhs, std::move(name)});
  return static_cast<int>(rows_.size() - 1);
}

void Model::set_rhs(int c, double rhs) {
  require(c >= 0 && c < static_cast<int>(rows_.size()),
          "set_rhs: constraint index out of range");
  require(std::isfinite(rhs), "set_rhs: non-finite rhs");
  rows_[c].rhs = rhs;
}

const Variable& Model::variable(int v) const {
  require(v >= 0 && v < static_cast<int>(vars_.size()),
          "variable: index out of range");
  return vars_[v];
}

const Constraint& Model::constraint(int c) const {
  require(c >= 0 && c < static_cast<int>(rows_.size()),
          "constraint: index out of range");
  return rows_[c];
}

double Model::objective_value(const std::vector<double>& x) const {
  require(x.size() == vars_.size(), "objective_value: size mismatch");
  double acc = 0.0;
  for (std::size_t i = 0; i < vars_.size(); ++i) acc += vars_[i].cost * x[i];
  return acc;
}

std::string to_string(SolveStatus s) {
  switch (s) {
    case SolveStatus::kOptimal:
      return "optimal";
    case SolveStatus::kInfeasible:
      return "infeasible";
    case SolveStatus::kUnbounded:
      return "unbounded";
    case SolveStatus::kIterationLimit:
      return "iteration-limit";
  }
  return "unknown";
}

ValidationReport validate_solution(const Model& model,
                                   const std::vector<double>& values,
                                   double tolerance) {
  require(values.size() == model.variable_count(),
          "validate_solution: size mismatch");
  ValidationReport report;
  auto note = [&](double violation, const std::string& what) {
    if (violation > report.max_violation) {
      report.max_violation = violation;
      report.worst = what;
    }
  };
  for (std::size_t i = 0; i < model.variable_count(); ++i) {
    const Variable& v = model.variable(static_cast<int>(i));
    note(v.lower - values[i], "lb of var " + std::to_string(i) + " " + v.name);
    if (v.upper != kInf) {
      note(values[i] - v.upper,
           "ub of var " + std::to_string(i) + " " + v.name);
    }
  }
  for (std::size_t r = 0; r < model.constraint_count(); ++r) {
    const Constraint& row = model.constraint(static_cast<int>(r));
    double lhs = 0.0;
    for (const Term& t : row.terms) lhs += t.coeff * values[t.var];
    const std::string what = "row " + std::to_string(r) + " " + row.name;
    switch (row.sense) {
      case Sense::kLe:
        note(lhs - row.rhs, what);
        break;
      case Sense::kGe:
        note(row.rhs - lhs, what);
        break;
      case Sense::kEq:
        note(std::abs(lhs - row.rhs), what);
        break;
    }
  }
  report.feasible = report.max_violation <= tolerance;
  return report;
}

ValidationReport validate_solution(const Model& model, const Solution& solution,
                                   double tolerance) {
  if (!solution.optimal()) {
    ValidationReport report;
    report.feasible = false;
    report.max_violation = kInf;
    report.worst = "solution status " + to_string(solution.status);
    return report;
  }
  ValidationReport report =
      validate_solution(model, solution.values, tolerance);
  const double recomputed = model.objective_value(solution.values);
  const double scale = std::max(1.0, std::abs(recomputed));
  const double objective_gap =
      std::abs(solution.objective - recomputed) / scale;
  if (objective_gap > report.max_violation) {
    report.max_violation = objective_gap;
    report.worst = "objective mismatch: reported " +
                   std::to_string(solution.objective) + " vs recomputed " +
                   std::to_string(recomputed);
  }
  report.feasible = report.max_violation <= tolerance;
  return report;
}

}  // namespace sb::lp
