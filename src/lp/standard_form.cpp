#include "lp/standard_form.h"

#include <cmath>

namespace sb::lp {

namespace {

/// A variable's bounds as the standard form sees them: presolve's when
/// given, else the model's.
double lower_of(const Model& model, const PresolveResult* pre, std::size_t i) {
  return pre != nullptr ? pre->lower[i]
                        : model.variable(static_cast<int>(i)).lower;
}
double upper_of(const Model& model, const PresolveResult* pre, std::size_t i) {
  return pre != nullptr ? pre->upper[i]
                        : model.variable(static_cast<int>(i)).upper;
}
bool row_kept(const PresolveResult* pre, std::size_t r) {
  return pre == nullptr || pre->row_map[r] >= 0;
}

}  // namespace

StandardForm to_standard_form(const Model& model, BoundPolicy policy,
                              const PresolveResult* presolved) {
  StandardForm sf;
  const std::size_t n = model.variable_count();
  sf.var_map.assign(n, -1);

  // Assign standard-form indices to non-fixed variables.
  for (std::size_t i = 0; i < n; ++i) {
    if (lower_of(model, presolved, i) == upper_of(model, presolved, i)) {
      continue;
    }
    sf.var_map[i] = static_cast<int>(sf.cost.size());
    sf.cost.push_back(model.variable(static_cast<int>(i)).cost);
  }
  sf.upper.resize(sf.cost.size());

  // Upper-bound rows for shifted variables with finite upper bounds (legacy
  // policy only; the sparse engine reads `upper` directly).
  if (policy == BoundPolicy::kUpperRows) {
    for (std::size_t i = 0; i < n; ++i) {
      if (sf.var_map[i] < 0 || upper_of(model, presolved, i) == kInf) continue;
      sf.rows.push_back(
          StandardRow{{Term{sf.var_map[i], 1.0}}, Sense::kLe, 0.0});
    }
  }

  // Constraint rows over the remaining variables; fixed variables fold into
  // the rhs (refresh_standard_form below).
  for (std::size_t r = 0; r < model.constraint_count(); ++r) {
    if (!row_kept(presolved, r)) continue;
    const Constraint& row = model.constraint(static_cast<int>(r));
    StandardRow out;
    out.sense = row.sense;
    for (const Term& t : row.terms) {
      if (sf.var_map[t.var] >= 0 && t.coeff != 0.0) {
        out.terms.push_back(Term{sf.var_map[t.var], t.coeff});
      }
    }
    sf.rows.push_back(std::move(out));
  }
  refresh_standard_form(model, policy, presolved, sf);
  return sf;
}

void refresh_standard_form(const Model& model, BoundPolicy policy,
                           const PresolveResult* presolved, StandardForm& sf) {
  const std::size_t n = model.variable_count();
  // Shifts (lower bound, or the fixed value) and shifted uppers.
  sf.var_base.resize(n);
  sf.objective_offset = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lower = lower_of(model, presolved, i);
    const double upper = upper_of(model, presolved, i);
    sf.var_base[i] = lower;
    sf.objective_offset += model.variable(static_cast<int>(i)).cost * lower;
    const int sv = sf.var_map[i];
    if (sv >= 0) {
      sf.upper[static_cast<std::size_t>(sv)] =
          upper == kInf ? kInf : upper - lower;
    }
  }

  std::size_t k = 0;
  if (policy == BoundPolicy::kUpperRows) {
    for (std::size_t i = 0; i < n; ++i) {
      const double upper = upper_of(model, presolved, i);
      if (sf.var_map[i] < 0 || upper == kInf) continue;
      sf.rows[k++].rhs = upper - lower_of(model, presolved, i);
    }
  }
  // rhs -= coeff * shift over every term, fixed variables included.
  for (std::size_t r = 0; r < model.constraint_count(); ++r) {
    if (!row_kept(presolved, r)) continue;
    const Constraint& row = model.constraint(static_cast<int>(r));
    double rhs = row.rhs;
    for (const Term& t : row.terms) {
      rhs -= t.coeff * sf.var_base[static_cast<std::size_t>(t.var)];
    }
    sf.rows[k++].rhs = rhs;
  }
}

std::vector<double> map_back(const StandardForm& sf,
                             const std::vector<double>& sf_values,
                             std::size_t model_var_count) {
  require(sf.var_map.size() == model_var_count, "map_back: size mismatch");
  std::vector<double> out(model_var_count);
  for (std::size_t i = 0; i < model_var_count; ++i) {
    out[i] = sf.var_map[i] < 0
                 ? sf.var_base[i]
                 : sf.var_base[i] + sf_values[sf.var_map[i]];
  }
  return out;
}

StandardForm extract_row_subform(const StandardForm& sf,
                                 const std::vector<int>& row_ids,
                                 std::vector<int>& col_map) {
  StandardForm sub;
  col_map.assign(sf.var_count(), -1);
  sub.rows.reserve(row_ids.size());
  for (int r : row_ids) {
    const StandardRow& row = sf.rows[static_cast<std::size_t>(r)];
    StandardRow out;
    out.sense = row.sense;
    out.rhs = row.rhs;
    out.terms.reserve(row.terms.size());
    for (const Term& t : row.terms) {
      const auto v = static_cast<std::size_t>(t.var);
      if (col_map[v] < 0) {
        col_map[v] = static_cast<int>(sub.cost.size());
        sub.cost.push_back(sf.cost[v]);
        sub.upper.push_back(sf.upper[v]);
      }
      out.terms.push_back(Term{col_map[v], t.coeff});
    }
    sub.rows.push_back(std::move(out));
  }
  return sub;
}

}  // namespace sb::lp
