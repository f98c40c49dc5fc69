#include "lp/simplex_core.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>

#include "common/error.h"

namespace sb::lp {
namespace {

/// Rounds of basis repair (demote dependent columns, slot in logicals for
/// uncovered rows) before a load is abandoned.
constexpr int kMaxRepairRounds = 5;

}  // namespace

int store_nnz(std::size_t terms, std::size_t rows) {
  constexpr auto kMax =
      static_cast<std::size_t>(std::numeric_limits<int>::max());
  if (terms > kMax || rows > kMax - terms) {
    throw InvalidArgument("simplex: " + std::to_string(terms) + " + " +
                          std::to_string(rows) +
                          " column entries overflow the store's int offsets");
  }
  return static_cast<int>(terms + rows);
}

void build_stores(const StandardForm& sf, SparseStore& columns,
                  SparseStore& rows) {
  const std::size_t n = sf.var_count();
  const std::size_t m = sf.rows.size();
  std::size_t terms = 0;
  for (const StandardRow& row : sf.rows) terms += row.terms.size();
  const auto nnz = static_cast<std::size_t>(store_nnz(terms, m));
  // Each column's count lands two slots on, so that after the prefix sum
  // start[j + 1] is column j's first entry. The row-order fill advances it
  // as column j's cursor to its end, column j + 1's start, and the one
  // spare slot is dropped.
  rows.start.assign(m + 1, 0);
  columns.start.assign(n + m + 2, 0);
  for (std::size_t r = 0; r < m; ++r) {
    const std::vector<Term>& ts = sf.rows[r].terms;
    rows.start[r + 1] = rows.start[r] + static_cast<int>(ts.size());
    for (const Term& t : ts) ++columns.start[t.var + 2];
    columns.start[n + r + 2] = 1;
  }
  for (std::size_t k = 2; k < columns.start.size(); ++k) {
    columns.start[k] += columns.start[k - 1];
  }
  rows.index.resize(terms);
  rows.value.resize(terms);
  columns.index.resize(nnz);
  columns.value.resize(nnz);
  auto put = [&](std::size_t j, int r, double v) {
    const auto e = static_cast<std::size_t>(columns.start[j + 1]++);
    columns.index[e] = r;
    columns.value[e] = v;
  };
  for (std::size_t r = 0; r < m; ++r) {
    auto e = static_cast<std::size_t>(rows.start[r]);
    for (const Term& t : sf.rows[r].terms) {
      rows.index[e] = t.var;
      rows.value[e++] = t.coeff;
      put(static_cast<std::size_t>(t.var), static_cast<int>(r), t.coeff);
    }
    put(n + r, static_cast<int>(r), 1.0);
  }
  columns.start.pop_back();
}

SimplexCore::SimplexCore(const StandardForm& sf, const SimplexOptions& options)
    : options_(options),
      n_(sf.var_count()),
      m_(sf.rows.size()),
      total_(n_ + m_) {
  build_stores(sf, columns_, rows_);
  lower_.assign(total_, 0.0);
  upper_.assign(total_, kInf);
  cost_.assign(total_, 0.0);
  rhs_.resize(m_);
  for (std::size_t j = 0; j < n_; ++j) {
    cost_[j] = sf.cost[j];
    upper_[j] = sf.upper[j];
  }
  for (std::size_t r = 0; r < m_; ++r) {
    const StandardRow& row = sf.rows[r];
    const std::size_t lj = n_ + r;
    switch (row.sense) {
      case Sense::kLe:
        break;  // s in [0, inf)
      case Sense::kGe:
        lower_[lj] = -kInf;
        upper_[lj] = 0.0;
        break;
      case Sense::kEq:
        upper_[lj] = 0.0;
        break;
    }
    rhs_[r] = row.rhs;
    rhs_scale_ = std::max(rhs_scale_, std::abs(row.rhs));
  }
  reset_state();
}

void SimplexCore::reload(const StandardForm& sf, const SimplexOptions& options) {
  require(sf.var_count() == n_ && sf.rows.size() == m_,
          "simplex reload: standard form shape changed");
  options_ = options;
  for (std::size_t j = 0; j < n_; ++j) upper_[j] = sf.upper[j];
  rhs_scale_ = 1.0;
  for (std::size_t r = 0; r < m_; ++r) {
    rhs_[r] = sf.rows[r].rhs;
    rhs_scale_ = std::max(rhs_scale_, std::abs(rhs_[r]));
  }
  reset_state();
}

void SimplexCore::reset_state() {
  status_.assign(total_, VarStatus::kAtLower);
  pos_of_.assign(total_, -1);
  x_basic_.clear();
  basis_.clear();
  w_.resize(m_);
  cb_.resize(m_);
  bwork_.resize(m_);
  rho_.resize(m_);
  alpha_.resize(total_);
}

void SimplexCore::install(const std::vector<VarStatus>* warm) {
  const bool warmed = usable(warm);
  const bool has_row_hints = warmed && warm->size() == total_;
  basis_.clear();
  for (std::size_t j = 0; j < n_; ++j) {
    switch (warmed ? (*warm)[j] : VarStatus::kAtLower) {
      case VarStatus::kBasic:
        if (basis_.size() < m_) {
          basis_.push_back(static_cast<int>(j));
          status_[j] = VarStatus::kBasic;
        } else {
          status_[j] = resting_status(j);
        }
        break;
      case VarStatus::kAtUpper:
        status_[j] =
            upper_[j] < kInf ? VarStatus::kAtUpper : VarStatus::kAtLower;
        break;
      default:
        status_[j] = resting_status(j);
        break;
    }
  }
  for (std::size_t r = 0; r < m_; ++r) {
    const std::size_t lj = n_ + r;
    if ((!warmed || (has_row_hints && (*warm)[lj] == VarStatus::kBasic)) &&
        basis_.size() < m_) {
      basis_.push_back(static_cast<int>(lj));
      status_[lj] = VarStatus::kBasic;
    } else {
      status_[lj] = resting_status(lj);
    }
  }
  pad_short_basis();
}

void SimplexCore::pad_short_basis() {
  if (basis_.size() < m_) {
    std::vector<unsigned char> covered(m_, 0);
    for (int col : basis_) {
      for (const auto [r, v] : columns_.line(col)) {
        if (v != 0.0) covered[r] = 1;
      }
    }
    for (std::size_t r = 0; r < m_ && basis_.size() < m_; ++r) {
      if (covered[r]) continue;
      const std::size_t lj = n_ + r;
      int pick = -1;
      if (rhs_[r] < lower_[lj] || rhs_[r] > upper_[lj]) {
        for (const auto [j, v] : rows_.line(r)) {
          if (v == 0.0 || status_[j] == VarStatus::kBasic) continue;
          if (pick < 0 || cost_[j] < cost_[static_cast<std::size_t>(pick)]) {
            pick = j;
          }
        }
      }
      if (pick >= 0) {
        basis_.push_back(pick);
        status_[static_cast<std::size_t>(pick)] = VarStatus::kBasic;
        for (const auto [rr, v] : columns_.line(pick)) {
          if (v != 0.0) covered[rr] = 1;
        }
      } else {
        basis_.push_back(static_cast<int>(lj));
        status_[lj] = VarStatus::kBasic;
        covered[r] = 1;
      }
    }
  }
  // Rank-deficiency safety net: still short (every row covered but the
  // basic set is dependent) — first nonbasic logicals.
  for (std::size_t r = 0; r < m_ && basis_.size() < m_; ++r) {
    const std::size_t lj = n_ + r;
    if (status_[lj] == VarStatus::kBasic) continue;
    basis_.push_back(static_cast<int>(lj));
    status_[lj] = VarStatus::kBasic;
  }
}

bool SimplexCore::load_with_repair() {
  for (int round = 0; round < kMaxRepairRounds; ++round) {
    const Basis::LoadResult res = basis_state_.load(columns_, basis_, m_);
    if (res.clean() && basis_.size() == m_) {
      std::fill(pos_of_.begin(), pos_of_.end(), -1);
      for (std::size_t p = 0; p < m_; ++p) {
        pos_of_[static_cast<std::size_t>(basis_[p])] = static_cast<int>(p);
        status_[static_cast<std::size_t>(basis_[p])] = VarStatus::kBasic;
      }
      return true;
    }
    std::vector<int> next;
    next.reserve(m_);
    std::size_t rej = 0;
    for (std::size_t p = 0; p < basis_.size(); ++p) {
      if (rej < res.rejected.size() &&
          res.rejected[rej] == static_cast<int>(p)) {
        ++rej;
        const auto col = static_cast<std::size_t>(basis_[p]);
        status_[col] = resting_status(col);
        continue;
      }
      next.push_back(basis_[p]);
    }
    for (int r : res.unpivoted_rows) {
      const std::size_t lj = n_ + static_cast<std::size_t>(r);
      next.push_back(static_cast<int>(lj));
      status_[lj] = VarStatus::kBasic;
    }
    basis_ = std::move(next);
    if (basis_.size() != m_) return false;  // inconsistent repair
  }
  return false;
}

void SimplexCore::compute_basic_values() {
  bwork_.clear();
  for (std::size_t r = 0; r < m_; ++r) {
    if (rhs_[r] != 0.0) bwork_.set(static_cast<int>(r), rhs_[r]);
  }
  for (std::size_t j = 0; j < total_; ++j) {
    if (status_[j] == VarStatus::kBasic) continue;
    const double v = nonbasic_value(static_cast<int>(j));
    if (v == 0.0) continue;
    for (const auto [r, a] : columns_.line(j)) bwork_.add(r, -a * v);
  }
  basis_state_.ftran(bwork_);
  x_basic_.assign(m_, 0.0);
  for (int p : bwork_.nz) {
    if (p >= 0 && static_cast<std::size_t>(p) < m_) {
      x_basic_[static_cast<std::size_t>(p)] =
          bwork_.values[static_cast<std::size_t>(p)];
    }
  }
  bwork_.clear();
}

void SimplexCore::export_solution(SfSolution& out, bool with_values) const {
  out.statuses = status_;
  if (!with_values) return;
  out.values.resize(n_);
  for (std::size_t j = 0; j < n_; ++j) {
    out.values[j] = status_[j] == VarStatus::kBasic
                        ? x_basic_[static_cast<std::size_t>(pos_of_[j])]
                        : nonbasic_value(static_cast<int>(j));
  }
}

}  // namespace sb::lp
