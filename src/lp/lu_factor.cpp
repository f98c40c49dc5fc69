#include "lp/lu_factor.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace sb::lp {
namespace {

/// Threshold partial pivoting: a pinned (symbolically chosen) pivot is kept
/// only while it is within this factor of the column's largest candidate,
/// otherwise the numeric pass falls back to the largest entry.
constexpr double kPivotThreshold = 0.01;
/// Entries below this are numerically zero for pivoting purposes; a column
/// whose candidates are all below it is rejected as dependent.
constexpr double kPivotAbsTol = 1e-10;

}  // namespace

std::vector<int> LuFactor::factorize(const SparseStore& a,
                                     const std::vector<int>& ids,
                                     std::size_t m) {
  m_ = m;
  const std::size_t k_cols = ids.size();
  auto col = [&](std::size_t p) { return a.line(ids[p]); };
  pivot_row_.clear();
  u_position_.clear();
  u_diag_.clear();
  l_start_.assign(1, 0);
  l_index_.clear();
  l_value_.clear();
  u_start_.assign(1, 0);
  u_index_.clear();
  u_value_.clear();
  eta_of_row_.assign(m, -1);
  unpivoted_rows_.clear();
  work_.resize(m);
  result_.resize(m);
  queued_.assign(m, 0);
  heap_.clear();

  // --- Symbolic Markowitz-style ordering: peel row/column singletons
  // (fill-free pivots), then sparsest-column-first for the nucleus. The
  // row lists are counted into row_start_, then filled in ascending
  // position order with rowcount_ as each row's cursor, which leaves it
  // holding the row counts.
  row_start_.assign(m + 1, 0);
  colcount_.resize(k_cols);
  for (std::size_t p = 0; p < k_cols; ++p) {
    colcount_[p] = a.start[ids[p] + 1] - a.start[ids[p]];
    for (const auto [r, v] : col(p)) ++row_start_[r + 1];
  }
  for (std::size_t r = 0; r < m; ++r) row_start_[r + 1] += row_start_[r];
  row_cols_.resize(row_start_[m]);
  rowcount_.assign(m, 0);
  for (std::size_t p = 0; p < k_cols; ++p) {
    for (const auto [r, v] : col(p)) {
      row_cols_[row_start_[r] + rowcount_[r]++] = static_cast<int>(p);
    }
  }
  col_active_.assign(k_cols, 1);
  row_active_.assign(m, 1);
  col_queue_.clear();
  row_queue_.clear();
  for (std::size_t p = 0; p < k_cols; ++p) {
    if (colcount_[p] == 1) col_queue_.push_back(static_cast<int>(p));
  }
  for (std::size_t r = 0; r < m; ++r) {
    if (rowcount_[r] == 1) row_queue_.push_back(static_cast<int>(r));
  }

  order_.clear();
  auto symbolic_pivot = [&](int p, int r) {
    order_.emplace_back(p, r);
    col_active_[p] = 0;
    row_active_[r] = 0;
    for (const auto [r2, v2] : col(p)) {
      if (!row_active_[r2]) continue;
      if (--rowcount_[r2] == 1) row_queue_.push_back(r2);
    }
    for (int e = row_start_[r]; e < row_start_[r + 1]; ++e) {
      const int p2 = row_cols_[e];
      if (!col_active_[p2]) continue;
      if (--colcount_[p2] == 1) col_queue_.push_back(p2);
    }
  };
  while (true) {
    if (!col_queue_.empty()) {
      const int p = col_queue_.back();
      col_queue_.pop_back();
      if (!col_active_[p] || colcount_[p] != 1) continue;
      int pin = -1;
      for (const auto [r, v] : col(p)) {
        if (row_active_[r]) {
          pin = r;
          break;
        }
      }
      if (pin >= 0) symbolic_pivot(p, pin);
      continue;
    }
    if (!row_queue_.empty()) {
      const int r = row_queue_.back();
      row_queue_.pop_back();
      if (!row_active_[r] || rowcount_[r] != 1) continue;
      int pin = -1;
      for (int e = row_start_[r]; e < row_start_[r + 1]; ++e) {
        const int p = row_cols_[e];
        if (col_active_[p]) {
          pin = p;
          break;
        }
      }
      if (pin >= 0) symbolic_pivot(pin, r);
      continue;
    }
    break;
  }
  nucleus_.clear();
  for (std::size_t p = 0; p < k_cols; ++p) {
    if (col_active_[p]) nucleus_.push_back(static_cast<int>(p));
  }
  // Sparsest column first, ties in position order: the order a stable sort
  // on the count gives, without its temporary buffer.
  std::sort(nucleus_.begin(), nucleus_.end(), [&](int a, int b) {
    return colcount_[a] != colcount_[b] ? colcount_[a] < colcount_[b] : a < b;
  });
  for (int p : nucleus_) order_.emplace_back(p, -1);

  // --- Numeric left-looking pass in the symbolic order.
  std::vector<int> rejected;
  for (const auto& [pos, pinned] : order_) {
    work_.clear();
    for (const auto [r, v] : col(pos)) work_.add(r, v);
    apply_l(work_);

    // Split the transformed column into U entries (pivoted rows) and pivot
    // candidates (unpivoted rows).
    double best_abs = 0.0;
    int best_row = -1;
    for (int i : work_.nz) {
      const double v = work_.values[static_cast<std::size_t>(i)];
      if (v == 0.0 || eta_of_row_[static_cast<std::size_t>(i)] >= 0) continue;
      const double a = std::abs(v);
      if (a > best_abs) {
        best_abs = a;
        best_row = i;
      }
    }
    if (best_abs <= kPivotAbsTol) {
      rejected.push_back(pos);
      continue;
    }
    int pivot_row = best_row;
    if (pinned >= 0 && eta_of_row_[static_cast<std::size_t>(pinned)] < 0) {
      const double pv =
          std::abs(work_.values[static_cast<std::size_t>(pinned)]);
      if (pv > kPivotAbsTol && pv >= kPivotThreshold * best_abs) {
        pivot_row = pinned;
      }
    }

    const double diag = work_.values[static_cast<std::size_t>(pivot_row)];
    const int k = static_cast<int>(pivot_row_.size());
    const double inv = 1.0 / diag;
    for (int i : work_.nz) {
      const double v = work_.values[static_cast<std::size_t>(i)];
      if (v == 0.0 || i == pivot_row) continue;
      const int prev = eta_of_row_[static_cast<std::size_t>(i)];
      if (prev >= 0) {
        u_index_.push_back(prev);
        u_value_.push_back(v);
      } else {
        l_index_.push_back(i);
        l_value_.push_back(v * inv);
      }
    }
    pivot_row_.push_back(pivot_row);
    u_position_.push_back(pos);
    u_diag_.push_back(diag);
    l_start_.push_back(l_index_.size());
    u_start_.push_back(u_index_.size());
    eta_of_row_[static_cast<std::size_t>(pivot_row)] = k;
  }
  work_.clear();

  for (std::size_t r = 0; r < m; ++r) {
    if (eta_of_row_[r] < 0) unpivoted_rows_.push_back(static_cast<int>(r));
  }
  std::sort(rejected.begin(), rejected.end());
  gwork_.assign(pivot_row_.size(), 0.0);
  return rejected;
}

/// Applies the L etas reachable from x's pattern, in pivot order, via a
/// min-heap worklist (Gilbert-Peierls-style sparse lower solve).
void LuFactor::apply_l(IndexedVector& x) const {
  auto push = [&](int k) {
    if (queued_[static_cast<std::size_t>(k)]) return;
    queued_[static_cast<std::size_t>(k)] = 1;
    heap_.push_back(k);
    std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
  };
  for (int r : x.nz) {
    const int k = eta_of_row_[static_cast<std::size_t>(r)];
    if (k >= 0 && x.values[static_cast<std::size_t>(r)] != 0.0) push(k);
  }
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const int k = heap_.back();
    heap_.pop_back();
    const auto ku = static_cast<std::size_t>(k);
    queued_[ku] = 0;
    const double t = x.values[static_cast<std::size_t>(pivot_row_[ku])];
    if (t == 0.0) continue;
    for (std::size_t e = l_start_[ku]; e < l_start_[ku + 1]; ++e) {
      const int i = l_index_[e];
      x.add(i, -l_value_[e] * t);
      if (x.values[static_cast<std::size_t>(i)] == 0.0) continue;
      const int k2 = eta_of_row_[static_cast<std::size_t>(i)];
      if (k2 > k) push(k2);
    }
  }
}

void LuFactor::ftran(IndexedVector& x) const {
  apply_l(x);
  // U backsolve, pivots in reverse order; result lands in position space.
  result_.clear();
  for (std::size_t k = pivot_row_.size(); k-- > 0;) {
    const double xr = x.values[static_cast<std::size_t>(pivot_row_[k])];
    if (xr == 0.0) continue;
    const double z = xr / u_diag_[k];
    result_.set(u_position_[k], z);
    for (std::size_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
      const auto j = static_cast<std::size_t>(u_index_[e]);
      x.add(pivot_row_[j], -u_value_[e] * z);
    }
  }
  x.clear();
  std::swap(x, result_);
}

void LuFactor::btran(IndexedVector& x) const {
  // U^T forward solve into gwork_ (indexed by pivot order).
  const std::size_t kp = pivot_row_.size();
  for (std::size_t k = 0; k < kp; ++k) {
    double acc = x.values[static_cast<std::size_t>(u_position_[k])];
    for (std::size_t e = u_start_[k]; e < u_start_[k + 1]; ++e) {
      const double g = gwork_[static_cast<std::size_t>(u_index_[e])];
      if (g != 0.0) acc -= u_value_[e] * g;
    }
    gwork_[k] = acc == 0.0 ? 0.0 : acc / u_diag_[k];
  }
  // Scatter into row space and apply L^T etas in reverse order.
  x.clear();
  for (std::size_t k = 0; k < kp; ++k) {
    if (gwork_[k] != 0.0) x.set(pivot_row_[k], gwork_[k]);
    gwork_[k] = 0.0;
  }
  for (std::size_t k = kp; k-- > 0;) {
    const int row = pivot_row_[k];
    double acc = x.values[static_cast<std::size_t>(row)];
    bool any = acc != 0.0;
    for (std::size_t e = l_start_[k]; e < l_start_[k + 1]; ++e) {
      const double v = x.values[static_cast<std::size_t>(l_index_[e])];
      if (v != 0.0) {
        acc -= l_value_[e] * v;
        any = true;
      }
    }
    if (any) x.set(row, acc);
  }
}

}  // namespace sb::lp
