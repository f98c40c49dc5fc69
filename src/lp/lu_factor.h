// Sparse LU factorization of a simplex basis, stored as an eta file.
//
// The factorization runs Markowitz-style: a symbolic triangularization pass
// peels row and column singletons (the bulk of a provisioning basis — slack
// and near-triangular structural columns — pivots with zero fill-in), then
// the residual nucleus is ordered sparsest-column-first and factorized
// left-looking with threshold partial pivoting. L is kept as a sequence of
// column etas in pivot order (unit diagonal), U as sparse per-pivot columns
// plus a diagonal; FTRAN/BTRAN exploit both the eta sparsity and the
// sparsity of the right-hand side (an ordered worklist applies only the L
// etas actually reached by the rhs pattern).
//
// Both factors live in flat CSR-style arrays (per pivot: a start offset
// into shared index and value arrays), as do the symbolic pass's row lists
// and counters. A factorize() overwrites them in place, so an object that
// refactorizes bases of similar size, as every simplex solve does, stops
// allocating after its first factorizations.
//
// Singular or near-singular input columns are not fatal: factorize()
// reports them as rejected so the caller (lp::Basis) can repair the basis
// by substituting logical columns for the unpivoted rows — that is how warm
// starts crash an old basis onto a new model.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace sb::lp {

/// Flat compressed sparse lines: line k (a column of a CSC store, a row of
/// a CSR copy) holds (index[e], value[e]) for e in [start[k], start[k + 1]),
/// and line(k) ranges over those pairs in storage order.
struct SparseStore {
  std::vector<int> start = {0};
  std::vector<int> index;
  std::vector<double> value;

  struct Cursor {
    const SparseStore* store;
    std::size_t e;
    std::pair<int, double> operator*() const {
      return {store->index[e], store->value[e]};
    }
    Cursor& operator++() {
      ++e;
      return *this;
    }
    bool operator!=(const Cursor& o) const { return e != o.e; }
  };
  struct Line {
    Cursor first, last;
    [[nodiscard]] Cursor begin() const { return first; }
    [[nodiscard]] Cursor end() const { return last; }
  };
  [[nodiscard]] Line line(std::size_t k) const {
    return {{this, static_cast<std::size_t>(start[k])},
            {this, static_cast<std::size_t>(start[k + 1])}};
  }
};

/// Dense-values-plus-nonzero-list vector used by all sparse kernels. `nz`
/// is a duplicate-free superset of the true pattern (entries may cancel to
/// zero); `mark` tracks membership so repeated writes stay O(1).
struct IndexedVector {
  std::vector<double> values;
  std::vector<unsigned char> mark;  ///< 1 iff the index is in `nz`
  std::vector<int> nz;

  void resize(std::size_t m) {
    values.assign(m, 0.0);
    mark.assign(m, 0);
    nz.clear();
  }
  /// Zeroes the listed entries (O(nnz) reset between kernel calls).
  void clear() {
    for (int i : nz) {
      values[static_cast<std::size_t>(i)] = 0.0;
      mark[static_cast<std::size_t>(i)] = 0;
    }
    nz.clear();
  }
  void touch(int i) {
    if (!mark[static_cast<std::size_t>(i)]) {
      mark[static_cast<std::size_t>(i)] = 1;
      nz.push_back(i);
    }
  }
  void set(int i, double v) {
    touch(i);
    values[static_cast<std::size_t>(i)] = v;
  }
  void add(int i, double v) {
    touch(i);
    values[static_cast<std::size_t>(i)] += v;
  }
};

class LuFactor {
 public:
  /// Factorizes the m x m matrix whose k-th column is column `ids[k]` of
  /// the CSC store `a` (entries are (row, value); rows in [0, m)). Returns
  /// the indices k of columns that could not be pivoted (structurally or
  /// numerically dependent); when non-empty the factorization covers only
  /// the pivoted subset and `unpivoted_rows()` lists the rows left without
  /// a pivot, in ascending order. A clean factorization returns an empty
  /// vector.
  std::vector<int> factorize(const SparseStore& a, const std::vector<int>& ids,
                             std::size_t m);

  /// Solves B w = b. Input `x` holds b in row space; output holds w indexed
  /// by basis position (the column order given to factorize()).
  void ftran(IndexedVector& x) const;

  /// Solves B^T y = c. Input `x` holds c indexed by basis position; output
  /// holds y in row space.
  void btran(IndexedVector& x) const;

  [[nodiscard]] const std::vector<int>& unpivoted_rows() const {
    return unpivoted_rows_;
  }
  /// Total stored nonzeros in L + U (fill measure).
  [[nodiscard]] std::size_t fill_nnz() const {
    return l_index_.size() + u_index_.size() + pivot_row_.size();
  }
  [[nodiscard]] std::size_t size() const { return m_; }

 private:
  std::size_t m_ = 0;
  // Factors, per pivot k in pivot order. L eta k (unit diagonal) holds
  // (row, multiplier) pairs in [l_start_[k], l_start_[k + 1]); U column k
  // holds (earlier pivot, u) pairs in [u_start_[k], u_start_[k + 1]) plus
  // its diagonal. Both share the pivot row.
  std::vector<int> pivot_row_;
  std::vector<int> u_position_;  ///< basis position of pivot k's column
  std::vector<double> u_diag_;
  std::vector<std::size_t> l_start_;
  std::vector<int> l_index_;
  std::vector<double> l_value_;
  std::vector<std::size_t> u_start_;
  std::vector<int> u_index_;
  std::vector<double> u_value_;
  std::vector<int> eta_of_row_;     ///< pivot row -> pivot index, -1 if none
  std::vector<int> unpivoted_rows_;
  void apply_l(IndexedVector& x) const;

  // Symbolic-pass state, rebuilt by every factorize(): each row's column
  // positions in ascending order (row_cols_ from row_start_[r]), the live
  // counts and flags, the singleton queues, and the pivot order.
  std::vector<int> row_start_;
  std::vector<int> row_cols_;
  std::vector<int> colcount_;
  std::vector<int> rowcount_;
  std::vector<unsigned char> col_active_;
  std::vector<unsigned char> row_active_;
  std::vector<int> col_queue_;
  std::vector<int> row_queue_;
  std::vector<int> nucleus_;
  std::vector<std::pair<int, int>> order_;  ///< (position, pinned row or -1)

  // Workspaces reused across factorize/ftran calls (single-threaded use;
  // the simplex owns one LuFactor per solve).
  mutable IndexedVector work_;
  mutable IndexedVector result_;
  mutable std::vector<double> gwork_;
  mutable std::vector<int> heap_;
  mutable std::vector<unsigned char> queued_;
};

}  // namespace sb::lp
