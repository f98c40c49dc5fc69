// Simplex basis: sparse LU factorization (lp/lu_factor.h) plus a
// product-form eta file for the pivots applied since the last
// refactorization. FTRAN/BTRAN route through the LU factors and then the
// update etas; update() appends one eta per pivot in O(nnz of the entering
// column's FTRAN image). The owner refactorizes periodically (drift +
// eta-file growth control) and whenever an update pivot is numerically
// unsafe.
//
// load() performs basis repair: columns the factorization rejects as
// dependent are reported back and replaced by the caller (typically with
// logical columns for the unpivoted rows) — this is what makes crash-starts
// from a foreign basis (a hint from a model whose column set differs) safe.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/lu_factor.h"

namespace sb::lp {

class Basis {
 public:
  /// Outcome of loading a set of basis columns.
  struct LoadResult {
    /// Positions whose columns were rejected as dependent, ascending.
    std::vector<int> rejected;
    /// Rows left without a pivot (parallel count to `rejected`), ascending.
    std::vector<int> unpivoted_rows;
    [[nodiscard]] bool clean() const { return rejected.empty(); }
  };

  /// (Re)factorizes the m x m basis whose k-th column is column `ids[k]`
  /// of the CSC store `a`. Discards any update etas.
  LoadResult load(const SparseStore& a, const std::vector<int>& ids,
                  std::size_t m);

  /// Solves B w = b: input in row space, output indexed by basis position.
  void ftran(IndexedVector& x) const;

  /// Solves B^T y = c: input indexed by basis position, output in row space.
  void btran(IndexedVector& x) const;

  /// Replaces the column at `position` with the column whose FTRAN image is
  /// `w` (position space) by appending a product-form eta. Returns false —
  /// leaving the basis unchanged — when the pivot element w[position] is
  /// too small to be stable, in which case the caller must refactorize.
  bool update(int position, const IndexedVector& w);

  /// Update etas appended since the last load().
  [[nodiscard]] std::size_t update_count() const { return updates_.size(); }
  /// Stored nonzeros across LU factors and update etas.
  [[nodiscard]] std::size_t eta_nnz() const {
    return lu_.fill_nnz() + update_nnz_;
  }
  [[nodiscard]] std::size_t factorizations() const { return factorizations_; }

 private:
  struct UpdateEta {
    int position = -1;
    double pivot = 0.0;  ///< w[position]
    std::vector<std::pair<int, double>> entries;  ///< (position, w) others
  };

  LuFactor lu_;
  std::vector<UpdateEta> updates_;
  std::size_t update_nnz_ = 0;
  std::size_t factorizations_ = 0;
};

}  // namespace sb::lp
