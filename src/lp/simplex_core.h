// State and operations the two sparse simplex engines share: the primal
// (lp/revised_simplex.h) and the dual (lp/dual_simplex.h). Both run over
// the same bounded-variable standard form (BoundPolicy::kInline): every
// row carries one logical column, finite uppers live in the variable state,
// and the basis is a sparse LU plus product-form etas (lp/basis.h).
//
// SimplexCore owns what both engines read in their hot loops — the flat
// column store and its row-wise copy, bounds, costs, rhs, the basis with its
// position map, statuses and basic values, and the IndexedVector
// workspaces — and does what both engines did the same way: the build from
// a standard form, the warm-start install (one contract for both engines,
// below), the factorization with basis repair, the basic-value recompute,
// the infeasibility sum and the solution export. Each engine derives from
// it and keeps only its own algorithm: pricing, ratio tests and pivots.
// The base is not virtual, so nothing is dispatched on the hot path.
//
// Warm-start contract: a status vector of n (structurals) or n + m
// (structurals then row logicals) entries. Structurals marked kBasic enter
// the basis in column order, up to m; kAtUpper survives only on a finite
// upper; everything else rests on its bound. Logicals enter when their
// row hint says kBasic. A basis left short of m is completed by
// pad_short_basis(), and load_with_repair() swaps out dependent picks. Any
// other vector size is unusable and means a cold start.
#pragma once

#include <cstddef>
#include <vector>

#include "lp/basis.h"
#include "lp/dense_simplex.h"
#include "lp/lu_factor.h"
#include "lp/standard_form.h"

namespace sb::lp {

/// Entries in a column store of `terms` structural entries and `rows` unit
/// logicals, as the int its offsets use. Throws InvalidArgument when the
/// count does not fit in one.
int store_nnz(std::size_t terms, std::size_t rows);

/// Builds `sf`'s CSC column store (structurals, then one unit logical per
/// row; each column ascending by row) and its CSR row copy (structurals,
/// each row in term order) in place, from one counting pass.
void build_stores(const StandardForm& sf, SparseStore& columns,
                  SparseStore& rows);

class SimplexCore {
 protected:
  /// Builds the column store, bounds, costs and rhs of `sf` and an
  /// all-at-lower state with no basis.
  SimplexCore(const StandardForm& sf, const SimplexOptions& options);

  /// Overwrites the rhs and structural uppers with `sf`'s and returns the
  /// basis, statuses and workspaces to a fresh build's state. `sf` must
  /// have the structure the core was built from.
  void reload(const StandardForm& sf, const SimplexOptions& options);

  /// Whether `warm` can be installed (see the contract above).
  [[nodiscard]] bool usable(const std::vector<VarStatus>* warm) const {
    return warm != nullptr && (warm->size() == n_ || warm->size() == total_);
  }

  /// Installs `warm`'s statuses and proposed basis when usable(warm), else
  /// the all-logical basis with every structural resting on its bound. Does
  /// not factorize.
  void install(const std::vector<VarStatus>* warm);

  /// Factorizes basis_, demoting rejected columns to their bounds and
  /// substituting logicals for uncovered rows until the factorization is
  /// clean. Rebinds pos_of_ and the basic statuses on success.
  bool load_with_repair();

  /// Recomputes basic values from scratch: x_B = B^-1 (b - N x_N).
  void compute_basic_values();

  /// Total bound violation of the basic variables. Inline: both engines
  /// call it every iteration.
  [[nodiscard]] double infeasibility() const {
    double total = 0.0;
    for (std::size_t p = 0; p < m_; ++p) {
      const auto col = static_cast<std::size_t>(basis_[p]);
      const double x = x_basic_[p];
      if (x < lower_[col]) total += lower_[col] - x;
      if (x > upper_[col]) total += x - upper_[col];
    }
    return total;
  }

  /// Copies the final statuses (structurals then logicals) into `out`, and
  /// the structural values when `with_values`.
  void export_solution(SfSolution& out, bool with_values) const;

  [[nodiscard]] double nonbasic_value(int j) const {
    const auto ju = static_cast<std::size_t>(j);
    return status_[ju] == VarStatus::kAtUpper ? upper_[ju] : lower_[ju];
  }

  /// Nonbasic resting status: at-lower unless the lower bound is -inf
  /// (kGe logicals), which can only rest at their (zero) upper bound.
  [[nodiscard]] VarStatus resting_status(std::size_t j) const {
    return lower_[j] == -kInf ? VarStatus::kAtUpper : VarStatus::kAtLower;
  }

  SimplexOptions options_;
  const std::size_t n_;      ///< structural variables
  const std::size_t m_;      ///< rows (= logical variables)
  const std::size_t total_;  ///< n_ + m_

  SparseStore columns_;  ///< CSC: structurals, then the logicals
  SparseStore rows_;     ///< CSR copy of the structural columns
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;
  std::vector<double> rhs_;
  double rhs_scale_ = 1.0;  ///< max(1, |rhs|): scales infeasibility tests

  Basis basis_state_;
  std::vector<int> basis_;   ///< column id per basis position
  std::vector<int> pos_of_;  ///< column id -> basis position or -1
  std::vector<VarStatus> status_;
  std::vector<double> x_basic_;  ///< value of the basic var at each position

  IndexedVector w_;      ///< entering column FTRAN image (position space)
  IndexedVector cb_;     ///< basic costs -> BTRAN -> dual values y
  IndexedVector bwork_;  ///< rhs workspace (primal); also batched flips (dual)
  IndexedVector rho_;    ///< pivot row of B^-1
  IndexedVector alpha_;  ///< pivot row in column space

 private:
  /// Completes a basis left short of m_ (a warm start whose donor basics
  /// are gone). Rows no basic column touches get their cheapest nonbasic
  /// structural when their logical would start infeasible (eq rows with
  /// nonzero rhs), their logical otherwise; if the basis is still short
  /// (every row covered but the set dependent), the first nonbasic
  /// logicals fill it and load_with_repair() swaps any that are redundant.
  /// Blind first-rows padding costs a phase-1 repair pivot per uncovered eq
  /// row and makes the warm start slower than cold.
  void pad_short_basis();

  void reset_state();
};

}  // namespace sb::lp
