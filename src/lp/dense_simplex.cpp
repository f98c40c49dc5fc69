#include "lp/dense_simplex.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"

namespace sb::lp {
namespace {

/// Dense two-phase tableau. Rows 0..m-1 are constraints; a separate
/// objective vector holds reduced costs. Column layout:
/// [0, n) structural, [n, n+slacks) slack/surplus, then artificials.
class DenseTableau {
 public:
  DenseTableau(const StandardForm& sf, const SimplexOptions& options)
      : options_(options), n_(sf.var_count()), m_(sf.rows.size()) {
    build(sf);
  }

  SfSolution run() {
    SfSolution result;
    // Phase 1: minimize the sum of artificials.
    if (artificial_begin_ < cols_) {
      set_phase1_objective();
      const SolveStatus p1 = iterate(result.iterations, /*phase1=*/true);
      if (p1 == SolveStatus::kIterationLimit) {
        result.status = p1;
        return result;
      }
      if (phase1_objective() > kFeasibilityTol * rhs_scale_) {
        result.status = SolveStatus::kInfeasible;
        return result;
      }
      expel_artificials();
    }
    // Phase 2: the real objective over non-artificial columns.
    set_phase2_objective();
    result.status = iterate(result.iterations, /*phase1=*/false);
    if (result.status == SolveStatus::kOptimal) {
      result.values.assign(n_, 0.0);
      for (std::size_t r = 0; r < m_; ++r) {
        if (basis_[r] < n_) result.values[basis_[r]] = rhs(r);
      }
    }
    return result;
  }

 private:
  double& at(std::size_t r, std::size_t c) { return data_[r * stride_ + c]; }
  double at(std::size_t r, std::size_t c) const { return data_[r * stride_ + c]; }
  double& rhs(std::size_t r) { return data_[r * stride_ + cols_]; }
  double rhs(std::size_t r) const { return data_[r * stride_ + cols_]; }

  void build(const StandardForm& sf) {
    // Count slack and artificial columns; rows are normalized to rhs >= 0.
    std::size_t slack_count = 0;
    std::size_t artificial_count = 0;
    std::vector<int> row_sign(m_, 1);
    std::vector<Sense> sense(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      sense[r] = sf.rows[r].sense;
      if (sf.rows[r].rhs < 0.0) {
        row_sign[r] = -1;
        if (sense[r] == Sense::kLe) {
          sense[r] = Sense::kGe;
        } else if (sense[r] == Sense::kGe) {
          sense[r] = Sense::kLe;
        }
      }
      if (sense[r] != Sense::kEq) ++slack_count;
      // kGe rows get a surplus (-1) column whose basis slot needs an
      // artificial; kEq rows need one outright.
      if (sense[r] != Sense::kLe) ++artificial_count;
    }
    slack_begin_ = n_;
    artificial_begin_ = n_ + slack_count;
    cols_ = artificial_begin_ + artificial_count;
    stride_ = cols_ + 1;
    data_.assign(m_ * stride_, 0.0);
    objective_.assign(cols_ + 1, 0.0);
    cost_.assign(cols_, 0.0);
    for (std::size_t j = 0; j < n_; ++j) cost_[j] = sf.cost[j];
    basis_.assign(m_, 0);
    banned_.assign(cols_, false);

    std::size_t next_slack = slack_begin_;
    std::size_t next_artificial = artificial_begin_;
    rhs_scale_ = 1.0;
    for (std::size_t r = 0; r < m_; ++r) {
      const double sign = row_sign[r];
      for (const Term& t : sf.rows[r].terms) {
        at(r, static_cast<std::size_t>(t.var)) += sign * t.coeff;
      }
      rhs(r) = sign * sf.rows[r].rhs;
      rhs_scale_ = std::max(rhs_scale_, std::abs(rhs(r)));
      if (sense[r] == Sense::kLe) {
        at(r, next_slack) = 1.0;
        basis_[r] = next_slack++;
      } else if (sense[r] == Sense::kGe) {
        at(r, next_slack) = -1.0;
        ++next_slack;
        at(r, next_artificial) = 1.0;
        basis_[r] = next_artificial++;
      } else {
        at(r, next_artificial) = 1.0;
        basis_[r] = next_artificial++;
      }
    }
  }

  void set_phase1_objective() {
    std::fill(objective_.begin(), objective_.end(), 0.0);
    for (std::size_t j = artificial_begin_; j < cols_; ++j) objective_[j] = 1.0;
    price_out_basis();
  }

  void set_phase2_objective() {
    std::fill(objective_.begin(), objective_.end(), 0.0);
    for (std::size_t j = 0; j < cols_; ++j) objective_[j] = cost_[j];
    for (std::size_t j = artificial_begin_; j < cols_; ++j) banned_[j] = true;
    price_out_basis();
  }

  /// Subtracts basic rows from the objective so reduced costs of basic
  /// variables become zero.
  void price_out_basis() {
    for (std::size_t r = 0; r < m_; ++r) {
      const double c = objective_[basis_[r]];
      if (c == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j) objective_[j] -= c * at(r, j);
    }
  }

  double phase1_objective() const { return -objective_[cols_]; }

  SolveStatus iterate(std::size_t& iterations, bool phase1) {
    bool bland = false;
    std::size_t stall = 0;
    double last_objective = -objective_[cols_];
    for (;; ++iterations) {
      if (iterations >= options_.max_iterations) {
        return SolveStatus::kIterationLimit;
      }
      const int entering = pick_entering(bland);
      if (entering < 0) return SolveStatus::kOptimal;
      const int leaving = pick_leaving(static_cast<std::size_t>(entering),
                                       phase1);
      if (leaving < 0) {
        // Phase 1 is bounded below by zero, so no finite ratio means a bug.
        if (phase1) throw InternalError("dense simplex: phase-1 unbounded");
        return SolveStatus::kUnbounded;
      }
      pivot(static_cast<std::size_t>(leaving),
            static_cast<std::size_t>(entering));
      const double objective = -objective_[cols_];
      if (objective < last_objective - kOptimalityTol) {
        stall = 0;
        last_objective = objective;
      } else if (++stall >= options_.stall_limit) {
        bland = true;  // anti-cycling fallback
      }
    }
  }

  int pick_entering(bool bland) const {
    int best = -1;
    double best_cost = -kOptimalityTol;
    for (std::size_t j = 0; j < cols_; ++j) {
      if (banned_[j]) continue;
      const double c = objective_[j];
      if (c < best_cost) {
        if (bland) return static_cast<int>(j);
        best_cost = c;
        best = static_cast<int>(j);
      }
    }
    return best;
  }

  /// Ratio test. In phase 2, basic artificials that would *increase*
  /// (coefficient < 0) force a zero-step pivot so they leave instead of
  /// going positive (they carry an implicit upper bound of zero).
  int pick_leaving(std::size_t entering, bool phase1) const {
    int leaving = -1;
    double best_ratio = 0.0;
    for (std::size_t r = 0; r < m_; ++r) {
      const double a = at(r, entering);
      double ratio;
      if (a > kFeasibilityTol) {
        ratio = rhs(r) / a;
      } else if (!phase1 && basis_[r] >= artificial_begin_ &&
                 a < -kFeasibilityTol) {
        ratio = 0.0;
      } else {
        continue;
      }
      if (leaving < 0 || ratio < best_ratio - kOptimalityTol ||
          (ratio < best_ratio + kOptimalityTol &&
           basis_[r] < basis_[static_cast<std::size_t>(leaving)])) {
        leaving = static_cast<int>(r);
        best_ratio = ratio;
      }
    }
    return leaving;
  }

  void pivot(std::size_t row, std::size_t col) {
    const double p = at(row, col);
    require(std::abs(p) > kFeasibilityTol * 1e-3,
            "dense simplex: tiny pivot");
    const double inv = 1.0 / p;
    for (std::size_t j = 0; j <= cols_; ++j) at(row, j) *= inv;
    at(row, col) = 1.0;  // cancel roundoff
    for (std::size_t r = 0; r < m_; ++r) {
      if (r == row) continue;
      const double factor = at(r, col);
      if (factor == 0.0) continue;
      for (std::size_t j = 0; j <= cols_; ++j) {
        at(r, j) -= factor * at(row, j);
      }
      at(r, col) = 0.0;
    }
    const double ofactor = objective_[col];
    if (ofactor != 0.0) {
      for (std::size_t j = 0; j <= cols_; ++j) {
        objective_[j] -= ofactor * at(row, j);
      }
      objective_[col] = 0.0;
    }
    basis_[row] = col;
    // Clamp tiny negative rhs introduced by roundoff.
    for (std::size_t r = 0; r < m_; ++r) {
      if (rhs(r) < 0.0 && rhs(r) > -kFeasibilityTol) rhs(r) = 0.0;
    }
  }

  /// After phase 1, pivots remaining zero-valued artificials out of the
  /// basis where possible; rows where no pivot exists are redundant and
  /// harmless (the artificial stays basic at zero and is banned in phase 2,
  /// with the ratio-test guard keeping it at zero).
  void expel_artificials() {
    for (std::size_t r = 0; r < m_; ++r) {
      if (basis_[r] < artificial_begin_) continue;
      for (std::size_t j = 0; j < artificial_begin_; ++j) {
        if (std::abs(at(r, j)) > kFeasibilityTol) {
          pivot(r, j);
          break;
        }
      }
    }
  }

  SimplexOptions options_;
  std::size_t n_ = 0;  ///< structural columns
  std::size_t m_ = 0;  ///< rows
  std::size_t cols_ = 0;
  std::size_t stride_ = 0;
  std::size_t slack_begin_ = 0;
  std::size_t artificial_begin_ = 0;
  double rhs_scale_ = 1.0;
  std::vector<double> data_;       ///< m_ x stride_ tableau
  std::vector<double> objective_;  ///< reduced costs + negated objective
  std::vector<double> cost_;       ///< phase-2 costs per column
  std::vector<std::size_t> basis_;
  std::vector<bool> banned_;
};

}  // namespace

SfSolution solve_dense(const StandardForm& sf, const SimplexOptions& options) {
  if (sf.rows.empty()) {
    // No constraints: each variable sits at 0 (its shifted lower bound)
    // unless a negative cost makes the problem unbounded.
    SfSolution result;
    for (double c : sf.cost) {
      if (c < 0.0) {
        result.status = SolveStatus::kUnbounded;
        return result;
      }
    }
    result.status = SolveStatus::kOptimal;
    result.values.assign(sf.var_count(), 0.0);
    return result;
  }
  DenseTableau tableau(sf, options);
  return tableau.run();
}

}  // namespace sb::lp
