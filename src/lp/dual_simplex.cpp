#include "lp/dual_simplex.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "lp/basis.h"
#include "lp/lu_factor.h"
#include "obs/span.h"

namespace sb::lp {
namespace {

/// Pivot-row entries below this cannot anchor a dual pivot or a ratio-test
/// breakpoint (mirrors the primal feasibility_tol use in its ratio test).
constexpr double kAlphaTol = 1e-9;
/// Rounds of end-game dual-feasibility repair (flip wrong-sign boxed
/// nonbasics on fresh factors and resume) before handing off to the primal.
constexpr int kMaxFinishRounds = 3;
/// Rounds of basis repair during load (same as the primal engine).
constexpr int kMaxRepairRounds = 5;

}  // namespace

class DualEngine::Impl {
 public:
  Impl(const StandardForm& sf, const SimplexOptions& options)
      : options_(options),
        n_(sf.var_count()),
        m_(sf.rows.size()),
        total_(n_ + m_) {
    build(sf);
  }

  /// Overwrites the rhs and structural uppers and returns every piece of
  /// per-solve state to what build() leaves: workspaces, statuses,
  /// counters, the Bland and fallback flags.
  void reload(const StandardForm& sf, const SimplexOptions& options) {
    require(sf.var_count() == n_ && sf.rows.size() == m_,
            "DualEngine::reload: standard form shape changed");
    options_ = options;
    for (std::size_t j = 0; j < n_; ++j) upper_[j] = sf.upper[j];
    for (std::size_t r = 0; r < m_; ++r) rhs_[r] = sf.rows[r].rhs;
    status_.assign(total_, VarStatus::kAtLower);
    pos_of_.assign(total_, -1);
    x_basic_.clear();
    basis_.clear();
    w_.resize(m_);
    cb_.resize(m_);
    bwork_.resize(m_);
    rho_.resize(m_);
    alpha_.resize(total_);
    breakpoints_.clear();
    flips_.clear();
    bound_flips_ = 0;
    bland_ = false;
    fell_back_ = false;
  }

  SfSolution run(const std::vector<VarStatus>* warm, DualSolveStats* stats) {
    SfSolution out;
    obs::Span span("lp.dual", obs::Subsystem::kLp);
    factorizations_before_ = basis_state_.factorizations();
    init(warm);
    if (!make_dual_feasible()) {
      // The start cannot be repaired by bound flips (an unboxed column's
      // reduced cost has the wrong sign). Hand the — still valid — basis
      // to the primal engine.
      fill_statuses(out);
      out.status = SolveStatus::kIterationLimit;
      if (stats != nullptr) fill_stats(stats, /*cleanup=*/true);
      span.attr(obs::AttrKey::kStatus, -1);
      return out;
    }
    out.status = iterate(out.iterations);
    span.attr(obs::AttrKey::kIterations,
              static_cast<std::int64_t>(out.iterations));
    span.attr(obs::AttrKey::kFactorizations,
              static_cast<std::int64_t>(factorizations()));
    fill_statuses(out);
    if (out.status == SolveStatus::kOptimal) {
      out.values.resize(n_);
      for (std::size_t j = 0; j < n_; ++j) {
        out.values[j] = status_[j] == VarStatus::kBasic
                            ? x_basic_[static_cast<std::size_t>(pos_of_[j])]
                            : nonbasic_value(static_cast<int>(j));
      }
    }
    if (stats != nullptr) fill_stats(stats, fell_back_);
    return out;
  }

 private:
  // ---- model construction (mirrors the primal engine) --------------------

  void build(const StandardForm& sf) {
    columns_.resize(total_);
    lower_.assign(total_, 0.0);
    upper_.assign(total_, kInf);
    cost_.assign(total_, 0.0);
    rhs_.resize(m_);
    for (std::size_t j = 0; j < n_; ++j) {
      cost_[j] = sf.cost[j];
      upper_[j] = sf.upper[j];
    }
    rows_.resize(m_);
    for (std::size_t r = 0; r < m_; ++r) {
      const StandardRow& row = sf.rows[r];
      for (const Term& t : row.terms) {
        columns_[static_cast<std::size_t>(t.var)].emplace_back(r, t.coeff);
        rows_[r].emplace_back(static_cast<std::size_t>(t.var), t.coeff);
      }
      const std::size_t lj = n_ + r;
      columns_[lj].emplace_back(r, 1.0);
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
    }
    status_.assign(total_, VarStatus::kAtLower);
    pos_of_.assign(total_, -1);
    w_.resize(m_);
    cb_.resize(m_);
    bwork_.resize(m_);
    rho_.resize(m_);
    alpha_.resize(total_);
  }

  [[nodiscard]] double nonbasic_value(int j) const {
    const auto ju = static_cast<std::size_t>(j);
    return status_[ju] == VarStatus::kAtUpper ? upper_[ju] : lower_[ju];
  }

  [[nodiscard]] VarStatus resting_status(std::size_t j) const {
    return lower_[j] == -kInf ? VarStatus::kAtUpper : VarStatus::kAtLower;
  }

  [[nodiscard]] bool boxed(std::size_t j) const {
    return lower_[j] > -kInf && upper_[j] < kInf && upper_[j] > lower_[j];
  }

  /// Installs the warm statuses (or a cold all-logical basis), factorizes
  /// with repair, and computes basic values. Same crash contract as the
  /// primal engine's init_warm.
  void init(const std::vector<VarStatus>* warm) {
    basis_.clear();
    const bool usable =
        warm != nullptr && (warm->size() == n_ || warm->size() == total_);
    const bool has_row_hints = usable && warm->size() == total_;
    for (std::size_t j = 0; j < n_; ++j) {
      const VarStatus hint = usable ? (*warm)[j] : VarStatus::kAtLower;
      switch (hint) {
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
      if ((!usable || (has_row_hints && (*warm)[lj] == VarStatus::kBasic)) &&
          basis_.size() < m_) {
        basis_.push_back(static_cast<int>(lj));
        status_[lj] = VarStatus::kBasic;
      } else {
        status_[lj] = resting_status(lj);
      }
    }
    // Pad any shortfall with nonbasic logicals (load_with_repair swaps out
    // dependent picks).
    for (std::size_t r = 0; r < m_ && basis_.size() < m_; ++r) {
      const std::size_t lj = n_ + r;
      if (status_[lj] == VarStatus::kBasic) continue;
      basis_.push_back(static_cast<int>(lj));
      status_[lj] = VarStatus::kBasic;
    }
    if (!load_with_repair()) {
      throw InternalError("dual simplex: basis failed to factorize");
    }
    compute_basic_values();
  }

  bool load_with_repair() {
    std::vector<const SparseCol*> cols;
    for (int round = 0; round < kMaxRepairRounds; ++round) {
      cols.clear();
      cols.reserve(basis_.size());
      for (int col : basis_) {
        cols.push_back(&columns_[static_cast<std::size_t>(col)]);
      }
      const Basis::LoadResult res = basis_state_.load(cols, m_);
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
      if (basis_.size() != m_) return false;
    }
    return false;
  }

  void compute_basic_values() {
    bwork_.clear();
    for (std::size_t r = 0; r < m_; ++r) {
      if (rhs_[r] != 0.0) bwork_.set(static_cast<int>(r), rhs_[r]);
    }
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      const double v = nonbasic_value(static_cast<int>(j));
      if (v == 0.0) continue;
      for (const auto& [r, a] : columns_[j]) {
        bwork_.add(static_cast<int>(r), -a * v);
      }
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

  bool refactorize() {
    if (!load_with_repair()) return false;
    compute_basic_values();
    return true;
  }

  // ---- dual machinery ----------------------------------------------------

  /// Recomputes the duals y = B^-T c_B into cb_.
  void compute_duals() {
    cb_.clear();
    for (std::size_t p = 0; p < m_; ++p) {
      const double c = cost_[static_cast<std::size_t>(basis_[p])];
      if (c != 0.0) cb_.set(static_cast<int>(p), c);
    }
    basis_state_.btran(cb_);
  }

  [[nodiscard]] double reduced_cost(int j) const {
    const auto ju = static_cast<std::size_t>(j);
    double d = cost_[ju];
    for (const auto& [r, v] : columns_[ju]) {
      d -= cb_.values[r] * v;
    }
    return d;
  }

  /// Flips every wrong-sign BOXED nonbasic onto its other bound; returns
  /// false when an unboxed nonbasic has a wrong-sign reduced cost (the
  /// start is not dual-repairable by flips). Recomputes basic values when
  /// anything flipped.
  bool make_dual_feasible() {
    compute_duals();
    const double dtol = options_.optimality_tol;
    bool flipped = false;
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (!(upper_[j] - lower_[j] > 0.0)) continue;  // fixed: any sign is fine
      const double d = reduced_cost(static_cast<int>(j));
      if (status_[j] == VarStatus::kAtLower && d < -dtol) {
        if (upper_[j] == kInf) return false;
        status_[j] = VarStatus::kAtUpper;
        ++bound_flips_;
        flipped = true;
      } else if (status_[j] == VarStatus::kAtUpper && d > dtol) {
        if (lower_[j] == -kInf) return false;
        status_[j] = VarStatus::kAtLower;
        ++bound_flips_;
        flipped = true;
      }
    }
    if (flipped) compute_basic_values();
    return true;
  }

  /// Largest primal bound violation among the basics; -1 when primal
  /// feasible. Under bland_ the lowest violating position wins instead.
  [[nodiscard]] int pick_leaving() const {
    const double ftol = options_.feasibility_tol;
    int best = -1;
    double best_viol = ftol;
    for (std::size_t p = 0; p < m_; ++p) {
      const auto col = static_cast<std::size_t>(basis_[p]);
      const double x = x_basic_[p];
      double viol = 0.0;
      if (x < lower_[col] - ftol) {
        viol = lower_[col] - x;
      } else if (x > upper_[col] + ftol) {
        viol = x - upper_[col];
      } else {
        continue;
      }
      if (bland_) return static_cast<int>(p);
      if (viol > best_viol) {
        best_viol = viol;
        best = static_cast<int>(p);
      }
    }
    return best;
  }

  struct Breakpoint {
    double ratio;
    int col;
    double alpha;  ///< sigma * alpha_j (the eligible-signed pivot-row entry)
  };

  SolveStatus iterate(std::size_t& iterations) {
    bland_ = false;
    std::size_t stalled = 0;
    int finish_rounds = 0;
    double last_infeas = kInf;
    const double dtol = options_.optimality_tol;
    while (true) {
      if (iterations >= options_.max_iterations) {
        return SolveStatus::kIterationLimit;
      }
      if (basis_state_.update_count() >= options_.refactor_interval) {
        if (!refactorize()) {
          throw InternalError("dual simplex: basis repair failed");
        }
      }

      const int r = pick_leaving();
      if (r < 0) {
        // Primal feasible. Declare optimality only against fresh factors
        // AND a fresh dual-feasibility check: eta drift can both hide a
        // violation and let a reduced cost creep across zero.
        if (basis_state_.update_count() > 0) {
          if (!refactorize()) {
            throw InternalError("dual simplex: basis repair failed");
          }
          continue;
        }
        if (!make_dual_feasible() || ++finish_rounds > kMaxFinishRounds) {
          fell_back_ = true;
          return SolveStatus::kIterationLimit;
        }
        if (pick_leaving() >= 0) continue;  // repair flips broke feasibility
        return SolveStatus::kOptimal;
      }

      compute_duals();

      const auto leave_col =
          static_cast<std::size_t>(basis_[static_cast<std::size_t>(r)]);
      const double x_r = x_basic_[static_cast<std::size_t>(r)];
      // sigma: +1 when the leaving basic exceeds its upper bound (it will
      // come to rest there), -1 when below its lower bound.
      const double sigma = x_r > upper_[leave_col] ? 1.0 : -1.0;

      // Pivot row alpha = e_r^T B^-1 A through the row-wise copy.
      rho_.clear();
      rho_.set(r, 1.0);
      basis_state_.btran(rho_);
      alpha_.clear();
      for (int i : rho_.nz) {
        const double rv = rho_.values[static_cast<std::size_t>(i)];
        if (rv == 0.0) continue;
        for (const auto& [col, v] : rows_[static_cast<std::size_t>(i)]) {
          alpha_.add(static_cast<int>(col), rv * v);
        }
        alpha_.add(static_cast<int>(n_) + i, rv);
      }

      // Collect dual ratio-test breakpoints: nonbasic j whose reduced cost
      // would cross zero as the duals move by t * sigma * rho.
      breakpoints_.clear();
      for (int j : alpha_.nz) {
        const auto ju = static_cast<std::size_t>(j);
        if (status_[ju] == VarStatus::kBasic) continue;
        if (!(upper_[ju] - lower_[ju] > 0.0)) continue;  // fixed (kEq slack)
        const double q = sigma * alpha_.values[ju];
        if (status_[ju] == VarStatus::kAtLower) {
          if (q <= kAlphaTol) continue;
        } else {
          if (q >= -kAlphaTol) continue;
        }
        const double d = reduced_cost(j);
        double ratio = d / q;
        if (ratio < 0.0) ratio = 0.0;  // within-tolerance dual drift
        breakpoints_.push_back({ratio, j, q});
      }
      alpha_.clear();

      if (breakpoints_.empty()) {
        if (basis_state_.update_count() > 0) {
          // Could be eta drift; retry against fresh factors.
          if (!refactorize()) {
            throw InternalError("dual simplex: basis repair failed");
          }
          continue;
        }
        // Dual unbounded: the leaving row's violation cannot be repaired —
        // the primal is infeasible.
        return SolveStatus::kInfeasible;
      }

      std::sort(breakpoints_.begin(), breakpoints_.end(),
                [](const Breakpoint& a, const Breakpoint& b) {
                  return a.ratio < b.ratio ||
                         (a.ratio == b.ratio && a.col < b.col);
                });

      // Bound-flipping ratio test: walk the breakpoints in dual-step order.
      // The dual objective's slope starts at the primal violation |delta|;
      // flipping a boxed breakpoint column to its other bound costs
      // |alpha| * range of slope. The entering column is the first
      // breakpoint the slope cannot pay for (or an unboxed one, which
      // cannot flip). Under Bland, no flipping: lowest ratio, lowest index.
      const double viol = sigma > 0.0 ? x_r - upper_[leave_col]
                                      : lower_[leave_col] - x_r;
      double slope = viol;
      flips_.clear();
      int entering = -1;
      for (const Breakpoint& bp : breakpoints_) {
        entering = bp.col;
        if (bland_) break;
        const auto ju = static_cast<std::size_t>(bp.col);
        if (!boxed(ju)) break;
        const double flip_cost = std::abs(bp.alpha) * (upper_[ju] - lower_[ju]);
        if (slope - flip_cost <= dtol) break;
        slope -= flip_cost;
        flips_.push_back(bp.col);
        entering = -1;  // consumed as a flip unless a later bp enters
      }
      if (entering < 0) {
        // Every breakpoint was flipped and the slope never went negative:
        // the last flip must enter instead (keep one pivot per iteration).
        entering = flips_.back();
        flips_.pop_back();
      }

      // FTRAN the entering column under the CURRENT basis.
      w_.clear();
      for (const auto& [row, v] : columns_[static_cast<std::size_t>(entering)]) {
        w_.add(static_cast<int>(row), v);
      }
      basis_state_.ftran(w_);
      const double pivot = w_.values[static_cast<std::size_t>(r)];
      if (std::abs(pivot) < kAlphaTol * 10.0) {
        if (basis_state_.update_count() > 0) {
          if (!refactorize()) {
            throw InternalError("dual simplex: basis repair failed");
          }
          continue;  // retry the iteration with fresh factors
        }
        fell_back_ = true;  // genuinely tiny pivot; let the primal finish
        return SolveStatus::kIterationLimit;
      }

      // Batched flip application: one FTRAN covers every flipped column's
      // effect on the basics. Computed under the current basis, BEFORE the
      // pivot's eta is appended.
      bwork_.clear();
      if (!flips_.empty()) {
        for (int j : flips_) {
          const auto ju = static_cast<std::size_t>(j);
          const double delta = status_[ju] == VarStatus::kAtLower
                                   ? upper_[ju] - lower_[ju]
                                   : lower_[ju] - upper_[ju];
          for (const auto& [row, v] : columns_[ju]) {
            bwork_.add(static_cast<int>(row), v * delta);
          }
        }
        basis_state_.ftran(bwork_);
      }

      // Append the pivot eta; on numerical rejection refactorize and retry
      // (no state has been mutated yet).
      if (!basis_state_.update(r, w_)) {
        if (!refactorize()) {
          throw InternalError("dual simplex: basis repair failed");
        }
        continue;
      }

      // Commit the flips.
      for (int j : flips_) {
        const auto ju = static_cast<std::size_t>(j);
        status_[ju] = status_[ju] == VarStatus::kAtLower ? VarStatus::kAtUpper
                                                         : VarStatus::kAtLower;
      }
      bound_flips_ += flips_.size();
      for (int p : bwork_.nz) {
        x_basic_[static_cast<std::size_t>(p)] -=
            bwork_.values[static_cast<std::size_t>(p)];
      }
      bwork_.clear();

      // Pivot: entering moves off its bound far enough to bring the leaving
      // basic exactly to its violated bound (post-flip violation).
      const auto ent = static_cast<std::size_t>(entering);
      const double bound_r =
          sigma > 0.0 ? upper_[leave_col] : lower_[leave_col];
      const double delta_q =
          (x_basic_[static_cast<std::size_t>(r)] - bound_r) / pivot;
      for (int p : w_.nz) {
        x_basic_[static_cast<std::size_t>(p)] -=
            delta_q * w_.values[static_cast<std::size_t>(p)];
      }
      status_[leave_col] = sigma > 0.0 ? VarStatus::kAtUpper
                                       : VarStatus::kAtLower;
      pos_of_[leave_col] = -1;
      basis_[static_cast<std::size_t>(r)] = entering;
      pos_of_[ent] = r;
      const double enter_from = nonbasic_value(entering);
      status_[ent] = VarStatus::kBasic;
      x_basic_[static_cast<std::size_t>(r)] = enter_from + delta_q;
      ++iterations;

      // Stall detection on the total primal infeasibility (the dual
      // objective's progress measure). Degenerate plateaus switch to
      // Bland-style lowest-index selection with flipping disabled.
      const double infeas = infeasibility();
      if (infeas < last_infeas - 1e-12 * (1.0 + last_infeas)) {
        stalled = 0;
        last_infeas = infeas;
        if (bland_) bland_ = false;
      } else if (++stalled >= options_.stall_limit && !bland_) {
        bland_ = true;
      }
    }
  }

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

  void fill_statuses(SfSolution& out) const {
    out.statuses.resize(total_);
    for (std::size_t j = 0; j < total_; ++j) out.statuses[j] = status_[j];
  }

  /// Factorizations of the current run (the Basis counts across reloads).
  [[nodiscard]] std::size_t factorizations() const {
    return basis_state_.factorizations() - factorizations_before_;
  }

  void fill_stats(DualSolveStats* stats, bool cleanup) const {
    stats->factorizations = factorizations();
    stats->eta_nnz = basis_state_.eta_nnz();
    stats->bound_flips = bound_flips_;
    stats->needs_primal_cleanup = cleanup;
  }

  SimplexOptions options_;
  const std::size_t n_;
  const std::size_t m_;
  const std::size_t total_;

  std::vector<SparseCol> columns_;
  std::vector<SparseCol> rows_;
  std::vector<double> lower_;
  std::vector<double> upper_;
  std::vector<double> cost_;
  std::vector<double> rhs_;

  Basis basis_state_;
  std::vector<int> basis_;
  std::vector<int> pos_of_;
  std::vector<VarStatus> status_;
  std::vector<double> x_basic_;

  std::size_t factorizations_before_ = 0;
  std::size_t bound_flips_ = 0;
  bool bland_ = false;
  bool fell_back_ = false;

  std::vector<Breakpoint> breakpoints_;
  std::vector<int> flips_;

  IndexedVector w_;      ///< entering column FTRAN image
  IndexedVector cb_;     ///< duals y
  IndexedVector bwork_;  ///< rhs / batched-flip workspace
  IndexedVector rho_;    ///< pivot row of B^-1
  IndexedVector alpha_;  ///< pivot row in column space
};

DualEngine::DualEngine(const StandardForm& sf, const SimplexOptions& options)
    : impl_(std::make_unique<Impl>(sf, options)) {}
DualEngine::~DualEngine() = default;

void DualEngine::reload(const StandardForm& sf, const SimplexOptions& options) {
  impl_->reload(sf, options);
}

SfSolution DualEngine::run(const std::vector<VarStatus>* warm,
                           DualSolveStats* stats) {
  return impl_->run(warm, stats);
}

SfSolution solve_dual(const StandardForm& sf, const SimplexOptions& options,
                      const std::vector<VarStatus>* warm,
                      DualSolveStats* stats) {
  if (sf.rows.empty()) {
    // No constraints: same closed form as the primal engine.
    return solve_sparse(sf, options, nullptr, nullptr);
  }
  return DualEngine(sf, options).run(warm, stats);
}

}  // namespace sb::lp
