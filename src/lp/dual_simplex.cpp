#include "lp/dual_simplex.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "lp/simplex_core.h"
#include "obs/span.h"

namespace sb::lp {
namespace {

/// Pivot-row entries below this cannot anchor a dual pivot or a ratio-test
/// breakpoint (mirrors the primal kFeasibilityTol use in its ratio test).
constexpr double kAlphaTol = 1e-9;
/// Rounds of end-game dual-feasibility repair (flip wrong-sign boxed
/// nonbasics on fresh factors and resume) before handing off to the primal.
constexpr int kMaxFinishRounds = 3;

}  // namespace

class DualEngine::Impl : SimplexCore {
 public:
  Impl(const StandardForm& sf, const SimplexOptions& options)
      : SimplexCore(sf, options), d_(total_, 0.0) {}

  /// The core's reload, plus the engine's own per-solve state: the flip
  /// counter, the drift record, the ratio-test lists and the Bland flag go
  /// back to what construction leaves, so a reloaded run is bit-identical
  /// to a fresh one. d_ needs no reset: every run recomputes it before use.
  void reload(const StandardForm& sf, const SimplexOptions& options) {
    SimplexCore::reload(sf, options);
    breakpoints_.clear();
    flips_.clear();
    bound_flips_ = 0;
    max_dj_drift_ = 0.0;
    bland_ = false;
  }

  SfSolution run(const std::vector<VarStatus>* warm, DualSolveStats* stats) {
    SfSolution out;
    obs::Span span("lp.dual", obs::Subsystem::kLp);
    factorizations_before_ = basis_state_.factorizations();
    install(warm);
    if (!load_with_repair()) {
      throw InternalError("dual simplex: basis failed to factorize");
    }
    duals_ = Duals::kStale;
    compute_basic_values();
    if (!make_dual_feasible()) {
      // The start cannot be repaired by bound flips (an unboxed column's
      // reduced cost has the wrong sign). Hand the — still valid — basis
      // to the primal engine.
      export_solution(out, /*with_values=*/false);
      out.status = SolveStatus::kIterationLimit;
      if (stats != nullptr) fill_stats(stats);
      span.attr(obs::AttrKey::kStatus, -1);
      return out;
    }
    out.status = iterate(out.iterations);
    span.attr(obs::AttrKey::kIterations,
              static_cast<std::int64_t>(out.iterations));
    span.attr(obs::AttrKey::kFactorizations,
              static_cast<std::int64_t>(factorizations()));
    export_solution(out, out.status == SolveStatus::kOptimal);
    if (stats != nullptr) fill_stats(stats);
    return out;
  }

 private:
  [[nodiscard]] bool boxed(std::size_t j) const {
    return lower_[j] > -kInf && upper_[j] < kInf && upper_[j] > lower_[j];
  }

  /// Refactorizes and recomputes the basic values and reduced costs from
  /// scratch on the fresh factors.
  bool refactorize() {
    const std::size_t loads = basis_state_.factorizations();
    if (!load_with_repair()) return false;
    // A repair swapped columns: the updated reduced costs belong to another
    // basis and say nothing about drift.
    if (basis_state_.factorizations() - loads > 1) duals_ = Duals::kStale;
    compute_basic_values();
    compute_duals();
    return true;
  }

  // ---- dual machinery ----------------------------------------------------

  /// Recomputes the duals y = B^-T c_B into cb_ and from them every reduced
  /// cost d_j = c_j - y^T a_j into d_ (zero on basics). When d_ was updated
  /// since the last recompute, records the largest gap between the updated
  /// and the fresh value over the nonbasics in max_dj_drift_.
  void compute_duals() {
    cb_.clear();
    for (std::size_t p = 0; p < m_; ++p) {
      const double c = cost_[static_cast<std::size_t>(basis_[p])];
      if (c != 0.0) cb_.set(static_cast<int>(p), c);
    }
    basis_state_.btran(cb_);
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::kBasic) {
        d_[j] = 0.0;
        continue;
      }
      double d = cost_[j];
      for (const auto [r, v] : columns_.line(j)) d -= cb_.values[r] * v;
      if (duals_ == Duals::kUpdated) {
        max_dj_drift_ = std::max(max_dj_drift_, std::abs(d - d_[j]));
      }
      d_[j] = d;
    }
    duals_ = Duals::kFresh;
  }

  /// Flips every wrong-sign BOXED nonbasic onto its other bound; returns
  /// false when an unboxed nonbasic has a wrong-sign reduced cost (the
  /// start is not dual-repairable by flips). Reads reduced costs computed
  /// from scratch on the current factors, recomputing them unless a
  /// refactorization just did. Recomputes basic values when anything
  /// flipped (flips move no dual).
  bool make_dual_feasible() {
    if (duals_ != Duals::kFresh) compute_duals();
    const double dtol = kOptimalityTol;
    bool flipped = false;
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] == VarStatus::kBasic) continue;
      if (!(upper_[j] - lower_[j] > 0.0)) continue;  // fixed: any sign is fine
      const double d = d_[j];
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
    const double ftol = kFeasibilityTol;
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
    const double dtol = kOptimalityTol;
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
          return SolveStatus::kIterationLimit;
        }
        if (pick_leaving() >= 0) continue;  // repair flips broke feasibility
        return SolveStatus::kOptimal;
      }

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
        for (const auto [col, v] : rows_.line(i)) alpha_.add(col, rv * v);
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
        double ratio = d_[ju] / q;
        if (ratio < 0.0) ratio = 0.0;  // within-tolerance dual drift
        breakpoints_.push_back({ratio, j, q});
      }

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
      for (const auto [row, v] : columns_.line(entering)) w_.add(row, v);
      basis_state_.ftran(w_);
      const double pivot = w_.values[static_cast<std::size_t>(r)];
      if (std::abs(pivot) < kAlphaTol * 10.0) {
        if (basis_state_.update_count() > 0) {
          if (!refactorize()) {
            throw InternalError("dual simplex: basis repair failed");
          }
          continue;  // retry the iteration with fresh factors
        }
        return SolveStatus::kIterationLimit;  // genuinely tiny pivot

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
          for (const auto [row, v] : columns_.line(ju)) {
            bwork_.add(row, v * delta);
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

      // Reduced costs from the pivot row: the duals move by theta * rho,
      // so every nonbasic d_j drops by theta * alpha_j, the leaving column
      // leaves at -theta and the entering one enters at zero. Flips move
      // no dual.
      const auto ent = static_cast<std::size_t>(entering);
      const double theta = d_[ent] / alpha_.values[ent];
      for (int j : alpha_.nz) {
        const auto ju = static_cast<std::size_t>(j);
        if (status_[ju] == VarStatus::kBasic) continue;
        d_[ju] -= theta * alpha_.values[ju];
      }
      d_[leave_col] = -theta;
      d_[ent] = 0.0;
      duals_ = Duals::kUpdated;
      alpha_.clear();

      // Pivot: entering moves off its bound far enough to bring the leaving
      // basic exactly to its violated bound (post-flip violation).
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

  /// Factorizations of the current run (the Basis counts across reloads).
  [[nodiscard]] std::size_t factorizations() const {
    return basis_state_.factorizations() - factorizations_before_;
  }

  void fill_stats(DualSolveStats* stats) const {
    stats->factorizations = factorizations();
    stats->eta_nnz = basis_state_.eta_nnz();
    stats->bound_flips = bound_flips_;
    stats->max_dj_drift = max_dj_drift_;
  }

  std::size_t factorizations_before_ = 0;
  std::size_t bound_flips_ = 0;
  bool bland_ = false;

  /// Reduced cost of every column (zero on basics): recomputed from scratch
  /// by compute_duals(), updated from the pivot row by each pivot.
  std::vector<double> d_;
  /// Where d_ stands against the current basis.
  enum class Duals {
    kStale,    ///< not computed for it (a run's start, a basis repair)
    kFresh,    ///< recomputed from scratch on the current factors
    kUpdated,  ///< recomputed, then updated from at least one pivot row
  };
  Duals duals_ = Duals::kStale;
  double max_dj_drift_ = 0.0;

  std::vector<Breakpoint> breakpoints_;
  std::vector<int> flips_;
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

bool finish_on_primal(const StandardForm& sf, const SimplexOptions& options,
                      SfSolution& dual, SparseSolveStats* stats) {
  if (dual.status == SolveStatus::kOptimal ||
      dual.status == SolveStatus::kInfeasible) {
    return false;
  }
  const std::size_t dual_iterations = dual.iterations;
  const std::vector<VarStatus> resume = std::move(dual.statuses);
  dual = solve_sparse(sf, options, resume.empty() ? nullptr : &resume, stats);
  dual.iterations += dual_iterations;
  return true;
}

}  // namespace sb::lp
