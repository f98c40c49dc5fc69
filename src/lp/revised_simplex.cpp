#include "lp/revised_simplex.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/error.h"
#include "lp/simplex_core.h"
#include "obs/span.h"

namespace sb::lp {
namespace {

/// Absolute slack when comparing ratio-test breakpoints for ties.
constexpr double kRatioTieTol = 1e-9;
/// Size of the partial-pricing candidate list. The pricer re-scores only
/// this many nonbasic columns per iteration and refills the list from a
/// rotating cursor when it runs dry.
constexpr std::size_t kPricingCandidates = 256;
/// Relative improvement below which an iteration counts as stalled.
constexpr double kStallRelTol = 1e-12;
/// Devex reference-framework reset: when the entering column's own weight
/// exceeds this, accumulated weight growth has outlived its reference basis.
constexpr double kDevexResetThreshold = 1e6;
/// Devex drift: when the tracked weight of the entering column disagrees
/// with its exact reference-framework weight (computable from the FTRAN
/// image) by more than this factor, the recurrence has gone stale — the
/// framework is restarted at the next refactorization.
constexpr double kDevexDriftLimit = 16.0;

class SparseSimplex : SimplexCore {
 public:
  SparseSimplex(const StandardForm& sf, const SimplexOptions& options)
      : SimplexCore(sf, options) {
    devex_.assign(total_, 1.0);
    in_ref_.assign(total_, 1);
  }

  SfSolution run(const std::vector<VarStatus>* warm, SparseSolveStats* stats) {
    SfSolution out;
    {
      obs::Span crash("lp.crash", obs::Subsystem::kLp);
      // A warm start whose basis cannot be factorized even after repair
      // falls back to the cold crash.
      bool warmed = usable(warm);
      if (warmed) {
        install(warm);
        warmed = load_with_repair();
      }
      if (!warmed) init_cold();
      compute_values();
      crash.attr(obs::AttrKey::kWarmStart, warmed ? 1 : 0);
    }
    out.status = SolveStatus::kOptimal;

    {
      obs::Span phase1("lp.phase1", obs::Subsystem::kLp);
      const std::uint64_t before = out.iterations;
      const SolveStatus p1 = run_phase(/*phase1=*/true, out.iterations);
      phase1.attr(obs::AttrKey::kIterations,
                  static_cast<std::int64_t>(out.iterations - before));
      if (p1 != SolveStatus::kOptimal) {
        out.status = p1;
      } else if (infeasibility() >
                 kFeasibilityTol * rhs_scale_ * 10.0) {
        out.status = SolveStatus::kInfeasible;
      }
    }
    if (out.status == SolveStatus::kOptimal) {
      // Snap residual within-tolerance violations onto the bounds so phase 2
      // starts from a (numerically) feasible point.
      for (std::size_t p = 0; p < m_; ++p) {
        const int col = basis_[p];
        x_basic_[p] = std::clamp(x_basic_[p],
                                 lower_[static_cast<std::size_t>(col)],
                                 upper_[static_cast<std::size_t>(col)]);
      }
      obs::Span phase2("lp.phase2", obs::Subsystem::kLp);
      const std::uint64_t before = out.iterations;
      out.status = run_phase(/*phase1=*/false, out.iterations);
      phase2.attr(obs::AttrKey::kIterations,
                  static_cast<std::int64_t>(out.iterations - before));
      phase2.attr(obs::AttrKey::kFactorizations,
                  static_cast<std::int64_t>(basis_state_.factorizations()));
      phase2.attr(obs::AttrKey::kPricingPasses,
                  static_cast<std::int64_t>(pricing_passes_));
    }

    // Statuses cover the logical (row) block too: a warm start that knows
    // which rows had basic slacks skips the repair pivots a structural-only
    // hint needs.
    export_solution(out, /*with_values=*/true);
    if (stats != nullptr) {
      stats->factorizations = basis_state_.factorizations();
      stats->eta_nnz = basis_state_.eta_nnz();
      stats->pricing_passes = pricing_passes_;
      stats->bound_flips = bound_flips_;
      stats->devex_resets = devex_resets_;
    }
    return out;
  }

 private:
  /// Cold start: the all-logical basis, then a crash. Rows whose logical
  /// would start infeasible (eq rows with nonzero rhs, ge rows with
  /// positive rhs) get the cheapest structural column instead — it can
  /// absorb the rhs inside its own bounds, which moves most of the phase-1
  /// work into the initial basis. Dependent picks are demoted again by
  /// load_with_repair().
  void init_cold() {
    install(nullptr);
    std::vector<unsigned char> taken(total_, 0);
    for (std::size_t r = 0; r < m_; ++r) {
      const std::size_t lj = n_ + r;
      if (!(rhs_[r] < lower_[lj] || rhs_[r] > upper_[lj])) continue;
      // The cheapest untaken column, ties to the lowest id: the first
      // cheapest in ascending column order, whatever the row's term order.
      int pick = -1;
      for (const auto [j, v] : rows_.line(r)) {
        if (v == 0.0 || taken[j]) continue;
        if (pick < 0 || std::pair(cost_[j], j) < std::pair(cost_[pick], pick)) {
          pick = j;
        }
      }
      if (pick < 0) continue;
      taken[static_cast<std::size_t>(pick)] = 1;
      status_[lj] = resting_status(lj);
      basis_[r] = pick;
      status_[static_cast<std::size_t>(pick)] = VarStatus::kBasic;
    }
    if (!load_with_repair()) {
      throw InternalError("sparse simplex: cold basis failed to factorize");
    }
  }

  /// Basic values plus the nonbasic variables' objective term, from
  /// scratch.
  void compute_values() {
    compute_basic_values();
    nb_cost_ = 0.0;
    for (std::size_t j = 0; j < total_; ++j) {
      if (status_[j] != VarStatus::kBasic && cost_[j] != 0.0) {
        nb_cost_ += cost_[j] * nonbasic_value(static_cast<int>(j));
      }
    }
  }

  bool refactorize() {
    if (!load_with_repair()) return false;
    compute_values();
    // The eta file the weight recurrence ran against is gone; if the
    // tracked weights had visibly drifted from their exact framework
    // values, restart the framework here rather than carrying stale
    // weights into the fresh factorization.
    if (devex_drift_pending_) reset_devex_framework(/*count=*/true);
    return true;
  }

  /// Starts a new Devex reference framework: the reference set becomes the
  /// current nonbasic columns and every weight returns to 1.
  void reset_devex_framework(bool count) {
    for (std::size_t j = 0; j < total_; ++j) {
      in_ref_[j] = status_[j] != VarStatus::kBasic ? 1 : 0;
    }
    std::fill(devex_.begin(), devex_.end(), 1.0);
    devex_drift_pending_ = false;
    if (count) ++devex_resets_;
  }

  /// Exact Devex weight of the entering column in the CURRENT reference
  /// framework, from its FTRAN image: reference columns now basic
  /// contribute alpha^2, plus 1 when the column itself is a reference
  /// member. The tracked weight is only a lower-bound estimate of this;
  /// the exact value both sharpens the weight recurrence and exposes
  /// drift.
  [[nodiscard]] double devex_exact_weight(int entering) const {
    double sum = in_ref_[static_cast<std::size_t>(entering)] ? 1.0 : 0.0;
    for (int p : w_.nz) {
      const auto col = static_cast<std::size_t>(
          basis_[static_cast<std::size_t>(p)]);
      if (!in_ref_[col]) continue;
      const double v = w_.values[static_cast<std::size_t>(p)];
      sum += v * v;
    }
    return std::max(sum, 1.0);
  }

  [[nodiscard]] double objective_value() const {
    double obj = nb_cost_;
    for (std::size_t p = 0; p < m_; ++p) {
      obj += cost_[static_cast<std::size_t>(basis_[p])] * x_basic_[p];
    }
    return obj;
  }

  [[nodiscard]] double reduced_cost(int j, bool phase1) const {
    const auto ju = static_cast<std::size_t>(j);
    double d = phase1 ? 0.0 : cost_[ju];
    for (const auto [r, v] : columns_.line(ju)) d -= cb_.values[r] * v;
    return d;
  }

  [[nodiscard]] bool eligible(int j, double d) const {
    const auto ju = static_cast<std::size_t>(j);
    if (status_[ju] == VarStatus::kBasic) return false;
    if (!(upper_[ju] - lower_[ju] > 0.0)) return false;  // fixed (kEq slack)
    return status_[ju] == VarStatus::kAtLower ? d < -kOptimalityTol
                                              : d > kOptimalityTol;
  }

  /// Picks the entering column. Partial pricing with Devex weights: the
  /// candidate list is re-scored by d^2 / devex_[j] (approximate steepest
  /// edge — heavily degenerate provisioning LPs crawl under plain Dantzig),
  /// refilling it from a rotating cursor only when it runs dry (one full
  /// wrap with no hit is the optimality proof). Bland mode degrades to a
  /// lowest-index full scan for guaranteed termination.
  int price(bool phase1) {
    if (bland_) {
      for (std::size_t j = 0; j < total_; ++j) {
        if (eligible(static_cast<int>(j),
                     reduced_cost(static_cast<int>(j), phase1))) {
          return static_cast<int>(j);
        }
      }
      return -1;
    }
    int best = -1;
    double best_score = 0.0;
    std::size_t out = 0;
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
      const int j = candidates_[i];
      const double d = reduced_cost(j, phase1);
      if (!eligible(j, d)) continue;
      candidates_[out++] = j;
      const double score = d * d / devex_[static_cast<std::size_t>(j)];
      if (score > best_score) {
        best_score = score;
        best = j;
      }
    }
    candidates_.resize(out);
    if (best >= 0) return best;

    ++pricing_passes_;
    candidates_.clear();
    for (std::size_t scanned = 0; scanned < total_; ++scanned) {
      const int j = static_cast<int>(cursor_);
      cursor_ = cursor_ + 1 == total_ ? 0 : cursor_ + 1;
      const double d = reduced_cost(j, phase1);
      if (!eligible(j, d)) continue;
      candidates_.push_back(j);
      const double score = d * d / devex_[static_cast<std::size_t>(j)];
      if (score > best_score) {
        best_score = score;
        best = j;
      }
      if (candidates_.size() >= kPricingCandidates) break;
    }
    return best;
  }

  /// Devex weight update after a pivot (entering column q at basis position
  /// r): the full pivot row alpha_r = e_r^T B^-1 A is computed through the
  /// row-wise matrix copy, and every nonbasic column's reference weight is
  /// raised to max(w_j, (alpha_rj/alpha_rq)^2 w_q). One extra btran plus an
  /// O(nnz) pass per pivot buys a steepest-edge-quality pricing signal.
  ///
  /// `wq` is the entering column's EXACT reference-framework weight (from
  /// devex_exact_weight), not the tracked estimate: seeding the recurrence
  /// with the exact value is what keeps the framework honest between
  /// restarts (Forrest & Goldfarb's "exact recurrence" refinement).
  void update_devex(int entering, int leaving, int r, double wq) {
    const double alpha_q = w_.values[static_cast<std::size_t>(r)];
    if (alpha_q == 0.0) return;
    // Drift check: the tracked weight should track the exact one from
    // below. A large disagreement either way means the recurrence has
    // outlived its reference basis.
    const double tracked = devex_[static_cast<std::size_t>(entering)];
    if (tracked > wq * kDevexDriftLimit || wq > tracked * kDevexDriftLimit) {
      devex_drift_pending_ = true;
    }
    if (wq > kDevexResetThreshold) {
      // Weight growth has outlived the framework: restart it around the
      // post-pivot basis instead of propagating the blown-up weights.
      // (status_ still shows the pre-pivot state; the entering column
      // joining the reference set is by-design Devex behavior.)
      reset_devex_framework(/*count=*/true);
      return;
    }
    // rho = row r of B^-1 (btran of the r-th unit vector), in row space.
    rho_.clear();
    rho_.set(r, 1.0);
    basis_state_.btran(rho_);
    const double scale = wq / (alpha_q * alpha_q);
    double rho_max = 0.0;
    for (int i : rho_.nz) {
      rho_max =
          std::max(rho_max, std::abs(rho_.values[static_cast<std::size_t>(i)]));
    }
    // Rows with negligible pivot-row weight cannot move any weight past its
    // current value; skipping them keeps the update pass near the pivot
    // row's true (short) reach instead of its roundoff fill.
    const double rho_cut = rho_max * 1e-7;
    for (int i : rho_.nz) {
      const double rv = rho_.values[static_cast<std::size_t>(i)];
      if (std::abs(rv) <= rho_cut) continue;
      for (const auto [col, v] : rows_.line(i)) alpha_.add(col, rv * v);
      // The logical of row i is a unit column: alpha contribution is rv.
      alpha_.add(static_cast<int>(n_) + i, rv);
    }
    for (int j : alpha_.nz) {
      const auto ju = static_cast<std::size_t>(j);
      if (status_[ju] == VarStatus::kBasic) continue;
      const double a = alpha_.values[ju];
      const double cand = a * a * scale;
      if (cand > devex_[ju]) devex_[ju] = cand;
    }
    alpha_.clear();
    devex_[static_cast<std::size_t>(leaving)] =
        std::max(wq / (alpha_q * alpha_q), 1.0);
  }

  struct Ratio {
    double t = kInf;
    int pos = -1;  ///< leaving basis position; -1 means bound flip
    bool to_upper = false;
  };

  /// Soft breakpoint in the long-step phase-1 ratio test: a violated basic
  /// reaching the bound it violates. Passing it adds `weight` (= |w_p|) to
  /// the infeasibility slope.
  struct Breakpoint {
    double cap;
    int pos;
    double weight;
    bool to_upper;
  };

  /// Bounded-variable (phase-2) ratio test. `dir` is +1 entering from
  /// lower, -1 from upper; w_ holds the FTRAN image of the entering column.
  Ratio ratio_test(int entering, double dir) const {
    const auto ent = static_cast<std::size_t>(entering);
    Ratio best;
    best.t = upper_[ent] - lower_[ent];  // bound-flip distance (may be inf)
    best.pos = -1;
    const double ftol = kFeasibilityTol;
    for (int p : w_.nz) {
      const double wv = w_.values[static_cast<std::size_t>(p)];
      if (std::abs(wv) <= ftol) continue;
      const double s = -dir * wv;  // d x_basic[p] / d t
      const auto col =
          static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)]);
      const double l = lower_[col];
      const double u = upper_[col];
      const double x = x_basic_[static_cast<std::size_t>(p)];
      double cap = kInf;
      bool to_upper = false;
      if (s < 0.0) {
        if (l == -kInf) continue;
        cap = (x - l) / (-s);
        to_upper = false;
      } else {
        if (u == kInf) continue;
        cap = (u - x) / s;
        to_upper = true;
      }
      if (cap < 0.0) cap = 0.0;
      bool take = false;
      if (cap < best.t - kRatioTieTol) {
        take = true;
      } else if (best.pos >= 0 && cap <= best.t + kRatioTieTol) {
        // Tie between two leaving candidates: prefer the larger pivot for
        // stability; under Bland, the lowest column index for termination.
        const double bw =
            std::abs(w_.values[static_cast<std::size_t>(best.pos)]);
        take = bland_ ? static_cast<int>(col) <
                            basis_[static_cast<std::size_t>(best.pos)]
                      : std::abs(wv) > bw;
      }
      if (take) {
        best.t = cap;
        best.pos = p;
        best.to_upper = to_upper;
      }
    }
    return best;
  }

  /// Long-step composite phase-1 ratio test. Feasible basics block hard at
  /// their bounds (no new violations are ever created), but a VIOLATED
  /// basic merely stops reducing the infeasibility once it reaches the
  /// bound it violates — the entering variable may travel past that
  /// breakpoint as long as the total infeasibility slope stays negative.
  /// One pivot can therefore repair many violated rows at once (e.g. a
  /// capacity-peak column covering every violated slot row of its DC).
  /// `d` is the phase-1 reduced cost of the entering column.
  Ratio ratio_test_phase1(int entering, double dir, double d) const {
    const auto ent = static_cast<std::size_t>(entering);
    const double ftol = kFeasibilityTol;

    double hard_cap = upper_[ent] - lower_[ent];  // bound flip (may be inf)
    int hard_pos = -1;
    bool hard_to_upper = false;
    breakpoints_.clear();
    for (int p : w_.nz) {
      const double wv = w_.values[static_cast<std::size_t>(p)];
      if (std::abs(wv) <= ftol) continue;
      const double s = -dir * wv;  // d x_basic[p] / d t
      const auto col =
          static_cast<std::size_t>(basis_[static_cast<std::size_t>(p)]);
      const double l = lower_[col];
      const double u = upper_[col];
      const double x = x_basic_[static_cast<std::size_t>(p)];
      double cap = kInf;
      bool to_upper = false;
      bool soft = false;
      if (x < l - ftol) {
        if (s <= 0.0) continue;  // drifting further below: no block
        cap = (l - x) / s;
        to_upper = false;
        // Fixed variables (l == u) re-violate immediately past the bound;
        // ranged ones travel on to their far bound, so the first touch is
        // only a slope change unless the range is degenerate.
        soft = u > l;
        if (u < kInf && soft) {
          // Far bound is a hard block further out; fold it in.
          const double far = (u - x) / s;
          if (far < hard_cap) {
            hard_cap = far;
            hard_pos = p;
            hard_to_upper = true;
          }
        }
      } else if (x > u + ftol) {
        if (s >= 0.0) continue;
        cap = (u - x) / s;  // s < 0, cap >= 0
        to_upper = true;
        soft = u > l;
        if (l > -kInf && soft) {
          const double far = (l - x) / s;
          if (far < hard_cap) {
            hard_cap = far;
            hard_pos = p;
            hard_to_upper = false;
          }
        }
      } else if (s < 0.0) {
        if (l == -kInf) continue;
        cap = (x - l) / (-s);
        to_upper = false;
      } else {
        if (u == kInf) continue;
        cap = (u - x) / s;
        to_upper = true;
      }
      if (cap < 0.0) cap = 0.0;
      if (soft) {
        breakpoints_.push_back({cap, p, std::abs(wv), to_upper});
      } else if (cap < hard_cap ||
                 (hard_pos >= 0 && cap <= hard_cap + kRatioTieTol &&
                  std::abs(wv) >
                      std::abs(w_.values[static_cast<std::size_t>(hard_pos)]))) {
        hard_cap = cap;
        hard_pos = p;
        hard_to_upper = to_upper;
      }
    }

    std::sort(breakpoints_.begin(), breakpoints_.end(),
              [](const Breakpoint& a, const Breakpoint& b) {
                return a.cap < b.cap;
              });
    // Walk the soft breakpoints while the infeasibility keeps decreasing.
    double slope = dir * d;  // < 0: rate of infeasibility change per unit t
    Ratio best;
    best.t = kInf;
    for (const Breakpoint& bp : breakpoints_) {
      if (bp.cap >= hard_cap) break;
      slope += bp.weight;
      if (slope >= -kOptimalityTol || bp.cap >= hard_cap) {
        best.t = bp.cap;
        best.pos = bp.pos;
        best.to_upper = bp.to_upper;
        return best;
      }
    }
    best.t = hard_cap;
    best.pos = hard_pos;
    best.to_upper = hard_to_upper;
    return best;
  }

  SolveStatus run_phase(bool phase1, std::size_t& iterations) {
    bland_ = false;
    candidates_.clear();
    reset_devex_framework(/*count=*/false);  // new reference framework
    std::size_t stalled = 0;
    double last_obj = phase1 ? infeasibility() : objective_value();
    const double ftol = kFeasibilityTol;
    // The duals (cb_) stay valid across bound flips — a flip changes no
    // basis column — so consecutive flips skip the BTRAN and share one
    // pricing state. Pivots and refactorizations invalidate them.
    bool duals_fresh = false;
    while (true) {
      if (iterations >= options_.max_iterations) {
        return SolveStatus::kIterationLimit;
      }
      if (basis_state_.update_count() >= options_.refactor_interval) {
        if (!refactorize()) {
          throw InternalError("sparse simplex: basis repair failed");
        }
        duals_fresh = false;
      }

      if (!duals_fresh) {
        // BTRAN the phase objective's basic costs into row space (cb_
        // doubles as the y workspace used by reduced_cost()).
        cb_.clear();
        for (std::size_t p = 0; p < m_; ++p) {
          double c;
          if (phase1) {
            const auto col = static_cast<std::size_t>(basis_[p]);
            const double x = x_basic_[p];
            c = x < lower_[col] - ftol ? -1.0
                                       : (x > upper_[col] + ftol ? 1.0 : 0.0);
          } else {
            c = cost_[static_cast<std::size_t>(basis_[p])];
          }
          if (c != 0.0) cb_.set(static_cast<int>(p), c);
        }
        basis_state_.btran(cb_);
        duals_fresh = true;
      }

      const int entering = price(phase1);
      if (entering < 0) {
        // Optimality (or phase-1 completion) is only declared against fresh
        // factors: eta-file drift in the duals can hide reduced costs at the
        // tie-break scale. Refactorize and price once more.
        if (basis_state_.update_count() > 0) {
          if (!refactorize()) {
            throw InternalError("sparse simplex: basis repair failed");
          }
          candidates_.clear();
          duals_fresh = false;
          continue;
        }
        return SolveStatus::kOptimal;
      }

      w_.clear();
      for (const auto [r, v] : columns_.line(entering)) w_.add(r, v);
      basis_state_.ftran(w_);

      const double dir =
          status_[static_cast<std::size_t>(entering)] == VarStatus::kAtUpper
              ? -1.0
              : 1.0;
      const Ratio ratio =
          phase1 ? ratio_test_phase1(entering, dir,
                                     reduced_cost(entering, /*phase1=*/true))
                 : ratio_test(entering, dir);
      if (ratio.t == kInf) {
        if (basis_state_.update_count() > 0) {
          // Stale duals from accumulated eta updates can nominate a column
          // with no blocking pivot; refresh the factorization and re-price.
          if (!refactorize()) {
            throw InternalError("sparse simplex: basis repair failed");
          }
          candidates_.clear();
          duals_fresh = false;
          continue;
        }
        if (phase1) {
          double wmax = 0.0;
          for (int p : w_.nz) {
            wmax = std::max(
                wmax, std::abs(w_.values[static_cast<std::size_t>(p)]));
          }
          throw InternalError(
              "sparse simplex: phase-1 unbounded (col=" +
              std::to_string(entering) +
              " d=" + std::to_string(reduced_cost(entering, phase1)) +
              " wmax=" + std::to_string(wmax) +
              " iter=" + std::to_string(iterations) +
              " infeas=" + std::to_string(infeasibility()) + ")");
        }
        return SolveStatus::kUnbounded;
      }

      if (ratio.pos < 0) {
        // Bound flip: the entering variable crosses its whole range without
        // any basic variable blocking; no basis change — and therefore no
        // dual change in phase 2, so the next iteration reuses cb_ and the
        // candidate list instead of paying a BTRAN + pricing pass per flip.
        const auto ent = static_cast<std::size_t>(entering);
        for (int p : w_.nz) {
          x_basic_[static_cast<std::size_t>(p)] -=
              dir * ratio.t * w_.values[static_cast<std::size_t>(p)];
        }
        const double old_v = nonbasic_value(entering);
        status_[ent] = status_[ent] == VarStatus::kAtLower
                           ? VarStatus::kAtUpper
                           : VarStatus::kAtLower;
        nb_cost_ += cost_[ent] * (nonbasic_value(entering) - old_v);
        ++bound_flips_;
        // Phase-1 costs depend on which basics are violated, and the flip
        // just moved every basic in the entering column's pattern — only
        // phase 2's duals survive.
        if (phase1) duals_fresh = false;
      } else {
        // Devex needs the pre-pivot basis for the pivot-row btran, so the
        // weights are updated before the eta is appended.
        update_devex(entering, basis_[static_cast<std::size_t>(ratio.pos)],
                     ratio.pos, devex_exact_weight(entering));
        // Pivot: append the update eta first — on a numerically unsafe
        // pivot, refactorize and retry the iteration with fresh factors.
        if (!basis_state_.update(ratio.pos, w_)) {
          if (!refactorize()) {
            throw InternalError("sparse simplex: basis repair failed");
          }
          candidates_.clear();
          duals_fresh = false;
          continue;
        }
        const auto ent = static_cast<std::size_t>(entering);
        const auto lpos = static_cast<std::size_t>(ratio.pos);
        const int leaving = basis_[lpos];
        const auto lea = static_cast<std::size_t>(leaving);
        for (int p : w_.nz) {
          x_basic_[static_cast<std::size_t>(p)] -=
              dir * ratio.t * w_.values[static_cast<std::size_t>(p)];
        }
        nb_cost_ -= cost_[ent] * nonbasic_value(entering);
        status_[lea] =
            ratio.to_upper ? VarStatus::kAtUpper : VarStatus::kAtLower;
        pos_of_[lea] = -1;
        nb_cost_ += cost_[lea] * nonbasic_value(leaving);
        basis_[lpos] = entering;
        pos_of_[ent] = ratio.pos;
        status_[ent] = VarStatus::kBasic;
        x_basic_[lpos] = dir > 0.0 ? lower_[ent] + ratio.t
                                   : upper_[ent] - ratio.t;
        duals_fresh = false;
      }
      ++iterations;

      const double obj = phase1 ? infeasibility() : objective_value();
      if (obj < last_obj - kStallRelTol * (1.0 + std::abs(last_obj))) {
        stalled = 0;
        last_obj = obj;
        if (bland_) {
          // Degenerate plateau broken: return to partial pricing. Bland's
          // rule guarantees escape but converges far too slowly to keep
          // beyond the plateau that triggered it.
          bland_ = false;
          candidates_.clear();
        }
      } else if (++stalled >= options_.stall_limit && !bland_) {
        bland_ = true;
        candidates_.clear();
      }
    }
  }

  double nb_cost_ = 0.0;  ///< objective contribution of nonbasic variables

  std::vector<int> candidates_;  ///< partial-pricing list
  std::vector<double> devex_;    ///< Devex reference weights per column
  std::vector<unsigned char> in_ref_;  ///< Devex reference-set membership
  std::size_t cursor_ = 0;
  std::size_t pricing_passes_ = 0;
  std::size_t bound_flips_ = 0;
  std::size_t devex_resets_ = 0;
  bool devex_drift_pending_ = false;
  bool bland_ = false;

  mutable std::vector<Breakpoint> breakpoints_;  ///< phase-1 workspace
};

}  // namespace

SfSolution solve_sparse(const StandardForm& sf, const SimplexOptions& options,
                        const std::vector<VarStatus>* warm,
                        SparseSolveStats* stats) {
  const std::size_t n = sf.var_count();
  if (sf.rows.empty()) {
    // No constraints: each variable independently sits at whichever bound
    // minimizes its cost term.
    SfSolution out;
    out.status = SolveStatus::kOptimal;
    out.values.assign(n, 0.0);
    out.statuses.assign(n, VarStatus::kAtLower);
    for (std::size_t j = 0; j < n; ++j) {
      if (sf.cost[j] < 0.0) {
        if (sf.upper[j] == kInf) {
          out.status = SolveStatus::kUnbounded;
          return out;
        }
        out.values[j] = sf.upper[j];
        out.statuses[j] = VarStatus::kAtUpper;
      }
    }
    return out;
  }
  SparseSimplex engine(sf, options);
  return engine.run(warm, stats);
}

}  // namespace sb::lp
