#include "lp/block_decompose.h"

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <numeric>
#include <vector>

#include "lp/dual_simplex.h"
#include "lp/revised_simplex.h"
#include "obs/span.h"

namespace sb::lp {
namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Initial master size: the few busiest blocks pin the coupling columns in
/// the provisioning shapes, so a handful is usually enough and keeps the
/// master LP small. Blocks the relaxation missed join via the
/// constraint-generation loop, capped at kMaxMasterRounds before the pass
/// degrades to a cold clean-up.
constexpr std::size_t kMasterSeedBlocks = 4;
constexpr std::size_t kMaxMasterRounds = 6;

/// Union-find over row ids, path-halving.
class RowSets {
 public:
  explicit RowSets(std::size_t n) : parent_(n) {
    std::iota(parent_.begin(), parent_.end(), 0);
  }
  int find(int x) {
    while (parent_[static_cast<std::size_t>(x)] != x) {
      auto& p = parent_[static_cast<std::size_t>(x)];
      p = parent_[static_cast<std::size_t>(p)];
      x = p;
    }
    return x;
  }
  void unite(int a, int b) {
    a = find(a);
    b = find(b);
    if (a != b) parent_[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
  }

 private:
  std::vector<int> parent_;
};

/// Cached block sub-form: the matrix never changes between rounds — only
/// the rhs does (the master's coupling values move) — so the form is built
/// once and later rounds rewrite rhs[i] = base_rhs[i] - coupling_terms[i]
/// dotted with the current coupling values.
struct SubForm {
  StandardForm form;
  std::vector<double> base_rhs;               ///< parent rhs per sub row
  std::vector<std::vector<Term>> coupling_terms;  ///< parent var ids
};

}  // namespace

BlockPlan detect_blocks(const StandardForm& sf) {
  BlockPlan plan;
  const std::size_t n = sf.var_count();
  const std::size_t m = sf.rows.size();
  plan.row_block.assign(m, -1);
  plan.col_block.assign(n, -1);
  if (n == 0 || m == 0) return plan;

  // Column degrees, then the degree threshold separating coupling columns
  // from block-local ones. Block-local columns cluster tightly around the
  // median degree (2 in the provisioning shapes: one completeness and one
  // capacity row), while a coupling column touches a row per block.
  std::vector<std::size_t> degree(n, 0);
  for (const StandardRow& row : sf.rows) {
    for (const Term& t : row.terms) ++degree[static_cast<std::size_t>(t.var)];
  }
  std::vector<std::size_t> sorted = degree;
  std::sort(sorted.begin(), sorted.end());
  const std::size_t median = sorted[sorted.size() / 2];
  const std::size_t cutoff = std::max<std::size_t>(3 * median, 4);
  std::vector<unsigned char> coupling(n, 0);
  for (std::size_t j = 0; j < n; ++j) {
    if (degree[j] > cutoff) {
      coupling[j] = 1;
      ++plan.coupling_cols;
    }
  }
  if (plan.coupling_cols == n) return plan;  // degenerate: nothing local

  // Rows connected through a shared local column belong to one block.
  RowSets sets(m);
  std::vector<int> first_row(n, -1);
  for (std::size_t r = 0; r < m; ++r) {
    for (const Term& t : sf.rows[r].terms) {
      const auto v = static_cast<std::size_t>(t.var);
      if (coupling[v]) continue;
      if (first_row[v] < 0) {
        first_row[v] = static_cast<int>(r);
      } else {
        sets.unite(first_row[v], static_cast<int>(r));
      }
    }
  }

  // Number the components in first-row order (deterministic), skipping rows
  // with no local column — those stay out of every subproblem and are
  // enforced only by the clean-up solve.
  std::vector<int> block_of_root(m, -1);
  for (std::size_t r = 0; r < m; ++r) {
    const bool has_local = std::any_of(
        sf.rows[r].terms.begin(), sf.rows[r].terms.end(), [&](const Term& t) {
          return !coupling[static_cast<std::size_t>(t.var)];
        });
    if (!has_local) continue;
    const int root = sets.find(static_cast<int>(r));
    auto& id = block_of_root[static_cast<std::size_t>(root)];
    if (id < 0) id = static_cast<int>(plan.block_count++);
    plan.row_block[r] = id;
  }
  for (std::size_t j = 0; j < n; ++j) {
    if (coupling[j] || first_row[j] < 0) continue;
    plan.col_block[j] =
        plan.row_block[static_cast<std::size_t>(first_row[j])];
  }
  return plan;
}

SfSolution solve_decomposed(const StandardForm& sf,
                            const SimplexOptions& options,
                            const BlockPlan& plan, DecomposeStats* stats) {
  obs::Span span("lp.decompose", obs::Subsystem::kLp);
  const std::size_t n = sf.var_count();
  const std::size_t m = sf.rows.size();
  DecomposeStats local_stats;
  DecomposeStats& st = stats != nullptr ? *stats : local_stats;
  st.blocks = plan.block_count;

  // Group rows (and columns) by block. Row ids stay ascending within each
  // block.
  const auto detect_start = Clock::now();
  std::vector<std::vector<int>> block_rows(plan.block_count);
  for (std::size_t r = 0; r < m; ++r) {
    if (plan.row_block[r] >= 0) {
      block_rows[static_cast<std::size_t>(plan.row_block[r])].push_back(
          static_cast<int>(r));
    }
  }
  std::vector<std::vector<int>> block_cols(plan.block_count);
  // Position of each block-local column within its block's column list —
  // ONE shared parent→sub map for every block sub-LP, instead of an n-sized
  // map per block (at planet scale n is millions and there are hundreds of
  // blocks; per-block dense maps would cost gigabytes).
  std::vector<int> col_local(n, -1);
  for (std::size_t j = 0; j < n; ++j) {
    if (plan.col_block[j] >= 0) {
      auto& cols = block_cols[static_cast<std::size_t>(plan.col_block[j])];
      col_local[j] = static_cast<int>(cols.size());
      cols.push_back(static_cast<int>(j));
    }
  }

  // Seed the master with the blocks carrying the most demand (largest total
  // |rhs|): in the provisioning shapes those are the busy slots whose peaks
  // pin the coupling columns, i.e. the constraints the relaxation must not
  // drop. Ties break toward the lower block id, keeping the choice
  // deterministic.
  std::vector<double> score(plan.block_count, 0.0);
  for (std::size_t b = 0; b < plan.block_count; ++b) {
    for (int r : block_rows[b]) {
      score[b] += std::abs(sf.rows[static_cast<std::size_t>(r)].rhs);
    }
  }
  std::vector<std::size_t> order(plan.block_count);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return score[a] != score[b] ? score[a] > score[b] : a < b;
  });
  std::vector<unsigned char> in_master(plan.block_count, 0);
  for (std::size_t i = 0;
       i < std::min<std::size_t>(plan.block_count, kMasterSeedBlocks); ++i) {
    in_master[order[i]] = 1;
  }
  st.detect_seconds = seconds_since(detect_start);

  // Constraint generation over blocks. Each round solves the master — the
  // parent restricted to the master blocks' rows, coupling columns included
  // at their real costs — then re-solves every other block with the
  // coupling columns fixed at the master's values. Blocks that are
  // infeasible at those values are binding constraints the relaxation
  // missed; they join the master and the loop repeats. On success the
  // master's coupling choice is optimal for a relaxation AND feasible for
  // every block, so the stitched point is optimal up to the non-master
  // blocks' (tiny) placement-cost influence on the coupling columns.
  const auto sub_start = Clock::now();
  std::vector<double> coupling_value(n, 0.0);
  std::vector<SfSolution> refined(plan.block_count);
  SfSolution master_sol;
  std::vector<int> master_map;
  std::vector<int> master_rows;
  bool stitch_ok = false;

  // Block sub-LP with the coupling columns substituted into the rhs. Sub
  // column ids come from the shared col_local map; every one of the
  // block's columns appears in some block row (that is what put it in the
  // block), so the sub form has no dead columns. The form is cached across
  // rounds (only the rhs moves — see SubForm).
  //
  // After the first round only the substituted rhs moves (the master's
  // coupling values shifted) — a bound perturbation on the block's optimal
  // basis, so the re-refine warm-starts the dual simplex from the previous
  // round's statuses instead of paying a cold two-phase primal per block
  // per round.
  std::vector<SubForm> sub_forms(plan.block_count);
  const auto refine_block = [&](std::size_t b) {
    SubForm& cached = sub_forms[b];
    if (cached.form.rows.empty()) {
      StandardForm& sub = cached.form;
      sub.cost.reserve(block_cols[b].size());
      sub.upper.reserve(block_cols[b].size());
      for (int j : block_cols[b]) {
        sub.cost.push_back(sf.cost[static_cast<std::size_t>(j)]);
        sub.upper.push_back(sf.upper[static_cast<std::size_t>(j)]);
      }
      sub.rows.reserve(block_rows[b].size());
      cached.base_rhs.reserve(block_rows[b].size());
      cached.coupling_terms.resize(block_rows[b].size());
      for (std::size_t i = 0; i < block_rows[b].size(); ++i) {
        const StandardRow& row =
            sf.rows[static_cast<std::size_t>(block_rows[b][i])];
        StandardRow sr;
        sr.sense = row.sense;
        sr.rhs = row.rhs;
        cached.base_rhs.push_back(row.rhs);
        for (const Term& t : row.terms) {
          const auto v = static_cast<std::size_t>(t.var);
          if (plan.col_block[v] < 0) {
            cached.coupling_terms[i].push_back(t);
            continue;
          }
          sr.terms.push_back(Term{col_local[v], t.coeff});
        }
        sub.rows.push_back(std::move(sr));
      }
    }
    StandardForm& sub = cached.form;
    for (std::size_t i = 0; i < sub.rows.size(); ++i) {
      double rhs = cached.base_rhs[i];
      for (const Term& t : cached.coupling_terms[i]) {
        rhs -= t.coeff * coupling_value[static_cast<std::size_t>(t.var)];
      }
      sub.rows[i].rhs = rhs;
    }
    const SfSolution& prev = refined[b];
    if (prev.status == SolveStatus::kOptimal &&
        prev.statuses.size() == sub.var_count() + sub.rows.size()) {
      SfSolution out = solve_dual(sub, options, &prev.statuses);
      finish_on_primal(sub, options, out);
      return out;
    }
    return solve_sparse(sub, options);
  };
  // Previous round's master basis, for warm-starting the next round's
  // master after it grows: surviving columns and rows keep their statuses,
  // new blocks' columns start at their lower bound, and new rows' logicals
  // start basic (keeping the extended basis square). The old block part of
  // the basis is already optimal, so the warm solve only has to price the
  // newly joined blocks instead of re-crawling the whole master cold.
  std::vector<int> prev_master_map;
  std::vector<int> prev_row_pos(m, -1);
  std::vector<VarStatus> prev_statuses;
  std::size_t prev_n = 0;
  for (std::size_t round = 0; round < kMaxMasterRounds; ++round) {
    // One span per round, nested under lp.decompose: the master's size, the
    // blocks refined against it, how many of them join the next master, and
    // the round's iterations (master plus refines). A growing master shows
    // here round by round.
    obs::Span round_span("lp.decompose.round", obs::Subsystem::kLp);
    master_rows.clear();
    for (std::size_t r = 0; r < m; ++r) {
      const int b = plan.row_block[r];
      if (b >= 0 && in_master[static_cast<std::size_t>(b)]) {
        master_rows.push_back(static_cast<int>(r));
      }
    }
    const StandardForm master_sub =
        extract_row_subform(sf, master_rows, master_map);
    std::vector<VarStatus> master_warm;
    const std::vector<VarStatus>* master_warm_ptr = nullptr;
    if (!prev_statuses.empty()) {
      master_warm.assign(master_sub.var_count() + master_rows.size(),
                         VarStatus::kAtLower);
      for (std::size_t j = 0; j < n; ++j) {
        if (master_map[j] < 0 || prev_master_map[j] < 0) continue;
        master_warm[static_cast<std::size_t>(master_map[j])] =
            prev_statuses[static_cast<std::size_t>(prev_master_map[j])];
      }
      for (std::size_t i = 0; i < master_rows.size(); ++i) {
        const int pr = prev_row_pos[static_cast<std::size_t>(master_rows[i])];
        master_warm[master_sub.var_count() + i] =
            pr >= 0 ? prev_statuses[prev_n + static_cast<std::size_t>(pr)]
                    : VarStatus::kBasic;
      }
      // A block that joined THIS round seeds its slice from its own
      // phase-1 end basis (the infeasible refine's statuses) instead of
      // the all-logical default above: the master then only has to repair
      // the block's coupling shortfall, not re-solve it from scratch
      // inside the much bigger LP.
      std::vector<int> cur_row_pos(m, -1);
      for (std::size_t i = 0; i < master_rows.size(); ++i) {
        cur_row_pos[static_cast<std::size_t>(master_rows[i])] =
            static_cast<int>(i);
      }
      for (std::size_t b = 0; b < plan.block_count; ++b) {
        if (!in_master[b] || block_rows[b].empty()) continue;
        if (prev_row_pos[static_cast<std::size_t>(block_rows[b][0])] >= 0) {
          continue;  // already in the previous master; prev_statuses covers it
        }
        const std::vector<VarStatus>& sub_status = refined[b].statuses;
        const std::size_t sub_nb = block_cols[b].size();
        if (sub_status.size() != sub_nb + block_rows[b].size()) continue;
        for (std::size_t k = 0; k < sub_nb; ++k) {
          const int j = block_cols[b][k];
          if (master_map[static_cast<std::size_t>(j)] >= 0) {
            master_warm[static_cast<std::size_t>(
                master_map[static_cast<std::size_t>(j)])] = sub_status[k];
          }
        }
        for (std::size_t k = 0; k < block_rows[b].size(); ++k) {
          const int pos =
              cur_row_pos[static_cast<std::size_t>(block_rows[b][k])];
          master_warm[master_sub.var_count() + static_cast<std::size_t>(pos)] =
              sub_status[sub_nb + k];
        }
      }
      master_warm_ptr = &master_warm;
    }
    master_sol = solve_sparse(master_sub, options, master_warm_ptr, nullptr);
    st.sub_iterations += master_sol.iterations;
    round_span.attr(obs::AttrKey::kRows,
                    static_cast<std::int64_t>(master_rows.size()));
    round_span.attr(obs::AttrKey::kCols,
                    static_cast<std::int64_t>(master_sub.var_count()));
    if (master_sol.status != SolveStatus::kOptimal) {
      round_span.attr(obs::AttrKey::kIterations,
                      static_cast<std::int64_t>(master_sol.iterations));
      if (master_sol.status == SolveStatus::kInfeasible) {
        // The master is the parent restricted to a row subset: no completion
        // of ANY assignment can satisfy these rows, so the parent is
        // infeasible too.
        SfSolution out;
        out.status = SolveStatus::kInfeasible;
        span.attr(obs::AttrKey::kStatus, -1);
        st.sub_seconds = seconds_since(sub_start);
        return out;
      }
      break;  // cold clean-up
    }
    prev_statuses = master_sol.statuses;
    prev_master_map = master_map;
    prev_n = master_sub.var_count();
    std::fill(prev_row_pos.begin(), prev_row_pos.end(), -1);
    for (std::size_t i = 0; i < master_rows.size(); ++i) {
      prev_row_pos[static_cast<std::size_t>(master_rows[i])] =
          static_cast<int>(i);
    }
    for (std::size_t j = 0; j < n; ++j) {
      if (plan.col_block[j] < 0) {
        coupling_value[j] =
            master_map[j] >= 0
                ? master_sol.values[static_cast<std::size_t>(master_map[j])]
                : 0.0;
      }
    }

    std::vector<std::size_t> work;
    for (std::size_t b = 0; b < plan.block_count; ++b) {
      if (!in_master[b]) work.push_back(b);
    }
    for (std::size_t b : work) refined[b] = refine_block(b);

    bool failed = false;
    std::size_t joined = 0;
    std::size_t round_iters = master_sol.iterations;
    for (std::size_t b : work) {
      st.sub_iterations += refined[b].iterations;
      round_iters += refined[b].iterations;
      const SolveStatus s = refined[b].status;
      if (s == SolveStatus::kInfeasible) {
        // Infeasible at the master's coupling values — a binding block, NOT
        // proof of parent infeasibility (the substitution added bounds).
        in_master[b] = 1;
        ++joined;
      } else if (s != SolveStatus::kOptimal) {
        failed = true;
      }
    }
    round_span.attr(obs::AttrKey::kBlocks,
                    static_cast<std::int64_t>(work.size()));
    round_span.attr(obs::AttrKey::kJoined, static_cast<std::int64_t>(joined));
    round_span.attr(obs::AttrKey::kIterations,
                    static_cast<std::int64_t>(round_iters));
    if (failed) break;  // degrade to a cold clean-up
    if (joined == 0) {
      stitch_ok = true;
      break;
    }
  }
  st.sub_seconds = seconds_since(sub_start);

  // Stitch a crash basis. The master contributes its own square basis
  // (locals, coupling columns, and its rows' logicals); every other block
  // contributes EXACTLY its square sub-basis — basic locals plus basic
  // logicals, one proposed basic per parent row in total, so the crash
  // factorization accepts the stitch as-is instead of demoting an
  // oversubscribed tail. Coupling columns outside the master stay at their
  // (zero) lower bound.
  const auto cleanup_start = Clock::now();
  std::vector<VarStatus> warm;
  if (stitch_ok) {
    warm.assign(n + m, VarStatus::kAtLower);
    const std::size_t master_n = master_sol.values.size();
    for (std::size_t j = 0; j < n; ++j) {
      if (master_map[j] >= 0) {
        warm[j] = master_sol.statuses[static_cast<std::size_t>(master_map[j])];
      }
    }
    for (std::size_t i = 0; i < master_rows.size(); ++i) {
      warm[n + static_cast<std::size_t>(master_rows[i])] =
          master_sol.statuses[master_n + i];
    }
    for (std::size_t b = 0; b < plan.block_count; ++b) {
      if (in_master[b]) continue;
      const std::vector<VarStatus>& sub_status = refined[b].statuses;
      const std::size_t sub_n = refined[b].values.size();
      for (int j : block_cols[b]) {
        const auto ju = static_cast<std::size_t>(j);
        warm[ju] = sub_status[static_cast<std::size_t>(col_local[ju])];
      }
      for (std::size_t i = 0; i < block_rows[b].size(); ++i) {
        warm[n + static_cast<std::size_t>(block_rows[b][i])] =
            sub_status[sub_n + i];
      }
    }
    for (std::size_t r = 0; r < m; ++r) {
      if (plan.row_block[r] < 0) warm[n + r] = VarStatus::kBasic;
    }
  }

  // Clean-up: the stitched basis is primal feasible and optimal per block;
  // only the coupling columns' fine placement (the non-master blocks' tiny
  // placement costs pulling on the relaxation's choice) remains, which
  // shows up as a handful of mispriced columns — the dual simplex's home
  // turf. It hands any start it cannot finish to the primal engine
  // (finish_on_primal). Without a stitch the clean-up is the plain sparse
  // path, cold.
  SfSolution out;
  if (stitch_ok) {
    out = solve_dual(sf, options, &warm);
    finish_on_primal(sf, options, out);
  } else {
    st.sub_solve_failed = true;
    out = solve_sparse(sf, options);
  }
  st.cleanup_iterations = out.iterations;
  st.cleanup_seconds = seconds_since(cleanup_start);
  out.iterations = st.sub_iterations + st.cleanup_iterations;

  span.attr(obs::AttrKey::kIterations,
            static_cast<std::int64_t>(out.iterations));
  span.attr(obs::AttrKey::kRows, static_cast<std::int64_t>(m));
  span.attr(obs::AttrKey::kStatus,
            out.status == SolveStatus::kOptimal ? 0 : -1);
  return out;
}

}  // namespace sb::lp
