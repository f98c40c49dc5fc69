// The daily MP allocation plan (§5.3 "Allocation plan"): with capacities
// fixed at the provisioned values, a second LP minimizes total ACL (Eq 10)
// and emits, per time slot and call config, how many calls each DC should
// host. The fractional optimum is rounded to integral per-DC "slots" that
// the realtime selector debits as calls arrive (§5.4b).
//
// No Eq 10 column spans two slots (capacity rows are per slot and DC or
// link, completeness rows per slot and config), so the plan is solved as
// one small LP per slot.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "calls/demand.h"
#include "core/capacity_plan.h"
#include "core/placement.h"
#include "lp/solver.h"

namespace sb {

struct AllocationOptions {
  lp::SolveOptions lp_options;
};

/// The plan consumed by the realtime selector. Slot quotas are integral:
/// quota(t, c, x) concurrent calls of config column c may sit at DC x
/// during slot t.
class AllocationPlan {
 public:
  AllocationPlan(std::size_t slot_count, std::size_t config_count,
                 std::size_t dc_count, double slot_s);

  [[nodiscard]] std::uint32_t quota(TimeSlot t, std::size_t config_col,
                                    DcId dc) const;
  void set_quota(TimeSlot t, std::size_t config_col, DcId dc,
                 std::uint32_t calls);

  /// Maps a simulation time (seconds from the plan's start) to a slot,
  /// clamping beyond-horizon times to the last slot.
  [[nodiscard]] TimeSlot slot_at(SimTime offset_s) const;

  [[nodiscard]] std::size_t slot_count() const { return slots_; }
  [[nodiscard]] std::size_t config_count() const { return configs_; }
  [[nodiscard]] std::size_t dc_count() const { return dcs_; }
  [[nodiscard]] double slot_seconds() const { return slot_s_; }

  /// The config interned at each column (copied from the demand matrix the
  /// plan was built against).
  std::vector<ConfigId> config_columns;
  /// Call-weighted mean ACL of the fractional optimum.
  double mean_acl_ms = 0.0;
  /// The fractional LP optimum (kept for evaluation/benches).
  PlacementMatrix fractional;
  /// Eq 10's optimum per slot: that slot's latency-weighted placement.
  std::vector<double> slot_objective;
  /// Simplex iterations summed over the slot LPs.
  std::size_t lp_iterations = 0;

  /// Column index of `config` in this plan, or npos if unplanned.
  [[nodiscard]] std::size_t column_of(ConfigId config) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Builds the dense ConfigId -> column index behind column_of(). Call
  /// after filling config_columns; column_of falls back to a linear scan
  /// when the index was never built (hand-assembled plans in tests).
  void build_column_index();

 private:
  std::size_t slots_;
  std::size_t configs_;
  std::size_t dcs_;
  double slot_s_;
  std::vector<std::uint32_t> quotas_;
  /// Dense ConfigId.value() -> column, npos-filled; empty until
  /// build_column_index() runs.
  std::vector<std::size_t> col_index_;
};

/// One slot's Eq 10 LP as AllocationPlanner::plan built it, retained in a
/// PlanLpHint so a later plan of the same slot at new capacities and demand
/// skips the build: it rewrites the capacity and completeness rows' rhs
/// (lp::RetainedLp::set_rhs) and re-solves in place from its own final
/// basis through the dual simplex (lp::RetainedLp::resolve).
struct SlotLp {
  /// Reuse key: everything that shapes the slot's model. A retained model
  /// is reused only when the new plan's key for the slot is equal.
  struct Key {
    EvalContext ctx;
    std::vector<ConfigId> configs;  ///< demand columns
    /// demand(t, c) > 0 per column c of this slot: S columns and
    /// completeness rows exist only there.
    std::vector<bool> positive;
    friend bool operator==(const Key&, const Key&) = default;
  };
  Key key;
  lp::RetainedLp model;
  /// Semantic key per constraint row: 'C' = DC capacity (DC index), 'L' =
  /// link capacity (link index), 'E' = completeness (config column).
  std::vector<std::pair<char, std::size_t>> row_keys;
};

/// plan()'s warm state: the retained LP of every slot. A plan given a hint
/// re-solves slot t in place from entry t when its key is equal, builds and
/// solves that slot cold otherwise, and leaves every slot's LP in the hint.
/// The closed loop owns one and threads it through every replan's
/// install_plan; a plan without a hint keeps nothing. A hint belongs to the
/// planner context that produced it. Copies own their own models
/// (lp::RetainedLp's copy rules), so copies never share mutable state.
struct PlanLpHint {
  std::vector<std::optional<SlotLp>> slots;
};

/// Builds allocation plans. Context members must outlive the planner.
class AllocationPlanner {
 public:
  AllocationPlanner(EvalContext ctx, AllocationOptions options);

  /// Solves Eq 10 under the given capacities, one LP per slot, and rounds
  /// to integral slots. Throws SolveError naming the first slot whose
  /// demand does not fit the capacities (which cannot happen when
  /// `capacity` came from provisioning the same demand); a hint then drops
  /// that slot's LP, and keeps the others. `hint` (optional) is read and
  /// written in place: see PlanLpHint.
  [[nodiscard]] AllocationPlan plan(const DemandMatrix& demand,
                                    const CapacityPlan& capacity,
                                    double slot_s,
                                    PlanLpHint* hint = nullptr) const;

 private:
  EvalContext ctx_;
  AllocationOptions options_;
};

}  // namespace sb
