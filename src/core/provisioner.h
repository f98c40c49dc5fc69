// Switchboard's MP capacity provisioning (§5.3): a joint compute+network LP
// per failure scenario (Eq 3-9) whose per-resource maxima across scenarios
// (Eq 7/8) become the provisioned capacity. All three of the paper's ideas
// live here:
//  - peak-aware provisioning: one CP_x / NP_l peak variable spans all time
//    slots, so time-shifted demand shares capacity (§4.1) and each failure
//    scenario's LP can reuse another DC's off-peak slack as backup (§4.2);
//  - joint compute+network provisioning: Eq 3 prices both resources in one
//    objective (§4.3);
//  - application-specific provisioning: the input is a per-call-config
//    demand matrix, not resource usage logs (§4.4).
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "calls/demand.h"
#include "core/capacity_plan.h"
#include "core/failure.h"
#include "core/placement.h"
#include "lp/solver.h"

namespace sb {

struct ProvisionOptions {
  double acl_threshold_ms = kDefaultAclThresholdMs;
  /// Provision backup capacity for failure scenarios (Table 3's "with
  /// backup" columns). When false only F0 is solved.
  bool with_backup = true;
  /// Include single-WAN-link failures in the scenario set.
  bool include_link_failures = true;
  /// §4.3 ablation: when false, the scenario LPs price only compute; network
  /// capacity is derived afterwards from the resulting placement.
  bool joint_network = true;
  /// §4.1/4.2 ablation: when false, backup is provisioned additively with
  /// the Eq 1-2 LP on top of the no-failure plan (Fig 4b's default plan)
  /// instead of reusing off-peak serving slack.
  bool peak_aware_backup = true;
  /// Eq 7/8 make capacity SHARED across failure scenarios: what one
  /// scenario provisions is free for every other. When true (default),
  /// scenarios are solved sequentially and each LP only pays for capacity
  /// above the running combined plan — the tractable decomposition of that
  /// coupling. When false, every scenario is priced from scratch
  /// (independent LPs + max), which over-provisions; kept as an ablation.
  bool capacity_reuse = true;
  /// Solve Eq 3 + 7/8 EXACTLY: one LP spanning the no-failure case and all
  /// DC-failure scenarios with shared CP_x/NP_l variables (each scenario
  /// gets its own placement). Avoids the sequential decomposition's myopia
  /// (F0 packing away the slack failures would have reused) at the price of
  /// a scenario-count-times-larger LP. Link-failure scenarios are still
  /// handled sequentially with capacity floors on top.
  bool joint_scenarios = false;
  /// Weight of the latency tie-break added to every S_tcx cost so equal-cost
  /// placements prefer lower ACL. Kept small so it never outweighs a real
  /// resource trade-off.
  double acl_epsilon = 1e-6;
  /// How failure scenarios see capacity provisioned by other scenarios
  /// (only meaningful with capacity_reuse):
  ///  - kChained: each scenario floors on the RUNNING combined plan, so
  ///    later scenarios reuse what earlier ones bought. Order-dependent;
  ///    forces sequential solves. The historical default.
  ///  - kFromBase: every failure scenario floors on the F0 (no-failure)
  ///    requirement only. Order-independent — scenario solves commute, so
  ///    they can fan out over a thread pool and still produce bit-identical
  ///    plans to a sequential run; may buy slightly more backup than
  ///    kChained when two failures need capacity in the same place.
  enum class FloorMode { kChained, kFromBase };
  FloorMode floor_mode = FloorMode::kChained;
  /// Failure-scenario solve parallelism. >1 fans the per-scenario LPs over
  /// a ThreadPool when the scenarios are independent (floor_mode ==
  /// kFromBase, or capacity_reuse off); chained floors are inherently
  /// sequential and ignore this. 0 means hardware concurrency. A cold solve
  /// that runs alone (F0, and every chained scenario) also borrows this as
  /// its lp::SolveOptions::decompose_threads (unless one was set
  /// explicitly), since the fan-out pool is idle meanwhile; scenario solves
  /// running ON the fan-out pool decompose sequentially.
  std::size_t scenario_threads = 1;
  /// Base LP engine knobs. solve_scenario adds dual_resolve on its own
  /// when it re-solves a retained model (see ScenarioLp); every other solve
  /// takes these as given.
  lp::SolveOptions lp_options;
};

/// One scenario LP as solve_scenario built it, retained in a
/// ScenarioWarmStart so a later solve of the same scenario at new right-hand
/// sides skips the build: it rewrites the completeness rows to the new
/// demand and the capacity rows to the new floors (lp::Model::set_rhs) and
/// re-solves from the retained basis through the dual simplex.
struct ScenarioLp {
  /// Reuse key: everything that shapes the model. A retained model is
  /// reused only when the new solve's key is equal; otherwise it is rebuilt.
  struct Key {
    EvalContext ctx;
    FailureScenario::Type type = FailureScenario::Type::kNone;
    DcId dc;      ///< the failed DC of a kDc scenario
    LinkId link;  ///< the failed link of a kLink scenario
    std::vector<ConfigId> configs;  ///< demand columns
    std::size_t slots = 0;
    /// demand(t, c) > 0 at t * configs + c: S columns and completeness rows
    /// exist only there.
    std::vector<bool> positive;
    bool floored = false;  ///< capacity rows carry floors
    bool joint_network = true;
    double acl_threshold_ms = 0.0;
    double acl_epsilon = 0.0;
    friend bool operator==(const Key&, const Key&) = default;
  };
  Key key;
  lp::Model model;
  /// Semantic key per LP column, (kind, flat index): 'c' = CP per DC, 'n' =
  /// NP per link, 's' = S per (slot, config, DC) at (t * configs + c) *
  /// dc_count + dc.
  std::vector<std::pair<char, std::size_t>> var_keys;
  /// Semantic key per constraint row: 'C' = DC capacity per (slot, DC) at
  /// t * dc_count + dc, 'L' = link capacity per (slot, link) at t *
  /// link_count + link, 'E' = completeness per (slot, config) at t *
  /// configs + c. These are the rows whose rhs a re-solve rewrites.
  std::vector<std::pair<char, std::size_t>> row_keys;
};

/// Warm state of one scenario solve: its final basis keyed by SEMANTIC
/// identity — CP per DC, NP per link, S per (slot, config, DC) — rather than
/// LP column index, so a structurally different scenario (a failed DC drops
/// its CP column and candidate placements) can still warm-start from it,
/// plus the LP it was solved on. Produced and consumed by
/// SwitchboardProvisioner::solve_scenario:
///  - the same scenario at the same structure (equal ScenarioLp::Key) reuses
///    the retained model and re-solves through the dual simplex: only
///    right-hand sides moved, so the old basis stays dual feasible;
///  - anything else (another scenario's state, a changed demand pattern)
///    builds a fresh model and maps the basis onto it for the primal engine.
/// A copy owns its own model; copies never share mutable state.
struct ScenarioWarmStart {
  std::vector<lp::VarStatus> cp;  ///< per DC id
  std::vector<lp::VarStatus> np;  ///< per link id
  std::vector<lp::VarStatus> s;   ///< (t * configs + c) * dc_count + dc id
  /// Row (logical) statuses, keyed like the columns so the slack/tight
  /// pattern survives between scenarios whose row sets differ. kBasic means
  /// the row was inactive. Capacity rows per (slot, DC) / (slot, link),
  /// completeness rows per (slot, config).
  std::vector<lp::VarStatus> row_dc;    ///< t * dc_count + dc id
  std::vector<lp::VarStatus> row_link;  ///< t * link_count + link id
  std::vector<lp::VarStatus> row_cfg;   ///< t * config_count + config
  /// The model this basis is optimal for; empty before the first solve.
  std::optional<ScenarioLp> lp;
  [[nodiscard]] bool empty() const {
    return cp.empty() && np.empty() && s.empty();
  }
};

/// provision()'s warm state: one ScenarioWarmStart per scenario, in
/// enumeration order (F0 first, then every failure scenario). A provision
/// given a hint seeds scenario f from entry f; one given an output hint
/// writes every scenario's new state there. The closed loop threads one
/// hint through every replan, so each replan re-solves every scenario from
/// its own retained model and basis. A hint belongs to the provisioner
/// context that produced it; a copy is independent of the original.
struct ScenarioBasisHint {
  std::vector<ScenarioWarmStart> scenarios;
  [[nodiscard]] bool empty() const { return scenarios.empty(); }
};

/// Capacity requirement determined by one failure scenario's LP.
struct ScenarioOutcome {
  FailureScenario scenario;
  CapacityPlan required;  ///< peaks needed to survive this scenario
  double lp_objective = 0.0;
  std::size_t lp_iterations = 0;
};

struct ProvisionResult {
  /// Combined plan: serving = F0 requirement, backup = increment needed to
  /// cover the worst failure scenario (zero per resource if F0 dominates).
  CapacityPlan capacity;
  /// The no-failure placement (S_tcx under F0).
  PlacementMatrix base_placement;
  /// Call-weighted mean ACL of the no-failure placement.
  double mean_acl_ms = 0.0;
  std::vector<ScenarioOutcome> scenarios;
  /// Per-media-server core budget, indexed by global ServerId: each DC's
  /// provisioned serving+backup cores split across its fleet proportional
  /// to server capacity. Empty when the World has no fleet. The intra-DC
  /// packer enforces physical capacity itself; these budgets are the
  /// offline sizing signal (benches and capacity reports consume them).
  std::vector<double> server_budget_cores;
};

/// Builds and solves the provisioning LPs. The EvalContext members must
/// outlive the provisioner.
class SwitchboardProvisioner {
 public:
  SwitchboardProvisioner(EvalContext ctx, ProvisionOptions options);

  /// Provisions capacity for the given demand. Throws SolveError if any
  /// scenario LP fails. `warm` (optional) seeds every scenario from a
  /// previous provision's per-scenario state — the closed-loop re-provision
  /// path, where successive demand matrices differ only in magnitude, so
  /// each scenario re-solves its retained model in ~0 dual iterations.
  /// Without it every scenario solves cold (through the block
  /// decomposition above lp::kDecomposeMinRows). `basis_out` (optional)
  /// receives this provision's state for the next round; it may point at
  /// the same hint as `warm`, which then re-solves the retained models in
  /// place, and is left empty if a scenario LP throws. Both are ignored by
  /// the joint_scenarios path (one fused LP, no per-scenario basis).
  [[nodiscard]] ProvisionResult provision(
      const DemandMatrix& demand, const ScenarioBasisHint* warm = nullptr,
      ScenarioBasisHint* basis_out = nullptr) const;

  /// Solves a single scenario's LP; exposed for tests and the Fig 4 bench.
  /// With `floors` set, capacity up to the floor is free and the LP prices
  /// only the increment; the returned requirement then includes the floor.
  /// `warm` (if non-empty) seeds the starting basis: from its retained model
  /// when that is this scenario's at an unchanged structure, else mapped
  /// semantically onto a fresh build (see ScenarioWarmStart). `basis_out`
  /// (if non-null) receives this solve's final basis and model; it may
  /// point at `warm`.
  [[nodiscard]] ScenarioOutcome solve_scenario(
      const DemandMatrix& demand, const FailureScenario& scenario,
      PlacementMatrix* placement_out = nullptr,
      const CapacityPlan* floors = nullptr,
      const ScenarioWarmStart* warm = nullptr,
      ScenarioWarmStart* basis_out = nullptr) const;

 private:
  /// The exact Eq 3+7/8 LP over F0 and all DC-failure scenarios (shared
  /// capacity variables), plus sequential link-failure passes.
  [[nodiscard]] ProvisionResult provision_joint(
      const DemandMatrix& demand) const;

  EvalContext ctx_;
  ProvisionOptions options_;
};

}  // namespace sb
