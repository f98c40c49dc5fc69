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
#include <span>
#include <utility>
#include <vector>

#include "calls/demand.h"
#include "core/capacity_plan.h"
#include "core/failure.h"
#include "core/placement.h"
#include "lp/solver.h"

namespace sb {

struct ProvisionOptions {
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
  /// scenario provisions is free for every other. Scenarios are solved in
  /// enumeration order; when true (default), each LP only pays for capacity
  /// above the running combined plan — the tractable decomposition of that
  /// coupling. When false, every scenario is priced from scratch
  /// (independent LPs + max), which over-provisions; kept as an ablation.
  bool capacity_reuse = true;
  /// Solve Eq 3 + 7/8 EXACTLY: one LP spanning the no-failure case and all
  /// DC-failure scenarios with shared CP_x/NP_l variables (each scenario
  /// gets its own placement). Avoids the sequential decomposition's myopia
  /// (F0 packing away the slack failures would have reused) at the price of
  /// a scenario-count-times-larger LP. Link-failure scenarios are still
  /// handled sequentially with capacity floors on top. The fused LP always
  /// prices network capacity, so it requires joint_network.
  bool joint_scenarios = false;
  /// Base LP engine knobs. A retained model's re-solve (see ScenarioLp)
  /// resumes from its own basis through the dual simplex on top of these;
  /// every other solve takes them as given.
  lp::SolveOptions lp_options;
};

/// One scenario LP as solve_scenario built it, retained in a
/// ScenarioBasisHint so a later solve of the same scenario at new right-hand
/// sides skips the build: it rewrites the completeness rows to the new
/// demand and the capacity rows to the new floors (lp::RetainedLp::set_rhs)
/// and re-solves in place from its own final basis through the dual simplex
/// (lp::RetainedLp::resolve), reusing the presolve result, standard form
/// and dual engine its earlier solves prepared.
struct ScenarioLp {
  /// Reuse key: everything that shapes the model. A retained model is
  /// reused only when the new solve's key is equal; otherwise it is rebuilt.
  struct Key {
    EvalContext ctx;
    FailureScenario::Type type = FailureScenario::Type::kNone;
    DcId dc;      ///< the failed DC of a kDc scenario
    LinkId link;  ///< the failed link of a kLink scenario
    /// Scenario blocks: 1, or F0 and every DC failure in the joint LP.
    std::size_t blocks = 1;
    std::vector<ConfigId> configs;  ///< demand columns
    std::size_t slots = 0;
    /// demand(t, c) > 0 at t * configs + c: S columns and completeness rows
    /// exist only there.
    std::vector<bool> positive;
    bool floored = false;  ///< capacity rows carry floors
    bool joint_network = true;
    friend bool operator==(const Key&, const Key&) = default;
  };
  Key key;
  lp::RetainedLp model;
  /// Semantic key per LP column, (kind, flat index): 'c' = CP per DC, 'n' =
  /// NP per link, 's' = S per (block, slot, config, DC) at ((block * slots +
  /// t) * configs + c) * dc_count + dc, where block is the scenario's
  /// position in the LP (0 but in the joint LP).
  std::vector<std::pair<char, std::size_t>> var_keys;
  /// Semantic key per constraint row: 'C' = DC capacity per (slot, DC) at
  /// t * dc_count + dc, 'L' = link capacity per (slot, link) at t *
  /// link_count + link, 'E' = completeness per (slot, config) at t *
  /// configs + c. These are the rows whose rhs a re-solve rewrites; every
  /// block's rows share them, as they share their rhs.
  std::vector<std::pair<char, std::size_t>> row_keys;
};

/// provision()'s warm state: the retained LP of every scenario, in
/// enumeration order (F0 first, then every failure scenario), read and
/// written in place. A provision given a hint re-solves scenario f in place
/// from entry f when that entry is the same scenario at an unchanged
/// structure (equal ScenarioLp::Key), builds and solves it cold otherwise,
/// and leaves every scenario's LP in entry f. An empty hint therefore gives
/// a cold provision that fills it. The closed loop threads one hint through
/// every replan, so each replan re-solves every scenario from its own
/// retained model and basis. A hint belongs to the provisioner context that
/// produced it. A copy owns its own models (lp::RetainedLp's copy rules: the
/// dual engine stays behind and is rebuilt on the copy's next re-solve), so
/// copies never share mutable state.
struct ScenarioBasisHint {
  std::vector<std::optional<ScenarioLp>> scenarios;
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
  /// Throws InvalidArgument on an incomplete context, or joint_scenarios
  /// without joint_network.
  SwitchboardProvisioner(EvalContext ctx, ProvisionOptions options);

  /// Provisions capacity for the given demand. Throws SolveError if any
  /// scenario LP fails. `hint` (optional, see ScenarioBasisHint) is read and
  /// written in place: a filled one re-solves every scenario from its
  /// retained LP — the closed-loop re-provision path, where successive
  /// demand matrices differ only in magnitude, so each scenario re-solves
  /// in ~0 dual iterations — and is left empty if a scenario LP throws.
  /// Without a filled hint every scenario solves cold (through the block
  /// decomposition above lp::kDecomposeMinRows). The joint_scenarios step
  /// (one fused LP over F0 and every DC failure) neither reads nor writes
  /// the hint; the link-failure scenarios after it use it as every scenario
  /// does.
  [[nodiscard]] ProvisionResult provision(
      const DemandMatrix& demand, ScenarioBasisHint* hint = nullptr) const;

  /// Solves a single scenario's LP; exposed for tests and the Fig 4 bench.
  /// With `floors` set, capacity up to the floor is free and the LP prices
  /// only the increment; the returned requirement then includes the floor.
  /// A `retained` LP that is this scenario's at an unchanged structure
  /// (equal ScenarioLp::Key) is re-solved in place at the new right-hand
  /// sides from its own basis through the dual simplex; otherwise the LP is
  /// built and solved cold, and `retained` (if non-null) receives it, final
  /// basis included. `retained` is left empty when this throws SolveError.
  [[nodiscard]] ScenarioOutcome solve_scenario(
      const DemandMatrix& demand, const FailureScenario& scenario,
      PlacementMatrix* placement_out = nullptr,
      const CapacityPlan* floors = nullptr,
      std::optional<ScenarioLp>* retained = nullptr) const;

 private:
  /// solve_scenario over the LP of `scenarios`, one block each on shared
  /// CP_x/NP_l: one scenario, or F0 and every DC failure (the exact joint
  /// LP, whose placement is F0's).
  [[nodiscard]] ScenarioOutcome solve_blocks(
      const DemandMatrix& demand, std::span<const FailureScenario> scenarios,
      PlacementMatrix* placement_out, const CapacityPlan* floors,
      std::optional<ScenarioLp>* retained) const;

  EvalContext ctx_;
  ProvisionOptions options_;
};

}  // namespace sb
