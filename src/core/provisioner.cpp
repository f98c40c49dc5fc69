#include "core/provisioner.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "core/backup_lp.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace sb {

namespace {

/// Weight of the latency tie-break added to every S_tcx cost so equal-cost
/// placements prefer lower ACL. Kept small so it never outweighs a real
/// resource trade-off.
constexpr double kAclEpsilon = 1e-6;

/// Per-config data reused across rows of one scenario LP.
struct ConfigPlan {
  std::vector<DcId> candidates;           ///< DCs this config may use
  std::vector<HostingProfile> profiles;   ///< parallel to candidates
};

/// Candidate DCs (and their hosting profiles) per config column under a
/// scenario: the DC must be alive, no leg may ride the failed link, and the
/// ACL threshold (Eq 4) must hold — with the paper's min-ACL fallback when
/// nothing qualifies.
std::vector<ConfigPlan> build_config_plans(const DemandMatrix& demand,
                                           const FailureScenario& scenario,
                                           const EvalContext& ctx) {
  const World& world = *ctx.world;
  const Topology& topo = *ctx.topology;
  const std::vector<DcId> all_dcs = world.dc_ids();
  std::vector<ConfigPlan> plans(demand.config_count());
  for (std::size_t c = 0; c < demand.config_count(); ++c) {
    const CallConfig& config = ctx.registry->get(demand.config_at(c));
    std::vector<DcId> avail;
    for (DcId dc : all_dcs) {
      if (!dc_available(scenario, dc)) continue;
      const LocationId dc_loc = world.datacenter(dc).location;
      bool blocked = false;
      for (const ConfigEntry& e : config.entries()) {
        if (uses_failed_link(scenario, topo, dc_loc, e.location)) {
          blocked = true;
          break;
        }
      }
      if (!blocked) avail.push_back(dc);
    }
    if (avail.empty()) {
      // A link failure isolating every DC from some leg: fall back to the
      // alive DCs and keep the nominal path (real deployments reroute; we
      // conservatively provision the nominal path's capacity elsewhere).
      for (DcId dc : all_dcs) {
        if (dc_available(scenario, dc)) avail.push_back(dc);
      }
    }
    require(!avail.empty(), "build_config_plans: no DC available");
    plans[c].candidates = feasible_dcs(config, avail, *ctx.latency);
    plans[c].profiles.reserve(plans[c].candidates.size());
    for (DcId dc : plans[c].candidates) {
      plans[c].profiles.push_back(make_hosting_profile(config, dc, ctx));
    }
  }
  return plans;
}

/// Splits each DC's provisioned serving+backup cores across its fleet
/// proportional to server capacity (ProvisionResult::server_budget_cores).
/// Empty when the World has no fleet.
std::vector<double> split_server_budgets(const World& world,
                                         const CapacityPlan& capacity) {
  std::vector<double> budgets;
  if (world.server_count() == 0) return budgets;
  budgets.assign(world.server_count(), 0.0);
  for (std::size_t x = 0; x < world.dc_count(); ++x) {
    const DcId dc(static_cast<std::uint32_t>(x));
    const std::vector<ServerId>& fleet = world.servers_in_dc(dc);
    if (fleet.empty()) continue;
    double fleet_cores = 0.0;
    for (ServerId sid : fleet) fleet_cores += world.server(sid).cores;
    const double total = capacity.dc_total_cores(dc);
    for (ServerId sid : fleet) {
      budgets[sid.value()] =
          fleet_cores > 0.0
              ? total * world.server(sid).cores / fleet_cores
              : total / static_cast<double>(fleet.size());
    }
  }
  return budgets;
}

}  // namespace

SwitchboardProvisioner::SwitchboardProvisioner(EvalContext ctx,
                                               ProvisionOptions options)
    : ctx_(ctx), options_(options) {
  require(ctx_.world && ctx_.topology && ctx_.latency && ctx_.registry &&
              ctx_.loads,
          "SwitchboardProvisioner: incomplete context");
  require(options_.joint_network || !options_.joint_scenarios,
          "SwitchboardProvisioner: joint_scenarios requires joint_network");
}

namespace {

ScenarioLp::Key scenario_key(const DemandMatrix& demand,
                             std::span<const FailureScenario> scenarios,
                             const CapacityPlan* floors,
                             const EvalContext& ctx,
                             const ProvisionOptions& options) {
  ScenarioLp::Key key;
  key.ctx = ctx;
  key.type = scenarios.front().type;
  key.dc = scenarios.front().dc;
  key.link = scenarios.front().link;
  key.blocks = scenarios.size();
  key.configs = demand.configs();
  key.slots = demand.slot_count();
  key.positive.resize(demand.slot_count() * demand.config_count());
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      key.positive[static_cast<std::size_t>(t) * demand.config_count() + c] =
          demand.demand(t, c) > 0.0;
    }
  }
  key.floored = floors != nullptr;
  key.joint_network = options.joint_network;
  return key;
}

/// Free capacity a DC's / link's capacity row starts from (its rhs).
double dc_floor(const CapacityPlan* floors, std::size_t x) {
  return floors ? floors->dc_serving_cores[x] + floors->dc_backup_cores[x]
                : 0.0;
}
double link_floor(const CapacityPlan* floors, std::size_t l) {
  return floors ? floors->link_gbps[l] : 0.0;
}

/// An Eq 3-9 model under construction, one failure scenario's block per
/// add_block(). Every block shares one CP_x column per DC and one NP_l
/// column per link: Eq 7/8's capacity, bought once for all scenarios. A
/// sequential scenario LP is one block; the exact joint LP is F0's block
/// followed by every DC failure's.
struct ModelBuilder {
  lp::Model model;
  std::vector<std::pair<char, std::size_t>> var_keys;  ///< as ScenarioLp's
  std::vector<std::pair<char, std::size_t>> row_keys;  ///< as ScenarioLp's
  std::vector<int> cp_var;  ///< CP_x column per DC, -1 until a block needs it
  std::vector<int> np_var;  ///< NP_l column per link, likewise
  std::size_t blocks = 0;

  explicit ModelBuilder(const EvalContext& ctx)
      : cp_var(ctx.world->dc_count(), -1),
        np_var(ctx.topology->link_count(), -1) {}

  /// Appends `scenario`'s block: the CP_x / NP_l columns its candidates need
  /// that no earlier block added, its S_tcx columns, its capacity rows
  /// (Eq 5/6, floored) and its completeness rows (Eq 9).
  void add_block(const DemandMatrix& demand, const FailureScenario& scenario,
                 const CapacityPlan* floors, const EvalContext& ctx,
                 const ProvisionOptions& options);
};

void ModelBuilder::add_block(const DemandMatrix& demand,
                             const FailureScenario& scenario,
                             const CapacityPlan* floors,
                             const EvalContext& ctx,
                             const ProvisionOptions& options) {
  const World& world = *ctx.world;
  const Topology& topo = *ctx.topology;
  const std::size_t slots = demand.slot_count();
  const std::size_t config_count = demand.config_count();
  // This block's S keys follow every earlier block's.
  const std::size_t first_cell = blocks++ * slots * config_count;

  const std::vector<ConfigPlan> plans =
      build_config_plans(demand, scenario, ctx);

  // Peak variables. CP_x only for DCs that are candidates somewhere; NP_l
  // only for links some (config, DC) pair uses.
  for (std::size_t c = 0; c < config_count; ++c) {
    for (std::size_t k = 0; k < plans[c].candidates.size(); ++k) {
      const DcId dc = plans[c].candidates[k];
      if (cp_var[dc.value()] < 0) {
        cp_var[dc.value()] = model.add_variable(
            0.0, lp::kInf, world.datacenter(dc).core_cost,
            "CP_" + world.datacenter(dc).name);
        var_keys.emplace_back('c', dc.value());
      }
      if (options.joint_network) {
        for (const auto& [l, _] : plans[c].profiles[k].link_gbps_per_call) {
          if (np_var[l.value()] < 0) {
            np_var[l.value()] = model.add_variable(
                0.0, lp::kInf, topo.link(l).cost_per_gbps,
                "NP_" + topo.link(l).name);
            var_keys.emplace_back('n', l.value());
          }
        }
      }
    }
  }

  // S_tcx variables with a small ACL tie-break cost (prefers low latency
  // among cost-equal placements without distorting the Eq 3 objective).
  // s_var[(t * config_count + c)] holds the per-candidate variable ids.
  std::vector<std::vector<int>> s_var(slots * config_count);
  for (TimeSlot t = 0; t < slots; ++t) {
    for (std::size_t c = 0; c < config_count; ++c) {
      const std::size_t cell = static_cast<std::size_t>(t) * config_count + c;
      auto& vars = s_var[cell];
      const double d = demand.demand(t, c);
      if (d <= 0.0) continue;  // nothing to place in this slot
      vars.reserve(plans[c].candidates.size());
      for (std::size_t k = 0; k < plans[c].candidates.size(); ++k) {
        vars.push_back(model.add_variable(
            0.0, lp::kInf, kAclEpsilon * plans[c].profiles[k].acl_ms, ""));
        var_keys.emplace_back('s', (first_cell + cell) * world.dc_count() +
                                       plans[c].candidates[k].value());
      }
    }
  }

  // Serving-capacity rows (Eq 5/6): usage - peak <= 0 for every slot.
  for (TimeSlot t = 0; t < slots; ++t) {
    std::vector<std::vector<lp::Term>> dc_rows(world.dc_count());
    std::vector<std::vector<lp::Term>> link_rows(topo.link_count());
    for (std::size_t c = 0; c < config_count; ++c) {
      const auto& vars = s_var[static_cast<std::size_t>(t) * config_count + c];
      if (vars.empty()) continue;
      for (std::size_t k = 0; k < vars.size(); ++k) {
        const DcId dc = plans[c].candidates[k];
        const HostingProfile& profile = plans[c].profiles[k];
        dc_rows[dc.value()].push_back({vars[k], profile.cores_per_call});
        if (options.joint_network) {
          for (const auto& [l, gbps] : profile.link_gbps_per_call) {
            link_rows[l.value()].push_back({vars[k], gbps});
          }
        }
      }
    }
    // With a floor, the peak variable only buys capacity ABOVE it:
    // usage - extra <= floor (Eq 7/8's cross-scenario sharing).
    for (std::size_t x = 0; x < world.dc_count(); ++x) {
      if (dc_rows[x].empty()) continue;
      dc_rows[x].push_back({cp_var[x], -1.0});
      model.add_constraint(std::move(dc_rows[x]), lp::Sense::kLe,
                           dc_floor(floors, x));
      row_keys.emplace_back(
          'C', static_cast<std::size_t>(t) * world.dc_count() + x);
    }
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      if (link_rows[l].empty()) continue;
      link_rows[l].push_back({np_var[l], -1.0});
      model.add_constraint(std::move(link_rows[l]), lp::Sense::kLe,
                           link_floor(floors, l));
      row_keys.emplace_back(
          'L', static_cast<std::size_t>(t) * topo.link_count() + l);
    }
  }

  // Completeness rows (Eq 9): every call hosted somewhere.
  for (TimeSlot t = 0; t < slots; ++t) {
    for (std::size_t c = 0; c < config_count; ++c) {
      const auto& vars = s_var[static_cast<std::size_t>(t) * config_count + c];
      if (vars.empty()) continue;
      std::vector<lp::Term> terms;
      terms.reserve(vars.size());
      for (int v : vars) terms.push_back({v, 1.0});
      model.add_constraint(std::move(terms), lp::Sense::kEq,
                           demand.demand(t, c));
      row_keys.emplace_back('E', static_cast<std::size_t>(t) * config_count + c);
    }
  }
}

/// Builds the LP of `scenarios`, one block each, for `key`, which
/// scenario_key made from the same arguments.
ScenarioLp build_scenario_lp(ScenarioLp::Key key, const DemandMatrix& demand,
                             std::span<const FailureScenario> scenarios,
                             const CapacityPlan* floors,
                             const EvalContext& ctx,
                             const ProvisionOptions& options) {
  ModelBuilder builder(ctx);
  for (const FailureScenario& scenario : scenarios) {
    builder.add_block(demand, scenario, floors, ctx, options);
  }
  return {std::move(key), lp::RetainedLp(std::move(builder.model)),
          std::move(builder.var_keys), std::move(builder.row_keys)};
}

/// Points a retained model at new demand and floors: the same rhs a fresh
/// build_scenario_lp would write, so the model is then identical to one.
void rewrite_rhs(ScenarioLp& lp, const DemandMatrix& demand,
                 const CapacityPlan* floors, const World& world,
                 const Topology& topo) {
  for (std::size_t r = 0; r < lp.row_keys.size(); ++r) {
    const auto& [kind, idx] = lp.row_keys[r];
    const int row = static_cast<int>(r);
    if (kind == 'C') {
      lp.model.set_rhs(row, dc_floor(floors, idx % world.dc_count()));
    } else if (kind == 'L') {
      lp.model.set_rhs(row, link_floor(floors, idx % topo.link_count()));
    } else {
      lp.model.set_rhs(row,
                       demand.demand(static_cast<TimeSlot>(
                                         idx / demand.config_count()),
                                     idx % demand.config_count()));
    }
  }
}

}  // namespace

ScenarioOutcome SwitchboardProvisioner::solve_scenario(
    const DemandMatrix& demand, const FailureScenario& scenario,
    PlacementMatrix* placement_out, const CapacityPlan* floors,
    std::optional<ScenarioLp>* retained) const {
  return solve_blocks(demand, {&scenario, 1}, placement_out, floors,
                      retained);
}

ScenarioOutcome SwitchboardProvisioner::solve_blocks(
    const DemandMatrix& demand, std::span<const FailureScenario> scenarios,
    PlacementMatrix* placement_out, const CapacityPlan* floors,
    std::optional<ScenarioLp>* retained) const {
  static obs::Counter& scenarios_solved =
      obs::MetricsRegistry::global().counter("sb.provisioner.scenarios_solved");
  static obs::Histogram& scenario_solve_s =
      obs::MetricsRegistry::global().histogram(
          "sb.provisioner.scenario_solve_s");
  scenarios_solved.inc(scenarios.size());
  obs::ScopedTimer timer(scenario_solve_s);
  const World& world = *ctx_.world;
  const Topology& topo = *ctx_.topology;
  const std::size_t slots = demand.slot_count();
  const std::size_t config_count = demand.config_count();
  ScenarioOutcome outcome;
  outcome.scenario = scenarios.front();
  if (scenarios.size() > 1) outcome.scenario.name += "+DC-failures(joint)";

  // Re-solve the retained LP in place only when it is this scenario's at an
  // unchanged structure: then it differs from a fresh build in its rhs
  // alone. A fresh build replaces the retained LP only after its solve, so
  // the old LP is freed after the new one's solve allocates (the order
  // busy_window's retained heap was measured with, ROADMAP 9f).
  ScenarioLp::Key key =
      scenario_key(demand, scenarios, floors, ctx_, options_);
  const bool reuse = retained != nullptr && retained->has_value() &&
                     (*retained)->key == key;
  ScenarioLp fresh;
  if (reuse) {
    rewrite_rhs(**retained, demand, floors, world, topo);
  } else {
    fresh = build_scenario_lp(std::move(key), demand, scenarios, floors, ctx_,
                              options_);
  }
  ScenarioLp& solved = reuse ? **retained : fresh;

  // On its own retained LP the last basis is still optimal for the costs
  // and only primal infeasible where the rhs moved: the dual simplex's
  // start, which resolve() takes from the LP's own statuses. A fresh build
  // solves cold.
  const lp::Solution solution = reuse
                                    ? solved.model.resolve(options_.lp_options)
                                    : solved.model.solve(options_.lp_options);
  if (!solution.optimal()) {
    if (retained != nullptr) retained->reset();
    throw SolveError("provisioning LP for scenario " + outcome.scenario.name +
                     " returned " + lp::to_string(solution.status));
  }

  std::vector<int> cp_var(world.dc_count(), -1);
  std::vector<int> np_var(topo.link_count(), -1);
  PlacementMatrix placement(slots, config_count, world.dc_count());
  for (std::size_t j = 0; j < solved.var_keys.size(); ++j) {
    const auto& [kind, idx] = solved.var_keys[j];
    if (kind == 'c') {
      cp_var[idx] = static_cast<int>(j);
    } else if (kind == 'n') {
      np_var[idx] = static_cast<int>(j);
    } else if (idx < slots * config_count * world.dc_count()) {
      // The first block's S columns: the placement.
      const std::size_t tc = idx / world.dc_count();
      placement.set_calls(static_cast<TimeSlot>(tc / config_count),
                          tc % config_count,
                          DcId(static_cast<std::uint32_t>(
                              idx % world.dc_count())),
                          solution.values[j]);
    }
  }

  outcome.lp_objective = solution.objective;
  outcome.lp_iterations = solution.iterations;
  outcome.required = CapacityPlan::zeros(world, topo);
  for (std::size_t x = 0; x < world.dc_count(); ++x) {
    const double extra = cp_var[x] >= 0 ? solution.values[cp_var[x]] : 0.0;
    outcome.required.dc_serving_cores[x] = dc_floor(floors, x) + extra;
  }

  if (options_.joint_network) {
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      const double extra = np_var[l] >= 0 ? solution.values[np_var[l]] : 0.0;
      outcome.required.link_gbps[l] = link_floor(floors, l) + extra;
    }
  } else {
    // §4.3 ablation: network follows from the compute-optimal placement.
    const UsageProfile usage = compute_usage(placement, demand, ctx_);
    outcome.required.link_gbps = usage.link_peaks();
    if (floors) {
      for (std::size_t l = 0; l < topo.link_count(); ++l) {
        outcome.required.link_gbps[l] =
            std::max(outcome.required.link_gbps[l], floors->link_gbps[l]);
      }
    }
  }

  if (retained != nullptr && !reuse) *retained = std::move(fresh);
  if (placement_out) *placement_out = std::move(placement);
  return outcome;
}

ProvisionResult SwitchboardProvisioner::provision(
    const DemandMatrix& demand, ScenarioBasisHint* hint) const {
  obs::Span span("prov.provision", obs::Subsystem::kProvisioner);
  const World& world = *ctx_.world;
  const Topology& topo = *ctx_.topology;

  // Failure scenarios are enumerated whenever backup capacity is wanted;
  // the additive ablation below only replaces the COMPUTE backup policy
  // (WAN must still survive failures either way).
  std::vector<FailureScenario> scenarios;
  if (options_.with_backup) {
    scenarios =
        enumerate_failures(world, topo, options_.include_link_failures);
  } else {
    scenarios.push_back(FailureScenario::none());
  }

  // Scenario f re-solves, or builds into, the hint's entry f.
  if (hint != nullptr) hint->scenarios.resize(scenarios.size());

  ProvisionResult result{CapacityPlan::zeros(world, topo),
                         PlacementMatrix(demand.slot_count(),
                                         demand.config_count(),
                                         world.dc_count()),
                         0.0,
                         {},
                         {}};
  CapacityPlan combined = CapacityPlan::zeros(world, topo);
  std::vector<double> serving;

  // F0 first: it defines `serving` and the base placement. Then each
  // failure scenario in enumeration order. Under capacity_reuse (Eq 7/8
  // coupling) each one sees the running combined plan as a free floor and
  // pays only for increments, an inherently sequential recurrence; without
  // it every scenario is priced from scratch. Without a hint every scenario
  // solves cold, so above kDecomposeMinRows it goes through the block
  // decomposition: a cold provision of the APAC design day then takes 3.4x
  // fewer simplex iterations (9x with link failures) than with every
  // failure scenario warm-started from F0's basis. A re-provision re-solves
  // each scenario from its own retained LP instead. Under joint_scenarios
  // the first step solves F0 and every DC failure exactly, as one LP (Eq 3
  // + 7/8), cold and without a hint; only the link failures follow it.
  const bool joint = options_.with_backup && options_.peak_aware_backup &&
                     options_.joint_scenarios;
  std::size_t step = joint ? 1 + world.dc_count() : 1;  // scenarios per step
  try {
    for (std::size_t f = 0; f < scenarios.size(); f += step, step = 1) {
      const bool fused = step > 1;
      const CapacityPlan* floors =
          f > 0 && options_.capacity_reuse ? &combined : nullptr;
      obs::Span s("prov.scenario", obs::Subsystem::kProvisioner);
      s.attr(obs::AttrKey::kScenario, static_cast<std::int64_t>(f));
      ScenarioOutcome outcome = solve_blocks(
          demand, std::span(scenarios).subspan(f, step),
          f == 0 ? &result.base_placement : nullptr, floors,
          hint != nullptr && !fused ? &hint->scenarios[f] : nullptr);
      s.finish();
      if (f == 0) {
        serving = outcome.required.dc_serving_cores;
        combined = outcome.required;
      } else {
        combined = max_capacity(combined, outcome.required);
      }
      result.scenarios.push_back(std::move(outcome));
    }
  } catch (...) {
    // No half-updated hint survives a failed solve: the next provision
    // through it solves cold.
    if (hint != nullptr) hint->scenarios.clear();
    throw;
  }

  // Serving/backup split: serving is the no-failure requirement; backup is
  // whatever extra the worst failure scenario forces per resource. The
  // joint LP has no F0 capacity of its own: its serving is the F0
  // placement's own peaks.
  if (joint) {
    serving = compute_usage(result.base_placement, demand, ctx_).dc_peaks();
  }
  for (std::size_t x = 0; x < world.dc_count(); ++x) {
    const double total = combined.dc_serving_cores[x];
    result.capacity.dc_serving_cores[x] = std::min(serving[x], total);
    result.capacity.dc_backup_cores[x] =
        std::max(0.0, total - result.capacity.dc_serving_cores[x]);
  }
  result.capacity.link_gbps = combined.link_gbps;

  if (options_.with_backup && !options_.peak_aware_backup) {
    // §4.1/4.2 ablation (Fig 4b's "default backup plan"): serving follows
    // locality (each config wholly at its min-ACL feasible DC, as in the
    // figure), and compute backup is the additive Eq 1-2 LP on those
    // serving peaks — no reuse of off-peak slack. WAN keeps the
    // failure-scenario peaks computed above (link capacity must survive
    // failures under any compute-backup policy).
    const std::vector<ConfigPlan> plans =
        build_config_plans(demand, FailureScenario::none(), ctx_);
    PlacementMatrix local(demand.slot_count(), demand.config_count(),
                          world.dc_count());
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      std::size_t best = 0;
      for (std::size_t k = 1; k < plans[c].profiles.size(); ++k) {
        if (plans[c].profiles[k].acl_ms < plans[c].profiles[best].acl_ms) {
          best = k;
        }
      }
      for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
        const double d = demand.demand(t, c);
        if (d > 0.0) local.set_calls(t, c, plans[c].candidates[best], d);
      }
    }
    const UsageProfile local_usage = compute_usage(local, demand, ctx_);
    result.capacity.dc_serving_cores = local_usage.dc_peaks();
    result.capacity.dc_backup_cores =
        solve_backup_lp(result.capacity.dc_serving_cores);
    const std::vector<double> local_links = local_usage.link_peaks();
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      result.capacity.link_gbps[l] =
          std::max(result.capacity.link_gbps[l], local_links[l]);
    }
    result.base_placement = std::move(local);
  }

  result.mean_acl_ms = mean_acl_ms(result.base_placement, demand, ctx_);
  result.server_budget_cores = split_server_budgets(world, result.capacity);
  return result;
}

}  // namespace sb
