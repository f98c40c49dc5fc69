#include "core/provisioner.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/thread_pool.h"
#include "core/backup_lp.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timer.h"

namespace sb {

namespace {

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
                                           const EvalContext& ctx,
                                           double acl_threshold_ms) {
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
    plans[c].candidates = feasible_dcs(config, avail, *ctx.latency,
                                       acl_threshold_ms);
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
  require(options_.acl_threshold_ms > 0.0,
          "SwitchboardProvisioner: ACL threshold");
}

namespace {

ScenarioLp::Key scenario_key(const DemandMatrix& demand,
                             const FailureScenario& scenario,
                             const CapacityPlan* floors,
                             const EvalContext& ctx,
                             const ProvisionOptions& options) {
  ScenarioLp::Key key;
  key.ctx = ctx;
  key.type = scenario.type;
  key.dc = scenario.dc;
  key.link = scenario.link;
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
  key.acl_threshold_ms = options.acl_threshold_ms;
  key.acl_epsilon = options.acl_epsilon;
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

/// Builds the scenario LP (Eq 3-9) for `key`, which scenario_key made from
/// the same arguments.
ScenarioLp build_scenario_lp(ScenarioLp::Key key, const DemandMatrix& demand,
                             const FailureScenario& scenario,
                             const CapacityPlan* floors,
                             const EvalContext& ctx,
                             const ProvisionOptions& options) {
  const World& world = *ctx.world;
  const Topology& topo = *ctx.topology;
  const std::size_t slots = demand.slot_count();
  const std::size_t config_count = demand.config_count();

  const std::vector<ConfigPlan> plans =
      build_config_plans(demand, scenario, ctx, options.acl_threshold_ms);

  ScenarioLp lp;
  lp.key = std::move(key);
  lp::Model model;

  // Peak variables. CP_x only for DCs that are candidates somewhere; NP_l
  // only for links some (config, DC) pair uses.
  std::vector<int> cp_var(world.dc_count(), -1);
  std::vector<int> np_var(topo.link_count(), -1);
  for (std::size_t c = 0; c < config_count; ++c) {
    for (std::size_t k = 0; k < plans[c].candidates.size(); ++k) {
      const DcId dc = plans[c].candidates[k];
      if (cp_var[dc.value()] < 0) {
        cp_var[dc.value()] = model.add_variable(
            0.0, lp::kInf, world.datacenter(dc).core_cost,
            "CP_" + world.datacenter(dc).name);
        lp.var_keys.emplace_back('c', dc.value());
      }
      if (options.joint_network) {
        for (const auto& [l, _] : plans[c].profiles[k].link_gbps_per_call) {
          if (np_var[l.value()] < 0) {
            np_var[l.value()] = model.add_variable(
                0.0, lp::kInf, topo.link(l).cost_per_gbps,
                "NP_" + topo.link(l).name);
            lp.var_keys.emplace_back('n', l.value());
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
      auto& vars = s_var[static_cast<std::size_t>(t) * config_count + c];
      const double d = demand.demand(t, c);
      if (d <= 0.0) continue;  // nothing to place in this slot
      vars.reserve(plans[c].candidates.size());
      for (std::size_t k = 0; k < plans[c].candidates.size(); ++k) {
        vars.push_back(model.add_variable(
            0.0, lp::kInf,
            options.acl_epsilon * plans[c].profiles[k].acl_ms, ""));
        lp.var_keys.emplace_back(
            's', (static_cast<std::size_t>(t) * config_count + c) *
                         world.dc_count() +
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
      lp.row_keys.emplace_back(
          'C', static_cast<std::size_t>(t) * world.dc_count() + x);
    }
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      if (link_rows[l].empty()) continue;
      link_rows[l].push_back({np_var[l], -1.0});
      model.add_constraint(std::move(link_rows[l]), lp::Sense::kLe,
                           link_floor(floors, l));
      lp.row_keys.emplace_back(
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
      lp.row_keys.emplace_back('E',
                               static_cast<std::size_t>(t) * config_count + c);
    }
  }
  lp.model = lp::RetainedLp(std::move(model));
  return lp;
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

/// Moves the model out of a warm state that is about to be overwritten.
ScenarioLp take(std::optional<ScenarioLp>& slot) {
  ScenarioLp lp = std::move(*slot);
  slot.reset();
  return lp;
}

}  // namespace

ScenarioOutcome SwitchboardProvisioner::solve_scenario(
    const DemandMatrix& demand, const FailureScenario& scenario,
    PlacementMatrix* placement_out, const CapacityPlan* floors,
    const ScenarioWarmStart* warm, ScenarioWarmStart* basis_out) const {
  static obs::Counter& scenarios_solved =
      obs::MetricsRegistry::global().counter("sb.provisioner.scenarios_solved");
  static obs::Histogram& scenario_solve_s =
      obs::MetricsRegistry::global().histogram(
          "sb.provisioner.scenario_solve_s");
  scenarios_solved.inc();
  obs::ScopedTimer timer(scenario_solve_s);
  const World& world = *ctx_.world;
  const Topology& topo = *ctx_.topology;
  const std::size_t slots = demand.slot_count();
  const std::size_t config_count = demand.config_count();

  // Reuse the warm state's model only when it is this scenario's at an
  // unchanged structure: then the model differs from a fresh build in its
  // rhs alone. A warm state aliased by basis_out hands its LP over, dual
  // engine included; a const one is copied (without the engine). The two
  // branches stay separate statements: a conditional expression would
  // merge them into a const prvalue and copy the handed-over LP too.
  ScenarioLp::Key key = scenario_key(demand, scenario, floors, ctx_, options_);
  const bool reuse =
      warm != nullptr && warm->lp.has_value() && warm->lp->key == key;
  ScenarioLp lp;
  if (reuse) {
    if (basis_out == warm) {
      lp = take(basis_out->lp);
    } else {
      lp = *warm->lp;
    }
    rewrite_rhs(lp, demand, floors, world, topo);
  } else {
    lp = build_scenario_lp(std::move(key), demand, scenario, floors, ctx_,
                           options_);
  }

  lp::SolveOptions lp_options = options_.lp_options;
  // A scenario solved alone leaves the fan-out pool idle, so a cold solve's
  // block decomposition may use those threads for its subproblem solves
  // (a warm solve never decomposes). provision() hands solves that run ON
  // the pool a provisioner with scenario_threads = 1, so they never nest a
  // pool.
  if (lp_options.decompose_threads <= 1) {
    lp_options.decompose_threads = options_.scenario_threads;
  }
  if (!reuse && warm && !warm->empty()) {
    // A basis mapped onto a rebuilt model keeps the primal: a hint carried
    // across scenarios meets a model whose failed DC's placement columns
    // are gone, so it is primal-near-feasible and dual-far, and routing it
    // to the dual simplex measured ~2.4x the warm primal's iterations on
    // the provisioner_parallel_test fixture.
    // Translate the semantic hint into this model's column order. Columns
    // the hint doesn't know (or an undersized hint vector) default to
    // at-lower, which is also the cold-start state.
    lp_options.warm_start.assign(lp.var_keys.size(), lp::VarStatus::kAtLower);
    for (std::size_t j = 0; j < lp.var_keys.size(); ++j) {
      const auto& [kind, idx] = lp.var_keys[j];
      const std::vector<lp::VarStatus>* bank =
          kind == 'c' ? &warm->cp : kind == 'n' ? &warm->np : &warm->s;
      if (idx < bank->size()) lp_options.warm_start[j] = (*bank)[idx];
    }
    // Rows the hint doesn't know default to kBasic (slack basic), which is
    // exactly the cold-start state of a fresh row.
    lp_options.warm_start_rows.assign(lp.row_keys.size(),
                                      lp::VarStatus::kBasic);
    for (std::size_t r = 0; r < lp.row_keys.size(); ++r) {
      const auto& [kind, idx] = lp.row_keys[r];
      const std::vector<lp::VarStatus>* bank =
          kind == 'C' ? &warm->row_dc
                      : kind == 'L' ? &warm->row_link : &warm->row_cfg;
      if (idx < bank->size()) lp_options.warm_start_rows[r] = (*bank)[idx];
    }
  }
  // On its own retained LP the last basis is still optimal for the costs
  // and only primal infeasible where the rhs moved: the dual simplex's
  // start, which resolve() takes from the LP's own statuses.
  const lp::Solution solution =
      reuse ? lp.model.resolve(lp_options) : lp.model.solve(lp_options);
  if (!solution.optimal()) {
    throw SolveError("provisioning LP for scenario " + scenario.name +
                     " returned " + lp::to_string(solution.status));
  }

  std::vector<int> cp_var(world.dc_count(), -1);
  std::vector<int> np_var(topo.link_count(), -1);
  PlacementMatrix placement(slots, config_count, world.dc_count());
  for (std::size_t j = 0; j < lp.var_keys.size(); ++j) {
    const auto& [kind, idx] = lp.var_keys[j];
    if (kind == 'c') {
      cp_var[idx] = static_cast<int>(j);
    } else if (kind == 'n') {
      np_var[idx] = static_cast<int>(j);
    } else {
      const std::size_t tc = idx / world.dc_count();
      placement.set_calls(static_cast<TimeSlot>(tc / config_count),
                          tc % config_count,
                          DcId(static_cast<std::uint32_t>(
                              idx % world.dc_count())),
                          solution.values[j]);
    }
  }

  ScenarioOutcome outcome;
  outcome.scenario = scenario;
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

  if (basis_out) {
    // A fresh state replaces the old one whole (its banks left empty when
    // the engine reports no basis, as the dense tableau does), so no status
    // outlives the model it belongs to.
    ScenarioWarmStart out;
    if (solution.basis.size() == lp.var_keys.size()) {
      out.cp.assign(world.dc_count(), lp::VarStatus::kAtLower);
      out.np.assign(topo.link_count(), lp::VarStatus::kAtLower);
      out.s.assign(slots * config_count * world.dc_count(),
                   lp::VarStatus::kAtLower);
      for (std::size_t j = 0; j < lp.var_keys.size(); ++j) {
        const auto& [kind, idx] = lp.var_keys[j];
        std::vector<lp::VarStatus>& bank =
            kind == 'c' ? out.cp : kind == 'n' ? out.np : out.s;
        bank[idx] = solution.basis[j];
      }
      if (solution.row_basis.size() == lp.row_keys.size()) {
        out.row_dc.assign(slots * world.dc_count(), lp::VarStatus::kBasic);
        out.row_link.assign(slots * topo.link_count(), lp::VarStatus::kBasic);
        out.row_cfg.assign(slots * config_count, lp::VarStatus::kBasic);
        for (std::size_t r = 0; r < lp.row_keys.size(); ++r) {
          const auto& [kind, idx] = lp.row_keys[r];
          std::vector<lp::VarStatus>& bank =
              kind == 'C' ? out.row_dc
                          : kind == 'L' ? out.row_link : out.row_cfg;
          bank[idx] = solution.row_basis[r];
        }
      }
    }
    out.lp = std::move(lp);
    *basis_out = std::move(out);
  }

  if (placement_out) *placement_out = std::move(placement);
  return outcome;
}

// provision() wraps this call in its "prov.provision" span before
// dispatching here, so the joint path needs no span of its own.
ProvisionResult SwitchboardProvisioner::provision_joint(
    const DemandMatrix& demand) const {
  const World& world = *ctx_.world;
  const Topology& topo = *ctx_.topology;
  const std::size_t slots = demand.slot_count();
  const std::size_t config_count = demand.config_count();

  std::vector<FailureScenario> scenarios;
  scenarios.push_back(FailureScenario::none());
  for (DcId dc : world.dc_ids()) {
    scenarios.push_back(FailureScenario::dc_failure(dc, world));
  }

  lp::Model model;
  // Shared capacity variables (Eq 3 prices them once; Eq 7/8 are the
  // per-scenario usage rows below).
  std::vector<int> cp_var(world.dc_count(), -1);
  std::vector<int> np_var(topo.link_count(), -1);
  auto ensure_cp = [&](DcId dc) {
    if (cp_var[dc.value()] < 0) {
      cp_var[dc.value()] =
          model.add_variable(0.0, lp::kInf, world.datacenter(dc).core_cost,
                             "CP_" + world.datacenter(dc).name);
    }
    return cp_var[dc.value()];
  };
  auto ensure_np = [&](LinkId l) {
    if (np_var[l.value()] < 0) {
      np_var[l.value()] = model.add_variable(
          0.0, lp::kInf, topo.link(l).cost_per_gbps, "NP_" + topo.link(l).name);
    }
    return np_var[l.value()];
  };

  struct Block {
    std::vector<ConfigPlan> plans;
    std::vector<std::vector<int>> s_var;  ///< per (t * C + c)
  };
  std::vector<Block> blocks(scenarios.size());

  for (std::size_t f = 0; f < scenarios.size(); ++f) {
    Block& block = blocks[f];
    block.plans = build_config_plans(demand, scenarios[f], ctx_,
                                     options_.acl_threshold_ms);
    block.s_var.assign(slots * config_count, {});
    for (TimeSlot t = 0; t < slots; ++t) {
      for (std::size_t c = 0; c < config_count; ++c) {
        if (demand.demand(t, c) <= 0.0) continue;
        auto& vars = block.s_var[static_cast<std::size_t>(t) * config_count + c];
        for (std::size_t k = 0; k < block.plans[c].candidates.size(); ++k) {
          vars.push_back(model.add_variable(
              0.0, lp::kInf,
              options_.acl_epsilon * block.plans[c].profiles[k].acl_ms, ""));
        }
      }
    }
    for (TimeSlot t = 0; t < slots; ++t) {
      std::vector<std::vector<lp::Term>> dc_rows(world.dc_count());
      std::vector<std::vector<lp::Term>> link_rows(topo.link_count());
      for (std::size_t c = 0; c < config_count; ++c) {
        const auto& vars =
            block.s_var[static_cast<std::size_t>(t) * config_count + c];
        for (std::size_t k = 0; k < vars.size(); ++k) {
          const DcId dc = block.plans[c].candidates[k];
          const HostingProfile& profile = block.plans[c].profiles[k];
          dc_rows[dc.value()].push_back({vars[k], profile.cores_per_call});
          for (const auto& [l, gbps] : profile.link_gbps_per_call) {
            link_rows[l.value()].push_back({vars[k], gbps});
          }
        }
      }
      for (std::size_t x = 0; x < world.dc_count(); ++x) {
        if (dc_rows[x].empty()) continue;
        dc_rows[x].push_back(
            {ensure_cp(DcId(static_cast<std::uint32_t>(x))), -1.0});
        model.add_constraint(std::move(dc_rows[x]), lp::Sense::kLe, 0.0);
      }
      for (std::size_t l = 0; l < topo.link_count(); ++l) {
        if (link_rows[l].empty()) continue;
        link_rows[l].push_back(
            {ensure_np(LinkId(static_cast<std::uint32_t>(l))), -1.0});
        model.add_constraint(std::move(link_rows[l]), lp::Sense::kLe, 0.0);
      }
      for (std::size_t c = 0; c < config_count; ++c) {
        const auto& vars =
            block.s_var[static_cast<std::size_t>(t) * config_count + c];
        if (vars.empty()) continue;
        std::vector<lp::Term> terms;
        for (int v : vars) terms.push_back({v, 1.0});
        model.add_constraint(std::move(terms), lp::Sense::kEq,
                             demand.demand(t, c));
      }
    }
  }

  const lp::Solution solution = lp::solve(model, options_.lp_options);
  if (!solution.optimal()) {
    throw SolveError("joint provisioning LP returned " +
                     lp::to_string(solution.status));
  }

  ProvisionResult result{CapacityPlan::zeros(world, topo),
                         PlacementMatrix(slots, config_count, world.dc_count()),
                         0.0,
                         {},
                         {}};
  CapacityPlan combined = CapacityPlan::zeros(world, topo);
  for (std::size_t x = 0; x < world.dc_count(); ++x) {
    if (cp_var[x] >= 0) {
      combined.dc_serving_cores[x] = solution.values[cp_var[x]];
    }
  }
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    if (np_var[l] >= 0) combined.link_gbps[l] = solution.values[np_var[l]];
  }
  // F0 placement (block 0) for reporting and allocation.
  for (TimeSlot t = 0; t < slots; ++t) {
    for (std::size_t c = 0; c < config_count; ++c) {
      const auto& vars =
          blocks[0].s_var[static_cast<std::size_t>(t) * config_count + c];
      for (std::size_t k = 0; k < vars.size(); ++k) {
        result.base_placement.set_calls(
            t, c, blocks[0].plans[c].candidates[k], solution.values[vars[k]]);
      }
    }
  }
  ScenarioOutcome joint_outcome;
  joint_outcome.scenario = FailureScenario::none();
  joint_outcome.scenario.name = "F0+DC-failures(joint)";
  joint_outcome.required = combined;
  joint_outcome.lp_objective = solution.objective;
  joint_outcome.lp_iterations = solution.iterations;
  result.scenarios.push_back(joint_outcome);

  // Link-failure scenarios on top, sequentially, reusing the joint plan.
  if (options_.include_link_failures) {
    for (LinkId link : topo.link_ids()) {
      const FailureScenario scenario =
          FailureScenario::link_failure(link, topo);
      ScenarioOutcome outcome =
          solve_scenario(demand, scenario, nullptr,
                         options_.capacity_reuse ? &combined : nullptr);
      combined = max_capacity(combined, outcome.required);
      result.scenarios.push_back(std::move(outcome));
    }
  }

  // The joint LP has no separate F0 capacity to call "serving"; report the
  // F0 placement's own peaks as serving and the rest as backup.
  const UsageProfile f0_usage =
      compute_usage(result.base_placement, demand, ctx_);
  const std::vector<double> f0_peaks = f0_usage.dc_peaks();
  for (std::size_t x = 0; x < world.dc_count(); ++x) {
    const double total = combined.dc_serving_cores[x];
    result.capacity.dc_serving_cores[x] = std::min(f0_peaks[x], total);
    result.capacity.dc_backup_cores[x] =
        std::max(0.0, total - result.capacity.dc_serving_cores[x]);
  }
  result.capacity.link_gbps = combined.link_gbps;
  result.mean_acl_ms = mean_acl_ms(result.base_placement, demand, ctx_);
  result.server_budget_cores = split_server_budgets(world, result.capacity);
  return result;
}

ProvisionResult SwitchboardProvisioner::provision(
    const DemandMatrix& demand, const ScenarioBasisHint* warm,
    ScenarioBasisHint* basis_out) const {
  obs::Span span("prov.provision", obs::Subsystem::kProvisioner);
  const World& world = *ctx_.world;
  const Topology& topo = *ctx_.topology;

  if (options_.with_backup && options_.peak_aware_backup &&
      options_.joint_scenarios) {
    return provision_joint(demand);
  }

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

  // Per-scenario warm state. Scenario f starts from warm_of(f) and leaves
  // its new state in out_of(f); each solve touches only its own entry, so
  // the fan-out below needs no locking. When the caller passes one hint as
  // both, its entries are taken over and every retained model is re-solved
  // in place; otherwise a reused model is copied out of `warm`.
  std::vector<ScenarioWarmStart> next;
  const std::vector<ScenarioWarmStart>* prior =
      warm != nullptr ? &warm->scenarios : nullptr;
  if (basis_out != nullptr) {
    if (basis_out == warm) {
      next = std::move(basis_out->scenarios);
      prior = &next;
    }
    basis_out->scenarios.clear();
    next.resize(scenarios.size());
  }
  const auto warm_of = [&](std::size_t f) -> const ScenarioWarmStart* {
    return prior != nullptr && f < prior->size() ? &(*prior)[f] : nullptr;
  };
  const auto out_of = [&](std::size_t f) -> ScenarioWarmStart* {
    return basis_out != nullptr ? &next[f] : nullptr;
  };

  ProvisionResult result{CapacityPlan::zeros(world, topo),
                         PlacementMatrix(demand.slot_count(),
                                         demand.config_count(),
                                         world.dc_count()),
                         0.0,
                         {},
                         {}};
  CapacityPlan combined = CapacityPlan::zeros(world, topo);
  CapacityPlan serving = combined;

  // F0 first, always sequentially: it defines `serving` and the base
  // placement. Without a hint every scenario solves cold, so above
  // kDecomposeMinRows a failure scenario goes through the block
  // decomposition: a cold provision of the APAC design day then takes 3.4x
  // fewer simplex iterations (9x with link failures) than with every
  // failure scenario warm-started from F0's basis. A re-provision re-solves
  // each scenario from its own previous state instead.
  {
    PlacementMatrix placement(demand.slot_count(), demand.config_count(),
                              world.dc_count());
    obs::Span f0_span("prov.scenario", obs::Subsystem::kProvisioner);
    f0_span.attr(obs::AttrKey::kScenario, 0);
    ScenarioOutcome outcome = solve_scenario(
        demand, scenarios.front(), &placement, nullptr, warm_of(0), out_of(0));
    f0_span.finish();
    serving = outcome.required;
    combined = outcome.required;
    result.base_placement = std::move(placement);
    result.scenarios.push_back(std::move(outcome));
  }

  const bool chained =
      options_.capacity_reuse &&
      options_.floor_mode == ProvisionOptions::FloorMode::kChained;
  if (chained || scenarios.size() <= 1) {
    // Under chained reuse (Eq 7/8 coupling), each scenario sees the running
    // combined plan as a free floor and pays only for increments — an
    // inherently sequential recurrence.
    for (std::size_t f = 1; f < scenarios.size(); ++f) {
      const CapacityPlan* floors = options_.capacity_reuse ? &combined : nullptr;
      obs::Span s("prov.scenario", obs::Subsystem::kProvisioner);
      s.attr(obs::AttrKey::kScenario, static_cast<std::int64_t>(f));
      ScenarioOutcome outcome = solve_scenario(
          demand, scenarios[f], nullptr, floors, warm_of(f), out_of(f));
      s.finish();
      combined = max_capacity(combined, outcome.required);
      result.scenarios.push_back(std::move(outcome));
    }
  } else {
    // kFromBase (or no reuse at all): every failure scenario floors on the
    // fixed F0 requirement, so the solves commute and can fan out over a
    // thread pool. Results are combined in enumeration order, making the
    // plan bit-identical whatever the thread count.
    const CapacityPlan* floors = options_.capacity_reuse ? &serving : nullptr;
    // Solves that share the fan-out pool decompose sequentially instead of
    // each borrowing scenario_threads for a nested pool.
    ProvisionOptions pooled_options = options_;
    pooled_options.scenario_threads = 1;
    const SwitchboardProvisioner pooled(ctx_, pooled_options);
    // Fan-out spans run on pool threads where no span is open; parent them
    // explicitly under this provision() span so the trace stays nested.
    const std::uint64_t fan_parent = obs::SpanRecorder::current_span();
    auto solve_one = [&, fan_parent](std::size_t f) {
      obs::Span s("prov.scenario", obs::Subsystem::kProvisioner,
                  obs::kNoSimTime, fan_parent);
      s.attr(obs::AttrKey::kScenario, static_cast<std::int64_t>(f));
      return pooled.solve_scenario(demand, scenarios[f], nullptr, floors,
                                   warm_of(f), out_of(f));
    };
    std::vector<ScenarioOutcome> outcomes;
    outcomes.reserve(scenarios.size() - 1);
    if (options_.scenario_threads == 1) {
      for (std::size_t f = 1; f < scenarios.size(); ++f) {
        outcomes.push_back(solve_one(f));
      }
    } else {
      ThreadPool pool(options_.scenario_threads);
      std::vector<std::future<ScenarioOutcome>> futures;
      futures.reserve(scenarios.size() - 1);
      for (std::size_t f = 1; f < scenarios.size(); ++f) {
        futures.push_back(pool.submit(solve_one, f));
      }
      for (auto& fut : futures) outcomes.push_back(fut.get());
    }
    for (ScenarioOutcome& outcome : outcomes) {
      combined = max_capacity(combined, outcome.required);
      result.scenarios.push_back(std::move(outcome));
    }
  }

  // Serving/backup split: serving is the no-failure requirement; backup is
  // whatever extra the worst failure scenario forces per resource.
  result.capacity = CapacityPlan::zeros(world, topo);
  for (std::size_t x = 0; x < world.dc_count(); ++x) {
    result.capacity.dc_serving_cores[x] = serving.dc_serving_cores[x];
    result.capacity.dc_backup_cores[x] = std::max(
        0.0, combined.dc_serving_cores[x] - serving.dc_serving_cores[x]);
  }
  result.capacity.link_gbps = combined.link_gbps;

  if (options_.with_backup && !options_.peak_aware_backup) {
    // §4.1/4.2 ablation (Fig 4b's "default backup plan"): serving follows
    // locality (each config wholly at its min-ACL feasible DC, as in the
    // figure), and compute backup is the additive Eq 1-2 LP on those
    // serving peaks — no reuse of off-peak slack. WAN keeps the
    // failure-scenario peaks computed above (link capacity must survive
    // failures under any compute-backup policy).
    const std::vector<ConfigPlan> plans = build_config_plans(
        demand, FailureScenario::none(), ctx_, options_.acl_threshold_ms);
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
  if (basis_out != nullptr) basis_out->scenarios = std::move(next);
  return result;
}

}  // namespace sb
