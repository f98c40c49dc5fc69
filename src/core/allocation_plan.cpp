#include "core/allocation_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>

#include "common/error.h"

namespace sb {

AllocationPlan::AllocationPlan(std::size_t slot_count, std::size_t config_count,
                               std::size_t dc_count, double slot_s)
    : fractional(slot_count, config_count, dc_count),
      slots_(slot_count),
      configs_(config_count),
      dcs_(dc_count),
      slot_s_(slot_s),
      quotas_(slot_count * config_count * dc_count, 0) {
  require(slot_s > 0.0, "AllocationPlan: slot width");
}

std::uint32_t AllocationPlan::quota(TimeSlot t, std::size_t c, DcId dc) const {
  require(t < slots_ && c < configs_ && dc.valid() && dc.value() < dcs_,
          "AllocationPlan::quota: out of range");
  return quotas_[(static_cast<std::size_t>(t) * configs_ + c) * dcs_ +
                 dc.value()];
}

void AllocationPlan::set_quota(TimeSlot t, std::size_t c, DcId dc,
                               std::uint32_t calls) {
  require(t < slots_ && c < configs_ && dc.valid() && dc.value() < dcs_,
          "AllocationPlan::set_quota: out of range");
  quotas_[(static_cast<std::size_t>(t) * configs_ + c) * dcs_ + dc.value()] =
      calls;
}

TimeSlot AllocationPlan::slot_at(SimTime offset_s) const {
  if (offset_s <= 0.0) return 0;
  const auto slot = static_cast<std::size_t>(offset_s / slot_s_);
  return static_cast<TimeSlot>(std::min(slot, slots_ - 1));
}

std::size_t AllocationPlan::column_of(ConfigId config) const {
  if (!col_index_.empty()) {
    return config.valid() && config.value() < col_index_.size()
               ? col_index_[config.value()]
               : npos;
  }
  for (std::size_t i = 0; i < config_columns.size(); ++i) {
    if (config_columns[i] == config) return i;
  }
  return npos;
}

void AllocationPlan::build_column_index() {
  std::uint32_t max_id = 0;
  for (ConfigId id : config_columns) {
    if (id.valid()) max_id = std::max(max_id, id.value());
  }
  col_index_.assign(static_cast<std::size_t>(max_id) + 1, npos);
  for (std::size_t i = 0; i < config_columns.size(); ++i) {
    if (config_columns[i].valid()) col_index_[config_columns[i].value()] = i;
  }
}

AllocationPlanner::AllocationPlanner(EvalContext ctx, AllocationOptions options)
    : ctx_(ctx), options_(options) {
  require(ctx_.world && ctx_.topology && ctx_.latency && ctx_.registry &&
              ctx_.loads,
          "AllocationPlanner: incomplete context");
}

namespace {

/// Candidate DCs (and their hosting profiles) of one config column.
struct Candidates {
  std::vector<DcId> dcs;
  std::vector<HostingProfile> profiles;
};

/// Builds slot t's Eq 10 LP: one S column per (positive-demand config,
/// candidate DC), in config then candidate order; then the DC and the link
/// capacity rows that have terms; then one completeness row per
/// positive-demand config.
SlotLp build_slot_lp(const DemandMatrix& demand, const CapacityPlan& capacity,
                     TimeSlot t, const std::vector<Candidates>& cands,
                     const World& world, const Topology& topo) {
  SlotLp lp;
  lp::Model model;
  std::vector<std::vector<lp::Term>> dc_rows(world.dc_count());
  std::vector<std::vector<lp::Term>> link_rows(topo.link_count());
  std::vector<std::vector<lp::Term>> complete_rows(demand.config_count());
  for (std::size_t c = 0; c < demand.config_count(); ++c) {
    if (demand.demand(t, c) <= 0.0) continue;
    for (std::size_t k = 0; k < cands[c].dcs.size(); ++k) {
      const HostingProfile& profile = cands[c].profiles[k];
      // Eq 10: minimize total latency-weighted placement.
      const int v = model.add_variable(0.0, lp::kInf, profile.acl_ms, "");
      dc_rows[cands[c].dcs[k].value()].push_back({v, profile.cores_per_call});
      for (const auto& [l, gbps] : profile.link_gbps_per_call) {
        link_rows[l.value()].push_back({v, gbps});
      }
      complete_rows[c].push_back({v, 1.0});
    }
  }
  for (std::size_t x = 0; x < world.dc_count(); ++x) {
    if (dc_rows[x].empty()) continue;
    model.add_constraint(
        std::move(dc_rows[x]), lp::Sense::kLe,
        capacity.dc_total_cores(DcId(static_cast<std::uint32_t>(x))));
    lp.row_keys.emplace_back('C', x);
  }
  for (std::size_t l = 0; l < topo.link_count(); ++l) {
    if (link_rows[l].empty()) continue;
    model.add_constraint(std::move(link_rows[l]), lp::Sense::kLe,
                         capacity.link_gbps[l]);
    lp.row_keys.emplace_back('L', l);
  }
  for (std::size_t c = 0; c < demand.config_count(); ++c) {
    if (complete_rows[c].empty()) continue;
    model.add_constraint(std::move(complete_rows[c]), lp::Sense::kEq,
                         demand.demand(t, c));
    lp.row_keys.emplace_back('E', c);
  }
  lp.model = lp::RetainedLp(std::move(model));
  return lp;
}

/// Points a retained slot LP at new capacities and demand: the same rhs a
/// fresh build_slot_lp would write, so the model is then identical to one.
void rewrite_rhs(SlotLp& lp, const DemandMatrix& demand,
                 const CapacityPlan& capacity, TimeSlot t) {
  for (std::size_t r = 0; r < lp.row_keys.size(); ++r) {
    const auto& [kind, idx] = lp.row_keys[r];
    const int row = static_cast<int>(r);
    if (kind == 'C') {
      lp.model.set_rhs(
          row, capacity.dc_total_cores(DcId(static_cast<std::uint32_t>(idx))));
    } else if (kind == 'L') {
      lp.model.set_rhs(row, capacity.link_gbps[idx]);
    } else {
      lp.model.set_rhs(row, demand.demand(t, idx));
    }
  }
}

}  // namespace

AllocationPlan AllocationPlanner::plan(const DemandMatrix& demand,
                                       const CapacityPlan& capacity,
                                       double slot_s, PlanLpHint* hint) const {
  const World& world = *ctx_.world;
  const Topology& topo = *ctx_.topology;
  const std::size_t slots = demand.slot_count();
  const std::size_t config_count = demand.config_count();
  const std::vector<DcId> all_dcs = world.dc_ids();

  std::vector<Candidates> cands(config_count);
  for (std::size_t c = 0; c < config_count; ++c) {
    const CallConfig& config = ctx_.registry->get(demand.config_at(c));
    cands[c].dcs = feasible_dcs(config, all_dcs, *ctx_.latency);
    for (DcId dc : cands[c].dcs) {
      cands[c].profiles.push_back(make_hosting_profile(config, dc, ctx_));
    }
  }

  AllocationPlan plan(slots, config_count, world.dc_count(), slot_s);
  plan.config_columns = demand.configs();
  plan.build_column_index();
  plan.slot_objective.assign(slots, 0.0);
  if (hint != nullptr) hint->slots.resize(slots);
  for (TimeSlot t = 0; t < slots; ++t) {
    lp::Solution solution;
    if (hint == nullptr) {
      const SlotLp lp =
          build_slot_lp(demand, capacity, t, cands, world, topo);
      solution = lp::solve(lp.model.model(), options_.lp_options);
    } else {
      // Reuse slot t's retained LP only at an unchanged structure: then it
      // differs from a fresh build in its rhs alone.
      SlotLp::Key key{ctx_, demand.configs(), {}};
      key.positive.resize(config_count);
      for (std::size_t c = 0; c < config_count; ++c) {
        key.positive[c] = demand.demand(t, c) > 0.0;
      }
      std::optional<SlotLp>& retained = hint->slots[t];
      if (retained.has_value() && retained->key == key) {
        rewrite_rhs(*retained, demand, capacity, t);
        solution = retained->model.resolve(options_.lp_options);
      } else {
        retained = build_slot_lp(demand, capacity, t, cands, world, topo);
        retained->key = std::move(key);
        solution = retained->model.solve(options_.lp_options);
      }
      if (!solution.optimal()) retained.reset();
    }
    if (!solution.optimal()) {
      throw SolveError("allocation LP for slot " + std::to_string(t) +
                       " returned " + lp::to_string(solution.status) +
                       " (is the capacity plan sufficient for this demand?)");
    }
    plan.slot_objective[t] = solution.objective;
    plan.lp_iterations += solution.iterations;

    std::size_t next_var = 0;
    for (std::size_t c = 0; c < config_count; ++c) {
      if (demand.demand(t, c) <= 0.0) continue;
      const std::size_t n = cands[c].dcs.size();
      // Fractional optimum, then largest-remainder rounding to an integral
      // quota totalling ceil(D_tc) so the realtime selector always has at
      // least the expected number of slots.
      std::vector<double> shares(n);
      double placed = 0.0;
      for (std::size_t k = 0; k < n; ++k) {
        shares[k] = solution.values[next_var++];
        plan.fractional.set_calls(t, c, cands[c].dcs[k], shares[k]);
        placed += shares[k];
      }
      auto total = static_cast<std::uint32_t>(std::ceil(placed - 1e-9));
      std::vector<std::uint32_t> quota(n);
      std::uint32_t assigned = 0;
      for (std::size_t k = 0; k < n; ++k) {
        quota[k] = static_cast<std::uint32_t>(shares[k]);
        assigned += quota[k];
      }
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), 0);
      std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return shares[a] - std::floor(shares[a]) >
               shares[b] - std::floor(shares[b]);
      });
      for (std::size_t i = 0; assigned < total; ++i) {
        ++quota[order[i % order.size()]];
        ++assigned;
      }
      for (std::size_t k = 0; k < n; ++k) {
        plan.set_quota(t, c, cands[c].dcs[k], quota[k]);
      }
    }
  }
  plan.mean_acl_ms = mean_acl_ms(plan.fractional, demand, ctx_);
  return plan;
}

}  // namespace sb
