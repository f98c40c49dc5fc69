// Tests for the allocation-plan LP (Eq 10) — per slot, and re-solved in
// place through a PlanLpHint — quota rounding, and the realtime MP
// selector's assign/debit/migrate behaviour (§5.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <string>

#include "apac_design_day.h"
#include "check/oracles.h"
#include "core/allocation_plan.h"
#include "core/provisioner.h"
#include "core/realtime.h"
#include "two_dc_world.h"

namespace sb {
namespace {

using test::TwoDcWorld;

TEST(AllocationPlanTest, SlotMappingClampsAtHorizon) {
  AllocationPlan plan(4, 1, 1, 1800.0);
  EXPECT_EQ(plan.slot_at(-5.0), 0u);
  EXPECT_EQ(plan.slot_at(0.0), 0u);
  EXPECT_EQ(plan.slot_at(1799.0), 0u);
  EXPECT_EQ(plan.slot_at(1800.0), 1u);
  EXPECT_EQ(plan.slot_at(1e9), 3u);
}

TEST(AllocationPlannerTest, PrefersLocalDcWithAmpleCapacity) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio));
  const ConfigId cb = w.registry.intern(
      CallConfig::make({{LocationId(1), 2}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca, cb}, 2);
  demand.set_demand(0, 0, 10.0);
  demand.set_demand(0, 1, 4.0);
  demand.set_demand(1, 0, 6.0);
  demand.set_demand(1, 1, 8.0);

  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {100.0, 100.0};
  capacity.link_gbps = {10.0};

  AllocationPlanner planner(w.ctx(), {});
  const AllocationPlan plan = planner.plan(demand, capacity, 1800.0);
  // With slack everywhere, Eq 10 places each config at its local DC.
  EXPECT_EQ(plan.quota(0, 0, DcId(0)), 10u);
  EXPECT_EQ(plan.quota(0, 0, DcId(1)), 0u);
  EXPECT_EQ(plan.quota(0, 1, DcId(1)), 4u);
  EXPECT_EQ(plan.quota(1, 1, DcId(1)), 8u);
  EXPECT_GT(plan.mean_acl_ms, 0.0);
}

TEST(AllocationPlannerTest, SpillsWhenLocalCapacityBinds) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca}, 1);
  demand.set_demand(0, 0, 10.0);  // 10 cores needed, DC-A has 6

  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {6.0, 100.0};
  capacity.link_gbps = {10.0};

  AllocationPlanner planner(w.ctx(), {});
  const AllocationPlan plan = planner.plan(demand, capacity, 1800.0);
  EXPECT_NEAR(plan.fractional.calls(0, 0, DcId(0)), 6.0, 1e-6);
  EXPECT_NEAR(plan.fractional.calls(0, 0, DcId(1)), 4.0, 1e-6);
  EXPECT_EQ(plan.quota(0, 0, DcId(0)) + plan.quota(0, 0, DcId(1)), 10u);
}

TEST(AllocationPlannerTest, InfeasibleCapacityThrows) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca}, 1);
  demand.set_demand(0, 0, 10.0);
  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {1.0, 1.0};
  AllocationPlanner planner(w.ctx(), {});
  EXPECT_THROW(planner.plan(demand, capacity, 1800.0), SolveError);
}

TEST(AllocationPlanTest, QuotaRoundingConservesTotals) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca}, 1);
  demand.set_demand(0, 0, 7.3);  // fractional demand
  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {4.0, 100.0};
  capacity.link_gbps = {10.0};
  AllocationPlanner planner(w.ctx(), {});
  const AllocationPlan plan = planner.plan(demand, capacity, 1800.0);
  // ceil(7.3) = 8 integral slots, split across the DCs.
  EXPECT_EQ(plan.quota(0, 0, DcId(0)) + plan.quota(0, 0, DcId(1)), 8u);
}

TEST(AllocationPlannerTest, InfeasibleErrorNamesTheSlot) {
  TwoDcWorld w;
  const ConfigId ca = w.registry.intern(
      CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio));
  DemandMatrix demand = make_demand_matrix({ca}, 3);
  demand.set_demand(0, 0, 1.0);
  demand.set_demand(1, 0, 10.0);
  demand.set_demand(2, 0, 10.0);
  CapacityPlan capacity = CapacityPlan::zeros(w.world, w.topology);
  capacity.dc_serving_cores = {1.0, 1.0};
  AllocationPlanner planner(w.ctx(), {});
  try {
    (void)planner.plan(demand, capacity, 1800.0);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_NE(std::string(e.what()).find("slot 1 "), std::string::npos)
        << e.what();
  }
}

// ---- Per-slot Eq 10 on the APAC design day ---------------------------------

constexpr double kSlotS = 3600.0;

bool close_rel(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

/// The design day, its x1.15 and per-config corrections, and each one's
/// capacity as the closed loop provisions it (F0 plus the five single-DC
/// failures). Built once: provisioning dominates the suite's run time.
class PlanDayTest : public ::testing::Test {
 protected:
  struct Day {
    test::ApacDesignDay day;
    DemandMatrix uniform = test::uniform_115(day.demand);
    DemandMatrix per_config = test::per_config(day.demand);
    CapacityPlan cap_day = provisioned(day.demand);
    CapacityPlan cap_uniform = provisioned(uniform);
    CapacityPlan cap_per_config = provisioned(per_config);

    [[nodiscard]] CapacityPlan provisioned(const DemandMatrix& d) const {
      ProvisionOptions options;
      options.include_link_failures = false;
      return SwitchboardProvisioner(day.ctx(), options).provision(d).capacity;
    }
  };
  static void SetUpTestSuite() { day_ = new Day; }
  static void TearDownTestSuite() {
    delete day_;
    day_ = nullptr;
  }

  [[nodiscard]] static const Day& d() { return *day_; }
  [[nodiscard]] static EvalContext ctx() { return day_->day.ctx(); }

  /// A hint primed as the loop's would be after two replans: a cold plan of
  /// the design day, then an in-place re-plan at x1.15 (every slot's dual
  /// engine built).
  [[nodiscard]] static PlanLpHint primed_hint(const AllocationPlanner& p) {
    PlanLpHint hint;
    (void)p.plan(d().day.demand, d().cap_day, kSlotS, &hint);
    (void)p.plan(d().uniform, d().cap_uniform, kSlotS, &hint);
    return hint;
  }

  /// Where slot t of two plans differs, or "" when it agrees bit for bit.
  [[nodiscard]] static std::string slot_difference(const AllocationPlan& a,
                                                   const AllocationPlan& b,
                                                   TimeSlot t) {
    for (std::size_t c = 0; c < a.config_count(); ++c) {
      for (std::size_t x = 0; x < a.dc_count(); ++x) {
        const DcId dc(static_cast<std::uint32_t>(x));
        const double fa = a.fractional.calls(t, c, dc);
        const double fb = b.fractional.calls(t, c, dc);
        if (a.quota(t, c, dc) != b.quota(t, c, dc) ||
            std::memcmp(&fa, &fb, sizeof(double)) != 0) {
          return "config " + std::to_string(c) + " dc " + std::to_string(x);
        }
      }
    }
    const double oa = a.slot_objective[t];
    const double ob = b.slot_objective[t];
    return std::memcmp(&oa, &ob, sizeof(double)) == 0 ? "" : "objective";
  }

  static Day* day_;
};
PlanDayTest::Day* PlanDayTest::day_ = nullptr;

/// Largest-remainder rounding of one cell's fractional shares to integral
/// quotas totalling ceil(sum): the rule the planner documents.
std::vector<std::uint32_t> round_cell(const std::vector<double>& shares) {
  const double placed = std::accumulate(shares.begin(), shares.end(), 0.0);
  const auto total = static_cast<std::uint32_t>(std::ceil(placed - 1e-9));
  std::vector<std::uint32_t> quota(shares.size());
  std::uint32_t assigned = 0;
  for (std::size_t k = 0; k < shares.size(); ++k) {
    quota[k] = static_cast<std::uint32_t>(shares[k]);
    assigned += quota[k];
  }
  std::vector<std::size_t> order(shares.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return shares[a] - std::floor(shares[a]) >
           shares[b] - std::floor(shares[b]);
  });
  for (std::size_t i = 0; assigned < total; ++i, ++assigned) {
    ++quota[order[i % order.size()]];
  }
  return quota;
}

// Eq 10 over the whole day as one LP (every slot's S columns, then every
// slot's DC and link capacity rows, then every completeness row), solved by
// lp::solve through the block decomposition: the model the planner solved
// before it split Eq 10 per slot. The per-slot plan reaches the same
// optimum and, rounded, the same quotas.
TEST_F(PlanDayTest, PerSlotPlanMatchesMonolithicModel) {
  const EvalContext c = ctx();
  const DemandMatrix& demand = d().day.demand;
  const CapacityPlan& capacity = d().cap_day;
  const World& world = *c.world;
  const Topology& topo = *c.topology;
  const std::size_t configs = demand.config_count();

  std::vector<std::vector<DcId>> cand(configs);
  std::vector<std::vector<HostingProfile>> prof(configs);
  for (std::size_t k = 0; k < configs; ++k) {
    const CallConfig& config = c.registry->get(demand.config_at(k));
    cand[k] = feasible_dcs(config, world.dc_ids(), *c.latency,
                           kAclThresholdMs);
    for (DcId dc : cand[k]) prof[k].push_back(make_hosting_profile(config, dc, c));
  }
  lp::Model model;
  std::vector<std::vector<int>> vars(demand.slot_count() * configs);
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t k = 0; k < configs; ++k) {
      if (demand.demand(t, k) <= 0.0) continue;
      for (const HostingProfile& p : prof[k]) {
        vars[t * configs + k].push_back(
            model.add_variable(0.0, lp::kInf, p.acl_ms, ""));
      }
    }
  }
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    std::vector<std::vector<lp::Term>> dc_rows(world.dc_count());
    std::vector<std::vector<lp::Term>> link_rows(topo.link_count());
    for (std::size_t k = 0; k < configs; ++k) {
      const std::vector<int>& v = vars[t * configs + k];
      for (std::size_t i = 0; i < v.size(); ++i) {
        dc_rows[cand[k][i].value()].push_back({v[i], prof[k][i].cores_per_call});
        for (const auto& [l, gbps] : prof[k][i].link_gbps_per_call) {
          link_rows[l.value()].push_back({v[i], gbps});
        }
      }
    }
    for (std::size_t x = 0; x < world.dc_count(); ++x) {
      if (dc_rows[x].empty()) continue;
      model.add_constraint(
          std::move(dc_rows[x]), lp::Sense::kLe,
          capacity.dc_total_cores(DcId(static_cast<std::uint32_t>(x))));
    }
    for (std::size_t l = 0; l < topo.link_count(); ++l) {
      if (link_rows[l].empty()) continue;
      model.add_constraint(std::move(link_rows[l]), lp::Sense::kLe,
                           capacity.link_gbps[l]);
    }
  }
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t k = 0; k < configs; ++k) {
      const std::vector<int>& v = vars[t * configs + k];
      if (v.empty()) continue;
      std::vector<lp::Term> terms;
      for (int var : v) terms.push_back({var, 1.0});
      model.add_constraint(std::move(terms), lp::Sense::kEq,
                           demand.demand(t, k));
    }
  }
  const lp::Solution mono = lp::solve(model);
  ASSERT_TRUE(mono.optimal());

  const AllocationPlan plan =
      AllocationPlanner(c, {}).plan(demand, capacity, kSlotS);
  ASSERT_EQ(plan.slot_objective.size(), demand.slot_count());
  const double per_slot = std::accumulate(plan.slot_objective.begin(),
                                          plan.slot_objective.end(), 0.0);
  EXPECT_TRUE(close_rel(per_slot, mono.objective, 1e-9))
      << per_slot << " vs " << mono.objective;
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t k = 0; k < configs; ++k) {
      const std::vector<int>& v = vars[t * configs + k];
      if (v.empty()) continue;
      std::vector<double> shares;
      for (int var : v) shares.push_back(mono.values[var]);
      const std::vector<std::uint32_t> quota = round_cell(shares);
      for (std::size_t i = 0; i < v.size(); ++i) {
        EXPECT_EQ(plan.quota(t, k, cand[k][i]), quota[i])
            << "slot " << t << " config " << k << " dc " << cand[k][i].value();
      }
    }
  }
}

// Re-plans through a hint rewrite every slot's capacity and completeness
// rhs and re-solve in place through the dual simplex; they reach a
// hint-less plan's optimum slot by slot, and their placement is feasible.
TEST_F(PlanDayTest, HintedReplansMatchHintlessPlans) {
  const AllocationPlanner planner(ctx(), {});
  PlanLpHint hint;
  (void)planner.plan(d().day.demand, d().cap_day, kSlotS, &hint);
  ASSERT_EQ(hint.slots.size(), d().day.demand.slot_count());
  for (const auto& [demand, capacity] :
       {std::pair{&d().uniform, &d().cap_uniform},
        std::pair{&d().per_config, &d().cap_per_config}}) {
    const AllocationPlan warm = planner.plan(*demand, *capacity, kSlotS, &hint);
    const AllocationPlan cold = planner.plan(*demand, *capacity, kSlotS);
    for (TimeSlot t = 0; t < demand->slot_count(); ++t) {
      EXPECT_TRUE(close_rel(warm.slot_objective[t], cold.slot_objective[t],
                            1e-9))
          << "slot " << t << ": " << warm.slot_objective[t] << " vs "
          << cold.slot_objective[t];
      ASSERT_TRUE(hint.slots[t].has_value());
      EXPECT_TRUE(hint.slots[t]->model.has_engine()) << "slot " << t;
    }
    EXPECT_EQ(check::plan_infeasibility(warm, *demand, *capacity, ctx()), "");
    EXPECT_LT(warm.lp_iterations, cold.lp_iterations);
  }
}

TEST_F(PlanDayTest, ReplanThroughHintCopyIsBitIdentical) {
  const AllocationPlanner planner(ctx(), {});
  PlanLpHint hint = primed_hint(planner);
  PlanLpHint copy = hint;
  const AllocationPlan in_place =
      planner.plan(d().per_config, d().cap_per_config, kSlotS, &hint);
  const AllocationPlan copied =
      planner.plan(d().per_config, d().cap_per_config, kSlotS, &copy);
  EXPECT_EQ(check::plan_difference(in_place, copied), "");
}

// A zero cell changes one slot's structure: only that slot is rebuilt and
// solved cold (no dual engine), exactly as a hint-less plan solves it.
TEST_F(PlanDayTest, ZeroedCellRebuildsOnlyItsSlot) {
  const AllocationPlanner planner(ctx(), {});
  PlanLpHint hint = primed_hint(planner);
  constexpr TimeSlot kT = 12;
  constexpr std::size_t kCol = 3;
  DemandMatrix zeroed = d().uniform;
  ASSERT_GT(zeroed.demand(kT, kCol), 0.0);
  zeroed.set_demand(kT, kCol, 0.0);
  const AllocationPlan warm =
      planner.plan(zeroed, d().cap_uniform, kSlotS, &hint);
  const AllocationPlan cold = planner.plan(zeroed, d().cap_uniform, kSlotS);
  for (TimeSlot t = 0; t < zeroed.slot_count(); ++t) {
    ASSERT_TRUE(hint.slots[t].has_value());
    EXPECT_EQ(hint.slots[t]->model.has_engine(), t != kT) << "slot " << t;
  }
  EXPECT_FALSE(hint.slots[kT]->key.positive[kCol]);
  EXPECT_EQ(slot_difference(warm, cold, kT), "");
  EXPECT_EQ(check::plan_infeasibility(warm, zeroed, d().cap_uniform, ctx()),
            "");
}

TEST_F(PlanDayTest, HintForAnotherConfigSetIsDiscarded) {
  const AllocationPlanner planner(ctx(), {});
  PlanLpHint hint;
  (void)planner.plan(top_k_demand(d().day.demand, 29),
                     d().cap_day, kSlotS, &hint);
  const AllocationPlan warm =
      planner.plan(d().uniform, d().cap_uniform, kSlotS, &hint);
  const AllocationPlan cold = planner.plan(d().uniform, d().cap_uniform, kSlotS);
  EXPECT_EQ(check::plan_difference(warm, cold), "");
  for (const std::optional<SlotLp>& slot : hint.slots) {
    ASSERT_TRUE(slot.has_value());
    EXPECT_FALSE(slot->model.has_engine());
    EXPECT_EQ(slot->key.configs, d().uniform.configs());
  }
}

// A slot that cannot fit throws a SolveError naming it and drops its LP
// from the hint; the next re-plan through the same hint rebuilds that slot
// and re-solves the others in place, matching a hint-less plan.
TEST_F(PlanDayTest, InfeasibleSlotThrowsAndHintStillMatchesNextReplan) {
  const AllocationPlanner planner(ctx(), {});
  PlanLpHint hint = primed_hint(planner);
  constexpr TimeSlot kT = 9;
  DemandMatrix flood = d().uniform;
  for (std::size_t c = 0; c < flood.config_count(); ++c) {
    flood.set_demand(kT, c, flood.demand(kT, c) * 100.0);
  }
  try {
    (void)planner.plan(flood, d().cap_uniform, kSlotS, &hint);
    FAIL() << "expected SolveError";
  } catch (const SolveError& e) {
    EXPECT_NE(std::string(e.what()).find("slot 9 "), std::string::npos)
        << e.what();
  }
  EXPECT_FALSE(hint.slots[kT].has_value());
  const AllocationPlan warm =
      planner.plan(d().per_config, d().cap_per_config, kSlotS, &hint);
  const AllocationPlan cold =
      planner.plan(d().per_config, d().cap_per_config, kSlotS);
  for (TimeSlot t = 0; t < cold.slot_count(); ++t) {
    EXPECT_TRUE(close_rel(warm.slot_objective[t], cold.slot_objective[t],
                          1e-9))
        << "slot " << t;
  }
  EXPECT_EQ(slot_difference(warm, cold, kT), "");
  EXPECT_EQ(check::plan_infeasibility(warm, d().per_config,
                                      d().cap_per_config, ctx()),
            "");
}

class RealtimeSelectorTest : public ::testing::Test {
 protected:
  RealtimeSelectorTest() : plan_(1, 1, 2, 1800.0) {
    config_ = CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio);
    config_id_ = world_.registry.intern(config_);
    plan_.config_columns = {config_id_};
    plan_.set_quota(0, 0, DcId(0), 1);  // one slot at the local DC
    plan_.set_quota(0, 0, DcId(1), 1);  // one overflow slot remote
  }

  TwoDcWorld world_;
  AllocationPlan plan_;
  CallConfig config_ = CallConfig::make({{LocationId(0), 1}},
                                        MediaType::kAudio);
  ConfigId config_id_;
};

TEST_F(RealtimeSelectorTest, AssignsClosestDcToFirstJoiner) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  EXPECT_EQ(selector.on_call_start(CallId(1), LocationId(0), 0.0), DcId(0));
  EXPECT_EQ(selector.on_call_start(CallId(2), LocationId(1), 0.0), DcId(1));
  EXPECT_EQ(selector.stats().calls_started, 2u);
  EXPECT_THROW(selector.on_call_start(CallId(1), LocationId(0), 1.0),
               InvalidArgument);
}

TEST_F(RealtimeSelectorTest, DebitsSlotWithoutMigrationWhenPlanAgrees) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  const FreezeResult r = selector.on_config_frozen(CallId(1), config_, 300.0);
  EXPECT_FALSE(r.migrated);
  EXPECT_TRUE(r.planned);
  EXPECT_EQ(r.dc, DcId(0));
  EXPECT_EQ(selector.stats().migrations, 0u);
}

TEST_F(RealtimeSelectorTest, MigratesWhenLocalQuotaExhausted) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  selector.on_config_frozen(CallId(1), config_, 300.0);  // takes DC-A slot
  selector.on_call_start(CallId(2), LocationId(0), 10.0);
  const FreezeResult r = selector.on_config_frozen(CallId(2), config_, 310.0);
  EXPECT_TRUE(r.migrated);
  EXPECT_EQ(r.dc, DcId(1));  // the remaining quota
  EXPECT_EQ(selector.stats().migrations, 1u);

  // Third concurrent call: all quotas gone -> overflow, stays put.
  selector.on_call_start(CallId(3), LocationId(0), 20.0);
  const FreezeResult r3 = selector.on_config_frozen(CallId(3), config_, 320.0);
  EXPECT_FALSE(r3.migrated);
  EXPECT_EQ(selector.stats().overflow, 1u);
}

TEST_F(RealtimeSelectorTest, SlotFreedOnCallEnd) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  selector.on_config_frozen(CallId(1), config_, 300.0);
  selector.on_call_end(CallId(1), 400.0);
  // The DC-A slot is free again for the next call.
  selector.on_call_start(CallId(2), LocationId(0), 500.0);
  const FreezeResult r = selector.on_config_frozen(CallId(2), config_, 800.0);
  EXPECT_FALSE(r.migrated);
  EXPECT_EQ(selector.active_calls(), 1u);
}

TEST_F(RealtimeSelectorTest, UnplannedConfigFallsBackToClosestDc) {
  RealtimeSelector selector(world_.ctx(), &plan_, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  // A config the plan has never seen, majority at B.
  const CallConfig unknown =
      CallConfig::make({{LocationId(1), 3}}, MediaType::kVideo);
  const FreezeResult r = selector.on_config_frozen(CallId(1), unknown, 300.0);
  EXPECT_FALSE(r.planned);
  EXPECT_TRUE(r.migrated);
  EXPECT_EQ(r.dc, DcId(1));
  EXPECT_EQ(selector.stats().unplanned, 1u);
}

TEST_F(RealtimeSelectorTest, NoPlanOperationNeverTracksQuotas) {
  RealtimeSelector selector(world_.ctx(), nullptr, {});
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  const FreezeResult r = selector.on_config_frozen(CallId(1), config_, 300.0);
  EXPECT_FALSE(r.planned);
  EXPECT_EQ(r.dc, DcId(0));  // min-ACL for an A-majority config
  selector.on_call_end(CallId(1), 400.0);
}

}  // namespace
}  // namespace sb
