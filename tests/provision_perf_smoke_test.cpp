// Provisioning iteration tripwires (ctest label lp_perf, run in both
// compiler CI jobs and under TSan). A cold provision() solves F0 and every
// failure scenario cold, so on the APAC design day each scenario LP goes
// through the block decomposition. A re-provision through the cold run's
// hint re-solves every scenario's retained model through the dual simplex.
// These tests pin the summed simplex iterations of both under thresholds
// with headroom, far below what the same LPs take warm-started from F0's
// basis.
#include <gtest/gtest.h>

#include <algorithm>

#include "core/provisioner.h"
#include "trace/scenario.h"

namespace sb {
namespace {

/// APAC preset with scenario seed 1, top 30 configs of the expected demand
/// over one design day in 3600 s slots (24 x 30 x 5 DCs).
struct ApacDesignDay {
  Scenario scenario = make_apac_scenario({.seed = 1});
  LoadModel loads = LoadModel::paper_default();
  DemandMatrix demand = top_configs(
      scenario.trace->expected_demand(3600.0, kSecondsPerDay,
                                      2 * kSecondsPerDay),
      30);

  static DemandMatrix top_configs(const DemandMatrix& full, std::size_t k) {
    std::vector<ConfigId> top;
    for (std::size_t c = 0; c < std::min(k, full.config_count()); ++c) {
      top.push_back(full.config_at(c));
    }
    DemandMatrix out = make_demand_matrix(top, full.slot_count());
    for (TimeSlot t = 0; t < full.slot_count(); ++t) {
      for (std::size_t c = 0; c < top.size(); ++c) {
        out.set_demand(t, c, full.demand(t, c));
      }
    }
    return out;
  }

  [[nodiscard]] EvalContext ctx() const {
    return {&scenario.world(), &scenario.topology(), &scenario.latency(),
            scenario.registry.get(), &loads};
  }
};

std::size_t total_iterations(const ProvisionResult& result) {
  std::size_t total = 0;
  for (const ScenarioOutcome& s : result.scenarios) total += s.lp_iterations;
  return total;
}

/// `demand` with column c scaled by factor(c).
template <typename Factor>
DemandMatrix scaled(const DemandMatrix& demand, Factor factor) {
  DemandMatrix out = demand;
  for (TimeSlot t = 0; t < out.slot_count(); ++t) {
    for (std::size_t c = 0; c < out.config_count(); ++c) {
      out.set_demand(t, c, out.demand(t, c) * factor(c));
    }
  }
  return out;
}

/// The closed loop's uniform correction and a per-config one.
DemandMatrix uniform_115(const DemandMatrix& demand) {
  return scaled(demand, [](std::size_t) { return 1.15; });
}
DemandMatrix per_config(const DemandMatrix& demand) {
  return scaled(demand, [](std::size_t c) {
    return 0.8 + 0.1 * static_cast<double>(c % 5);
  });
}

// F0 plus the five single-DC failures. 1,693 iterations when written; the
// same provision with failure scenarios warm-started from F0 took 5,831.
TEST(ProvisionPerfSmoke, DcFailureProvisionIterationsStayBounded) {
  const ApacDesignDay day;
  ProvisionOptions options;
  options.include_link_failures = false;
  const ProvisionResult result =
      SwitchboardProvisioner(day.ctx(), options).provision(day.demand);
  EXPECT_EQ(result.scenarios.size(), 1 + day.scenario.world().dc_count());
  EXPECT_LT(total_iterations(result), 2600u);
}

// Adds every single-WAN-link failure. 3,239 iterations when written; warm
// from F0 it took 29,161.
TEST(ProvisionPerfSmoke, LinkFailureProvisionIterationsStayBounded) {
  const ApacDesignDay day;
  const ProvisionResult result =
      SwitchboardProvisioner(day.ctx(), ProvisionOptions{})
          .provision(day.demand);
  EXPECT_GT(result.scenarios.size(), 1 + day.scenario.world().dc_count());
  EXPECT_LT(total_iterations(result), 5000u);
}

// A warm re-provision at perfbench's uniform x1.15 replan, F0 plus the five
// DC failures: every scenario re-solved its retained model in 0 iterations
// when written (a cold provision takes 1,693).
TEST(ProvisionPerfSmoke, UniformReprovisionIterationsStayBounded) {
  const ApacDesignDay day;
  ProvisionOptions options;
  options.include_link_failures = false;
  const SwitchboardProvisioner prov(day.ctx(), options);
  ScenarioBasisHint hint;
  (void)prov.provision(day.demand, nullptr, &hint);
  const ProvisionResult warm =
      prov.provision(uniform_115(day.demand), &hint, &hint);
  EXPECT_EQ(warm.scenarios.size(), 1 + day.scenario.world().dc_count());
  EXPECT_LT(total_iterations(warm), 50u);
}

// The same at the oracle's per-config factors (0.8 to 1.2): 152 iterations
// when written, 87 of them F0's.
TEST(ProvisionPerfSmoke, PerConfigReprovisionIterationsStayBounded) {
  const ApacDesignDay day;
  ProvisionOptions options;
  options.include_link_failures = false;
  const SwitchboardProvisioner prov(day.ctx(), options);
  ScenarioBasisHint hint;
  (void)prov.provision(day.demand, nullptr, &hint);
  const ProvisionResult warm =
      prov.provision(per_config(day.demand), &hint, &hint);
  EXPECT_EQ(warm.scenarios.size(), 1 + day.scenario.world().dc_count());
  EXPECT_LT(total_iterations(warm), 400u);
}

}  // namespace
}  // namespace sb
