// Provisioning iteration tripwires (ctest label lp_perf, run in both
// compiler CI jobs and under TSan). A cold provision() solves F0 and every
// failure scenario cold, so on the APAC design day each scenario LP goes
// through the block decomposition. A re-provision through the cold run's
// hint re-solves every scenario's retained model through the dual simplex.
// These tests pin the summed simplex iterations of both under thresholds
// with headroom, far below what the same LPs take warm-started from F0's
// basis.
#include <gtest/gtest.h>

#include "apac_design_day.h"
#include "core/provisioner.h"
#include "obs/metrics.h"

namespace sb {
namespace {

using test::ApacDesignDay;
using test::per_config;
using test::uniform_115;

std::size_t total_iterations(const ProvisionResult& result) {
  std::size_t total = 0;
  for (const ScenarioOutcome& s : result.scenarios) total += s.lp_iterations;
  return total;
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

// Every decomposed solve of the cold design-day provision stitches its
// blocks' bases into the clean-up's start. A failed block sub-solve would
// instead degrade the solve to a cold clean-up, which
// sb.lp.decompose_cold_cleanups counts.
TEST(ProvisionPerfSmoke, ColdProvisionNeverFallsBackToAColdCleanup) {
#ifdef SB_METRICS_ENABLED
  obs::MetricsRegistry& registry = obs::MetricsRegistry::global();
  const obs::Counter& decomposed = registry.counter("sb.lp.decompose_solves");
  const obs::Counter& cold_cleanups =
      registry.counter("sb.lp.decompose_cold_cleanups");
  const std::uint64_t decomposed_before = decomposed.value();
  const std::uint64_t cold_before = cold_cleanups.value();
#endif
  const ApacDesignDay day;
  (void)SwitchboardProvisioner(day.ctx(), ProvisionOptions{})
      .provision(day.demand);
#ifdef SB_METRICS_ENABLED
  EXPECT_GT(decomposed.value() - decomposed_before, 0u);
  EXPECT_EQ(cold_cleanups.value() - cold_before, 0u);
#endif
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
  (void)prov.provision(day.demand, &hint);
  const ProvisionResult warm =
      prov.provision(uniform_115(day.demand), &hint);
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
  (void)prov.provision(day.demand, &hint);
  const ProvisionResult warm =
      prov.provision(per_config(day.demand), &hint);
  EXPECT_EQ(warm.scenarios.size(), 1 + day.scenario.world().dc_count());
  EXPECT_LT(total_iterations(warm), 400u);
}

}  // namespace
}  // namespace sb
