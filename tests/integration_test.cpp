// End-to-end integration tests: the full Switchboard pipeline (demand ->
// provisioning LP -> allocation plan -> realtime selector -> DES replay)
// and the Table 3 orderings between Switchboard and the baselines.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "baselines/locality_first.h"
#include "baselines/round_robin.h"
#include "core/controller.h"
#include "obs/snapshot.h"
#include "sim/simulator.h"
#include "trace/scenario.h"

namespace sb {
namespace {

/// Sends every event on its own: with no batch brackets, each controller
/// event takes its own lock and records its span and latency histogram.
class UnbatchedAllocator : public ControllerAllocator {
 public:
  using ControllerAllocator::ControllerAllocator;
  void batch_begin() override {}
  void batch_end(SimTime /*now*/) override {}
};

class PipelineFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    scenario_ = new Scenario(make_apac_scenario());
    loads_ = new LoadModel(LoadModel::paper_default());
    ctx_ = new EvalContext{&scenario_->world(), &scenario_->topology(),
                           &scenario_->latency(), scenario_->registry.get(),
                           loads_};
    // One Tuesday of expected demand over the top-20 configs, 1-hour slots.
    demand_ = new DemandMatrix(design_day_demand(*scenario_, 3600.0, 20));
  }
  static void TearDownTestSuite() {
    delete demand_;
    delete ctx_;
    delete loads_;
    delete scenario_;
  }

  static Scenario* scenario_;
  static LoadModel* loads_;
  static EvalContext* ctx_;
  static DemandMatrix* demand_;
};
Scenario* PipelineFixture::scenario_ = nullptr;
LoadModel* PipelineFixture::loads_ = nullptr;
EvalContext* PipelineFixture::ctx_ = nullptr;
DemandMatrix* PipelineFixture::demand_ = nullptr;

TEST_F(PipelineFixture, ProvisioningCoversDemandInEveryScenario) {
  ProvisionOptions options;
  options.include_link_failures = false;
  SwitchboardProvisioner provisioner(*ctx_, options);
  const ProvisionResult result = provisioner.provision(*demand_);

  // Every scenario's requirement is dominated by the combined plan.
  for (const ScenarioOutcome& outcome : result.scenarios) {
    for (std::size_t x = 0; x < scenario_->world().dc_count(); ++x) {
      EXPECT_LE(outcome.required.dc_serving_cores[x],
                result.capacity.dc_total_cores(
                    DcId(static_cast<std::uint32_t>(x))) +
                    1e-5)
          << outcome.scenario.name;
    }
    for (std::size_t l = 0; l < scenario_->topology().link_count(); ++l) {
      EXPECT_LE(outcome.required.link_gbps[l],
                result.capacity.link_gbps[l] + 1e-7)
          << outcome.scenario.name;
    }
  }
  // The F0 placement hosts all demand.
  for (TimeSlot t = 0; t < demand_->slot_count(); ++t) {
    for (std::size_t c = 0; c < demand_->config_count(); ++c) {
      EXPECT_NEAR(result.base_placement.total_calls(t, c),
                  demand_->demand(t, c), 1e-4);
    }
  }
}

TEST_F(PipelineFixture, Table3OrderingsHold) {
  // The paper's headline relationships (Table 3), checked on the synthetic
  // workload. Without backup:
  //   cores: SB <= LF (SB never needs more compute than LF)
  //   WAN:   SB <= LF << RR
  //   cost:  SB < LF < RR
  //   ACL:   LF <= SB << RR, SB within the 120 ms constraint
  const BaselineOptions base_options{.with_backup = false};
  const BaselineResult rr =
      provision_round_robin(*demand_, *ctx_, base_options);
  const BaselineResult lf =
      provision_locality_first(*demand_, *ctx_, base_options);

  ProvisionOptions sb_options;
  sb_options.with_backup = false;
  SwitchboardProvisioner provisioner(*ctx_, sb_options);
  const ProvisionResult sb = provisioner.provision(*demand_);

  const World& world = scenario_->world();
  const Topology& topo = scenario_->topology();
  const double rr_cost = rr.capacity.total_cost(world, topo);
  const double lf_cost = lf.capacity.total_cost(world, topo);
  const double sb_cost = sb.capacity.total_cost(world, topo);

  EXPECT_LE(sb.capacity.total_cores(), lf.capacity.total_cores() * 1.001);
  // SB minimizes joint cost, so its raw Gbps can tie LF's (it may trade a
  // little cheap bandwidth for expensive compute); it must never be
  // meaningfully worse.
  EXPECT_LE(sb.capacity.total_wan_gbps(),
            lf.capacity.total_wan_gbps() * 1.25);
  EXPECT_LT(lf.capacity.total_wan_gbps(),
            0.6 * rr.capacity.total_wan_gbps());
  EXPECT_LT(sb_cost, lf_cost * 1.001);
  EXPECT_LT(lf_cost, rr_cost);
  EXPECT_LT(sb.mean_acl_ms, 0.8 * rr.mean_acl_ms);
  EXPECT_LE(sb.mean_acl_ms, kAclThresholdMs + 1.0);
}

TEST_F(PipelineFixture, AllocationPlanRestoresLfLatencyWithBackup) {
  // §6.3: with backup capacity provisioned, Switchboard's allocation ends
  // up with the same latency as LF (it can serve everything locally).
  ProvisionOptions options;
  options.include_link_failures = false;
  SwitchboardProvisioner provisioner(*ctx_, options);
  const ProvisionResult provision = provisioner.provision(*demand_);

  AllocationPlanner planner(*ctx_, {});
  const AllocationPlan plan =
      planner.plan(*demand_, provision.capacity, 3600.0);

  const BaselineResult lf = provision_locality_first(
      *demand_, *ctx_, BaselineOptions{.with_backup = false});
  EXPECT_NEAR(plan.mean_acl_ms, lf.mean_acl_ms, 0.10 * lf.mean_acl_ms);
  EXPECT_LE(plan.mean_acl_ms, provision.mean_acl_ms + 1e-6);
}

TEST_F(PipelineFixture, ControllerEndToEndWithSimulator) {
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.slot_s = 3600.0;
  Switchboard controller(*ctx_, options);
  controller.provision(*demand_);
  controller.build_allocation_plan(*demand_, kSecondsPerDay);

  // Replay four busy hours through the controller-driven selector.
  const double start = kSecondsPerDay + 3.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario_->trace->generate(start, start + 4.0 * kSecondsPerHour);

  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  // Every event is sent unbatched, so each one records its latency
  // histogram sample.
  UnbatchedAllocator allocator(controller);
  Simulator sim(*ctx_);
  const SimReport report = sim.run(db, allocator);
  EXPECT_EQ(report.calls, db.size());

  const RealtimeSelector::Stats stats = controller.realtime_stats();
  EXPECT_EQ(stats.calls_started, db.size());
  // §6.4: migrations are a small fraction of calls.
  EXPECT_LT(report.migration_fraction, 0.12);
  // Most calls belong to planned (top-20) configs' complement — the ones
  // outside the plan fall back gracefully rather than erroring.
  EXPECT_GT(stats.calls_frozen, 0u);

#ifdef SB_METRICS_ENABLED
  // The controller emits one sb.realtime counter per event, so the delta
  // over this replay must match the selector's own accounting exactly.
  const obs::MetricsSnapshot delta =
      obs::snapshot_diff(before, obs::MetricsRegistry::global().snapshot());
  EXPECT_EQ(delta.counter_value("sb.realtime.calls_started"), db.size());
  EXPECT_EQ(delta.counter_value("sb.realtime.calls_ended"), db.size());
  EXPECT_EQ(delta.counter_value("sb.realtime.configs_frozen"),
            stats.calls_frozen);
  EXPECT_EQ(delta.counter_value("sb.realtime.migrations"), report.migrations);
  EXPECT_EQ(delta.counter_value("sb.sim.calls"), db.size());
  const obs::HistogramSample* freeze =
      delta.find_histogram("sb.realtime.freeze_latency_s");
  ASSERT_NE(freeze, nullptr);
  EXPECT_EQ(freeze->data.count, stats.calls_frozen);
  EXPECT_GT(freeze->data.p99(), 0.0);
#endif
}

TEST_F(PipelineFixture, BatchedAndUnbatchedEventsShareOneBody) {
  // One controller and KV store replay the same window twice: through an
  // allocator that sends every event on its own, then through
  // ControllerAllocator, which brackets runs of events in controller event
  // batches. Both go through the same event bodies, so hosting decisions,
  // sb.realtime.* counters and store writes match; only the per-event
  // latency histograms, which a batched event skips, tell the runs apart.
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.slot_s = 3600.0;
  Switchboard controller(*ctx_, options);
  controller.provision(*demand_);
  controller.build_allocation_plan(*demand_, kSecondsPerDay);
  KvStoreOptions store_options;
  store_options.inject_latency = false;
  KvStore store(store_options);
  controller.attach_store(&store);

  const double start = kSecondsPerDay + 3.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario_->trace->generate(start, start + kSecondsPerHour);
  struct Run {
    HostingLog log;
    obs::MetricsSnapshot delta;
  };
  const auto replay = [&](CallAllocator& allocator) {
    Run run;
    Simulator sim(*ctx_);
    const obs::MetricsSnapshot before =
        obs::MetricsRegistry::global().snapshot();
    const SimReport report =
        sim.run(db, allocator, 300.0, nullptr, 60.0, &run.log);
    run.delta = obs::snapshot_diff(before,
                                   obs::MetricsRegistry::global().snapshot());
    EXPECT_EQ(report.calls, db.size());
    EXPECT_EQ(store.size(), 0u);  // every call's key erased at its end
    EXPECT_EQ(controller.active_calls(), 0u);
    EXPECT_EQ(controller.held_slots(), 0u);
    return run;
  };
  UnbatchedAllocator unbatched_allocator(controller);
  ControllerAllocator batched_allocator(controller);
  const Run unbatched = replay(unbatched_allocator);
  const Run batched = replay(batched_allocator);

  EXPECT_TRUE(unbatched.log == batched.log);

#ifdef SB_METRICS_ENABLED
  std::size_t realtime_counters = 0;
  for (const obs::CounterSample& c : unbatched.delta.counters) {
    if (c.name.rfind("sb.realtime.", 0) != 0) continue;
    ++realtime_counters;
    EXPECT_EQ(batched.delta.counter_value(c.name), c.value) << c.name;
  }
  EXPECT_GE(realtime_counters, 5u);
  const auto timed = [](const obs::MetricsSnapshot& delta, const char* name) {
    const obs::HistogramSample* h = delta.find_histogram(name);
    return h == nullptr ? std::uint64_t{0} : h->data.count;
  };
  const std::pair<const char*, const char*> events[] = {
      {"sb.realtime.calls_started", "sb.realtime.start_latency_s"},
      {"sb.realtime.configs_frozen", "sb.realtime.freeze_latency_s"},
      {"sb.realtime.calls_ended", "sb.realtime.end_latency_s"}};
  for (const auto& [counter, histogram] : events) {
    const std::uint64_t count = unbatched.delta.counter_value(counter);
    EXPECT_GT(count, 0u) << counter;
    EXPECT_EQ(timed(unbatched.delta, histogram), count) << histogram;
    EXPECT_EQ(timed(batched.delta, histogram), 0u) << histogram;
  }
#endif
}

TEST_F(PipelineFixture, MetricsSnapshotExportsAllSubsystems) {
#ifndef SB_METRICS_ENABLED
  GTEST_SKIP() << "built with SB_METRICS=OFF";
#else
  // Exercise every instrumented subsystem once: provisioning (lp +
  // provisioner), the allocation plan, and a KV-backed realtime replay
  // (realtime + kvstore + sim).
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.provision.with_backup = false;
  options.slot_s = 3600.0;
  Switchboard controller(*ctx_, options);
  controller.provision(*demand_);
  controller.build_allocation_plan(*demand_, kSecondsPerDay);
  KvStoreOptions store_options;
  store_options.inject_latency = false;
  KvStore store(store_options);
  controller.attach_store(&store);

  const double start = kSecondsPerDay + 3.0 * kSecondsPerHour;
  const CallRecordDatabase db =
      scenario_->trace->generate(start, start + 1.0 * kSecondsPerHour);
  UnbatchedAllocator allocator(controller);
  Simulator sim(*ctx_);
  sim.run(db, allocator);

  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const auto json_path =
      std::filesystem::temp_directory_path() / "sb_metrics_snapshot.json";
  {
    std::ofstream json(json_path);
    snap.write_json(json);
  }

  // The snapshot and its file name metrics from all five subsystems.
  for (const char* subsystem :
       {"sb.realtime.", "sb.provisioner.", "sb.lp.", "sb.kvstore.",
        "sb.sim."}) {
    bool counter_or_gauge_or_hist = false;
    for (const auto& c : snap.counters) {
      if (c.name.rfind(subsystem, 0) == 0) counter_or_gauge_or_hist = true;
    }
    for (const auto& h : snap.histograms) {
      if (h.name.rfind(subsystem, 0) == 0) counter_or_gauge_or_hist = true;
    }
    EXPECT_TRUE(counter_or_gauge_or_hist) << subsystem;
  }

  std::stringstream json_text;
  json_text << std::ifstream(json_path).rdbuf();
  const std::string json_str = json_text.str();
  for (const char* key :
       {"\"counters\"", "\"histograms\"", "sb.lp.solve_s",
        "sb.realtime.freeze_latency_s", "sb.kvstore.op_latency_s",
        "sb.provisioner.scenario_solve_s", "sb.sim.acl_ms", "\"p99\""}) {
    EXPECT_NE(json_str.find(key), std::string::npos) << key;
  }

  std::filesystem::remove(json_path);
#endif
}

TEST_F(PipelineFixture, JointNetworkAblationNeverBeatsJoint) {
  ProvisionOptions joint;
  joint.with_backup = false;
  ProvisionOptions compute_first = joint;
  compute_first.joint_network = false;

  SwitchboardProvisioner joint_prov(*ctx_, joint);
  SwitchboardProvisioner seq_prov(*ctx_, compute_first);
  const ProvisionResult j = joint_prov.provision(*demand_);
  const ProvisionResult s = seq_prov.provision(*demand_);
  const double j_cost =
      j.capacity.total_cost(scenario_->world(), scenario_->topology());
  const double s_cost =
      s.capacity.total_cost(scenario_->world(), scenario_->topology());
  // §4.3: joint optimization can only help total cost.
  EXPECT_LE(j_cost, s_cost * 1.001);
}

}  // namespace
}  // namespace sb
