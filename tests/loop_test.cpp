// Property tests for the closed-loop autoscaler (sb_loop) plus unit tests
// for its DemandSchedule flash-crowd shapes and the TimeSeriesRecorder
// feed the loop reads. The scenario harness mirrors the fuzz executor's
// loop wiring: plan from a forecast, replay the truth, let the
// AdaptiveController correct mid-run through Switchboard::install_plan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <vector>

#include "check/fuzz_case.h"
#include "check/fuzzer.h"
#include "check/oracles.h"
#include "core/controller.h"
#include "loop/adaptive.h"
#include "loop/demand_schedule.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "sim/simulator.h"

namespace sb {
namespace {

using check::build_demand;
using check::FuzzCase;
using check::FuzzCall;
using check::Materialized;
using check::ScenarioFuzzer;
using check::scaled_demand;

/// What a gauge read returns: the value set, or 0 from the stub gauges of
/// an SB_METRICS=OFF build (the contract obs_test's no-op suite pins).
double gauge_read(double value) {
#ifdef SB_METRICS_ENABLED
  return value;
#else
  (void)value;
  return 0.0;
#endif
}

constexpr double kWindowS = 3600.0;
constexpr double kSessionS = 450.0;
constexpr std::size_t kLanes = 40;
constexpr double kFreezeS = 30.0;
constexpr double kCadenceS = 700.0;  ///< last cadence point (3500) precedes
                                     ///< the trace tail, so no tick fires in
                                     ///< the end-of-run drain where observed
                                     ///< concurrency collapses to zero
/// Lanes are phase-shifted across a full session so at most a couple of
/// lanes sit in their (unobservable) pre-freeze window at any instant;
/// aligned lanes would dip the frozen count to ~0 at every session boundary.
constexpr double kLaneStaggerS = kSessionS / static_cast<double>(kLanes);

/// A steady-state trace over a fuzzer-generated world: `kLanes` lanes of
/// back-to-back sessions, so total concurrency holds flat at ~kLanes while
/// events (starts, freezes, ends) keep arriving — the loop's ticks only
/// fire on event arrivals. All calls share one config (2 audio legs).
FuzzCase steady_case() {
  FuzzCase c = ScenarioFuzzer().generate(5);
  c.faults.clear();
  c.world.servers.clear();  // fungible core pools; packing has its own tests
  c.window_start_s = 0.0;
  c.window_end_s = kWindowS;
  c.calls.clear();
  const LocationId loc = c.world.dcs[0].location;
  std::uint64_t id = 0;
  const auto sessions = static_cast<std::size_t>(kWindowS / kSessionS);
  for (std::size_t lane = 0; lane < kLanes; ++lane) {
    for (std::size_t k = 0; k < sessions; ++k) {
      FuzzCall fc;
      fc.id = id++;
      fc.media = MediaType::kAudio;
      fc.start_s = static_cast<double>(lane) * kLaneStaggerS +
                   static_cast<double>(k) * kSessionS;
      fc.duration_s = kSessionS;
      fc.legs = {{loc, 0.0}, {loc, 5.0}};
      c.calls.push_back(std::move(fc));
    }
  }
  c.options = check::FuzzOptions{};
  c.options.freeze_delay_s = kFreezeS;
  c.options.bucket_s = 60.0;
  c.options.slot_s = 900.0;
  c.options.shard_count = 4;
  c.options.use_plan = true;
  c.options.use_loop = true;
  c.options.loop_cadence_s = kCadenceS;
  // Ticks compare instantaneous observed concurrency against the
  // slot-AVERAGED forecast; in the first slot the lane ramp-in drags the
  // average ~25% below steady state, so the band must absorb that much.
  c.options.loop_band = 0.35;
  return c;
}

/// Plan-from-forecast, replay-the-truth harness around AdaptiveController.
struct LoopHarness {
  std::unique_ptr<Materialized> m;
  DemandMatrix truth;
  std::unique_ptr<Switchboard> sb;
  std::unique_ptr<loop::AdaptiveController> loop;
  SimReport rep;
  HostingLog log;

  LoopHarness(const FuzzCase& c, double forecast_scale,
              bool chaos_skip_replan = false,
              obs::TimeSeriesRecorder* recorder = nullptr)
      : m(c.materialize()), truth(build_demand(*m, c)) {
    const DemandMatrix forecast =
        forecast_scale == 1.0 ? truth : scaled_demand(truth, forecast_scale);
    ControllerOptions copts;
    copts.slot_s = c.options.slot_s;
    copts.realtime.freeze_delay_s = c.options.freeze_delay_s;
    copts.realtime.shard_count = c.options.shard_count;
    sb = std::make_unique<Switchboard>(m->ctx(), copts);
    sb->provision(forecast);
    sb->build_allocation_plan(forecast, c.window_start_s);
    loop::LoopOptions lopts;
    lopts.cadence_s = c.options.loop_cadence_s;
    lopts.deviation_band = c.options.loop_band;
    lopts.chaos_skip_replan = chaos_skip_replan;
    loop = std::make_unique<loop::AdaptiveController>(
        *sb, m->ctx(), forecast, c.window_start_s, c.options.slot_s, lopts,
        recorder);
  }

  /// The timing-sensitive properties replay one event per batch, so the
  /// loop ticks after every event and lands at the exact cadence crossings.
  /// At the default batch size it ticks only at batch boundaries
  /// (~batch_events/event_rate apart), which the install/chaos tests
  /// exercise where tick placement is free.
  void run(const FuzzCase& c, bool per_event = false) {
    Simulator sim(m->ctx());
    if (per_event) sim.set_batch_events(1);
    rep = sim.run(m->db, *loop, c.options.freeze_delay_s, nullptr,
                  c.options.bucket_s, &log);
  }
};

TEST(AdaptiveLoop, SilentWhenObservationMatchesForecast) {
  const FuzzCase c = steady_case();
  LoopHarness h(c, 1.0);
  h.run(c, /*per_event=*/true);

  const loop::LoopStats s = h.loop->stats();
  EXPECT_GE(s.ticks, 4u);  // cadence points at 700, 1400, 2100, 2800, 3500
  EXPECT_EQ(s.triggers, 0u) << "steady trace matching its forecast must "
                               "never leave the deviation band";
  EXPECT_EQ(s.replans, 0u);
  EXPECT_EQ(s.solve_errors, 0u);
  EXPECT_EQ(h.rep.calls, c.calls.size());
  EXPECT_EQ(h.rep.dropped_calls, 0u);
}

TEST(AdaptiveLoop, CorrectsUnderForecastAndConverges) {
  const FuzzCase c = steady_case();
  obs::TimeSeriesRecorder recorder(&obs::MetricsRegistry::global(),
                                   {.period_s = 60.0});
  LoopHarness h(c, 0.3, false, &recorder);
  h.run(c, /*per_event=*/true);

  const loop::LoopStats s = h.loop->stats();
  EXPECT_GE(s.replans, 1u) << "a 0.3x forecast must trigger a correction";
  EXPECT_EQ(s.solve_errors, 0u);
  EXPECT_EQ(s.triggers, s.replans);
  // Convergence / no thrash: the first correction re-centers the forecast
  // on the observation, so later ticks stay inside the band.
  EXPECT_LE(s.replans, 2u);
  EXPECT_GE(s.ticks, s.replans + 2);

  // Coverage at quiescence: the installed forecast covers the observed
  // steady demand within the freeze-visibility budget (only frozen calls
  // are observable, kFreezeS of every kSessionS session is not).
  const DemandMatrix final_forecast = h.loop->current_forecast();
  const double visible = 1.0 - kFreezeS / kSessionS;
  for (TimeSlot t = 1; t + 1 < final_forecast.slot_count(); ++t) {
    double got = 0.0;
    double want = 0.0;
    for (std::size_t col = 0; col < final_forecast.config_count(); ++col) {
      got += final_forecast.demand(t, col);
      want += h.truth.demand(t, col);
    }
    EXPECT_GE(got, want * visible * 0.9)
        << "slot " << t << " still under-forecast after correction";
  }

  // The loop read its signal through the telemetry feed, not just the
  // shadow counters.
  EXPECT_GT(recorder.sample_count(), 0u);
#ifdef SB_METRICS_ENABLED
  EXPECT_GT(recorder.last("gauge:sb.loop.observed_calls"), 0.0);
#else
  EXPECT_EQ(recorder.last("gauge:sb.loop.observed_calls"), 0.0);
#endif

  // Rebind conservation: a mid-run plan install re-binds live calls; at
  // quiescence nothing may be leaked or double-credited.
  EXPECT_EQ(h.rep.dropped_calls, 0u);
  EXPECT_EQ(h.sb->active_calls(), 0u);
  EXPECT_EQ(h.sb->held_slots(), 0u);
  const RealtimeSelector::Stats rs = h.sb->realtime_stats();
  EXPECT_EQ(rs.slot_debits, rs.slot_credits);
}

TEST(AdaptiveLoop, MidRunInstallCannotDoubleCountBuckets) {
  const FuzzCase c = steady_case();
  auto& reg = obs::MetricsRegistry::global();
  for (std::uint32_t x = 0; x < c.world.dcs.size(); ++x) {
    reg.gauge("sb.sim.dc_peak_cores." + std::to_string(x)).reset();
  }
  LoopHarness h(c, 0.3);
  h.run(c);
  ASSERT_GE(h.loop->stats().replans, 1u) << "needs a mid-run install";

  // The report's bucketed core series must equal an independent recount
  // from the hosting log across the install boundary: the usage tracker is
  // plan-independent, so swapping the plan mid-run must not double-count.
  std::size_t buckets = 0;
  for (const auto& row : h.rep.dc_cores_buckets) {
    buckets = std::max(buckets, row.size());
  }
  const auto counted =
      check::recount_dc_buckets(*h.m, h.log, c.options.bucket_s, buckets);
  ASSERT_EQ(counted.size(), h.rep.dc_cores_buckets.size());
  for (std::size_t x = 0; x < counted.size(); ++x) {
    for (std::size_t b = 0; b < buckets; ++b) {
      const double w = b < counted[x].size() ? counted[x][b] : 0.0;
      const double g =
          b < h.rep.dc_cores_buckets[x].size() ? h.rep.dc_cores_buckets[x][b]
                                               : 0.0;
      ASSERT_NEAR(w, g, 1e-6 * std::max(1.0, std::abs(w)))
          << "dc " << x << " bucket " << b;
    }
  }

  // Per-DC peak gauges are resolved exactly once, at end of run, from the
  // same tracker — so they agree with the report even though a plan was
  // installed mid-run.
  for (std::size_t x = 0; x < h.rep.dc_peak_cores.size(); ++x) {
    EXPECT_EQ(reg.gauge("sb.sim.dc_peak_cores." + std::to_string(x)).value(),
              gauge_read(h.rep.dc_peak_cores[x]))
        << "dc " << x;
  }
}

TEST(AdaptiveLoop, ChaosSkipReplanUnbalancesTheStats) {
  const FuzzCase c = steady_case();
  LoopHarness h(c, 0.3, /*chaos_skip_replan=*/true);
  h.run(c);
  const loop::LoopStats s = h.loop->stats();
  EXPECT_GE(s.triggers, 1u);
  EXPECT_EQ(s.replans, 0u);
  EXPECT_EQ(s.solve_errors, 0u);
  // This imbalance is exactly what the fuzz loop-replan oracle asserts on.
  EXPECT_NE(s.triggers, s.replans + s.solve_errors);
}

// ---------------------------------------------------------------------------
// DemandSchedule
// ---------------------------------------------------------------------------

TEST(DemandSchedule, PhasesComposeMultiplicativelyAndFilterByLocation) {
  loop::DemandSchedule sched;
  sched.add_phase({100.0, 200.0, 2.0, LocationId()});        // global
  sched.add_phase({150.0, 250.0, 3.0, LocationId(1)});       // regional
  const LocationId here(1);
  const LocationId there(2);
  EXPECT_EQ(sched.multiplier_at(50.0, here), 1.0);
  EXPECT_EQ(sched.multiplier_at(120.0, here), 2.0);
  EXPECT_EQ(sched.multiplier_at(180.0, here), 6.0);  // both phases
  EXPECT_EQ(sched.multiplier_at(180.0, there), 2.0); // global only
  EXPECT_EQ(sched.multiplier_at(220.0, here), 3.0);
  EXPECT_EQ(sched.multiplier_at(200.0, there), 1.0); // half-open end
}

TEST(DemandSchedule, ViralSpikeRampsHoldsAndDecays) {
  const auto sched =
      loop::DemandSchedule::viral_spike(1000.0, 400.0, 4.0, 600.0, 400.0);
  const LocationId any(0);
  EXPECT_EQ(sched.multiplier_at(999.0, any), 1.0);
  const double mid_ramp = sched.multiplier_at(1200.0, any);
  EXPECT_GT(mid_ramp, 1.0);
  EXPECT_LT(mid_ramp, 4.0);
  EXPECT_EQ(sched.multiplier_at(1500.0, any), 4.0);  // holding at peak
  EXPECT_EQ(sched.multiplier_at(1900.0, any), 4.0);
  const double mid_decay = sched.multiplier_at(2200.0, any);
  EXPECT_GT(mid_decay, 1.0);
  EXPECT_LT(mid_decay, 4.0);
  EXPECT_EQ(sched.multiplier_at(2600.0, any), 1.0);
}

TEST(DemandSchedule, RegionalReboundCollapsesThenOvershoots) {
  const LocationId region(3);
  const LocationId elsewhere(4);
  const auto sched = loop::DemandSchedule::regional_rebound(
      region, 1000.0, 1600.0, 0.2, 2.5, 500.0);
  EXPECT_EQ(sched.multiplier_at(1200.0, region), 0.2);
  EXPECT_EQ(sched.multiplier_at(1200.0, elsewhere), 1.0);
  EXPECT_EQ(sched.multiplier_at(1700.0, region), 2.5);
  EXPECT_EQ(sched.multiplier_at(1700.0, elsewhere), 1.0);
  EXPECT_EQ(sched.multiplier_at(2200.0, region), 1.0);  // rebound over
}

CallRecordDatabase flat_trace(std::size_t n) {
  CallRecordDatabase db;
  for (std::size_t i = 0; i < n; ++i) {
    CallRecord r;
    r.id = CallId(static_cast<std::uint32_t>(i));
    r.config = ConfigId(0);
    r.start_s = static_cast<double>(i);
    r.duration_s = 300.0;
    r.legs = {{LocationId(0), 0.0}};
    db.add(std::move(r));
  }
  return db;
}

TEST(DemandSchedule, ScaleTraceThinsDuplicatesAndIsDeterministic) {
  const CallRecordDatabase db = flat_trace(400);
  loop::DemandSchedule thin;
  thin.add_phase({0.0, 1000.0, 0.5, LocationId()});
  const CallRecordDatabase a = thin.scale_trace(db, 42);
  const CallRecordDatabase b = thin.scale_trace(db, 42);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.records()[i].id, b.records()[i].id);
    EXPECT_EQ(a.records()[i].start_s, b.records()[i].start_s);
  }
  EXPECT_LT(a.size(), db.size());
  EXPECT_GT(a.size(), db.size() / 4);  // thinning at 0.5, not decimation

  loop::DemandSchedule triple;
  triple.add_phase({0.0, 1000.0, 3.0, LocationId()});
  const CallRecordDatabase t = triple.scale_trace(db, 7);
  EXPECT_EQ(t.size(), db.size() * 3);  // exact: floor(3-1)=2 copies each
  // Duplicates get fresh unique ids above the input's range.
  std::vector<std::uint32_t> ids;
  for (const CallRecord& r : t.records()) ids.push_back(r.id.value());
  std::sort(ids.begin(), ids.end());
  EXPECT_TRUE(std::adjacent_find(ids.begin(), ids.end()) == ids.end());
}

// ---------------------------------------------------------------------------
// TimeSeriesRecorder::last — the feed accessor the loop's tick reads
// ---------------------------------------------------------------------------

TEST(TimeSeriesFeed, LastReturnsMostRecentSampleAndZeroWhenAbsent) {
  auto& reg = obs::MetricsRegistry::global();
  obs::TimeSeriesRecorder rec(&reg, {.period_s = 10.0});
  EXPECT_EQ(rec.last("gauge:loop_test.signal"), 0.0);
  reg.gauge("loop_test.signal").set(17.5);
  rec.force_sample(100.0);
  EXPECT_EQ(rec.last("gauge:loop_test.signal"), gauge_read(17.5));
  reg.gauge("loop_test.signal").set(21.0);
  rec.force_sample(200.0);
  EXPECT_EQ(rec.last("gauge:loop_test.signal"), gauge_read(21.0));
  EXPECT_EQ(rec.last("gauge:loop_test.absent"), 0.0);
}

}  // namespace
}  // namespace sb
