#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "cluster/controller.h"
#include "fault/failover.h"
#include "fault/fault_schedule.h"
#include "forecast/forecaster.h"
#include "loop/demand_schedule.h"
#include "obs/metrics.h"
#include "obs/snapshot.h"
#include "obs/timeseries.h"
#include "trace/scenario.h"

namespace perfbench {
namespace {

using namespace sb;

// ---- Workload shapes -------------------------------------------------------

/// Everything that differs between the workloads. The pipeline below is
/// shared; these knobs pick which layers carry the load.
struct Shape {
  std::size_t servers_per_dc = 0;  ///< uniform media-server fleet (0 = none)
  double server_cores = 0.0;
  std::size_t top_k = 30;          ///< configs in the design day
  double amplify = 1.0;            ///< trace and plan demand multiplier
  double traced_amplify = 1.0;     ///< smaller volume for the traced run
  double window_h = 2.0;           ///< replay window around the peak slot
  double spike_peak = 0.0;         ///< > 1: flash-crowd viral spike
  bool dc_failure = false;         ///< fail the busiest DC mid-window
  /// Replay under AdaptiveController; else run_concurrent throughput passes.
  bool closed_loop = false;
  std::size_t signal_passes = 1;   ///< signalling passes per cycle
  std::size_t replans = 0;         ///< explicit warm replans per cycle
  std::size_t min_cycles = 3;
};

Shape shape_of(const std::string& workload) {
  Shape s;
  if (workload == "busy_window") {
    s.servers_per_dc = 256;
    s.server_cores = 8.0;
    s.amplify = 200.0;
    s.traced_amplify = 25.0;
    s.window_h = 2.0;
    s.replans = 1;
    s.min_cycles = 5;
  } else {  // flash_crowd
    s.amplify = 60.0;
    s.traced_amplify = 8.0;
    s.window_h = 3.0;
    s.spike_peak = 3.0;
    s.dc_failure = true;
    s.closed_loop = true;
    s.signal_passes = 2;
  }
  return s;
}

constexpr std::uint64_t kPlanningSeed = 1;
constexpr double kSlotS = 3600.0;       // plan slots: hourly design day
constexpr double kFreezeDelayS = 300.0;  // §6.4's A
/// Start jitter of scale_trace's amplified copies.
constexpr double kCopyJitterS = 300.0;
constexpr std::size_t kHistoryWeeks = 8;
constexpr double kHistoryEnd = kHistoryWeeks * kSecondsPerWeek;
/// The design day: the Tuesday after the eight-week history.
constexpr double kPlanStart = kHistoryEnd + kSecondsPerDay;

// ---- Set-up: scenario, fleet and replay trace ------------------------------

struct Setup {
  Scenario scenario;
  LoadModel loads = LoadModel::paper_default();
  EvalContext ctx;
  SimTime window_start = 0.0;
  SimTime window_end = 0.0;
  SimTime peak_time = 0.0;
  CallRecordDatabase db;
  std::vector<CallEvents> signal;  ///< db's calls as signalling events
};

std::unique_ptr<Setup> make_setup(const Shape& shape, std::uint64_t seed,
                                  double amplify) {
  auto s = std::make_unique<Setup>();
  // One fixed scenario supplies the config universe, the eight-week history
  // the forecast reads and the natural replay window; the workload seed
  // drives scale_trace, which picks and jitters the amplified copies.
  // Seeding the scenario itself made the planning LP the variable: over
  // seeds 1-5 the Eq 3 cost moved 3x and cold provision time 3.4x, and a
  // seeded replay day moved flash_crowd's drops between 34k and 63k.
  ScenarioParams params;
  params.seed = kPlanningSeed;
  s->scenario = make_apac_scenario(params);
  if (shape.servers_per_dc > 0) {
    add_uniform_fleet(s->scenario.geo->world, shape.servers_per_dc,
                      shape.server_cores);
  }
  s->ctx = EvalContext{&s->scenario.world(), &s->scenario.topology(),
                       &s->scenario.latency(), s->scenario.registry.get(),
                       &s->loads};

  // The replay window sits on the design day's busiest hour, where the
  // provisioned margins are thinnest.
  const DemandMatrix expected = s->scenario.trace->expected_demand(
      kSlotS, kPlanStart, kPlanStart + kSecondsPerDay);
  TimeSlot peak_slot = 0;
  double peak = -1.0;
  for (TimeSlot t = 0; t < expected.slot_count(); ++t) {
    double total = 0.0;
    for (std::size_t c = 0; c < expected.config_count(); ++c) {
      total += expected.demand(t, c);
    }
    if (total > peak) {
      peak = total;
      peak_slot = t;
    }
  }
  s->peak_time = kPlanStart + (static_cast<double>(peak_slot) + 0.5) * kSlotS;
  const double window_s = shape.window_h * kSecondsPerHour;
  s->window_start = s->peak_time - 0.5 * window_s;
  s->window_end = s->window_start + window_s;

  loop::DemandSchedule schedule;
  if (shape.spike_peak > 1.0) {
    // sec_loop's flash crowd: ramp 40 min, hold 60 min, decay 30 min.
    schedule = loop::DemandSchedule::viral_spike(
        s->window_start + 20.0 * 60.0, 40.0 * 60.0, shape.spike_peak,
        60.0 * 60.0, 30.0 * 60.0);
  }
  schedule.add_phase(
      {0.0, std::numeric_limits<double>::max(), amplify, LocationId()});
  CallRecordDatabase natural;
  {
    obs::Span span("trace.generate", obs::Subsystem::kOther);
    natural = s->scenario.trace->generate(s->window_start, s->window_end);
  }
  s->db = schedule.scale_trace(natural, seed, kCopyJitterS);
  s->signal.reserve(s->db.size());
  for (const CallRecord& r : s->db.records()) {
    s->signal.push_back({&r, &s->scenario.registry->get(r.config),
                         r.duration_s > kFreezeDelayS});
  }
  return s;
}

// ---- Forecast: Holt-Winters -> cushion -> top-K design day -----------------

struct Planning {
  DemandMatrix demand;
  double cushion = 1.0;
};

/// §5.2: forecast every universe config from eight weeks of 30-minute
/// arrival counts, estimate the cushion on the held-out last history week,
/// and keep the design day's top-K configs by forecast volume, in hourly
/// slots, scaled by `amplify`.
Planning forecast_design_day(const Scenario& scenario, std::size_t top_k,
                             double amplify) {
  const TraceGenerator& trace = *scenario.trace;
  const double bucket_s = trace.params().bucket_s;
  const auto season = static_cast<std::size_t>(kSecondsPerWeek / bucket_s);
  const auto day_buckets = static_cast<std::size_t>(kSecondsPerDay / bucket_s);
  const double validation_end = kHistoryEnd - kSecondsPerWeek;
  const std::size_t configs = trace.universe().configs.size();

  std::vector<double> validation_truth(season, 0.0);
  std::vector<double> validation_forecast(season, 0.0);
  std::vector<std::vector<double>> design_day(configs);
  std::vector<double> volume(configs, 0.0);
  for (std::size_t i = 0; i < configs; ++i) {
    std::vector<double> predicted;
    {
      const auto history = trace.arrival_count_series(i, 0.0, validation_end);
      obs::Span span("forecast.fit", obs::Subsystem::kOther);
      predicted = forecast_calls(history, season, season);
    }
    const auto actual =
        trace.arrival_count_series(i, validation_end, kHistoryEnd);
    for (std::size_t b = 0; b < season; ++b) {
      validation_truth[b] += actual[b];
      validation_forecast[b] += predicted[b];
    }
    std::vector<double> horizon;
    {
      const auto history = trace.arrival_count_series(i, 0.0, kHistoryEnd);
      obs::Span span("forecast.fit", obs::Subsystem::kOther);
      horizon = forecast_calls(history, season, 2 * day_buckets);
    }
    design_day[i].assign(horizon.begin() + static_cast<long>(day_buckets),
                         horizon.end());
    for (double v : design_day[i]) volume[i] += v;
  }
  const double cushion =
      estimate_cushion(validation_truth, validation_forecast);

  std::vector<std::size_t> order(configs);
  for (std::size_t i = 0; i < configs; ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&volume](std::size_t a, std::size_t b) {
                     return volume[a] > volume[b];
                   });
  order.resize(std::min(top_k, configs));
  std::vector<std::vector<double>> arrivals;
  std::vector<ConfigId> ids;
  for (std::size_t i : order) {
    arrivals.push_back(design_day[i]);
    ids.push_back(trace.universe().configs[i].config);
  }
  const DemandMatrix half_hourly =
      demand_from_arrivals(arrivals, ids, bucket_s,
                           trace.params().mean_duration_s, cushion);
  const auto per_slot = static_cast<std::size_t>(kSlotS / bucket_s);
  const std::size_t slots = half_hourly.slot_count() / per_slot;
  Planning out{make_demand_matrix(ids, slots), cushion};
  for (std::size_t t = 0; t < slots; ++t) {
    for (std::size_t c = 0; c < ids.size(); ++c) {
      double acc = 0.0;
      for (std::size_t b = 0; b < per_slot; ++b) {
        acc += half_hourly.demand(static_cast<TimeSlot>(t * per_slot + b), c);
      }
      out.demand.set_demand(static_cast<TimeSlot>(t), c,
                            amplify * acc / static_cast<double>(per_slot));
    }
  }
  return out;
}

// ---- One pipeline cycle: provision -> plan -> replay -> signal -> replan ---

/// Outputs a cycle must reproduce exactly on every run of the same seed.
struct Fingerprint {
  std::uint64_t log_digest = 0;
  double cost = 0.0;
  std::uint64_t lp_iterations = 0;  ///< cold provision, cold + warm solves
  std::uint64_t sim_events = 0;     ///< events of the sequential replay
  std::uint64_t replans = 0;
  std::uint64_t moved = 0;
  std::uint64_t dropped = 0;
  bool operator==(const Fingerprint&) const = default;
};

struct CycleReport {
  Fingerprint fp;
  double mean_acl_ms = 0.0;
  double migration_pct = 0.0;
  /// Cycle wall, excluding the victim probe, span folds and cluster pass.
  double wall_s = 0.0;
  double cores_total = 0.0;
  double wan_gbps_total = 0.0;
  double overcap_core_s = 0.0;
  double drain_ms = 0.0;
  std::uint64_t sim_events = 0;  ///< every replayed event of the cycle
  loop::LoopStats loop;
  RealtimeSelector::Stats sel;
  // Cluster pass (traced cycle only).
  double cluster_events_per_s = 0.0;
  double cluster_p50_us = 0.0;
  double cluster_p99_us = 0.0;
  std::uint64_t cluster_wal_writes = 0;
  /// Traced cycle only: the registry just before the cluster pass, so the
  /// sb.* counter deltas cover the same passes as the spans and sel.* counts.
  std::optional<obs::MetricsSnapshot> pre_cluster;
};

/// Samples the end-to-end medians are taken over. Per-event latencies go
/// into a fixed-size histogram, so the memory a run holds (and so
/// peak_rss_mb) does not grow with the number of cycles a faster build
/// fits into --seconds.
struct Samples {
  std::vector<double> provision_s;
  std::vector<double> plan_s;
  std::vector<double> replay_calls_per_s;
  std::vector<double> events_per_s;
  std::vector<double> replan_ms;
  LatencyHistogram latency_us;
};

void add_stats(RealtimeSelector::Stats& into, const RealtimeSelector::Stats& s) {
  into.calls_started += s.calls_started;
  into.calls_frozen += s.calls_frozen;
  into.migrations += s.migrations;
  into.unplanned += s.unplanned;
  into.overflow += s.overflow;
  into.slot_debits += s.slot_debits;
  into.slot_credits += s.slot_credits;
  into.failover_moves += s.failover_moves;
  into.failover_drops += s.failover_drops;
}

std::uint64_t counter(const char* name) {
  return obs::MetricsRegistry::global().counter(name).value();
}

std::uint64_t lp_iterations() {
  return counter("sb.lp.iterations_cold") + counter("sb.lp.iterations_warm");
}

/// Quiescence checks after every pass: no live call, no held plan slot.
void check_quiescent(Outcome& out, const Switchboard& sb, const char* pass) {
  out.check(sb.active_calls() == 0,
            std::string(pass) + ": calls still active at quiescence");
  out.check(sb.held_slots() == 0,
            std::string(pass) + ": plan slots still held at quiescence");
}

/// The DC carrying the most realized load at `at`, from a no-fault replay
/// (sec_loop's victim rule). Leaves the controller quiescent.
DcId busiest_dc(const Simulator& sim, Switchboard& sb, const Setup& s,
                SimTime at) {
  ControllerAllocator alloc(sb);
  const SimReport base = sim.run(s.db, alloc, kFreezeDelayS);
  const auto bucket = static_cast<std::size_t>(at / base.bucket_s) - 1;
  std::size_t busiest = 0;
  double most = -1.0;
  for (std::size_t x = 0; x < base.dc_cores_buckets.size(); ++x) {
    const auto& series = base.dc_cores_buckets[x];
    const double load = bucket < series.size() ? series[bucket] : 0.0;
    if (load > most) {
      most = load;
      busiest = x;
    }
  }
  return DcId(static_cast<std::uint32_t>(busiest));
}

constexpr double kOutageS = 30.0 * 60.0;

CycleReport run_cycle_stages(const Shape& shape, const Setup& s,
                             const Planning& planning, const RunOptions& opt,
                             DcId& victim, Samples& samples, Outcome& out,
                             SpanLedger* ledger, const char*& stage) {
  CycleReport rep;
  const auto t_cycle = Clock::now();
  double excluded_s = 0.0;
  // Folds are the benchmark's own bookkeeping: they stay out of the cycle
  // wall, so obs.trace_overhead_pct covers span recording only.
  const auto fold = [ledger, &excluded_s] {
    if (ledger == nullptr) return;
    const auto t0 = Clock::now();
    ledger->fold();
    excluded_s += seconds_since(t0);
  };
  ControllerOptions options;
  options.provision.include_link_failures = false;
  options.slot_s = kSlotS;
  options.worker_rows = opt.threads;
  Switchboard sb(s.ctx, options);
  const Simulator sim(s.ctx);
  // The demand the live provision was sized for: the forecast, until the
  // closed loop or an explicit replan re-provisions.
  DemandMatrix live_demand = planning.demand;
  // Every plan build of the cycle is a plan_s sample.
  const auto build_plan = [&sb, &live_demand, &samples] {
    const auto t0 = Clock::now();
    sb.build_allocation_plan(live_demand, kPlanStart);
    samples.plan_s.push_back(seconds_since(t0));
  };

  // Cold provision: F0 plus every single-DC failure scenario.
  ScenarioBasisHint basis;
  std::vector<double> dc_capacity;
  stage = "cold provision";
  {
    obs::Span span("bench.provision", obs::Subsystem::kOther);
    const std::uint64_t it0 = lp_iterations();
    const auto t0 = Clock::now();
    const ProvisionResult& pr = sb.provision(planning.demand, nullptr, &basis);
    samples.provision_s.push_back(seconds_since(t0));
    rep.fp.lp_iterations = lp_iterations() - it0;
    span.finish();
    rep.fp.cost = pr.capacity.total_cost(s.scenario.world(),
                                         s.scenario.topology());
    rep.cores_total = pr.capacity.total_cores();
    rep.wan_gbps_total = pr.capacity.total_wan_gbps();
    for (const DcId dc : s.scenario.world().dc_ids()) {
      dc_capacity.push_back(pr.capacity.dc_total_cores(dc));
    }
  }
  fold();
  stage = "plan";
  {
    obs::Span span("bench.plan", obs::Subsystem::kOther);
    build_plan();
  }
  fold();

  fault::FaultSchedule faults;
  if (shape.dc_failure) {
    if (!victim.valid()) {
      const auto t0 = Clock::now();
      victim = busiest_dc(sim, sb, s, s.peak_time);
      build_plan();
      excluded_s += seconds_since(t0);
      fold();
    }
    faults.fail_dc(victim, s.peak_time, kOutageS);
  }
  const fault::FaultSchedule* fault_ptr = shape.dc_failure ? &faults : nullptr;

  stage = "sequential replay";
  // Sequential replay: exact, so it carries the quality metrics and the
  // hosting-log digest. Under the closed loop it is also the timed replay.
  {
    HostingLog log;
    SimReport q;
    obs::Span span("bench.replay", obs::Subsystem::kOther);
    if (shape.closed_loop) {
      obs::TimeSeriesRecorder recorder(&obs::MetricsRegistry::global(),
                                       {.period_s = 60.0});
      loop::LoopOptions lopts;
      lopts.cadence_s = 300.0;
      lopts.deviation_band = 0.3;
      loop::AdaptiveController adaptive(sb, s.ctx, planning.demand,
                                        kPlanStart, kSlotS, lopts, &recorder);
      TimedAllocator timed(adaptive, &adaptive);
      const auto t0 = Clock::now();
      q = sim.run(s.db, timed, kFreezeDelayS, fault_ptr, 60.0, &log);
      samples.replay_calls_per_s.push_back(static_cast<double>(q.calls) /
                                           seconds_since(t0));
      rep.loop = adaptive.stats();
      live_demand = adaptive.current_forecast();
      rep.drain_ms = timed.drain_ms();
      samples.replan_ms.insert(samples.replan_ms.end(),
                               timed.replan_ms().begin(),
                               timed.replan_ms().end());
      out.check(timed.replan_ms().size() == rep.loop.replans,
                "replan timer saw a different replan count than the loop");
    } else {
      ControllerAllocator inner(sb);
      TimedAllocator timed(inner);
      q = sim.run(s.db, timed, kFreezeDelayS, fault_ptr, 60.0, &log);
      rep.drain_ms = timed.drain_ms();
    }
    span.finish();
    const LogTally t = tally(log);
    out.check(t.started == s.db.size(), "replay did not start every call");
    out.check(t.started == t.ended + t.dropped,
              "replay: calls started != calls ended + calls dropped");
    check_quiescent(out, sb, "sequential replay");
    add_stats(rep.sel, sb.realtime_stats());
    rep.fp.log_digest = digest(log);
    rep.fp.sim_events = q.calls + q.frozen + t.ended;
    rep.fp.replans = rep.loop.replans;
    rep.fp.moved = q.failover_migrations;
    rep.fp.dropped = q.dropped_calls;
    rep.sim_events += rep.fp.sim_events;
    rep.mean_acl_ms = q.mean_acl_ms;
    rep.migration_pct = 100.0 * q.migration_fraction;
    rep.overcap_core_s =
        fault::over_capacity_core_s(q.dc_cores_buckets, dc_capacity, q.bucket_s);
    out.attempted += q.calls;
    out.failed += q.dropped_calls;
  }
  fold();

  // Throughput replay on a fresh plan (the loop's replay above is its own).
  stage = "throughput replay";
  if (!shape.closed_loop) {
    obs::Span span("bench.throughput", obs::Subsystem::kOther);
    // run_concurrent's first pass pays one-off allocation costs; it runs
    // untimed, and the second pass is the sample.
    for (int pass = 0; pass < 2; ++pass) {
      build_plan();
      ControllerAllocator alloc(sb);
      const auto t0 = Clock::now();
      const SimReport rr = sim.run_concurrent(s.db, alloc, kFreezeDelayS,
                                              opt.threads, fault_ptr);
      const double dt = seconds_since(t0);
      if (pass == 1) {
        samples.replay_calls_per_s.push_back(static_cast<double>(rr.calls) /
                                             dt);
      }
      out.check(rr.calls == s.db.size(), "throughput replay lost calls");
      check_quiescent(out, sb, "throughput replay");
      add_stats(rep.sel, sb.realtime_stats());
      rep.sim_events += rr.calls + rr.frozen + (rr.calls - rr.dropped_calls);
      out.attempted += rr.calls;
      out.failed += rr.dropped_calls;
      fold();
    }
  }

  stage = "signalling pass";
  // Closed-loop signalling straight into the Switchboard event API. One set
  // of client threads runs all of the cycle's passes.
  build_plan();
  {
    obs::Span span("bench.signal", obs::Subsystem::kOther);
    const SignalResult r = signal_pass(
        sb, s.signal, kFreezeDelayS, opt.threads, shape.signal_passes,
        ledger != nullptr ? 8 : 1, span.id(), fold);
    span.finish();
    samples.events_per_s.push_back(static_cast<double>(r.events) / r.wall_s);
    samples.latency_us.add(r.latency_us);
    check_quiescent(out, sb, "signalling pass");
    add_stats(rep.sel, sb.realtime_stats());
    out.attempted += r.calls;
    out.failed += r.throws;
  }
  fold();

  stage = "replan";
  // Explicit replans (the closed loop's tick, driven from outside): a warm
  // re-provision from the cold basis plus a live plan install.
  for (std::size_t k = 0; k < shape.replans; ++k) {
    DemandMatrix corrected = planning.demand;
    const double factor = k % 2 == 0 ? 1.15 : 0.9;
    for (TimeSlot t = 0; t < corrected.slot_count(); ++t) {
      for (std::size_t c = 0; c < corrected.config_count(); ++c) {
        corrected.set_demand(t, c, corrected.demand(t, c) * factor);
      }
    }
    obs::Span span("bench.replan", obs::Subsystem::kOther);
    const auto t0 = Clock::now();
    (void)sb.provision(corrected, &basis, &basis);
    sb.install_plan(corrected, kPlanStart, s.window_end);
    samples.replan_ms.push_back(seconds_since(t0) * 1e3);
    live_demand = std::move(corrected);
    span.finish();
    check_quiescent(out, sb, "replan");
    fold();
  }
  rep.wall_s = seconds_since(t_cycle) - excluded_s;

  // Traced only: the same signalling through the sharded cluster facade.
  stage = "cluster pass";
  if (ledger != nullptr) {
    rep.pre_cluster = obs::MetricsRegistry::global().snapshot();
    SpanLedger cluster_ledger;
    const auto cluster_fold = [&cluster_ledger] { cluster_ledger.fold(); };
    sb.build_allocation_plan(live_demand, kPlanStart);
    // Client threads are not sim-time aligned, so leases must not expire
    // between one thread's events.
    cluster::ClusterController cl(
        sb, cluster::ClusterOptions{.workers = opt.threads,
                                    .lease_ttl_s = kSecondsPerWeek});
    SignalResult r = signal_pass(cl, s.signal, kFreezeDelayS, opt.threads,
                                 shape.signal_passes, 8, 0, cluster_fold);
    cluster_ledger.fold();
    rep.cluster_events_per_s = static_cast<double>(r.events) / r.wall_s;
    LatencyHistogram latency;
    latency.add(r.latency_us);
    rep.cluster_p50_us = latency.quantile(0.5);
    rep.cluster_p99_us = latency.quantile(0.99);
    rep.cluster_wal_writes = cl.stats().wal_writes;
    out.check(cl.wal_size() == 0, "cluster pass left WAL records behind");
    check_quiescent(out, sb, "cluster pass");
    out.attempted += r.calls;
    out.failed += r.throws;
  }
  return rep;
}

/// run_cycle_stages, with the failing stage named in any error.
CycleReport run_cycle(const Shape& shape, const Setup& s,
                      const Planning& planning, const RunOptions& opt,
                      DcId& victim, Samples& samples, Outcome& out,
                      SpanLedger* ledger) {
  const char* stage = "set-up";
  try {
    return run_cycle_stages(shape, s, planning, opt, victim, samples, out,
                            ledger, stage);
  } catch (const std::exception& e) {
    throw std::runtime_error(std::string(stage) + ": " + e.what());
  }
}

// ---- Reports ----------------------------------------------------------------

std::string fmt(double v, int digits) {
  std::ostringstream os;
  os << std::fixed << std::setprecision(digits) << v;
  return os.str();
}

void print_fingerprint(const std::string& workload, const CycleReport& r,
                       const Planning& planning, std::size_t calls) {
  std::cout << "fingerprint " << workload << ": calls " << calls
            << ", cushion " << fmt(planning.cushion, 6) << ", digest "
            << std::hex << r.fp.log_digest << std::dec << ", cost "
            << fmt(r.fp.cost, 6) << ", lp iterations " << r.fp.lp_iterations
            << ", events " << r.fp.sim_events << ", replans " << r.fp.replans
            << ", drain moved " << r.fp.moved << ", dropped " << r.fp.dropped
            << "\n";
}

/// Layers of the share-of-wall table, in pipeline order.
const std::vector<std::string>& share_layers() {
  static const std::vector<std::string> layers = {
      "trace", "forecast", "prov", "lp",  "plan", "ctl",  "sel",
      "pack",  "drain",    "sim",  "loop", "bench"};
  return layers;
}

void print_share_table(const std::string& workload,
                       const std::map<std::string, double>& self_s,
                       double total_s) {
  std::cout << "share of traced time by layer (" << workload
            << ", span self time):\n";
  for (const auto& [layer, s] : self_s) {
    std::cout << "  " << std::left << std::setw(10) << layer << std::right
              << std::setw(12) << fmt(s, 4) << " s  " << std::setw(7)
              << fmt(total_s > 0.0 ? 100.0 * s / total_s : 0.0, 2) << " %\n";
  }
}

// ---- Runs ---------------------------------------------------------------------

Outcome untraced(const Shape& shape, const RunOptions& opt) {
  Outcome out;
  std::vector<double> setup_s;
  std::unique_ptr<Setup> s;
  std::size_t calls = 0;
  for (int r = 0; r < 5; ++r) {
    s.reset();
    const auto t0 = Clock::now();
    s = make_setup(shape, opt.seed, shape.amplify);
    setup_s.push_back(seconds_since(t0));
    if (r == 0) calls = s->db.size();
    out.check(s->db.size() == calls, "set-up is not deterministic");
  }
  // One forecast feeds the plan; each cycle re-runs it, so the forecast_s
  // samples spread over the run like the other stages' samples.
  std::vector<double> forecast_s;
  const auto timed_forecast = [&] {
    const auto t0 = Clock::now();
    Planning p = forecast_design_day(s->scenario, shape.top_k, shape.amplify);
    forecast_s.push_back(seconds_since(t0));
    return p;
  };
  const Planning planning = timed_forecast();

  Samples samples;
  DcId victim;
  std::optional<CycleReport> first;
  const auto t_measure = Clock::now();
  std::size_t cycles = 0;
  while (cycles < shape.min_cycles || seconds_since(t_measure) < opt.seconds) {
    out.check(timed_forecast().demand.total() == planning.demand.total(),
              "forecast is not deterministic");
    const CycleReport rep =
        run_cycle(shape, *s, planning, opt, victim, samples, out, nullptr);
    ++cycles;
    if (!first) {
      first = rep;
    } else {
      out.check(rep.fp == first->fp,
                "cycle " + std::to_string(cycles) +
                    " did not reproduce the first cycle's outputs");
    }
  }
  print_fingerprint(opt.workload, *first, planning, calls);
  std::cout << "cycles " << cycles << ", setups " << setup_s.size()
            << ", forecasts " << forecast_s.size() << ", cold provisions "
            << samples.provision_s.size() << ", replays "
            << samples.replay_calls_per_s.size() << ", replans "
            << samples.replan_ms.size() << ", signalling samples "
            << samples.latency_us.count() << "\n";

  const auto print_samples = [](const char* name,
                                  const std::vector<double>& v) {
    std::cout << "samples " << name << ":";
    for (const double x : v) std::cout << " " << x;
    std::cout << "\n";
  };
  print_samples("setup_s", setup_s);
  print_samples("forecast_s", forecast_s);
  print_samples("provision_s", samples.provision_s);
  print_samples("plan_s", samples.plan_s);
  print_samples("replay_calls_per_s", samples.replay_calls_per_s);
  print_samples("events_per_s", samples.events_per_s);
  print_samples("replan_ms", samples.replan_ms);

  out.add("setup_s", median(setup_s), "s");
  out.add("forecast_s", median(forecast_s), "s");
  out.add("provision_s", median(samples.provision_s), "s");
  out.add("replay_calls_per_s", median(samples.replay_calls_per_s), "calls/s");
  out.add("events_per_s", median(samples.events_per_s), "events/s");
  out.add("event_p50_us", samples.latency_us.quantile(0.5), "us");
  out.add("event_p99_us", samples.latency_us.quantile(0.99), "us");
  out.add("replan_ms_p50", median(samples.replan_ms), "ms");
  out.add("mean_acl_ms", first->mean_acl_ms, "ms");
  out.add("migration_pct", first->migration_pct, "%");
  out.add("provisioned_cost", first->fp.cost, "eq3");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
  return out;
}

Outcome traced(const Shape& shape, const RunOptions& opt) {
  Outcome out;
  SpanLedger ledger;
  obs::SpanRecorder& recorder = obs::SpanRecorder::global();
  const std::unique_ptr<Setup> s =
      make_setup(shape, opt.seed, shape.traced_amplify);
  ledger.fold();
  const Planning planning =
      forecast_design_day(s->scenario, shape.top_k, shape.traced_amplify);
  ledger.fold();

  // An untraced reference cycle, then the same cycle traced: the pair gives
  // the tracing overhead, and both must produce the same outputs.
  Samples ref_samples;
  DcId victim;
  recorder.set_enabled(false);
  const CycleReport ref =
      run_cycle(shape, *s, planning, opt, victim, ref_samples, out, nullptr);
  recorder.set_enabled(true);
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();
  Samples samples;
  const CycleReport tr =
      run_cycle(shape, *s, planning, opt, victim, samples, out, &ledger);
  recorder.set_enabled(false);
  // Counter deltas stop before the cluster pass, like the span ledger and
  // the selector stats.
  const obs::MetricsSnapshot delta = obs::snapshot_diff(before, *tr.pre_cluster);
  out.check(tr.fp == ref.fp, "tracing changed the cycle's outputs");
  print_fingerprint(opt.workload, tr, planning, s->db.size());

  const std::map<std::string, double> layers = ledger.layer_self_s();
  double total_self = 0.0;
  for (const auto& [layer, self] : layers) total_self += self;
  print_share_table(opt.workload, layers, total_self);

  const auto span_total = [&ledger](const char* name) {
    return ledger.get(name).total_s;
  };
  const auto span_count = [&ledger](const char* name) {
    return static_cast<double>(ledger.get(name).count);
  };
  const auto layer_self = [&layers](const char* layer) {
    const auto it = layers.find(layer);
    return it == layers.end() ? 0.0 : it->second;
  };
  const auto count = [&out](const std::string& name, double v) {
    out.add(name, v, "count");
  };
  const auto secs = [&out](const std::string& name, double v) {
    out.add(name, v, "s");
  };

  secs("trace.generate_s", span_total("trace.generate"));
  count("trace.calls", static_cast<double>(s->db.size()));
  secs("forecast.fit_s", span_total("forecast.fit"));
  count("forecast.series", span_count("forecast.fit"));
  count("prov.scenarios", span_count("prov.scenario"));
  secs("prov.scenario_s", span_total("prov.scenario"));
  out.add("prov.cores_total", tr.cores_total, "cores");
  out.add("prov.wan_gbps_total", tr.wan_gbps_total, "Gbps");
  for (const char* name :
       {"solves", "iterations_cold", "iterations_warm", "factorizations",
        "pricing_passes", "bound_flips", "devex_resets", "decompose_blocks",
        "decompose_cleanup_iterations"}) {
    count(std::string("lp.") + name,
          static_cast<double>(
              delta.counter_value(std::string("sb.lp.") + name)));
  }
  for (const char* phase :
       {"phase1", "phase2", "decompose", "dual", "presolve"}) {
    secs(std::string("lp.") + phase + "_s",
         ledger.get(std::string("lp.") + phase).self_s);
  }
  secs("plan.build_s", span_total("ctl.plan_rebuild"));
  secs("plan.install_s", span_total("ctl.plan_install"));
  count("plan.installs", span_count("ctl.plan_install"));
  count("sel.admits", static_cast<double>(tr.sel.calls_started));
  count("sel.freezes", static_cast<double>(tr.sel.calls_frozen));
  count("sel.migrations", static_cast<double>(tr.sel.migrations));
  count("sel.unplanned", static_cast<double>(tr.sel.unplanned));
  count("sel.overflow", static_cast<double>(tr.sel.overflow));
  count("sel.slot_debits", static_cast<double>(tr.sel.slot_debits));
  secs("sel.self_s", layer_self("sel"));
  secs("sel.rebind_s", span_total("sel.rebind"));
  for (const char* name : {"admits", "overcommit_admits", "cas_retries"}) {
    count(std::string("pack.") + name,
          static_cast<double>(
              delta.counter_value(std::string("sb.pack.") + name)));
  }
  secs("pack.admit_s", span_total("pack.admit"));
  count("sim.events", static_cast<double>(tr.sim_events));
  secs("sim.self_s", layer_self("sim"));
  out.add("sim.overcap_core_s", tr.overcap_core_s, "core-s");
  count("loop.ticks", static_cast<double>(tr.loop.ticks));
  count("loop.triggers", static_cast<double>(tr.loop.triggers));
  count("loop.replans", static_cast<double>(tr.loop.replans));
  count("loop.solve_errors", static_cast<double>(tr.loop.solve_errors));
  const obs::HistogramSample* tick = delta.find_histogram("sb.loop.tick_s");
  secs("loop.tick_s", tick != nullptr ? tick->data.sum : 0.0);
  out.add("drain.dc_ms", tr.drain_ms, "ms");
  count("drain.moved", static_cast<double>(tr.fp.moved));
  count("drain.dropped", static_cast<double>(tr.fp.dropped));
  out.add("cluster.events_per_s", tr.cluster_events_per_s, "events/s");
  out.add("cluster.event_us_p50", tr.cluster_p50_us, "us");
  out.add("cluster.event_us_p99", tr.cluster_p99_us, "us");
  count("cluster.wal_writes", static_cast<double>(tr.cluster_wal_writes));
  out.add("obs.trace_overhead_pct", 100.0 * (tr.wall_s / ref.wall_s - 1.0),
          "%");
  count("obs.spans_dropped", static_cast<double>(ledger.dropped()));
  for (const std::string& layer : share_layers()) {
    out.add("share." + layer + "_pct",
            total_self > 0.0 ? 100.0 * layer_self(layer.c_str()) / total_self
                             : 0.0,
            "%");
  }
  return out;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"busy_window", "flash_crowd"};
  return names;
}

Outcome run_workload(const RunOptions& options) {
  const Shape shape = shape_of(options.workload);
  obs::SpanRecorder& recorder = obs::SpanRecorder::global();
  if (options.trace) {
    // Sized so the largest single library call of any traced workload fits
    // one thread's ring: nothing is dropped between folds.
    recorder.configure({.enabled = true, .ring_capacity = 1u << 18});
    return traced(shape, options);
  }
  recorder.set_enabled(false);
  return untraced(shape, options);
}

}  // namespace perfbench
