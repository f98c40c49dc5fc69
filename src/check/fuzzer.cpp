#include "check/fuzzer.h"

#include <algorithm>

#include "common/rng.h"
#include "geo/world_presets.h"
#include "loop/demand_schedule.h"
#include "lp/solver.h"
#include "trace/diurnal.h"
#include "trace/trace_gen.h"

namespace sb::check {

namespace {

/// Stamps a flash-crowd DemandSchedule onto the serialized trace: each call
/// takes its multiplier at (start, first-joiner location) and is thinned
/// (m < 1) or duplicated (m >= 1, fresh ids above the existing range) —
/// the FuzzCall twin of loop::DemandSchedule::scale_trace, kept in sync
/// with its semantics so shrunk repros describe the same transformation.
void apply_flash(std::vector<FuzzCall>& calls, const loop::DemandSchedule& sched,
                 Rng& rng, std::size_t max_calls) {
  std::uint64_t next_id = 0;
  for (const FuzzCall& fc : calls) next_id = std::max(next_id, fc.id + 1);
  std::vector<FuzzCall> scaled;
  scaled.reserve(calls.size());
  for (const FuzzCall& fc : calls) {
    const LocationId first =
        fc.legs.empty() ? LocationId() : fc.legs.front().location;
    const double m = sched.multiplier_at(fc.start_s, first);
    if (m < 1.0) {
      if (rng.chance(m)) scaled.push_back(fc);
      continue;
    }
    scaled.push_back(fc);
    const double extra = m - 1.0;
    auto copies = static_cast<std::size_t>(extra);
    if (rng.chance(extra - static_cast<double>(copies))) ++copies;
    for (std::size_t k = 0; k < copies; ++k) {
      FuzzCall dup = fc;
      dup.id = next_id++;
      scaled.push_back(std::move(dup));
    }
  }
  if (scaled.size() > max_calls) scaled.resize(max_calls);
  calls = std::move(scaled);
}

}  // namespace

FuzzCase ScenarioFuzzer::generate(std::uint64_t seed) const {
  // Mix the raw seed so consecutive --seed-base runs do not feed xoshiro
  // near-identical states (splitmix inside Rng handles most of it; the
  // constant keeps seed 0 away from the Rng default).
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x1234abcdULL);

  FuzzCase c;
  c.seed = seed;

  // World: a handful of locations and DCs over a random geographic box.
  RandomWorldParams wp;
  wp.dc_count = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(params_.min_dcs),
                      static_cast<std::int64_t>(params_.max_dcs)));
  wp.location_count = std::max(
      wp.dc_count, static_cast<std::size_t>(rng.uniform_int(
                       4, static_cast<std::int64_t>(params_.max_locations))));
  wp.knn = static_cast<std::size_t>(rng.uniform_int(2, 3));
  GeoModel geo = make_random_world(rng, wp);
  c.world.locations = geo.world.locations();
  c.world.dcs = geo.world.datacenters();
  c.world.links = geo.topology.links();

  // Config universe + trace shape.
  UniverseParams up;
  up.config_count = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(params_.min_configs),
                      static_cast<std::int64_t>(params_.max_configs)));
  up.zipf_exponent = rng.uniform(0.6, 1.8);
  up.total_peak_rate_per_hour = rng.uniform(params_.min_peak_rate_per_hour,
                                            params_.max_peak_rate_per_hour);
  up.multi_country_prob = rng.uniform(0.0, 0.4);
  up.size_geometric_p = 0.5;
  up.max_participants = 10;

  TraceParams tp;
  tp.bucket_s = 900.0;
  tp.mean_duration_s = rng.uniform(240.0, 1500.0);
  tp.duration_sigma = rng.uniform(0.4, 0.9);
  tp.join_p80_s = rng.uniform(120.0, 360.0);
  tp.media_upgrade_prob = rng.uniform(0.0, 0.8);

  // Window: a weekday daytime stretch so the diurnal shape is non-trivial.
  const double day = static_cast<double>(rng.uniform_int(0, 4));
  const double start_hour = rng.uniform(8.0, 16.0);
  c.window_start_s = day * kSecondsPerDay + start_hour * kSecondsPerHour;
  c.window_end_s =
      c.window_start_s + rng.uniform(params_.min_window_s, params_.max_window_s);

  // Options are drawn BEFORE the trace so their stream position is fixed
  // (db size only gates use_plan after the fact).
  FuzzOptions& o = c.options;
  o.freeze_delay_s = rng.uniform(60.0, 600.0);
  const double buckets[] = {30.0, 60.0, 120.0};
  o.bucket_s = buckets[rng.uniform_index(3)];
  o.slot_s = 900.0;
  const std::size_t shards[] = {1, 2, 4, 16};
  o.shard_count = shards[rng.uniform_index(4)];
  o.sim_threads = static_cast<std::size_t>(rng.uniform_int(2, 4));
  o.use_plan = rng.chance(params_.plan_prob);
  o.with_backup = rng.chance(0.8);
  o.include_link_failures = rng.chance(0.5);
  // Draws of two removed options, discarded so later draws keep each seed.
  (void)rng.chance(0.5);
  (void)rng.chance(0.5);
  o.lp_method = rng.chance(0.8) ? static_cast<int>(lp::Method::kAuto)
                                : static_cast<int>(lp::Method::kSparse);
  o.rebuild_storm = rng.chance(params_.rebuild_storm_prob);
  o.chaos_skip_drain_credit = params_.chaos_skip_drain_credit;
  o.chaos_skip_server_credit = params_.chaos_skip_server_credit;

  // Fleet: optionally split every DC into 2..4 media servers. Cores are at
  // call-footprint scale (a 10-participant video call is ~0.3 cores) so
  // packing pressure, overflow admits, and stragglers all actually occur.
  // Three shapes: uniform, heterogeneous, and single-straggler (one server
  // barely larger than the biggest call).
  const bool with_fleet =
      params_.chaos_skip_server_credit || rng.chance(params_.fleet_prob);
  if (with_fleet) {
    const std::size_t shape = rng.uniform_index(3);
    for (std::uint32_t d = 0; d < c.world.dcs.size(); ++d) {
      const auto n = static_cast<std::size_t>(rng.uniform_int(2, 4));
      const std::size_t straggler = rng.uniform_index(n);
      const double uniform_cores = rng.uniform(0.5, 2.0);
      for (std::size_t s = 0; s < n; ++s) {
        FuzzServer srv;
        srv.dc = d;
        switch (shape) {
          case 0:
            srv.cores = uniform_cores;
            break;
          case 1:
            srv.cores = rng.uniform(0.4, 3.0);
            break;
          default:
            srv.cores =
                s == straggler ? rng.uniform(0.25, 0.5) : rng.uniform(1.5, 3.0);
            break;
        }
        c.world.servers.push_back(srv);
      }
    }
  }

  // Fault storm: outage pairs over the window; durations may straddle the
  // window end (the up edge then lands after the last call event). Fleet
  // cases mix in single-server failures; the server-credit chaos knob needs
  // at least one (the leak only manifests when a drain moves calls).
  auto outages = static_cast<std::size_t>(
      rng.uniform_int(static_cast<std::int64_t>(params_.min_outages),
                      static_cast<std::int64_t>(params_.max_outages)));
  if (params_.chaos_skip_server_credit && outages == 0) outages = 1;
  const double mean_outage_s = rng.uniform(180.0, 1200.0);
  const double server_fraction =
      params_.chaos_skip_server_credit ? 1.0 : params_.server_outage_fraction;
  // The drain-credit leak only fires on DC drains, so that chaos knob
  // concentrates every outage on DCs (the same way the server-credit knob
  // forces server_fraction to 1); detection then lands within the smoke
  // tests' 16-seed budget.
  const double link_fraction = params_.chaos_skip_drain_credit ? 0.0 : 0.25;
  const std::size_t faultable_servers =
      params_.chaos_skip_drain_credit ? 0 : c.world.servers.size();
  const fault::FaultSchedule storm = fault::FaultSchedule::random(
      rng, c.world.dcs.size(), c.world.links.size(), outages, c.window_start_s,
      c.window_end_s, mean_outage_s, link_fraction, faultable_servers,
      server_fraction);
  c.faults = storm.events();

  // Trace: materialize the call records and carry them as plain calls (the
  // config is reconstructed from the legs at materialize time).
  CallConfigRegistry registry;
  const ConfigUniverse universe =
      sample_universe(geo.world, registry, up, rng);
  const TraceGenerator gen(geo.world, registry, universe, DiurnalShape{}, tp,
                           seed);
  const CallRecordDatabase db = gen.generate(c.window_start_s, c.window_end_s);
  c.calls.reserve(std::min(db.size(), params_.max_calls));
  for (const CallRecord& rec : db.records()) {
    if (c.calls.size() >= params_.max_calls) break;
    FuzzCall fc;
    fc.id = rec.id.value();
    fc.media = registry.get(rec.config).media();
    fc.start_s = rec.start_s;
    fc.duration_s = rec.duration_s;
    fc.media_change_offset_s = rec.media_change_offset_s;
    fc.legs = rec.legs;
    c.calls.push_back(std::move(fc));
  }

  if (c.calls.empty()) {
    // Nothing to provision against; fall back to the plan-less path.
    o.use_plan = false;
    o.rebuild_storm = false;
  }
  if (!o.use_plan) o.rebuild_storm = false;

  // Cluster draws come LAST so every earlier draw keeps its stream
  // position: a non-cluster case is byte-identical to the pre-cluster
  // generator's output for the same seed.
  const bool cluster =
      o.use_plan && (params_.worker_kill_storm || params_.chaos_skip_wal_freeze ||
                     rng.chance(params_.cluster_prob));
  if (cluster) {
    const std::size_t worker_choices[] = {1, 2, 4};
    o.workers = std::min(worker_choices[rng.uniform_index(3)], o.shard_count);
    o.lease_ttl_s = rng.uniform(20.0, 120.0);
    o.chaos_skip_wal_freeze = params_.chaos_skip_wal_freeze;
    auto kills = static_cast<std::size_t>(rng.uniform_int(0, 2));
    if (params_.worker_kill_storm) {
      kills = static_cast<std::size_t>(rng.uniform_int(3, 6));
    }
    // The planted WAL bug only manifests across a crash, so chaos mode
    // guarantees at least one kill.
    if (params_.chaos_skip_wal_freeze && kills == 0) kills = 1;
    if (kills > 0) {
      fault::FaultSchedule wstorm;
      for (std::size_t k = 0; k < kills; ++k) {
        const auto w =
            static_cast<std::uint32_t>(rng.uniform_index(o.workers));
        const SimTime at = rng.uniform(c.window_start_s, c.window_end_s);
        const double down_s = rng.uniform(30.0, 900.0);
        wstorm.fail_worker(WorkerId(w), at, down_s);
      }
      for (const fault::FaultEvent& e : wstorm.events()) {
        c.faults.push_back(e);
      }
      // Keep c.faults time-sorted: the oracles' down-at scans early-exit on
      // the first event past t.
      std::stable_sort(c.faults.begin(), c.faults.end(),
                       [](const fault::FaultEvent& a,
                          const fault::FaultEvent& b) { return a.time < b.time; });
    }
  }

  // Closed-loop draws come after the cluster block (same stream-position
  // rule): a non-loop case is byte-identical to the pre-loop generator's
  // output for the same seed. The loop wraps the single-process controller,
  // so cluster cases keep their own wiring.
  const bool loop_candidate = o.use_plan && o.workers == 0;
  if (loop_candidate &&
      (params_.chaos_skip_replan || rng.chance(params_.loop_prob))) {
    o.use_loop = true;
    const double cadences[] = {120.0, 300.0, 600.0};
    o.loop_cadence_s = cadences[rng.uniform_index(3)];
    o.loop_band = rng.uniform(0.15, 0.5);
    // Under-forecast: the loop provisions from truth * scale, the simulator
    // replays the truth, so the observation leaves the band and the loop
    // must correct mid-run.
    o.loop_forecast_scale = rng.uniform(0.3, 0.7);
    o.loop_flash = static_cast<int>(rng.uniform_index(3));
    if (params_.chaos_skip_replan) {
      o.chaos_skip_replan = true;
      // The planted bug only fires on a trigger; make one certain within
      // the smoke tests' seed budget: hard under-forecast, tight band,
      // early first tick, and a freeze delay short enough that calls are
      // observed (the config is unknown before the freeze).
      o.loop_band = std::min(o.loop_band, 0.2);
      o.loop_forecast_scale = std::min(o.loop_forecast_scale, 0.35);
      o.loop_cadence_s = 120.0;
      o.freeze_delay_s = std::min(o.freeze_delay_s, 90.0);
    }
    if (o.loop_flash != 0 && !c.calls.empty()) {
      const double window = c.window_end_s - c.window_start_s;
      loop::DemandSchedule sched;
      // The rebound shape wants a DC outage to echo; without one in the
      // storm it degrades to the global spike.
      const fault::FaultEvent* dc_down = nullptr;
      const fault::FaultEvent* dc_up = nullptr;
      if (o.loop_flash == 2) {
        for (const fault::FaultEvent& e : c.faults) {
          if (e.kind == fault::FaultEvent::Kind::kDcDown && dc_down == nullptr) {
            dc_down = &e;
          } else if (dc_down != nullptr && dc_up == nullptr &&
                     e.kind == fault::FaultEvent::Kind::kDcUp &&
                     e.dc == dc_down->dc) {
            dc_up = &e;
          }
        }
      }
      if (dc_down != nullptr && dc_up != nullptr) {
        const LocationId region = c.world.dcs[dc_down->dc.value()].location;
        sched = loop::DemandSchedule::regional_rebound(
            region, dc_down->time, dc_up->time, rng.uniform(0.1, 0.5),
            rng.uniform(1.5, 3.0), rng.uniform(300.0, 900.0));
      } else {
        const SimTime spike_at = c.window_start_s + window * rng.uniform(0.2, 0.5);
        sched = loop::DemandSchedule::viral_spike(
            spike_at, window * 0.1, rng.uniform(1.5, 3.0), window * 0.2,
            window * 0.1);
      }
      apply_flash(c.calls, sched, rng, params_.max_calls);
    }
  }
  return c;
}

}  // namespace sb::check
