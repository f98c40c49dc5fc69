// A self-contained, serializable fuzz scenario: the world (locations, DCs,
// WAN links), the call trace, the fault schedule, and every provisioning /
// realtime / simulator option the executor randomizes. A FuzzCase is the
// unit the shrinker minimizes and the unit sb_fuzz --replay consumes — a
// repro file is just `{seed, case}` as JSON, so a failure found on one
// machine deterministically replays on another with no generator state.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "calls/call_record.h"
#include "calls/media.h"
#include "check/json.h"
#include "core/placement.h"
#include "fault/fault_schedule.h"
#include "geo/latency.h"
#include "geo/topology.h"
#include "geo/world.h"

namespace sb::check {

/// One media server in a DC's fleet (name is regenerated, not serialized).
struct FuzzServer {
  std::uint32_t dc = 0;  ///< index into FuzzWorld::dcs
  double cores = 0.0;
};

/// Serialized world: enough to rebuild World + Topology + LatencyMatrix.
/// `servers` is optional (absent key in pre-fleet repro files); when
/// non-empty it must cover every DC (the packed selector requires a fleet
/// beneath each DC it can place on).
struct FuzzWorld {
  std::vector<Location> locations;
  std::vector<Datacenter> dcs;
  std::vector<WanLink> links;  ///< name is regenerated, not serialized
  std::vector<FuzzServer> servers;
};

/// One call, media carried inline so the config registry can be rebuilt
/// from the calls alone (the config is the grouped multiset of leg
/// locations plus this media type).
struct FuzzCall {
  std::uint64_t id = 0;
  MediaType media = MediaType::kAudio;
  double start_s = 0.0;
  double duration_s = 0.0;
  double media_change_offset_s = 0.0;
  std::vector<CallLeg> legs;  ///< sorted by join offset; front = first joiner
};

/// Everything the executor randomizes besides the scenario data itself.
struct FuzzOptions {
  double freeze_delay_s = 300.0;
  double bucket_s = 60.0;  ///< keep integral: the recount oracle's bucket
                           ///< grid must match the tracker's additive grid
  double slot_s = 900.0;
  std::size_t shard_count = 16;
  std::size_t sim_threads = 3;   ///< run_concurrent partition count
  bool use_plan = true;          ///< provision + plan + controller path
  bool with_backup = true;
  bool include_link_failures = true;
  int lp_method = 0;             ///< lp::Method value
  bool rebuild_storm = false;    ///< post-sim plan-rebuild churn phase
  bool chaos_skip_drain_credit = false;  ///< mutation knob (oracle self-test)
  /// Mutation knob: drain/re-home moves skip the packer release on the old
  /// server, leaking per-server occupancy the per-server conservation
  /// oracle must catch. Requires a fleet.
  bool chaos_skip_server_credit = false;
  /// Cluster mode (sb_cluster): controller-worker count over the selector
  /// shards; 0 runs the plain single-process path. Requires use_plan; the
  /// fuzzer clamps it to shard_count.
  std::size_t workers = 0;
  double lease_ttl_s = 30.0;  ///< worker lease TTL (cluster mode only)
  /// Mutation knob: the WAL record is not rewritten at config freeze, so a
  /// worker kill + replay resurrects the pre-freeze row and the end event
  /// credits no slot — planted drift the conservation oracle must catch.
  /// Requires cluster mode and at least one worker kill.
  bool chaos_skip_wal_freeze = false;
  /// Closed-loop mode (sb_loop): wrap the controller in an
  /// AdaptiveController that re-forecasts from observed demand and installs
  /// corrected plans mid-run. Requires use_plan and workers == 0 (the
  /// cluster path owns its own allocator wiring).
  bool use_loop = false;
  double loop_cadence_s = 300.0;    ///< control-tick spacing (sim time)
  double loop_band = 0.25;          ///< deviation band before a replan
  /// The forecast the loop provisions/plans from is the true demand scaled
  /// by this factor; < 1 under-forecasts so the replayed trace drives the
  /// observation out of the band and the loop must correct.
  double loop_forecast_scale = 1.0;
  /// Flash-crowd shape stamped onto the trace at generation time:
  /// 0 = none, 1 = viral spike (global stair-step ramp), 2 = regional
  /// rebound after the first DC recovery in the fault schedule.
  int loop_flash = 0;
  /// Mutation knob: the control tick counts the out-of-band trigger but
  /// silently drops the re-provision — the loop-replan oracle must catch
  /// the stats imbalance. Requires use_loop.
  bool chaos_skip_replan = false;
};

/// A materialized case: the live objects a case deserializes into. Owned
/// behind unique_ptr so the EvalContext pointers stay stable.
struct Materialized {
  World world;
  Topology topology;
  LatencyMatrix latency;
  CallConfigRegistry registry;
  LoadModel loads;
  CallRecordDatabase db;
  fault::FaultSchedule faults;

  explicit Materialized(const struct FuzzCase& c);

  [[nodiscard]] EvalContext ctx() const {
    return {&world, &topology, &latency, &registry, &loads};
  }
};

struct FuzzCase {
  std::uint64_t seed = 0;
  SimTime window_start_s = 0.0;
  SimTime window_end_s = 0.0;
  FuzzWorld world;
  std::vector<FuzzCall> calls;
  std::vector<fault::FaultEvent> faults;
  FuzzOptions options;

  [[nodiscard]] Json to_json() const;
  [[nodiscard]] static FuzzCase from_json(const Json& j);

  /// One-line human description ("seed=7 3 dcs 42 calls 2 faults plan").
  [[nodiscard]] std::string describe() const;

  /// Rebuilds the live objects. Throws InvalidArgument on an inconsistent
  /// case (bad location ids, disconnected topology, ...).
  [[nodiscard]] std::unique_ptr<Materialized> materialize() const;
};

/// Repro file I/O: pretty-printed canonical JSON so repros diff cleanly.
void write_repro(const FuzzCase& c, const std::string& path);
[[nodiscard]] FuzzCase load_repro(const std::string& path);

}  // namespace sb::check
