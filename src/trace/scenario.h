// Named end-to-end scenarios bundling a world, a config universe, and a
// trace generator. Benches and examples start from these so their inputs
// are consistent and reproducible.
#pragma once

#include <memory>

#include "geo/world_presets.h"
#include "trace/trace_gen.h"

namespace sb {

/// A self-contained workload scenario. Held by unique_ptr members so the
/// TraceGenerator's borrowed references stay valid if the Scenario moves.
struct Scenario {
  std::unique_ptr<GeoModel> geo;
  std::unique_ptr<CallConfigRegistry> registry;
  std::unique_ptr<TraceGenerator> trace;

  [[nodiscard]] const World& world() const { return geo->world; }
  [[nodiscard]] const Topology& topology() const { return geo->topology; }
  [[nodiscard]] const LatencyMatrix& latency() const { return geo->latency; }
};

struct ScenarioParams {
  /// Multiplies the universe's total arrival rate; 1.0 is the default
  /// laptop-scale workload (peak ~1200 calls/hour region-wide).
  double rate_scale = 1.0;
  std::size_t config_count = 400;
  std::uint64_t seed = 7;
};

/// The paper's expository setting: the APAC region world with a Zipf config
/// universe homed across its countries.
Scenario make_apac_scenario(const ScenarioParams& params = {});

}  // namespace sb
