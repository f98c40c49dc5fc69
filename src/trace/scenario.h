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

/// Restricts a demand matrix to its first `top_k` columns (the trace
/// universe is sorted by base rate, so these are the most popular configs —
/// the §5.2 "top 1%" device that keeps the LP tractable).
DemandMatrix top_k_demand(const DemandMatrix& full, std::size_t top_k);

/// A design-day demand matrix: expected demand of the scenario's trace over
/// one representative weekday (Tuesday), `slot_s`-second slots, top-k
/// configs, every cell multiplied by §5.2's planning `cushion`.
DemandMatrix design_day_demand(const Scenario& scenario, double slot_s,
                               std::size_t top_k, double cushion = 1.0);

}  // namespace sb
