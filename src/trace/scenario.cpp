#include "trace/scenario.h"

#include <algorithm>
#include <vector>

namespace sb {

namespace {

Scenario make_scenario(GeoModel model, const ScenarioParams& params) {
  require(params.rate_scale > 0.0, "make_scenario: rate_scale");
  Scenario scenario;
  scenario.geo = std::make_unique<GeoModel>(std::move(model));
  scenario.registry = std::make_unique<CallConfigRegistry>();

  Rng rng(params.seed);
  UniverseParams universe_params;
  universe_params.config_count = params.config_count;
  universe_params.total_peak_rate_per_hour *= params.rate_scale;
  ConfigUniverse universe = sample_universe(
      scenario.geo->world, *scenario.registry, universe_params, rng);

  scenario.trace = std::make_unique<TraceGenerator>(
      scenario.geo->world, *scenario.registry, std::move(universe),
      DiurnalShape{}, TraceParams{}, params.seed ^ 0xabcdef12345ULL);
  return scenario;
}

}  // namespace

Scenario make_apac_scenario(const ScenarioParams& params) {
  return make_scenario(make_apac_world(), params);
}

DemandMatrix top_k_demand(const DemandMatrix& full, std::size_t top_k) {
  const std::size_t k = std::min(top_k, full.config_count());
  std::vector<ConfigId> configs;
  configs.reserve(k);
  for (std::size_t i = 0; i < k; ++i) configs.push_back(full.config_at(i));
  DemandMatrix out = make_demand_matrix(std::move(configs), full.slot_count());
  for (TimeSlot t = 0; t < full.slot_count(); ++t) {
    for (std::size_t c = 0; c < k; ++c) {
      out.set_demand(t, c, full.demand(t, c));
    }
  }
  return out;
}

DemandMatrix design_day_demand(const Scenario& scenario, double slot_s,
                               std::size_t top_k, double cushion) {
  DemandMatrix demand = top_k_demand(
      scenario.trace->expected_demand(slot_s, kSecondsPerDay,
                                      2 * kSecondsPerDay),
      top_k);
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      demand.set_demand(t, c, demand.demand(t, c) * cushion);
    }
  }
  return demand;
}

}  // namespace sb
