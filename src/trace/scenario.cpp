#include "trace/scenario.h"

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

}  // namespace sb
