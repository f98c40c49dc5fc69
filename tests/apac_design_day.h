// Shared test fixture: the APAC preset with scenario seed 1, top 30 configs
// of the expected demand over one design day in 3600 s slots (24 x 30 x 5
// DCs) — the shape micro_controller's ReprovisionDay benches.
#pragma once

#include "calls/demand.h"
#include "core/placement.h"
#include "trace/scenario.h"

namespace sb::test {

struct ApacDesignDay {
  Scenario scenario = make_apac_scenario({.seed = 1});
  LoadModel loads = LoadModel::paper_default();
  DemandMatrix demand = design_day_demand(scenario, 3600.0, 30);

  [[nodiscard]] EvalContext ctx() const {
    return {&scenario.world(), &scenario.topology(), &scenario.latency(),
            scenario.registry.get(), &loads};
  }
};

/// `demand` with column c scaled by factor(c).
template <typename Factor>
DemandMatrix scaled(const DemandMatrix& demand, Factor factor) {
  DemandMatrix out = demand;
  for (TimeSlot t = 0; t < out.slot_count(); ++t) {
    for (std::size_t c = 0; c < out.config_count(); ++c) {
      out.set_demand(t, c, out.demand(t, c) * factor(c));
    }
  }
  return out;
}

/// The closed loop's uniform correction and a per-config one (factors 0.8
/// to 1.2).
inline DemandMatrix uniform_115(const DemandMatrix& demand) {
  return scaled(demand, [](std::size_t) { return 1.15; });
}
inline DemandMatrix per_config(const DemandMatrix& demand) {
  return scaled(demand, [](std::size_t c) {
    return 0.8 + 0.1 * static_cast<double>(c % 5);
  });
}

}  // namespace sb::test
