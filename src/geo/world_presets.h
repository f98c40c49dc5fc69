// Canonical synthetic worlds used by tests, examples, and benches, plus a
// randomized world generator for property tests. The APAC world mirrors the
// paper's running example (§2.1: Hong Kong, India, Japan, Singapore DCs).
#pragma once

#include "common/rng.h"
#include "geo/latency.h"
#include "geo/topology.h"
#include "geo/world.h"

namespace sb {

/// A world plus its WAN topology and model-derived latency matrix.
struct GeoModel {
  World world;
  Topology topology;
  LatencyMatrix latency;
};

/// Asia-Pacific region: 15 countries, 5 DCs (India, Japan, Singapore,
/// Hong Kong, Australia), k-nearest-neighbor WAN. Matches the paper's
/// expository setting where all participants share a region.
GeoModel make_apac_world();

/// Parameters for random world generation (property tests).
struct RandomWorldParams {
  std::size_t location_count = 12;
  std::size_t dc_count = 4;
  double lat_span_deg = 60.0;   ///< locations scattered over this span
  double lon_span_deg = 120.0;  ///< and this longitude span
  std::size_t knn = 3;
};

/// Scatters locations uniformly over a geographic box, places DCs at
/// distinct random locations, builds a knn topology. UTC offsets follow
/// longitude (15 degrees per hour), so diurnal peaks shift realistically.
GeoModel make_random_world(Rng& rng, const RandomWorldParams& params = {});

/// Splits every DC of an existing world into a uniform media-server fleet:
/// `servers_per_dc` servers named "<DC>-ms<i>", each with
/// `cores_per_server` physical cores. Registering servers flips the world
/// into packed mode (World::has_fleets()), so call this before building
/// selectors or health tables — they size themselves from the registry.
void add_uniform_fleet(World& world, std::size_t servers_per_dc,
                       double cores_per_server);

}  // namespace sb
