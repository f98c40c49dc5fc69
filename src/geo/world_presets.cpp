#include "geo/world_presets.h"

#include <algorithm>

namespace sb {

namespace {

struct CountrySpec {
  const char* name;
  double lat;
  double lon;
  double utc;
  double weight;
  const char* region;
};

void add_countries(World& world, const CountrySpec* specs, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const auto& s = specs[i];
    world.add_location(
        Location{s.name, s.lat, s.lon, s.utc, s.weight, s.region});
  }
}

GeoModel finish(World world, std::size_t knn) {
  Topology topo = build_knn_topology(world, knn);
  LatencyMatrix lat = LatencyMatrix::from_topology(world, topo);
  return GeoModel{std::move(world), std::move(topo), std::move(lat)};
}

}  // namespace

GeoModel make_apac_world() {
  // Approximate centroids / major-city coordinates; weights are a plausible
  // relative share of conferencing participants, not real Teams data.
  static constexpr CountrySpec kApac[] = {
      {"IN", 19.0, 77.0, 5.5, 16.0, "APAC"},
      {"JP", 36.0, 138.0, 9.0, 14.0, "APAC"},
      {"SG", 1.35, 103.8, 8.0, 7.0, "APAC"},
      {"HK", 22.3, 114.2, 8.0, 8.0, "APAC"},
      {"AU", -33.9, 151.2, 10.0, 8.0, "APAC"},
      {"ID", -6.2, 106.8, 7.0, 9.0, "APAC"},
      {"KR", 37.5, 127.0, 9.0, 7.0, "APAC"},
      {"TH", 13.7, 100.5, 7.0, 6.0, "APAC"},
      {"PH", 14.6, 121.0, 8.0, 6.0, "APAC"},
      {"MY", 3.1, 101.7, 8.0, 5.0, "APAC"},
      {"VN", 21.0, 105.8, 7.0, 5.0, "APAC"},
      {"NZ", -36.8, 174.8, 12.0, 3.0, "APAC"},
      {"TW", 25.0, 121.5, 8.0, 5.0, "APAC"},
      {"BD", 23.8, 90.4, 6.0, 4.0, "APAC"},
      {"PK", 24.9, 67.0, 5.0, 4.0, "APAC"},
  };
  World world;
  add_countries(world, kApac, std::size(kApac));
  // Core costs vary by DC (relative units), which is what the joint
  // compute+network idea (§4.3) trades against link costs.
  world.add_datacenter({"DC-India", *world.find_location("IN"), 0.90});
  world.add_datacenter({"DC-Japan", *world.find_location("JP"), 1.25});
  world.add_datacenter({"DC-Singapore", *world.find_location("SG"), 1.40});
  world.add_datacenter({"DC-HongKong", *world.find_location("HK"), 1.30});
  world.add_datacenter({"DC-Sydney", *world.find_location("AU"), 1.35});
  return finish(std::move(world), 3);
}

GeoModel make_random_world(Rng& rng, const RandomWorldParams& params) {
  require(params.dc_count >= 1, "make_random_world: need at least one DC");
  require(params.location_count >= params.dc_count,
          "make_random_world: need at least as many locations as DCs");
  World world;
  for (std::size_t i = 0; i < params.location_count; ++i) {
    const double lat = rng.uniform(-params.lat_span_deg / 2,
                                   params.lat_span_deg / 2);
    const double lon = rng.uniform(-params.lon_span_deg / 2,
                                   params.lon_span_deg / 2);
    world.add_location(Location{"C" + std::to_string(i), lat, lon,
                                lon / 15.0,  // offset tracks longitude
                                rng.uniform(1.0, 10.0), "R0"});
  }
  // Distinct DC host locations.
  std::vector<std::size_t> hosts(params.location_count);
  for (std::size_t i = 0; i < hosts.size(); ++i) hosts[i] = i;
  rng.shuffle(hosts);
  for (std::size_t d = 0; d < params.dc_count; ++d) {
    world.add_datacenter(
        {"DC" + std::to_string(d),
         LocationId(static_cast<std::uint32_t>(hosts[d])),
         rng.uniform(0.8, 1.5)});
  }
  return finish(std::move(world), params.knn);
}

void add_uniform_fleet(World& world, std::size_t servers_per_dc,
                       double cores_per_server) {
  require(servers_per_dc >= 1, "add_uniform_fleet: need at least one server");
  require(cores_per_server > 0.0,
          "add_uniform_fleet: cores_per_server must be positive");
  for (DcId dc : world.dc_ids()) {
    for (std::size_t s = 0; s < servers_per_dc; ++s) {
      world.add_server({world.datacenter(dc).name + "-ms" + std::to_string(s),
                        dc, cores_per_server});
    }
  }
}

}  // namespace sb
