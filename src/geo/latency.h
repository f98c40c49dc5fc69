// Call-leg latency estimation: Lat(x, u) between every DC x and participant
// location u (Table 2), model-derived by from_topology() (WAN shortest path
// + access latency) when synthesizing a world.
#pragma once

#include <vector>

#include "common/types.h"
#include "geo/topology.h"
#include "geo/world.h"

namespace sb {

/// Dense (DC x location) one-way latency table in milliseconds.
class LatencyMatrix {
 public:
  LatencyMatrix(std::size_t dc_count, std::size_t location_count);

  /// Derives latencies from WAN shortest paths plus a fixed last-mile
  /// access latency from participant to the WAN edge.
  static LatencyMatrix from_topology(const World& world, const Topology& topo,
                                     double access_ms = 8.0);

  [[nodiscard]] double latency_ms(DcId dc, LocationId loc) const;
  void set_latency_ms(DcId dc, LocationId loc, double ms);

  [[nodiscard]] std::size_t dc_count() const { return dc_count_; }
  [[nodiscard]] std::size_t location_count() const { return location_count_; }

  /// DC with minimum latency to `loc` (the "closest" DC of §5.4). Optionally
  /// restricted to a candidate set; throws if candidates is provided empty.
  [[nodiscard]] DcId closest_dc(LocationId loc) const;
  [[nodiscard]] DcId closest_dc(LocationId loc,
                                const std::vector<DcId>& candidates) const;

 private:
  [[nodiscard]] std::size_t index(DcId dc, LocationId loc) const;

  std::size_t dc_count_;
  std::size_t location_count_;
  std::vector<double> ms_;
};

}  // namespace sb
