#include "geo/latency.h"

#include <algorithm>

#include "common/error.h"

namespace sb {

LatencyMatrix::LatencyMatrix(std::size_t dc_count, std::size_t location_count)
    : dc_count_(dc_count),
      location_count_(location_count),
      ms_(dc_count * location_count, 0.0) {
  require(dc_count > 0 && location_count > 0,
          "LatencyMatrix: empty dimensions");
}

LatencyMatrix LatencyMatrix::from_topology(const World& world,
                                           const Topology& topo,
                                           double access_ms) {
  require(access_ms >= 0.0, "from_topology: negative access latency");
  LatencyMatrix m(world.dc_count(), world.location_count());
  for (DcId dc : world.dc_ids()) {
    const LocationId dc_loc = world.datacenter(dc).location;
    for (LocationId loc : world.location_ids()) {
      m.set_latency_ms(dc, loc, topo.distance_ms(dc_loc, loc) + access_ms);
    }
  }
  return m;
}

std::size_t LatencyMatrix::index(DcId dc, LocationId loc) const {
  require(dc.valid() && dc.value() < dc_count_, "LatencyMatrix: bad dc");
  require(loc.valid() && loc.value() < location_count_,
          "LatencyMatrix: bad location");
  return static_cast<std::size_t>(dc.value()) * location_count_ + loc.value();
}

double LatencyMatrix::latency_ms(DcId dc, LocationId loc) const {
  return ms_[index(dc, loc)];
}

void LatencyMatrix::set_latency_ms(DcId dc, LocationId loc, double ms) {
  require(ms >= 0.0, "set_latency_ms: negative latency");
  ms_[index(dc, loc)] = ms;
}

DcId LatencyMatrix::closest_dc(LocationId loc) const {
  std::vector<DcId> all;
  all.reserve(dc_count_);
  for (std::size_t i = 0; i < dc_count_; ++i) {
    all.push_back(DcId(static_cast<std::uint32_t>(i)));
  }
  return closest_dc(loc, all);
}

DcId LatencyMatrix::closest_dc(LocationId loc,
                               const std::vector<DcId>& candidates) const {
  require(!candidates.empty(), "closest_dc: empty candidate set");
  DcId best = candidates.front();
  double best_ms = latency_ms(best, loc);
  for (DcId dc : candidates) {
    const double ms = latency_ms(dc, loc);
    if (ms < best_ms) {
      best = dc;
      best_ms = ms;
    }
  }
  return best;
}

}  // namespace sb
