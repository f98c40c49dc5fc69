// Shared test world: two locations, two DCs and one WAN link — a cheap
// world where everything is latency-feasible.
#pragma once

#include "calls/call_config.h"
#include "calls/media.h"
#include "core/placement.h"
#include "geo/latency.h"
#include "geo/topology.h"
#include "geo/world.h"

namespace sb::test {

struct TwoDcWorld {
  World world;
  Topology topology;
  LatencyMatrix latency;
  CallConfigRegistry registry;
  LoadModel loads{{1.0, 1.5, 3.0}, {1.0, 15.0, 35.0}};

  TwoDcWorld() : world(make_world()), topology(world), latency(2, 2) {
    topology.add_link(LocationId(0), LocationId(1), 15.0, 10.0);
    topology.compute_paths();
    latency = LatencyMatrix::from_topology(world, topology, 8.0);
  }

  static World make_world() {
    World w;
    w.add_location({"A", 0.0, 0.0, 0.0, 1.0, "R"});
    w.add_location({"B", 0.0, 8.0, 1.0, 1.0, "R"});
    w.add_datacenter({"DC-A", LocationId(0), 1.0});
    w.add_datacenter({"DC-B", LocationId(1), 1.0});
    return w;
  }

  [[nodiscard]] EvalContext ctx() {
    return EvalContext{&world, &topology, &latency, &registry, &loads};
  }
};

}  // namespace sb::test
