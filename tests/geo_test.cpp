// Tests for the world model, WAN topology, and latency estimation.
#include <gtest/gtest.h>

#include "common/rng.h"
#include "geo/latency.h"
#include "geo/topology.h"
#include "geo/world.h"
#include "geo/world_presets.h"
#include "invalid_what.h"

namespace sb {
namespace {

World make_triangle_world() {
  World w;
  w.add_location({"A", 0.0, 0.0, 0.0, 5.0, "R"});
  w.add_location({"B", 0.0, 10.0, 0.7, 3.0, "R"});
  w.add_location({"C", 10.0, 0.0, -0.7, 2.0, "R"});
  w.add_datacenter({"DC-A", LocationId(0), 1.0});
  w.add_datacenter({"DC-B", LocationId(1), 1.2});
  return w;
}

TEST(WorldTest, RegistersAndLooksUp) {
  World w = make_triangle_world();
  EXPECT_EQ(w.location_count(), 3u);
  EXPECT_EQ(w.dc_count(), 2u);
  EXPECT_EQ(w.find_location("B")->value(), 1u);
  EXPECT_FALSE(w.find_location("Z").has_value());
  EXPECT_EQ(w.dcs_in_region("R").size(), 2u);
  EXPECT_TRUE(w.dcs_in_region("other").empty());
}

TEST(WorldTest, RejectsDuplicatesAndBadRefs) {
  using test::invalid_what;
  World w = make_triangle_world();
  EXPECT_EQ(invalid_what([&] { w.add_location({"A", 0, 0, 0, 1, "R"}); }),
            "add_location: duplicate name A");
  EXPECT_EQ(
      invalid_what([&] { w.add_datacenter({"DC-A", LocationId(0), 1.0}); }),
      "add_datacenter: duplicate name DC-A");
  w.add_server({"DC-A-ms0", DcId(0), 8.0});
  EXPECT_EQ(invalid_what([&] { w.add_server({"DC-A-ms0", DcId(1), 8.0}); }),
            "add_server: duplicate name DC-A-ms0");
  EXPECT_THROW(w.add_datacenter({"DC-X", LocationId(99), 1.0}),
               InvalidArgument);
  EXPECT_THROW(w.add_datacenter({"DC-Y", LocationId(0), -1.0}),
               InvalidArgument);
}

TEST(GeoDistanceTest, KnownDistances) {
  // Tokyo to Singapore is roughly 5,300 km.
  const double d = geo_distance_km(35.7, 139.7, 1.35, 103.8);
  EXPECT_NEAR(d, 5300.0, 200.0);
  EXPECT_NEAR(geo_distance_km(10, 20, 10, 20), 0.0, 1e-9);
}

TEST(TopologyTest, ShortestPathPicksCheaperRoute) {
  World w = make_triangle_world();
  Topology topo(w);
  const LinkId ab = topo.add_link(LocationId(0), LocationId(1), 10.0, 1.0);
  const LinkId bc = topo.add_link(LocationId(1), LocationId(2), 10.0, 1.0);
  const LinkId ac = topo.add_link(LocationId(0), LocationId(2), 50.0, 1.0);
  topo.compute_paths();

  // A->C direct costs 50 ms; via B costs 20 ms.
  EXPECT_DOUBLE_EQ(topo.distance_ms(LocationId(0), LocationId(2)), 20.0);
  const auto& path = topo.path(LocationId(0), LocationId(2));
  ASSERT_EQ(path.size(), 2u);
  EXPECT_TRUE(topo.in_path(ab, LocationId(0), LocationId(2)));
  EXPECT_TRUE(topo.in_path(bc, LocationId(0), LocationId(2)));
  EXPECT_FALSE(topo.in_path(ac, LocationId(0), LocationId(2)));
  EXPECT_TRUE(topo.path(LocationId(1), LocationId(1)).empty());
  EXPECT_TRUE(topo.connected());
}

TEST(TopologyTest, QueriesBeforeComputeThrow) {
  World w = make_triangle_world();
  Topology topo(w);
  topo.add_link(LocationId(0), LocationId(1), 1.0, 1.0);
  EXPECT_THROW((void)topo.distance_ms(LocationId(0), LocationId(1)),
               InvalidArgument);
}

TEST(TopologyTest, DisconnectedPairThrows) {
  World w = make_triangle_world();
  Topology topo(w);
  topo.add_link(LocationId(0), LocationId(1), 1.0, 1.0);
  topo.compute_paths();
  EXPECT_FALSE(topo.connected());
  EXPECT_THROW((void)topo.distance_ms(LocationId(0), LocationId(2)),
               InvalidArgument);
}

TEST(KnnTopologyTest, AlwaysConnected) {
  Rng rng(11);
  for (int rep = 0; rep < 5; ++rep) {
    RandomWorldParams params;
    params.location_count = 14;
    params.dc_count = 4;
    params.knn = 1;  // stress the component-bridging path
    GeoModel model = make_random_world(rng, params);
    EXPECT_TRUE(model.topology.connected());
  }
}

TEST(LatencyMatrixTest, FromTopologyAddsAccessLatency) {
  World w = make_triangle_world();
  Topology topo(w);
  topo.add_link(LocationId(0), LocationId(1), 10.0, 1.0);
  topo.add_link(LocationId(1), LocationId(2), 10.0, 1.0);
  topo.compute_paths();
  const LatencyMatrix m = LatencyMatrix::from_topology(w, topo, 8.0);
  // DC-A to its own location: access only.
  EXPECT_DOUBLE_EQ(m.latency_ms(DcId(0), LocationId(0)), 8.0);
  EXPECT_DOUBLE_EQ(m.latency_ms(DcId(0), LocationId(1)), 18.0);
  EXPECT_DOUBLE_EQ(m.latency_ms(DcId(0), LocationId(2)), 28.0);
  EXPECT_EQ(m.closest_dc(LocationId(2)), DcId(1));
}

TEST(PresetWorldTest, ApacIsWellFormed) {
  const GeoModel apac = make_apac_world();
  EXPECT_EQ(apac.world.dc_count(), 5u);
  EXPECT_EQ(apac.world.location_count(), 15u);
  EXPECT_TRUE(apac.topology.connected());
  // Every location reaches its closest DC within the 120 ms threshold.
  for (LocationId loc : apac.world.location_ids()) {
    const DcId dc = apac.latency.closest_dc(loc);
    EXPECT_LT(apac.latency.latency_ms(dc, loc), 120.0)
        << apac.world.location(loc).name;
  }
}

}  // namespace
}  // namespace sb
