// Tests for media load model, call configs, ACL, records, and demand.
#include <gtest/gtest.h>

#include "calls/acl.h"
#include "calls/call_record.h"
#include "calls/demand.h"
#include "geo/world_presets.h"

namespace sb {
namespace {

TEST(LoadModelTest, PaperDefaultMatchesTable1Ratios) {
  const LoadModel m = LoadModel::paper_default();
  // Compute load: screen-share 1-2x audio, video 2-4x audio.
  const double cl_audio = m.cores_per_participant(MediaType::kAudio);
  const double cl_ss = m.cores_per_participant(MediaType::kScreenShare);
  const double cl_video = m.cores_per_participant(MediaType::kVideo);
  EXPECT_GE(cl_ss / cl_audio, 1.0);
  EXPECT_LE(cl_ss / cl_audio, 2.0);
  EXPECT_GE(cl_video / cl_audio, 2.0);
  EXPECT_LE(cl_video / cl_audio, 4.0);
  // Network load: screen-share 10-20x, video 30-40x audio.
  const double nl_audio = m.mbps_per_participant(MediaType::kAudio);
  EXPECT_GE(m.mbps_per_participant(MediaType::kScreenShare) / nl_audio, 10.0);
  EXPECT_LE(m.mbps_per_participant(MediaType::kScreenShare) / nl_audio, 20.0);
  EXPECT_GE(m.mbps_per_participant(MediaType::kVideo) / nl_audio, 30.0);
  EXPECT_LE(m.mbps_per_participant(MediaType::kVideo) / nl_audio, 40.0);
  // Offload-preference ordering (§6.3): audio first, video last.
  EXPECT_LT(m.offload_ratio(MediaType::kAudio),
            m.offload_ratio(MediaType::kScreenShare));
  EXPECT_LT(m.offload_ratio(MediaType::kScreenShare),
            m.offload_ratio(MediaType::kVideo));
}

TEST(CallConfigTest, CanonicalizesEntries) {
  const CallConfig a = CallConfig::make(
      {{LocationId(2), 1}, {LocationId(0), 2}, {LocationId(2), 3}},
      MediaType::kVideo);
  const CallConfig b = CallConfig::make(
      {{LocationId(0), 2}, {LocationId(2), 4}}, MediaType::kVideo);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a.total_participants(), 6u);
  EXPECT_EQ(a.majority_location(), LocationId(2));
  EXPECT_FALSE(a.single_location());
}

TEST(CallConfigTest, MajorityTieBreaksToLowestId) {
  const CallConfig c = CallConfig::make(
      {{LocationId(3), 2}, {LocationId(1), 2}}, MediaType::kAudio);
  EXPECT_EQ(c.majority_location(), LocationId(1));
}

TEST(CallConfigTest, RejectsBadInput) {
  EXPECT_THROW(CallConfig::make({}, MediaType::kAudio), InvalidArgument);
  EXPECT_THROW(CallConfig::make({{LocationId(0), 0}}, MediaType::kAudio),
               InvalidArgument);
}

TEST(CallConfigRegistryTest, InternsOnce) {
  CallConfigRegistry reg;
  const CallConfig a =
      CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio);
  const CallConfig b =
      CallConfig::make({{LocationId(0), 2}}, MediaType::kVideo);
  const ConfigId ia = reg.intern(a);
  const ConfigId ib = reg.intern(b);
  EXPECT_NE(ia, ib);
  EXPECT_EQ(reg.intern(a), ia);
  EXPECT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg.find(a), ia);
  EXPECT_FALSE(reg.find(CallConfig::make({{LocationId(1), 1}},
                                         MediaType::kAudio))
                   .valid());
  EXPECT_EQ(reg.get(ib).media(), MediaType::kVideo);
}

TEST(AclTest, WeightedAverageOfLegs) {
  const GeoModel apac = make_apac_world();
  const World& w = apac.world;
  const LocationId in = *w.find_location("IN");
  const LocationId jp = *w.find_location("JP");
  const DcId dc_in = *w.find_datacenter("DC-India");
  const CallConfig c =
      CallConfig::make({{in, 3}, {jp, 1}}, MediaType::kAudio);
  const double expected = (3.0 * apac.latency.latency_ms(dc_in, in) +
                           1.0 * apac.latency.latency_ms(dc_in, jp)) /
                          4.0;
  EXPECT_NEAR(acl_ms(c, dc_in, apac.latency), expected, 1e-9);
}

TEST(AclTest, FeasibleDcsFallsBackToMinAcl) {
  const GeoModel apac = make_apac_world();
  const LocationId in = *apac.world.find_location("IN");
  const CallConfig c = CallConfig::make({{in, 2}}, MediaType::kAudio);
  // Impossible threshold: must return exactly the min-ACL DC.
  const auto dcs =
      feasible_dcs(c, apac.world.dc_ids(), apac.latency, 0.001);
  ASSERT_EQ(dcs.size(), 1u);
  EXPECT_EQ(dcs[0], min_acl_dc(c, apac.world.dc_ids(), apac.latency));
  EXPECT_EQ(dcs[0], *apac.world.find_datacenter("DC-India"));
  // Generous threshold: everything qualifies.
  EXPECT_EQ(feasible_dcs(c, apac.world.dc_ids(), apac.latency, 1e6).size(),
            apac.world.dc_count());
}

CallRecord make_record(std::uint32_t id, ConfigId config, double start,
                       double duration,
                       std::vector<CallLeg> legs = {{LocationId(0), 0.0}}) {
  CallRecord r;
  r.id = CallId(id);
  r.config = config;
  r.start_s = start;
  r.duration_s = duration;
  r.legs = std::move(legs);
  return r;
}

TEST(CallRecordDatabaseTest, RejectsMalformedRecords) {
  CallRecordDatabase db;
  CallRecord bad = make_record(0, ConfigId(0), 0.0, 10.0);
  bad.legs = {{LocationId(0), 5.0}, {LocationId(1), 1.0}};  // unsorted
  EXPECT_THROW(db.add(bad), InvalidArgument);
  EXPECT_THROW(db.add(make_record(1, ConfigId{}, 0.0, 10.0)),
               InvalidArgument);
}

TEST(DemandMatrixTest, FromRecordsSplitsConcurrencyAcrossSlots) {
  CallRecordDatabase db;
  const ConfigId c0(0);
  // One call spanning slots [0, 1.5): contributes 1.0 to slot 0 and 0.5 to
  // slot 1 with 100 s slots.
  db.add(make_record(0, c0, 0.0, 150.0));
  const DemandMatrix m =
      DemandMatrix::from_records(db, {c0}, 100.0, 0.0, 300.0);
  EXPECT_EQ(m.slot_count(), 3u);
  EXPECT_NEAR(m.demand(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(m.demand(1, 0), 0.5, 1e-12);
  EXPECT_NEAR(m.demand(2, 0), 0.0, 1e-12);
  EXPECT_NEAR(m.total(), 1.5, 1e-12);
}

TEST(DemandMatrixTest, LocationCoreDemand) {
  CallConfigRegistry reg;
  const ConfigId cfg = reg.intern(CallConfig::make(
      {{LocationId(0), 2}, {LocationId(1), 1}}, MediaType::kVideo));
  DemandMatrix m = make_demand_matrix({cfg}, 2);
  m.set_demand(0, 0, 10.0);
  m.set_demand(1, 0, 0.0);
  const LoadModel loads = LoadModel::paper_default();
  const auto series = location_core_demand(m, reg, loads, LocationId(0));
  EXPECT_NEAR(series[0],
              10.0 * 2 * loads.cores_per_participant(MediaType::kVideo),
              1e-12);
  EXPECT_DOUBLE_EQ(series[1], 0.0);
  const auto other = location_core_demand(m, reg, loads, LocationId(2));
  EXPECT_DOUBLE_EQ(other[0], 0.0);
}

TEST(DemandMatrixTest, ColumnLookup) {
  DemandMatrix m = make_demand_matrix({ConfigId(7), ConfigId(3)}, 1);
  EXPECT_EQ(m.config_at(0), ConfigId(7));
  EXPECT_EQ(m.config_at(1), ConfigId(3));
  EXPECT_THROW((void)m.config_at(2), InvalidArgument);
}

}  // namespace
}  // namespace sb
