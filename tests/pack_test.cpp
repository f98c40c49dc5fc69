// Unit + integration tests for the intra-DC server packing layer (label:
// pack): deterministic best-fit admits with exact millicore accounting,
// the anti-fragmentation empty-server penalty, fail-open overflow, a
// differential check of every admit path against a plain reference
// best-fit over 200+ seeded fleets and health states (then again with
// every server filled, where the per-DC bound skips most scans), a
// near-full 4-thread admit/release churn that must conserve millicores and
// leave the DC bounds sound, the drain_server tier ordering (sibling
// re-pack -> cross-DC spill -> overflow -> drop), defragmentation, and
// 8-thread start/freeze/end stresses (one with a thread flipping server
// and DC health) that must leave every server's occupancy exactly zero.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/error.h"
#include "core/realtime.h"
#include "fault/health_table.h"
#include "obs/metrics.h"
#include "pack/packer.h"

namespace sb {
namespace {

/// Two single-location regions, two DCs, three media servers (two under
/// DC-A, one under DC-B). Audio costs 1.0 core/participant, so a
/// two-participant audio config has a 2.0-core footprint.
struct PackedWorld {
  World world;
  Topology topology;
  LatencyMatrix latency;
  CallConfigRegistry registry;
  LoadModel loads{{1.0, 1.5, 3.0}, {1.0, 15.0, 35.0}};

  explicit PackedWorld(double a0 = 4.0, double a1 = 4.0, double b0 = 4.0)
      : world(make_world(a0, a1, b0)), topology(world), latency(2, 2) {
    topology.add_link(LocationId(0), LocationId(1), 15.0, 10.0);
    topology.compute_paths();
    latency = LatencyMatrix::from_topology(world, topology, 8.0);
  }

  static World make_world(double a0, double a1, double b0) {
    World w;
    w.add_location({"A", 0.0, 0.0, 0.0, 1.0, "R"});
    w.add_location({"B", 0.0, 8.0, 1.0, 1.0, "R"});
    w.add_datacenter({"DC-A", LocationId(0), 1.0});
    w.add_datacenter({"DC-B", LocationId(1), 1.0});
    w.add_server({"A-ms0", DcId(0), a0});
    w.add_server({"A-ms1", DcId(0), a1});
    w.add_server({"B-ms0", DcId(1), b0});
    return w;
  }

  [[nodiscard]] EvalContext ctx() {
    return EvalContext{&world, &topology, &latency, &registry, &loads};
  }
};

TEST(PackerTest, BestFitBeatsFirstFitOnThePlantedShape) {
  // Servers of 10 cores each, preloaded 3 and 8. Best-fit sends the next
  // 2-core item to the fuller server (residual 0 beats residual 5), which
  // leaves exactly 7 on the other — both items place bounded. First-fit
  // would put the 2 on server 0 and then have no room for the 7 anywhere.
  World w = PackedWorld::make_world(10.0, 10.0, 10.0);
  pack::ServerPacker packer(w);
  ASSERT_TRUE(packer.try_admit_to(ServerId(0), 3.0));
  ASSERT_TRUE(packer.try_admit_to(ServerId(1), 8.0));

  EXPECT_EQ(packer.admit(DcId(0), 2.0), ServerId(1));
  EXPECT_EQ(packer.admit(DcId(0), 7.0), ServerId(0));
  EXPECT_EQ(packer.overcommit_admits(), 0u);
  EXPECT_DOUBLE_EQ(packer.server_cores_used(ServerId(0)), 10.0);
  EXPECT_DOUBLE_EQ(packer.server_cores_used(ServerId(1)), 10.0);
}

TEST(PackerTest, EmptyServerPenaltyConsolidatesOntoWarmServers) {
  // Raw best-fit favors the empty 9.4-core server (residual 9.2 vs 9.3);
  // the 0.25-core empty penalty tips the choice to the warm server.
  World w = PackedWorld::make_world(10.0, 9.4, 10.0);
  {
    pack::ServerPacker packer(w);
    ASSERT_TRUE(packer.try_admit_to(ServerId(0), 0.5));
    EXPECT_EQ(packer.admit(DcId(0), 0.2), ServerId(0));
  }
  {
    pack::PackOptions no_penalty;
    no_penalty.anti_frag_empty_penalty_cores = 0.0;
    pack::ServerPacker packer(w, no_penalty);
    ASSERT_TRUE(packer.try_admit_to(ServerId(0), 0.5));
    EXPECT_EQ(packer.admit(DcId(0), 0.2), ServerId(1));
  }
}

TEST(PackerTest, AdmitFailsOpenWithOvercommitWhenFleetIsFull) {
  World w = PackedWorld::make_world(1.0, 1.0, 1.0);
  pack::ServerPacker packer(w);
  const ServerId first = packer.admit(DcId(0), 0.8);
  EXPECT_TRUE(first.valid());
  const ServerId second = packer.admit(DcId(0), 0.8);
  EXPECT_TRUE(second.valid());          // bounded fit on the other server
  EXPECT_NE(first, second);
  const ServerId third = packer.admit(DcId(0), 0.8);
  EXPECT_TRUE(third.valid());           // fail-open: overcommitted
  EXPECT_EQ(packer.overcommit_admits(), 1u);

  packer.release(first, 0.8);
  packer.release(second, 0.8);
  packer.release(third, 0.8);
  for (const pack::ServerStats& s : packer.stats()) {
    EXPECT_DOUBLE_EQ(s.used_cores, 0.0);
    EXPECT_EQ(s.admitted_mc, s.released_mc);
  }
}

TEST(PackerTest, ExactMillicoreConservation) {
  World w = PackedWorld::make_world(4.0, 4.0, 4.0);
  pack::ServerPacker packer(w);
  // 0.0333.. cores does not round-trip through doubles; the millicore
  // quantization must make admit and release agree bit-exactly anyway.
  const double odd = 1.0 / 30.0;
  std::vector<ServerId> placed;
  for (int i = 0; i < 50; ++i) placed.push_back(packer.admit(DcId(0), odd));
  for (const ServerId s : placed) packer.release(s, odd);
  for (const pack::ServerStats& s : packer.stats()) {
    EXPECT_EQ(pack::to_millicores(s.used_cores), 0);
    EXPECT_EQ(s.admitted_mc, s.released_mc);
  }
}

TEST(PackerTest, AccessorsRejectBadServerIds) {
  World w = PackedWorld::make_world(4.0, 4.0, 4.0);
  pack::ServerPacker packer(w);
  EXPECT_THROW((void)packer.server_cores_used(ServerId()), InvalidArgument);
  EXPECT_THROW((void)packer.server_cores_used(ServerId(3)), InvalidArgument);
  EXPECT_THROW((void)packer.server_capacity(ServerId()), InvalidArgument);
  EXPECT_THROW((void)packer.server_capacity(ServerId(3)), InvalidArgument);
  EXPECT_DOUBLE_EQ(packer.server_capacity(ServerId(2)), 4.0);
  EXPECT_DOUBLE_EQ(packer.server_cores_used(ServerId(2)), 0.0);
}

TEST(PackerTest, SingleThreadedAdmitSequenceIsDeterministic) {
  World w = PackedWorld::make_world(3.0, 2.0, 4.0);
  const double sizes[] = {0.7, 1.3, 0.2, 2.0, 0.5, 0.9, 1.1, 0.4};
  std::vector<ServerId> first_run;
  for (int run = 0; run < 2; ++run) {
    pack::ServerPacker packer(w);
    std::vector<ServerId> got;
    for (const double s : sizes) got.push_back(packer.admit(DcId(0), s));
    if (run == 0) {
      first_run = got;
    } else {
      EXPECT_EQ(got, first_run);
    }
  }
}

TEST(PackerTest, FailedScanKeepsTheBoundAtTheFreeSpaceItCouldNotUse) {
  // DC-A has two 2-core servers with 1.0 core free on each. A bounded admit
  // that finds no room lowers the DC bound; it must stay at least the free
  // space the scan saw: need - 1 millicores, or more where the server with
  // that space was excluded or down.
  World w = PackedWorld::make_world(2.0, 2.0, 4.0);
  fault::HealthTable health(2, 1, 3);
  pack::ServerPacker packer(w, {}, &health);
  ASSERT_TRUE(packer.try_admit_to(ServerId(0), 1.0));
  ASSERT_TRUE(packer.try_admit_to(ServerId(1), 1.0));

  // Both servers have 1000 mc free, one short of the need.
  EXPECT_FALSE(packer.admit_bounded(DcId(0), 1.001).valid());
  EXPECT_EQ(packer.admit_bounded(DcId(0), 1.0), ServerId(0));

  // Server 0 is full; the excluded server 1 still has 1.0 core free.
  EXPECT_FALSE(packer.admit_bounded(DcId(0), 1.0, ServerId(1)).valid());
  EXPECT_EQ(packer.admit_bounded(DcId(0), 1.0), ServerId(1));

  // Free server 1 again, then scan while it is down.
  packer.release(ServerId(1), 1.0);
  health.set_server(ServerId(1), false);
  EXPECT_FALSE(packer.admit_bounded(DcId(0), 1.0).valid());
  health.set_server(ServerId(1), true);
  EXPECT_EQ(packer.admit_bounded(DcId(0), 1.0), ServerId(1));
  EXPECT_EQ(packer.overcommit_admits(), 0u);
}

/// The packer's placement rules written out plainly over a private copy of
/// the occupancy: walk the whole fleet in id order, skip `exclude`, other
/// DCs' servers and down servers, score residual plus the empty-server
/// penalty, keep the lowest id on ties; with no bounded fit, overflow onto
/// the least-loaded ratio, up servers first.
class ReferencePacker {
 public:
  ReferencePacker(const World& world, const fault::HealthTable& health,
                  double penalty_cores)
      : world_(&world),
        health_(&health),
        penalty_mc_(pack::to_millicores(penalty_cores)),
        servers_(world.server_count()) {
    for (ServerId s : world.server_ids()) {
      servers_[s.value()].cap = pack::to_millicores(world.server(s).cores);
    }
  }

  [[nodiscard]] ServerId bounded(DcId dc, std::int64_t need,
                                 ServerId exclude) const {
    ServerId best;
    std::int64_t best_score = 0;
    for (ServerId s : world_->server_ids()) {
      if (!candidate(s, dc, exclude) || !health_->server_up(s)) continue;
      const Server& v = servers_[s.value()];
      const std::int64_t residual = v.cap - v.used - need;
      if (residual < 0) continue;
      const std::int64_t score = residual + (v.used == 0 ? penalty_mc_ : 0);
      if (!best.valid() || score < best_score) {
        best = s;
        best_score = score;
      }
    }
    return best;
  }

  [[nodiscard]] ServerId overflow(DcId dc, ServerId exclude,
                                  bool up_only) const {
    ServerId best;
    double best_ratio = 0.0;
    for (ServerId s : world_->server_ids()) {
      if (!candidate(s, dc, exclude)) continue;
      if (up_only && !health_->server_up(s)) continue;
      const Server& v = servers_[s.value()];
      const double used = static_cast<double>(v.used);
      const double cap = static_cast<double>(v.cap);
      const double ratio = cap > 0.0 ? used / cap : used;
      if (!best.valid() || ratio < best_ratio) {
        best = s;
        best_ratio = ratio;
      }
    }
    return best;
  }

  [[nodiscard]] ServerId admit(DcId dc, std::int64_t need,
                               ServerId exclude) const {
    ServerId chosen = bounded(dc, need, exclude);
    if (!chosen.valid()) chosen = overflow(dc, exclude, /*up_only=*/true);
    if (!chosen.valid()) chosen = overflow(dc, exclude, /*up_only=*/false);
    return chosen;
  }

  [[nodiscard]] bool fits(ServerId s, std::int64_t need) const {
    return servers_[s.value()].used + need <= servers_[s.value()].cap;
  }

  [[nodiscard]] std::int64_t free(ServerId s) const {
    return servers_[s.value()].cap - servers_[s.value()].used;
  }

  void claim(ServerId s, std::int64_t need) {
    Server& v = servers_[s.value()];
    v.used += need;
    ++v.admits;
    v.admitted += need;
  }

  void release(ServerId s, std::int64_t need) {
    Server& v = servers_[s.value()];
    v.used -= need;
    ++v.releases;
    v.released += need;
  }

  [[nodiscard]] ::testing::AssertionResult matches(
      const pack::ServerPacker& packer) const {
    const std::vector<pack::ServerStats> stats = packer.stats();
    if (stats.size() != servers_.size()) {
      return ::testing::AssertionFailure() << "stats() size " << stats.size();
    }
    for (std::size_t i = 0; i < stats.size(); ++i) {
      const pack::ServerStats& got = stats[i];
      const Server& want = servers_[i];
      if (got.server != ServerId(static_cast<std::uint32_t>(i)) ||
          got.dc != world_->server(got.server).dc ||
          pack::to_millicores(got.capacity_cores) != want.cap ||
          pack::to_millicores(got.used_cores) != want.used ||
          got.admits != want.admits || got.releases != want.releases ||
          got.admitted_mc != want.admitted ||
          got.released_mc != want.released) {
        return ::testing::AssertionFailure()
               << "server " << i << ": used " << got.used_cores << " vs "
               << want.used << " mc, admits " << got.admits << " vs "
               << want.admits << ", releases " << got.releases << " vs "
               << want.releases;
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  struct Server {
    std::int64_t cap = 0;
    std::int64_t used = 0;
    std::uint64_t admits = 0;
    std::uint64_t releases = 0;
    std::int64_t admitted = 0;
    std::int64_t released = 0;
  };

  [[nodiscard]] bool candidate(ServerId s, DcId dc, ServerId exclude) const {
    return s != exclude && world_->server(s).dc == dc;
  }

  const World* world_;
  const fault::HealthTable* health_;
  std::int64_t penalty_mc_;
  std::vector<Server> servers_;
};

/// 1-4 DCs whose servers are registered in shuffled (interleaved) DC
/// order, as fuzz fleets are, with heterogeneous capacities.
World random_fleet_world(std::mt19937_64& rng) {
  World w;
  const std::size_t dcs = std::uniform_int_distribution<std::size_t>(1, 4)(rng);
  for (std::size_t x = 0; x < dcs; ++x) {
    const std::string name = "L" + std::to_string(x);
    w.add_location({name, 0.0, 1.0 * x, 0.0, 1.0, "R"});
    w.add_datacenter({"DC-" + name, LocationId(static_cast<std::uint32_t>(x)),
                      1.0});
  }
  std::vector<std::uint32_t> owner;
  for (std::size_t x = 0; x < dcs; ++x) {
    const std::size_t n = std::uniform_int_distribution<std::size_t>(1, 8)(rng);
    owner.insert(owner.end(), n, static_cast<std::uint32_t>(x));
  }
  std::shuffle(owner.begin(), owner.end(), rng);
  const double shapes[] = {0.5, 1.0, 2.0, 2.5, 4.0, 8.0, 16.0};
  std::uniform_int_distribution<std::size_t> shape(0, 7);
  std::uniform_real_distribution<double> odd(0.3, 12.0);
  for (std::size_t s = 0; s < owner.size(); ++s) {
    const std::size_t k = shape(rng);
    const double cores =
        k < 7 ? shapes[k]
              : static_cast<double>(pack::to_millicores(odd(rng))) / 1000.0;
    w.add_server({"ms" + std::to_string(s), DcId(owner[s]), cores});
  }
  return w;
}

/// Redraws the health table for an admit into `dc`. The states cover the
/// all-up fast path, "one DC down, every server up", "a server down in
/// another DC", servers down in `dc` itself, and `dc` with no server up.
void redraw_health(fault::HealthTable& health, const World& world, DcId dc,
                   std::mt19937_64& rng) {
  for (DcId x : world.dc_ids()) health.set_dc(x, true);
  for (ServerId s : world.server_ids()) health.set_server(s, true);
  std::vector<ServerId> here;
  std::vector<ServerId> elsewhere;
  for (ServerId s : world.server_ids()) {
    (world.server(s).dc == dc ? here : elsewhere).push_back(s);
  }
  const auto pick = [&rng](const std::vector<ServerId>& from) {
    return from[std::uniform_int_distribution<std::size_t>(
        0, from.size() - 1)(rng)];
  };
  switch (std::uniform_int_distribution<int>(0, 4)(rng)) {
    case 0:  // all up
      break;
    case 1: {  // one DC down, every server up
      const std::vector<DcId> ids = world.dc_ids();
      health.set_dc(ids[std::uniform_int_distribution<std::size_t>(
                        0, ids.size() - 1)(rng)],
                    false);
      break;
    }
    case 2:  // a server down in another DC (or in this one if it is alone)
      health.set_server(pick(elsewhere.empty() ? here : elsewhere), false);
      break;
    case 3:  // some of this DC's servers down
      for (ServerId s : here) {
        if (std::bernoulli_distribution(0.4)(rng)) health.set_server(s, false);
      }
      health.set_server(pick(here), false);
      break;
    default:  // no server of this DC up
      for (ServerId s : here) health.set_server(s, false);
      break;
  }
}

TEST(PackerDifferentialTest, EveryAdmitPathMatchesTheReferenceBestFit) {
  constexpr std::uint64_t kWorlds = 240;
  constexpr int kSteps = 80;
  obs::Counter& skips =
      obs::MetricsRegistry::global().counter("sb.pack.bounded_skips");
  const std::uint64_t skips_before = skips.value();
  for (std::uint64_t seed = 1; seed <= kWorlds; ++seed) {
    std::mt19937_64 rng(seed);
    const World world = random_fleet_world(rng);
    fault::HealthTable health(world.dc_count(), 0, world.server_count());
    pack::PackOptions options;
    // A negative penalty favours waking empty servers; it moves the score
    // floor at which the packer's scan may stop early below zero.
    const double penalties[] = {0.0, 0.25, 0.75, -0.5};
    options.anti_frag_empty_penalty_cores =
        penalties[std::uniform_int_distribution<int>(0, 3)(rng)];
    pack::ServerPacker packer(world, options, &health);
    ReferencePacker ref(world, health, options.anti_frag_empty_penalty_cores);
    std::uniform_real_distribution<double> size(0.05, 6.0);
    std::uniform_real_distribution<double> small(0.05, 1.0);
    const std::vector<DcId> dcs = world.dc_ids();
    const std::vector<ServerId> servers = world.server_ids();
    const auto pick_one = [&rng](const auto& v) {
      return v[std::uniform_int_distribution<std::size_t>(0, v.size() - 1)(
          rng)];
    };
    // A quarter of the admits ask for exactly some server's free space
    // (residual 0, the lowest score a warm server can have); the rest draw
    // from `sizes`.
    const auto draw_cores = [&](DcId dc, auto& sizes) {
      if (std::bernoulli_distribution(0.25)(rng)) {
        const std::int64_t free_mc =
            ref.free(pick_one(world.servers_in_dc(dc)));
        if (free_mc > 0) return static_cast<double>(free_mc) / 1000.0;
      }
      return sizes(rng);
    };

    // Random preload through the bounded per-server claim.
    for (int i = 0; i < 3 * static_cast<int>(servers.size()); ++i) {
      const ServerId s = pick_one(servers);
      const double cores = size(rng);
      const std::int64_t need = pack::to_millicores(cores);
      const bool fits = ref.fits(s, need);
      ASSERT_EQ(packer.try_admit_to(s, cores), fits) << "seed " << seed;
      if (fits) ref.claim(s, need);
    }

    std::vector<std::pair<ServerId, double>> live;
    // One step: an admit through a random path into a random DC, or the
    // release of a random live admit.
    const auto step = [&](int step_no, auto& sizes) {
      const DcId dc = pick_one(dcs);
      if (step_no % 8 == 0) redraw_health(health, world, dc, rng);
      const double cores = draw_cores(dc, sizes);
      const std::int64_t need = pack::to_millicores(cores);
      ServerId exclude;
      const int ex = std::uniform_int_distribution<int>(0, 4)(rng);
      if (ex >= 3) {
        exclude = pick_one(world.servers_in_dc(dc));
      } else if (ex == 2) {
        exclude = pick_one(servers);
      }
      ServerId got;
      ServerId want;
      switch (std::uniform_int_distribution<int>(0, 4)(rng)) {
        case 0:
          want = ref.admit(dc, need, exclude);
          got = packer.admit(dc, cores, exclude);
          break;
        case 1:
          want = ref.bounded(dc, need, exclude);
          got = packer.admit_bounded(dc, cores, exclude);
          break;
        case 2: {
          const bool up_only = std::bernoulli_distribution(0.5)(rng);
          want = ref.overflow(dc, exclude, up_only);
          got = packer.admit_overflow(dc, cores, exclude, up_only);
          break;
        }
        default:
          if (!live.empty()) {
            const std::size_t k = std::uniform_int_distribution<std::size_t>(
                0, live.size() - 1)(rng);
            const auto [s, c] = live[k];
            live[k] = live.back();
            live.pop_back();
            packer.release(s, c);
            ref.release(s, pack::to_millicores(c));
          }
          break;
      }
      ASSERT_EQ(got, want) << "seed " << seed << " step " << step_no
                           << " dc " << dc.value() << " cores " << cores
                           << " exclude " << exclude.value();
      if (want.valid()) {
        ref.claim(want, need);
        live.emplace_back(want, cores);
      }
      ASSERT_TRUE(ref.matches(packer)) << "seed " << seed << " step "
                                       << step_no;
    };

    for (int i = 0; i < kSteps; ++i) {
      step(i, size);
      if (HasFatalFailure()) return;
    }

    // Saturated phase: fill every server to capacity, then mix small and
    // exact-fit admits with releases. Most bounded admits now find no room,
    // so the per-DC bound skips their scans; each release raises it again.
    for (ServerId s : servers) {
      const std::int64_t free_mc = ref.free(s);
      if (free_mc <= 0) continue;
      const double cores = static_cast<double>(free_mc) / 1000.0;
      ASSERT_TRUE(packer.try_admit_to(s, cores)) << "seed " << seed;
      ref.claim(s, free_mc);
      live.emplace_back(s, cores);
    }
    for (int i = 0; i < kSteps; ++i) {
      step(kSteps + i, small);
      if (HasFatalFailure()) return;
    }
  }
#ifdef SB_METRICS_ENABLED
  EXPECT_GT(skips.value(), skips_before);
#else
  (void)skips_before;
#endif
}

TEST(PackerConcurrencyTest, NearFullChurnConservesMillicoresAndKeepsBoundsSound) {
  // One DC of eight 2-core servers. Four threads each hold up to six calls
  // of 0.25-1.5 cores, more than the fleet fits, so bounded admits often
  // find no room and lower the DC bound (or skip on it) while releases on
  // other threads raise it.
  World w;
  w.add_location({"A", 0.0, 0.0, 0.0, 1.0, "R"});
  w.add_datacenter({"DC-A", LocationId(0), 1.0});
  for (int s = 0; s < 8; ++s) {
    w.add_server({"ms" + std::to_string(s), DcId(0), 2.0});
  }
  pack::ServerPacker packer(w);
  constexpr int kThreads = 4;
  constexpr int kOps = 4000;
  constexpr std::size_t kHeld = 6;
  std::vector<std::vector<std::pair<ServerId, double>>> held(kThreads);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&packer, &held, t] {
      std::mt19937_64 rng(static_cast<std::uint64_t>(t) + 1);
      std::uniform_real_distribution<double> size(0.25, 1.5);
      std::vector<std::pair<ServerId, double>>& mine = held[t];
      for (int i = 0; i < kOps; ++i) {
        if (mine.size() >= kHeld || (!mine.empty() && rng() % 3 == 0)) {
          const std::size_t k = rng() % mine.size();
          packer.release(mine[k].first, mine[k].second);
          mine[k] = mine.back();
          mine.pop_back();
          continue;
        }
        const double cores = size(rng);
        // Every fourth admit may overcommit; the rest are bounded.
        const ServerId got = i % 4 == 0
                                 ? packer.admit(DcId(0), cores)
                                 : packer.admit_bounded(DcId(0), cores);
        if (got.valid()) mine.emplace_back(got, cores);
      }
    });
  }
  for (std::thread& t : workers) t.join();

  // Quiescent, calls still held: a bounded admit finds room exactly when
  // some server has it.
  std::int64_t max_free = std::numeric_limits<std::int64_t>::min();
  for (const pack::ServerStats& s : packer.stats()) {
    const std::int64_t free_mc = pack::to_millicores(s.capacity_cores) -
                                 pack::to_millicores(s.used_cores);
    max_free = std::max(max_free, free_mc);
    if (free_mc <= 0) continue;
    const double cores = static_cast<double>(free_mc) / 1000.0;
    const ServerId got = packer.admit_bounded(DcId(0), cores);
    ASSERT_TRUE(got.valid()) << "server " << s.server.value() << " has "
                             << free_mc << " mc free";
    packer.release(got, cores);
  }
  EXPECT_FALSE(
      packer.admit_bounded(DcId(0), static_cast<double>(max_free + 1) / 1000.0)
          .valid());

  // Conservation: every claim came back exactly.
  for (std::vector<std::pair<ServerId, double>>& mine : held) {
    for (const auto& [server, cores] : mine) packer.release(server, cores);
  }
  std::int64_t admitted = 0;
  for (const pack::ServerStats& s : packer.stats()) {
    EXPECT_EQ(pack::to_millicores(s.used_cores), 0)
        << "server " << s.server.value();
    EXPECT_EQ(s.admits, s.releases) << "server " << s.server.value();
    EXPECT_EQ(s.admitted_mc, s.released_mc) << "server " << s.server.value();
    admitted += s.admitted_mc;
  }
  EXPECT_GT(admitted, 0);
  // Empty again, so a whole server's worth fits.
  const ServerId whole = packer.admit_bounded(DcId(0), 2.0);
  EXPECT_TRUE(whole.valid());
}

class PackSelectorTest : public ::testing::Test {
 protected:
  PackSelectorTest() {
    config_ = CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio);
  }

  /// Starts and freezes `n` calls at location A (they stay on DC-A).
  void freeze_calls(RealtimeSelector& selector, std::uint32_t n,
                    std::vector<ServerId>* servers = nullptr) {
    for (std::uint32_t c = 1; c <= n; ++c) {
      selector.on_call_start(CallId(c), LocationId(0), 0.0);
      const FreezeResult r =
          selector.on_config_frozen(CallId(c), config_, 300.0);
      ASSERT_EQ(r.dc, DcId(0));
      if (servers != nullptr) servers->push_back(r.server);
    }
  }

  /// Eight threads each start, freeze and end 200 calls at both locations
  /// (a third of them two-participant); `running` counts down as they
  /// finish. The caller joins the returned threads.
  std::vector<std::thread> start_churn(RealtimeSelector& selector,
                                       std::atomic<std::uint32_t>& running) {
    constexpr std::uint32_t kThreads = 8;
    constexpr std::uint32_t kCallsPerThread = 200;
    running.store(kThreads, std::memory_order_relaxed);
    std::vector<std::thread> workers;
    workers.reserve(kThreads + 1);
    for (std::uint32_t t = 0; t < kThreads; ++t) {
      workers.emplace_back([this, &selector, &running, t] {
        const CallConfig one =
            CallConfig::make({{LocationId(t % 2), 1}}, MediaType::kAudio);
        for (std::uint32_t i = 0; i < kCallsPerThread; ++i) {
          const CallId id(1 + t * kCallsPerThread + i);
          selector.on_call_start(id, LocationId(t % 2), 0.0);
          selector.on_config_frozen(id, i % 3 == 0 ? config_ : one, 300.0);
          selector.on_call_end(id, 400.0);
        }
        running.fetch_sub(1, std::memory_order_acq_rel);
      });
    }
    return workers;
  }

  /// After the churn: every server is back at zero occupancy, with admits
  /// and millicores balanced per server, and something was admitted.
  static void expect_quiescent(const pack::ServerPacker& packer) {
    std::int64_t admitted = 0;
    for (const pack::ServerStats& s : packer.stats()) {
      EXPECT_EQ(pack::to_millicores(s.used_cores), 0)
          << "server " << s.server.value() << " leaked occupancy";
      EXPECT_EQ(s.admits, s.releases) << "server " << s.server.value();
      EXPECT_EQ(s.admitted_mc, s.released_mc) << "server " << s.server.value();
      admitted += s.admitted_mc;
    }
    EXPECT_GT(admitted, 0);
    EXPECT_DOUBLE_EQ(packer.dc_cores_used(DcId(0)), 0.0);
    EXPECT_DOUBLE_EQ(packer.dc_cores_used(DcId(1)), 0.0);
  }

  PackedWorld world_;
  CallConfig config_ = CallConfig::make({{LocationId(0), 1}},
                                        MediaType::kAudio);
  std::vector<double> budget_ = {100.0, 100.0};
};

TEST_F(PackSelectorTest, FreezePacksOntoAServerAndEndReleasesIt) {
  fault::HealthTable health(2, 1, 3);
  RealtimeSelector selector(world_.ctx(), nullptr, {}, 0.0, &health);
  ASSERT_NE(selector.packer(), nullptr);
  std::vector<ServerId> servers;
  freeze_calls(selector, 2, &servers);
  // Both empty at first freeze: tie breaks to the lowest id; the second
  // call best-fits onto the now-fuller same server (2 + 2 = 4 = capacity).
  EXPECT_EQ(servers[0], ServerId(0));
  EXPECT_EQ(servers[1], ServerId(0));
  EXPECT_DOUBLE_EQ(selector.packer()->server_cores_used(ServerId(0)), 4.0);
  selector.on_call_end(CallId(1), 400.0);
  selector.on_call_end(CallId(2), 400.0);
  EXPECT_DOUBLE_EQ(selector.packer()->dc_cores_used(DcId(0)), 0.0);
}

TEST_F(PackSelectorTest, DrainRepacksOntoSiblingThenSpillsCrossDc) {
  fault::HealthTable health(2, 1, 3);
  RealtimeSelector selector(world_.ctx(), nullptr, {}, 0.0, &health);
  freeze_calls(selector, 3);  // c1, c2 fill A-ms0; c3 lands on A-ms1

  health.set_server(ServerId(0), false);
  const fault::FailoverOutcome out =
      selector.drain_server(ServerId(0), 400.0, budget_);
  ASSERT_EQ(out.moved.size(), 2u);
  EXPECT_TRUE(out.dropped.empty());
  // Tier S1: one call re-packs bounded onto the sibling (from == to, quota
  // untouched); tier S2/S3: the second spills cross-DC onto DC-B's fleet.
  std::size_t sibling = 0;
  std::size_t cross = 0;
  for (const fault::FailoverMove& m : out.moved) {
    if (m.from == m.to) {
      ++sibling;
      EXPECT_EQ(m.to_server, ServerId(1));
    } else {
      ++cross;
      EXPECT_EQ(m.to, DcId(1));
      EXPECT_EQ(m.to_server, ServerId(2));
    }
  }
  EXPECT_EQ(sibling, 1u);
  EXPECT_EQ(cross, 1u);
  EXPECT_DOUBLE_EQ(selector.packer()->server_cores_used(ServerId(0)), 0.0);
  EXPECT_DOUBLE_EQ(selector.packer()->server_cores_used(ServerId(1)), 4.0);
  EXPECT_DOUBLE_EQ(selector.packer()->server_cores_used(ServerId(2)), 2.0);
}

TEST_F(PackSelectorTest, DrainOverflowsOntoSiblingBeforeDropping) {
  fault::HealthTable health(2, 1, 3);
  RealtimeSelector selector(world_.ctx(), nullptr, {}, 0.0, &health);
  freeze_calls(selector, 3);

  // DC-B down: the cross-DC tiers are unavailable, so the call that does
  // not fit bounded on the sibling overflows onto it (tier S4) instead of
  // dropping — the DC itself is healthy.
  health.set_dc(DcId(1), false);
  health.set_server(ServerId(0), false);
  const fault::FailoverOutcome out =
      selector.drain_server(ServerId(0), 400.0, budget_);
  ASSERT_EQ(out.moved.size(), 2u);
  EXPECT_TRUE(out.dropped.empty());
  for (const fault::FailoverMove& m : out.moved) {
    EXPECT_EQ(m.from, DcId(0));
    EXPECT_EQ(m.to, DcId(0));
    EXPECT_EQ(m.to_server, ServerId(1));
  }
  EXPECT_EQ(selector.packer()->overcommit_admits(), 1u);
  EXPECT_DOUBLE_EQ(selector.packer()->server_cores_used(ServerId(1)), 6.0);
}

TEST_F(PackSelectorTest, DrainDropsOnlyWhenEveryTierIsExhausted) {
  fault::HealthTable health(2, 1, 3);
  RealtimeSelector selector(world_.ctx(), nullptr, {}, 0.0, &health);
  freeze_calls(selector, 1);

  // No up sibling (A-ms1 down too), no up cross-DC target: tier S5.
  health.set_dc(DcId(1), false);
  health.set_server(ServerId(0), false);
  health.set_server(ServerId(1), false);
  const fault::FailoverOutcome out =
      selector.drain_server(ServerId(0), 400.0, budget_);
  EXPECT_TRUE(out.moved.empty());
  ASSERT_EQ(out.dropped.size(), 1u);
  EXPECT_EQ(out.dropped[0], CallId(1));
  EXPECT_DOUBLE_EQ(selector.packer()->dc_cores_used(DcId(0)), 0.0);
}

TEST_F(PackSelectorTest, DefragmentConsolidatesFreeSpace) {
  // Eight 1-participant calls fill both DC-A servers; ending alternating
  // calls shreds the free space across the fleet. The second health table
  // is sized for another fleet (one server row, three servers in the world)
  // and so carries no server health: the packer ignores it, and so must
  // defragmentation, which treats every server as up instead of reading
  // past the table.
  for (const std::size_t health_servers : {3u, 1u}) {
    SCOPED_TRACE(health_servers);
    fault::HealthTable health(2, 1, health_servers);
    RealtimeSelector selector(world_.ctx(), nullptr, {}, 0.0, &health);
    const CallConfig small =
        CallConfig::make({{LocationId(0), 1}}, MediaType::kAudio);
    for (std::uint32_t c = 1; c <= 8; ++c) {
      selector.on_call_start(CallId(c), LocationId(0), 0.0);
      ASSERT_EQ(selector.on_config_frozen(CallId(c), small, 300.0).dc,
                DcId(0));
    }
    for (std::uint32_t c = 1; c <= 8; c += 2) {
      selector.on_call_end(CallId(c), 400.0);
    }
    const double used_before = selector.packer()->dc_cores_used(DcId(0));
    const double frag_before = selector.packer()->fragmentation(DcId(0));
    EXPECT_GT(frag_before, 0.0);

    const pack::DefragResult r = selector.defragment_dc(DcId(0));
    EXPECT_FALSE(r.moves.empty());
    EXPECT_LT(r.fragmentation_after, frag_before);
    EXPECT_DOUBLE_EQ(selector.packer()->dc_cores_used(DcId(0)), used_before);
    for (const pack::ServerStats& s : selector.packer()->stats()) {
      EXPECT_EQ(s.admitted_mc - s.released_mc,
                pack::to_millicores(s.used_cores));
    }
  }
}

TEST_F(PackSelectorTest, EightThreadChurnLeavesZeroOccupancy) {
  fault::HealthTable health(2, 1, 3);
  RealtimeSelector selector(world_.ctx(), nullptr, {}, 0.0, &health);
  std::atomic<std::uint32_t> running{0};
  for (std::thread& w : start_churn(selector, running)) w.join();
  expect_quiescent(*selector.packer());
}

TEST_F(PackSelectorTest, HealthFlipsDuringChurnLeaveZeroOccupancy) {
  // The same churn plus a ninth thread that flips A-ms0 down and up, then
  // DC-B, through the health table until the churn ends: admits run both
  // the all-up fast path and the per-server health check, and a call
  // admitted before a flip is released after it.
  fault::HealthTable health(2, 1, 3);
  RealtimeSelector selector(world_.ctx(), nullptr, {}, 0.0, &health);
  std::atomic<std::uint32_t> running{0};
  std::vector<std::thread> workers = start_churn(selector, running);
  std::uint32_t flips = 0;
  workers.emplace_back([&health, &running, &flips] {
    do {
      health.set_server(ServerId(0), false);
      std::this_thread::yield();
      health.set_server(ServerId(0), true);
      health.set_dc(DcId(1), false);
      std::this_thread::yield();
      health.set_dc(DcId(1), true);
      ++flips;
    } while (running.load(std::memory_order_acquire) > 0);
  });
  for (std::thread& w : workers) w.join();

  EXPECT_GT(flips, 0u);
  EXPECT_TRUE(health.all_up());
  expect_quiescent(*selector.packer());
}

TEST(PackNoFleetTest, SelectorWithoutServersHasNoPacker) {
  World w;
  w.add_location({"A", 0.0, 0.0, 0.0, 1.0, "R"});
  w.add_location({"B", 0.0, 8.0, 1.0, 1.0, "R"});
  w.add_datacenter({"DC-A", LocationId(0), 1.0});
  w.add_datacenter({"DC-B", LocationId(1), 1.0});
  Topology topology(w);
  topology.add_link(LocationId(0), LocationId(1), 15.0, 10.0);
  topology.compute_paths();
  const LatencyMatrix latency = LatencyMatrix::from_topology(w, topology, 8.0);
  CallConfigRegistry registry;
  LoadModel loads{{1.0, 1.5, 3.0}, {1.0, 15.0, 35.0}};
  EvalContext ctx{&w, &topology, &latency, &registry, &loads};

  RealtimeSelector selector(ctx, nullptr, {});
  EXPECT_EQ(selector.packer(), nullptr);
  const CallConfig config =
      CallConfig::make({{LocationId(0), 2}}, MediaType::kAudio);
  selector.on_call_start(CallId(1), LocationId(0), 0.0);
  const FreezeResult r = selector.on_config_frozen(CallId(1), config, 300.0);
  EXPECT_FALSE(r.server.valid());
  selector.on_call_end(CallId(1), 400.0);
}

}  // namespace
}  // namespace sb
