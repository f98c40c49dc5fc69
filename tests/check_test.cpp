// Tests for the sb_check fuzzing stack: JSON canonical round-trips, fuzzer
// determinism, clean runs over fuzzed seeds, oracle sensitivity (the
// planted chaos bug MUST be caught, shrunk small, and replay from a repro
// file), the independent bucket recount, and the validate_solution /
// FaultSchedule hooks the suite leans on.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include "check/fuzz_case.h"
#include "check/fuzzer.h"
#include "check/json.h"
#include "check/oracles.h"
#include "check/shrink.h"
#include "common/error.h"
#include "core/controller.h"
#include "invalid_what.h"
#include "lp/solver.h"
#include "sim/allocator.h"
#include "sim/simulator.h"

namespace sb::check {
namespace {

TEST(JsonTest, RoundTripsValuesCanonically) {
  Json::Object o;
  o["b"] = true;
  o["n"] = 42.5;
  o["i"] = std::uint64_t{1234567890123};
  o["s"] = "hello \"world\"\n\t";
  Json::Array arr;
  arr.emplace_back(1);
  arr.emplace_back(nullptr);
  arr.emplace_back("x");
  o["a"] = Json(std::move(arr));
  const Json v(std::move(o));
  const std::string text = v.dump(2);
  const Json parsed = Json::parse(text);
  EXPECT_EQ(parsed, v);
  // Canonical: dump(parse(dump(v))) is byte-identical (sorted keys, stable
  // number formatting).
  EXPECT_EQ(parsed.dump(2), text);
  EXPECT_EQ(parsed.get("i").as_u64(), 1234567890123ULL);
  EXPECT_EQ(parsed.get("s").as_string(), "hello \"world\"\n\t");
}

TEST(JsonTest, RejectsMalformedInput) {
  EXPECT_THROW(Json::parse("{"), InvalidArgument);
  EXPECT_THROW(Json::parse("[1,]"), InvalidArgument);
  EXPECT_EQ(test::invalid_what([] { Json::parse("{\"a\":1} trailing"); }),
            "Json: trailing content at offset 8");
  EXPECT_THROW(Json::parse(""), InvalidArgument);
  EXPECT_THROW((void)Json(1.0).as_string(), InvalidArgument);
}

TEST(JsonTest, MissingKeyNamesTheKey) {
  const Json v = Json::parse("{\"a\": 1}");
  EXPECT_EQ(v.get("a").as_u64(), 1u);
  EXPECT_EQ(test::invalid_what([&] { (void)v.get("b"); }),
            "Json: missing key 'b'");
}

TEST(FuzzCaseTest, ReproFileErrorsNameThePath) {
  const std::string path = "no-such-dir/repro.json";
  EXPECT_EQ(test::invalid_what([&] { write_repro(FuzzCase{}, path); }),
            "write_repro: cannot open " + path);
  EXPECT_EQ(test::invalid_what([&] { (void)load_repro(path); }),
            "load_repro: cannot open " + path);
}

TEST(FuzzerTest, GenerationIsDeterministic) {
  const ScenarioFuzzer fuzzer;
  const FuzzCase a = fuzzer.generate(7);
  const FuzzCase b = fuzzer.generate(7);
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  const FuzzCase c = fuzzer.generate(8);
  EXPECT_NE(a.to_json().dump(), c.to_json().dump());
}

TEST(FuzzerTest, CaseSurvivesJsonRoundTrip) {
  const FuzzCase a = ScenarioFuzzer().generate(3);
  const FuzzCase b = FuzzCase::from_json(Json::parse(a.to_json().dump(2)));
  EXPECT_EQ(a.to_json().dump(), b.to_json().dump());
  // And the round-tripped case materializes to the same world/trace shape.
  const auto ma = a.materialize();
  const auto mb = b.materialize();
  EXPECT_EQ(ma->world.dc_count(), mb->world.dc_count());
  EXPECT_EQ(ma->db.size(), mb->db.size());
  EXPECT_EQ(ma->faults.size(), mb->faults.size());
}

// Repro files store lp::Method as a raw integer, so those integers are
// pinned: 0 and 3 still mean kAuto and kSparse after a round trip, and the
// retired 2 or any unknown value is rejected instead of replaying under
// another engine.
TEST(FuzzerTest, ReproLpMethodIsPinnedAndRangeChecked) {
  FuzzCase c = ScenarioFuzzer().generate(3);
  for (const auto& [stored, method] :
       {std::pair{0, lp::Method::kAuto}, std::pair{3, lp::Method::kSparse}}) {
    c.options.lp_method = stored;
    const FuzzCase back = FuzzCase::from_json(Json::parse(c.to_json().dump()));
    EXPECT_EQ(static_cast<lp::Method>(back.options.lp_method), method);
  }
  for (const int stored : {2, 99}) {
    Json j = c.to_json();
    j["options"]["lp_method"] = stored;
    EXPECT_THROW((void)FuzzCase::from_json(j), InvalidArgument) << stored;
  }
}

// Repros written before the provisioner lost its F0-only floors and its
// scenario thread pool still load when they asked for what remains
// (chained floors); one that asked for F0-only floors is rejected by name,
// and the thread count, which never changed a result, is ignored.
TEST(FuzzerTest, ReproRemovedProvisionerOptionsArePinned) {
  const FuzzCase c = ScenarioFuzzer().generate(3);
  Json j = c.to_json();
  j["options"]["floor_mode"] = 0;
  j["options"]["scenario_threads"] = 2;
  EXPECT_EQ(FuzzCase::from_json(j).to_json().dump(), c.to_json().dump());
  j["options"]["floor_mode"] = 1;
  try {
    (void)FuzzCase::from_json(j);
    ADD_FAILURE() << "floor_mode 1 loaded";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("floor_mode 1"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("removed"), std::string::npos)
        << e.what();
  }
}

TEST(RunCaseTest, FuzzedSeedsPassAllOracles) {
  const ScenarioFuzzer fuzzer;
  for (std::uint64_t seed = 0; seed < 6; ++seed) {
    const FuzzCase c = fuzzer.generate(seed);
    const CheckResult r = run_case(c);
    if (r.provision_infeasible) continue;
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
  }
}

TEST(RunCaseTest, ReplayOfSameCaseIsDeterministic) {
  const FuzzCase c = ScenarioFuzzer().generate(11);
  const CheckResult a = run_case(c);
  const CheckResult b = run_case(c);
  EXPECT_EQ(a.ok(), b.ok());
  EXPECT_EQ(a.calls, b.calls);
  EXPECT_EQ(a.dropped, b.dropped);
  EXPECT_EQ(a.failover_moves, b.failover_moves);
}

// The acceptance-criteria test: planting the drain-credit leak must be
// caught by the conservation oracle within a few seeds, shrink to a small
// scenario, and the written repro must deterministically replay the
// failure after a file round-trip.
TEST(ChaosTest, PlantedDrainCreditLeakIsCaughtShrunkAndReplayable) {
  FuzzerParams params;
  params.chaos_skip_drain_credit = true;
  const ScenarioFuzzer fuzzer(params);
  // Seeds with a rebuild storm plus cluster workers can show the leak only
  // under some thread interleavings, so a seed counts only when it fails on
  // every one of kReplays runs: the shrinker must start from an input that
  // fails every time it is run.
  constexpr int kReplays = 5;
  FuzzCase failing;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 64 && !found; ++seed) {
    const FuzzCase c = fuzzer.generate(seed);
    const CheckResult r = run_case(c);
    if (r.provision_infeasible || r.ok()) continue;
    bool fails_every_replay = true;
    for (int i = 1; i < kReplays && fails_every_replay; ++i) {
      fails_every_replay = !run_case(c).ok();
    }
    if (!fails_every_replay) continue;
    EXPECT_EQ(r.first_oracle(), "conservation") << r.summary();
    failing = c;
    found = true;
  }
  ASSERT_TRUE(found) << "planted bug not detected within 64 seeds";

  const ShrinkResult s = shrink_case(failing);
  EXPECT_EQ(s.oracle, "conservation");
  EXPECT_LE(s.best.calls.size(), 20u);
  EXPECT_LE(s.best.world.dcs.size(), 4u);
  EXPECT_GT(s.successes, 0u);

  const std::string path =
      (std::filesystem::temp_directory_path() / "sb_check_chaos_repro.json")
          .string();
  write_repro(s.best, path);
  const FuzzCase reloaded = load_repro(path);
  const CheckResult replay = run_case(reloaded);
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.first_oracle(), "conservation") << replay.summary();
  std::remove(path.c_str());
}

TEST(FuzzerTest, WorkerKillStormForcesClusterCasesThatRoundTrip) {
  FuzzerParams params;
  params.worker_kill_storm = true;
  const ScenarioFuzzer fuzzer(params);
  bool saw_cluster = false;
  for (std::uint64_t seed = 0; seed < 12 && !saw_cluster; ++seed) {
    const FuzzCase c = fuzzer.generate(seed);
    if (c.options.workers == 0) continue;  // storms only apply to plan cases
    saw_cluster = true;
    EXPECT_TRUE(c.options.use_plan);
    EXPECT_GE(c.options.lease_ttl_s, 20.0);
    std::size_t kills = 0;
    double last_t = -1.0;
    for (const auto& e : c.faults) {
      EXPECT_GE(e.time, last_t);  // oracles require time-sorted schedules
      last_t = e.time;
      if (e.kind == fault::FaultEvent::Kind::kWorkerDown) {
        ++kills;
        EXPECT_TRUE(e.worker.valid());
        EXPECT_LT(e.worker.value(), c.options.workers);
      }
    }
    EXPECT_GE(kills, 3u);  // storm mode draws 3-6 kill/restart pairs

    // Worker fault events (kinds 6/7 with a worker index) survive the JSON
    // repro round trip byte-for-byte.
    const FuzzCase back = FuzzCase::from_json(Json::parse(c.to_json().dump()));
    EXPECT_EQ(c.to_json().dump(), back.to_json().dump());
    EXPECT_EQ(back.options.workers, c.options.workers);
  }
  EXPECT_TRUE(saw_cluster) << "no cluster case generated within 12 seeds";
}

// Satellite acceptance for the cluster fuzzing integration: the planted
// WAL bug (freeze not re-imaged, so crash replay resurrects the pre-freeze
// row and the end event credits nothing) must be caught by the
// conservation oracle, and ddmin must shrink the WORKER-KILL schedule too
// — dropping kill/restart events and workers (with renumbering) the same
// way it drops servers — while keeping the failure alive.
TEST(ChaosTest, PlantedWalFreezeSkipIsCaughtAndWorkerScheduleShrinks) {
  FuzzerParams params;
  params.chaos_skip_wal_freeze = true;
  const ScenarioFuzzer fuzzer(params);
  FuzzCase failing;
  bool found = false;
  for (std::uint64_t seed = 0; seed < 64 && !found; ++seed) {
    const FuzzCase c = fuzzer.generate(seed);
    if (c.options.workers == 0) continue;
    const CheckResult r = run_case(c);
    if (r.provision_infeasible || r.ok()) continue;
    EXPECT_EQ(r.first_oracle(), "conservation") << r.summary();
    failing = c;
    found = true;
  }
  ASSERT_TRUE(found) << "planted WAL bug not detected within 64 seeds";

  const ShrinkResult s = shrink_case(failing);
  EXPECT_EQ(s.oracle, "conservation");
  EXPECT_GT(s.successes, 0u);

  // The bug needs a cluster and at least one kill to fire, so the shrinker
  // cannot remove them — but it must have squeezed the schedule down to
  // (near) that minimum, with every surviving worker index in range.
  EXPECT_GE(s.best.options.workers, 1u);
  EXPECT_LE(s.best.options.workers, failing.options.workers);
  std::size_t kills = 0;
  std::size_t worker_events = 0;
  for (const auto& e : s.best.faults) {
    if (!e.is_worker()) continue;
    ++worker_events;
    EXPECT_TRUE(e.worker.valid());
    EXPECT_LT(e.worker.value(), s.best.options.workers);
    if (e.kind == fault::FaultEvent::Kind::kWorkerDown) ++kills;
  }
  EXPECT_GE(kills, 1u);
  EXPECT_LE(worker_events, 4u) << "worker schedule not minimized";
  EXPECT_LE(s.best.calls.size(), 20u);

  // The shrunk repro still replays the failure after a file round trip.
  const std::string path =
      (std::filesystem::temp_directory_path() / "sb_check_wal_repro.json")
          .string();
  write_repro(s.best, path);
  const CheckResult replay = run_case(load_repro(path));
  EXPECT_FALSE(replay.ok());
  EXPECT_EQ(replay.first_oracle(), "conservation") << replay.summary();
  std::remove(path.c_str());
}

// Healthy cluster cases (kills but no planted bug) must sail through every
// oracle, including the cluster-conservation oracle's effective-transition
// recount and WAL-quiescence checks.
TEST(RunCaseTest, WorkerKillStormSeedsPassAllOracles) {
  FuzzerParams params;
  params.worker_kill_storm = true;
  const ScenarioFuzzer fuzzer(params);
  std::size_t cluster_runs = 0;
  for (std::uint64_t seed = 0; seed < 10 && cluster_runs < 3; ++seed) {
    const FuzzCase c = fuzzer.generate(seed);
    if (c.options.workers == 0) continue;
    const CheckResult r = run_case(c);
    if (r.provision_infeasible) continue;
    ++cluster_runs;
    EXPECT_TRUE(r.ok()) << "seed " << seed << ": " << r.summary();
  }
  EXPECT_GT(cluster_runs, 0u) << "no feasible cluster case within 10 seeds";
}

TEST(ShrinkTest, RejectsPassingCase) {
  const ScenarioFuzzer fuzzer;
  for (std::uint64_t seed = 0; seed < 16; ++seed) {
    const FuzzCase c = fuzzer.generate(seed);
    if (run_case(c).ok()) {
      EXPECT_THROW((void)shrink_case(c), InvalidArgument);
      return;
    }
  }
  FAIL() << "no passing seed found to shrink";
}

// The recount oracle's sensitivity: an honest hosting log reproduces the
// tracker's bucket series; a tampered one (one hosting decision re-pointed
// to a different DC) must not.
TEST(RecountTest, MatchesTrackerAndDetectsTampering) {
  const ScenarioFuzzer fuzzer;
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    FuzzCase c = fuzzer.generate(seed);
    if (c.calls.empty() || c.world.dcs.size() < 2) continue;
    c.options.use_plan = false;  // drive the plan-less controller directly
    c.options.rebuild_storm = false;
    const auto m = c.materialize();
    Switchboard controller(m->ctx(), controller_options(c.options));
    ControllerAllocator alloc(controller);
    const Simulator sim(m->ctx());
    HostingLog log;
    const SimReport rep =
        sim.run(m->db, alloc, c.options.freeze_delay_s,
                m->faults.empty() ? nullptr : &m->faults, c.options.bucket_s,
                &log);
    ASSERT_FALSE(log.events.empty());
    std::size_t buckets = 0;
    for (const auto& row : rep.dc_cores_buckets) {
      buckets = std::max(buckets, row.size());
    }
    const auto honest =
        recount_dc_buckets(*m, log, c.options.bucket_s, buckets);
    ASSERT_EQ(honest.size(), rep.dc_cores_buckets.size());
    double max_err = 0.0;
    double peak = 0.0;
    for (std::size_t x = 0; x < honest.size(); ++x) {
      for (std::size_t b = 0; b < buckets; ++b) {
        const double h = b < honest[x].size() ? honest[x][b] : 0.0;
        const double t = b < rep.dc_cores_buckets[x].size()
                             ? rep.dc_cores_buckets[x][b]
                             : 0.0;
        max_err = std::max(max_err, std::abs(h - t));
        peak = std::max(peak, t);
      }
    }
    EXPECT_LE(max_err, 1e-6 * std::max(1.0, peak)) << "seed " << seed;
    if (peak == 0.0) continue;  // no load: tampering would be invisible

    HostingLog tampered = log;
    bool flipped = false;
    for (HostingEvent& e : tampered.events) {
      if (e.kind != HostingEvent::Kind::kStart) continue;
      e.dc = DcId(e.dc.value() == 0 ? 1 : 0);
      flipped = true;
      break;
    }
    ASSERT_TRUE(flipped);
    const auto forged =
        recount_dc_buckets(*m, tampered, c.options.bucket_s, buckets);
    double tamper_err = 0.0;
    for (std::size_t x = 0; x < forged.size(); ++x) {
      for (std::size_t b = 0; b < buckets; ++b) {
        const double f = b < forged[x].size() ? forged[x][b] : 0.0;
        const double t = b < rep.dc_cores_buckets[x].size()
                             ? rep.dc_cores_buckets[x][b]
                             : 0.0;
        tamper_err = std::max(tamper_err, std::abs(f - t));
      }
    }
    EXPECT_GT(tamper_err, 1e-3) << "seed " << seed;
    return;  // one full scenario exercised is enough
  }
  FAIL() << "no suitable seed (>= 2 DCs, non-empty trace) found";
}

// The full-solution validate_solution overload the LP feasibility oracle
// builds on: optimal solutions validate, corrupted ones do not.
TEST(ValidateSolutionTest, ChecksValuesAndReportedObjective) {
  lp::Model model;
  const int x = model.add_variable(0.0, lp::kInf, 1.0, "x");
  const int y = model.add_variable(0.0, lp::kInf, 2.0, "y");
  model.add_constraint({{x, 1.0}, {y, 1.0}}, lp::Sense::kGe, 4.0, "cover");
  lp::Solution sol = lp::solve(model);
  ASSERT_TRUE(sol.optimal());
  EXPECT_TRUE(lp::validate_solution(model, sol).feasible);

  lp::Solution wrong_values = sol;
  wrong_values.values[static_cast<std::size_t>(x)] = 0.0;
  wrong_values.values[static_cast<std::size_t>(y)] = 0.0;
  EXPECT_FALSE(lp::validate_solution(model, wrong_values).feasible);

  lp::Solution wrong_objective = sol;
  wrong_objective.objective += 1.0;
  EXPECT_FALSE(lp::validate_solution(model, wrong_objective).feasible);
}

TEST(FaultScheduleTest, FromEventsRoundTripsEventOrder) {
  fault::FaultSchedule sched;
  sched.fail_dc(DcId(1), 100.0, 50.0);
  sched.fail_link(LinkId(0), 120.0, 30.0);
  const std::vector<fault::FaultEvent> events = sched.events();
  const fault::FaultSchedule rebuilt = fault::FaultSchedule::from_events(events);
  const std::vector<fault::FaultEvent> round = rebuilt.events();
  ASSERT_EQ(round.size(), events.size());
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(round[i].time, events[i].time);
    EXPECT_EQ(round[i].kind, events[i].kind);
    EXPECT_EQ(round[i].dc, events[i].dc);
    EXPECT_EQ(round[i].link, events[i].link);
  }
}

}  // namespace
}  // namespace sb::check
