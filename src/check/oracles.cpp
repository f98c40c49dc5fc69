#include "check/oracles.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstring>
#include <optional>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include "calls/demand.h"
#include "cluster/allocator.h"
#include "cluster/controller.h"
#include "common/error.h"
#include "core/controller.h"
#include "core/failure.h"
#include "core/provisioner.h"
#include "fault/failover.h"
#include "loop/adaptive.h"
#include "lp/solver.h"
#include "pack/packer.h"
#include "sim/allocator.h"

namespace sb::check {

namespace {

/// Tolerance for comparing independently-summed floating-point series (the
/// tracker and the recount accumulate the same deltas in different orders).
constexpr double kSumTol = 1e-6;
/// Tolerance for LP-derived quantities (objectives, placements).
constexpr double kLpTol = 1e-5;

bool close(double a, double b, double tol) {
  return std::abs(a - b) <= tol * std::max({1.0, std::abs(a), std::abs(b)});
}

void fail(std::vector<OracleFailure>& out, std::string oracle,
          std::string detail) {
  out.push_back({std::move(oracle), std::move(detail)});
}

/// One executor instance: a Switchboard controller driven through
/// ControllerAllocator, provisioned and planned when the case uses a plan
/// (optionally under the cluster facade or the closed loop), plan-less
/// otherwise. Every run (reference, determinism re-run, concurrent
/// differential) constructs a fresh Exec so no state leaks between runs.
class Exec {
 public:
  /// `demand` must be non-null iff the case uses a plan. Throws SolveError
  /// when provisioning is infeasible (the caller maps that to a skip).
  Exec(const Materialized& m, const FuzzCase& c, const DemandMatrix* demand)
      : sb_(m.ctx(), controller_options(c.options)) {
    if (!c.options.use_plan) return;
    require(demand != nullptr, "Exec: plan path needs a demand matrix");
    sb_.provision(*demand);
    sb_.build_allocation_plan(*demand, c.window_start_s);
    if (c.options.workers > 0) {
      // Cluster mode: the same Switchboard becomes the media plane under
      // N controller workers. With workers == 1 and no kills this path is
      // bit-identical to ControllerAllocator (asserted by cluster_test).
      cluster::ClusterOptions clopts;
      clopts.workers = c.options.workers;
      clopts.lease_ttl_s = c.options.lease_ttl_s;
      clopts.chaos_skip_wal_freeze = c.options.chaos_skip_wal_freeze;
      cluster_ = std::make_unique<cluster::ClusterController>(sb_, clopts);
      cluster_alloc_ = std::make_unique<cluster::ClusterAllocator>(*cluster_);
    } else if (c.options.use_loop) {
      // Closed-loop mode: the AdaptiveController wraps the controller,
      // observes the replayed demand, and installs corrected plans
      // mid-run. `demand` here is the (possibly under-scaled) forecast.
      loop::LoopOptions lopts;
      lopts.cadence_s = c.options.loop_cadence_s;
      lopts.deviation_band = c.options.loop_band;
      lopts.chaos_skip_replan = c.options.chaos_skip_replan;
      loop_alloc_ = std::make_unique<loop::AdaptiveController>(
          sb_, m.ctx(), *demand, c.window_start_s, c.options.slot_s, lopts);
    }
  }

  [[nodiscard]] CallAllocator& allocator() {
    if (cluster_alloc_) return *cluster_alloc_;
    if (loop_alloc_) return *loop_alloc_;
    return controller_alloc_;
  }
  [[nodiscard]] Switchboard& controller() { return sb_; }
  [[nodiscard]] const Switchboard& controller() const { return sb_; }
  /// Cluster facade (null outside cluster mode).
  [[nodiscard]] cluster::ClusterController* cluster() { return cluster_.get(); }
  /// Closed-loop controller (null outside loop mode).
  [[nodiscard]] loop::AdaptiveController* loop() { return loop_alloc_.get(); }

 private:
  Switchboard sb_;
  ControllerAllocator controller_alloc_{sb_};
  std::unique_ptr<cluster::ClusterController> cluster_;
  std::unique_ptr<cluster::ClusterAllocator> cluster_alloc_;
  std::unique_ptr<loop::AdaptiveController> loop_alloc_;
};

// ---------------------------------------------------------------------------
// Oracles
// ---------------------------------------------------------------------------

/// Re-checks the provisioning LP's base placement against the provisioned
/// capacities: per-slot DC usage within serving cores, per-slot link usage
/// within link capacity, and every (slot, config) demand fully placed (the
/// Eq 4 completeness rows).
void lp_feasibility_oracle(const Materialized& m, const DemandMatrix& demand,
                           const ProvisionResult& pr,
                           std::vector<OracleFailure>& out) {
  const UsageProfile usage = compute_usage(pr.base_placement, demand, m.ctx());
  for (std::size_t x = 0; x < usage.dc_cores.size(); ++x) {
    const double cap = pr.capacity.dc_serving_cores[x];
    for (std::size_t t = 0; t < usage.dc_cores[x].size(); ++t) {
      const double used = usage.dc_cores[x][t];
      if (used > cap + kLpTol * std::max(1.0, cap)) {
        std::ostringstream os;
        os << "dc " << x << " slot " << t << " uses " << used
           << " cores > serving " << cap;
        fail(out, "lp-feasibility", os.str());
        return;
      }
    }
  }
  for (std::size_t l = 0; l < usage.link_gbps.size(); ++l) {
    const double cap = pr.capacity.link_gbps[l];
    for (std::size_t t = 0; t < usage.link_gbps[l].size(); ++t) {
      const double used = usage.link_gbps[l][t];
      if (used > cap + kLpTol * std::max(1.0, cap)) {
        std::ostringstream os;
        os << "link " << l << " slot " << t << " uses " << used
           << " gbps > capacity " << cap;
        fail(out, "lp-feasibility", os.str());
        return;
      }
    }
  }
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t cc = 0; cc < demand.config_count(); ++cc) {
      const double placed = pr.base_placement.total_calls(t, cc);
      const double want = demand.demand(t, cc);
      if (!close(placed, want, kLpTol)) {
        std::ostringstream os;
        os << "slot " << t << " config col " << cc << " places " << placed
           << " calls, demand " << want;
        fail(out, "lp-feasibility", os.str());
        return;
      }
    }
  }
}

/// Per-record lifecycle from the hosting log: exactly one kStart first,
/// only kMove in the middle, exactly one terminal kDrop/kEnd, nothing
/// after; every record present; drops only when the case has a DC outage.
void exactly_once_oracle(const Materialized& m, const FuzzCase& c,
                         const HostingLog& log,
                         std::vector<OracleFailure>& out) {
  const std::size_t n = m.db.size();
  // 0 = unseen, 1 = started, 2 = terminated.
  std::vector<std::uint8_t> state(n, 0);
  bool drop_fault = false;
  for (const fault::FaultEvent& e : c.faults) {
    drop_fault |= e.kind == fault::FaultEvent::Kind::kDcDown ||
                  e.kind == fault::FaultEvent::Kind::kServerDown;
  }
  for (const HostingEvent& e : log.events) {
    if (e.record >= n) {
      fail(out, "exactly-once",
           "hosting event references record " + std::to_string(e.record) +
               " of " + std::to_string(n));
      return;
    }
    std::uint8_t& s = state[e.record];
    switch (e.kind) {
      case HostingEvent::Kind::kStart:
        if (s != 0) {
          fail(out, "exactly-once",
               "record " + std::to_string(e.record) + " started twice");
          return;
        }
        s = 1;
        break;
      case HostingEvent::Kind::kMove:
      case HostingEvent::Kind::kPack:
        if (s != 1) {
          fail(out, "exactly-once",
               "record " + std::to_string(e.record) +
                   " moved while not live (state " + std::to_string(s) + ")");
          return;
        }
        break;
      case HostingEvent::Kind::kDrop:
        if (!drop_fault) {
          fail(out, "exactly-once",
               "record " + std::to_string(e.record) +
                   " dropped with no DC or server outage in the schedule");
          return;
        }
        [[fallthrough]];
      case HostingEvent::Kind::kEnd:
        if (s != 1) {
          fail(out, "exactly-once",
               "record " + std::to_string(e.record) +
                   " terminated while not live (state " + std::to_string(s) +
                   ")");
          return;
        }
        s = 2;
        break;
    }
  }
  for (std::size_t r = 0; r < n; ++r) {
    if (state[r] != 2) {
      fail(out, "exactly-once",
           "record " + std::to_string(r) + " never " +
               (state[r] == 0 ? "started" : "terminated"));
      return;
    }
  }
}

/// True when `dc` is down at `t` for CALL events: fault events apply before
/// call events at the same instant, so an outage covers [down_t, up_t).
bool dc_down_at(const std::vector<fault::FaultEvent>& faults, DcId dc,
                SimTime t) {
  bool down = false;
  for (const fault::FaultEvent& e : faults) {
    if (e.time > t) break;
    if (!e.is_dc() || e.dc != dc) continue;
    down = e.kind == fault::FaultEvent::Kind::kDcDown;
  }
  return down;
}

std::size_t dcs_down_at(const std::vector<fault::FaultEvent>& faults,
                        std::size_t dc_count, SimTime t) {
  std::size_t down = 0;
  for (std::uint32_t x = 0; x < dc_count; ++x) {
    down += dc_down_at(faults, DcId(x), t) ? 1 : 0;
  }
  return down;
}

/// No hosting decision may land on a failed DC while at least one DC is up
/// (with EVERY DC down the selector fails open by design — a degraded
/// placement beats refusing service).
void down_dc_oracle(const Materialized& m, const FuzzCase& c,
                    const HostingLog& log, std::vector<OracleFailure>& out) {
  if (c.faults.empty()) return;
  const std::size_t dc_count = m.world.dc_count();
  for (const HostingEvent& e : log.events) {
    if (e.kind != HostingEvent::Kind::kStart &&
        e.kind != HostingEvent::Kind::kMove) {
      continue;
    }
    if (!dc_down_at(c.faults, e.dc, e.time)) continue;
    if (dcs_down_at(c.faults, dc_count, e.time) >= dc_count) continue;
    std::ostringstream os;
    os << "record " << e.record << " "
       << (e.kind == HostingEvent::Kind::kStart ? "started" : "moved")
       << " onto down dc " << e.dc.value() << " at t=" << e.time;
    fail(out, "down-dc", os.str());
    return;
  }
}

/// Quiescence conservation: the selector tracks no calls and holds no plan
/// slots, slot debits balance credits, and the selector's own counters
/// agree with the simulator's report. This is the oracle the
/// chaos_skip_drain_credit knob trips (a leaked debit keeps held_slots
/// non-zero forever).
void conservation_oracle(const Exec& exec, const SimReport& rep,
                         std::size_t record_count,
                         std::vector<OracleFailure>& out) {
  const Switchboard& sb = exec.controller();
  const RealtimeSelector::Stats s = sb.realtime_stats();
  const auto check = [&](bool ok, const std::string& detail) {
    if (!ok) fail(out, "conservation", detail);
  };
  check(sb.active_calls() == 0,
        "selector still tracks " + std::to_string(sb.active_calls()) +
            " calls at quiescence");
  check(sb.held_slots() == 0,
        "selector still holds " + std::to_string(sb.held_slots()) +
            " plan slots at quiescence");
  check(s.slot_debits == s.slot_credits,
        "slot debits " + std::to_string(s.slot_debits) + " != credits " +
            std::to_string(s.slot_credits));
  check(s.calls_started == rep.calls,
        "selector started " + std::to_string(s.calls_started) +
            " calls, simulator replayed " + std::to_string(rep.calls));
  check(rep.calls == record_count,
        "simulator replayed " + std::to_string(rep.calls) + " of " +
            std::to_string(record_count) + " records");
  check(s.calls_frozen == rep.frozen,
        "selector froze " + std::to_string(s.calls_frozen) +
            ", simulator reports " + std::to_string(rep.frozen));
  check(s.failover_drops == rep.dropped_calls,
        "selector dropped " + std::to_string(s.failover_drops) +
            ", simulator reports " + std::to_string(rep.dropped_calls));
  check(s.failover_moves == rep.failover_migrations,
        "selector re-homed " + std::to_string(s.failover_moves) +
            ", simulator reports " + std::to_string(rep.failover_migrations));
}

/// Cluster conservation (cluster cases only): at quiescence the WAL must be
/// empty (every started call's record was erased by exactly one terminal
/// event, across any number of crash/replay cycles), no shard may still be
/// marked dirty, the epoch must have stayed monotone from its birth value,
/// and every scheduled kill/restart must have been observed. A duplicated
/// or lost call-lifecycle transition strands a WAL record forever.
void cluster_conservation_oracle(Exec& exec, const FuzzCase& c,
                                 std::vector<OracleFailure>& out) {
  cluster::ClusterController* cl = exec.cluster();
  if (cl == nullptr) return;
  const auto check = [&](bool ok, const std::string& detail) {
    if (!ok) fail(out, "cluster-conservation", detail);
  };
  check(cl->wal_size() == 0,
        "WAL still holds " + std::to_string(cl->wal_size()) +
            " call records at quiescence");
  check(!cl->shard_map().any_dirty(), "dirty shards at quiescence");
  check(cl->epoch() >= 1, "cluster epoch regressed below its birth value");
  const cluster::ClusterStats cs = cl->stats();
  // Effective transitions only: overlapping outage pairs for one worker
  // deliver redundant edges the controller ignores. c.faults is in replay
  // order (time-sorted, stable), so this recount is exact.
  std::vector<std::uint8_t> alive(c.options.workers, 1);
  std::uint64_t kills = 0;
  std::uint64_t restarts = 0;
  for (const fault::FaultEvent& e : c.faults) {
    if (!e.is_worker() || e.worker.value() >= alive.size()) continue;
    std::uint8_t& a = alive[e.worker.value()];
    if (e.kind == fault::FaultEvent::Kind::kWorkerDown && a == 1) {
      a = 0;
      ++kills;
    } else if (e.kind == fault::FaultEvent::Kind::kWorkerUp && a == 0) {
      a = 1;
      ++restarts;
    }
  }
  check(cs.worker_kills == kills,
        "observed " + std::to_string(cs.worker_kills) + " worker kills, " +
            "schedule carries " + std::to_string(kills));
  check(cs.worker_restarts == restarts,
        "observed " + std::to_string(cs.worker_restarts) +
            " worker restarts, schedule carries " + std::to_string(restarts));
  check(cs.stale_events_fenced == 0,
        "in-process dispatch fenced " +
            std::to_string(cs.stale_events_fenced) + " events as stale");
}

/// Closed-loop accounting (loop cases only): every out-of-band trigger
/// must be answered — by an executed replan or an explicitly-counted solve
/// failure. This is the oracle the chaos_skip_replan knob provably trips
/// (the planted bug counts the trigger, then silently drops the
/// re-provision, so triggers run ahead of replans + solve_errors forever).
void loop_replan_oracle(Exec& exec, std::vector<OracleFailure>& out) {
  loop::AdaptiveController* lc = exec.loop();
  if (lc == nullptr) return;
  const loop::LoopStats s = lc->stats();
  if (s.triggers != s.replans + s.solve_errors) {
    std::ostringstream os;
    os << "loop counted " << s.triggers << " out-of-band triggers but only "
       << s.replans << " replans + " << s.solve_errors
       << " solve errors (a re-provision was silently dropped)";
    fail(out, "loop-replan", os.str());
  }
}

/// Per-server conservation (fleet cases only): the packer's cumulative
/// atomic admit/release counters must equal an exact integer recount from
/// the hosting log, every server's occupancy must be zero at quiescence,
/// and per-DC occupancy must equal the sum over the DC's servers. This is
/// the oracle the chaos_skip_server_credit knob provably trips (a skipped
/// release leaves released_mc short and occupancy non-zero forever).
void server_conservation_oracle(const Exec& exec, const Materialized& m,
                                const HostingLog& log,
                                std::vector<OracleFailure>& out) {
  const pack::ServerPacker* packer = exec.controller().packer();
  if (packer == nullptr) return;
  const std::vector<pack::ServerStats> stats = packer->stats();
  const std::vector<ServerTotals> want = recount_server_totals(m, log);
  if (stats.size() != want.size()) {
    fail(out, "server-conservation",
         "packer tracks " + std::to_string(stats.size()) +
             " servers, world has " + std::to_string(want.size()));
    return;
  }
  for (std::size_t s = 0; s < stats.size(); ++s) {
    if (stats[s].admitted_mc != want[s].admitted_mc) {
      std::ostringstream os;
      os << "server " << s << " packer admitted " << stats[s].admitted_mc
         << " mc, hosting-log recount " << want[s].admitted_mc;
      fail(out, "server-conservation", os.str());
      return;
    }
    if (stats[s].released_mc != want[s].released_mc) {
      std::ostringstream os;
      os << "server " << s << " packer released " << stats[s].released_mc
         << " mc, hosting-log recount " << want[s].released_mc;
      fail(out, "server-conservation", os.str());
      return;
    }
    if (stats[s].admitted_mc != stats[s].released_mc) {
      std::ostringstream os;
      os << "server " << s << " occupancy "
         << (stats[s].admitted_mc - stats[s].released_mc)
         << " mc at quiescence (admitted " << stats[s].admitted_mc
         << ", released " << stats[s].released_mc << ")";
      fail(out, "server-conservation", os.str());
      return;
    }
  }
  for (std::uint32_t x = 0; x < m.world.dc_count(); ++x) {
    const DcId dc(x);
    std::int64_t fleet_mc = 0;
    for (ServerId sid : packer->fleet(dc)) {
      fleet_mc += pack::to_millicores(packer->server_cores_used(sid));
    }
    const std::int64_t dc_mc = pack::to_millicores(packer->dc_cores_used(dc));
    if (fleet_mc != dc_mc) {
      std::ostringstream os;
      os << "dc " << x << " occupancy " << dc_mc
         << " mc != sum over its servers " << fleet_mc;
      fail(out, "server-conservation", os.str());
      return;
    }
  }
}

}  // namespace

void recount_oracle(const Materialized& m, const FuzzCase& c,
                    const SimReport& rep, const HostingLog& log,
                    const std::string& oracle_name,
                    std::vector<OracleFailure>& out) {
  std::size_t buckets = 0;
  for (const auto& row : rep.dc_cores_buckets) {
    buckets = std::max(buckets, row.size());
  }
  const auto counted =
      recount_dc_buckets(m, log, c.options.bucket_s, buckets);
  if (counted.size() != rep.dc_cores_buckets.size()) {
    fail(out, oracle_name,
         "recount has " + std::to_string(counted.size()) + " DCs, report " +
             std::to_string(rep.dc_cores_buckets.size()));
    return;
  }
  for (std::size_t x = 0; x < counted.size(); ++x) {
    const auto& want = counted[x];
    const auto& got = rep.dc_cores_buckets[x];
    for (std::size_t b = 0; b < buckets; ++b) {
      const double w = b < want.size() ? want[b] : 0.0;
      const double g = b < got.size() ? got[b] : 0.0;
      if (!close(w, g, kSumTol)) {
        std::ostringstream os;
        os << "dc " << x << " bucket " << b << " recount " << w
           << " != tracked " << g;
        fail(out, oracle_name, os.str());
        return;
      }
    }
  }
}

bool buckets_close(const std::vector<std::vector<double>>& a,
                   const std::vector<std::vector<double>>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t x = 0; x < a.size(); ++x) {
    const std::size_t n = std::max(a[x].size(), b[x].size());
    for (std::size_t i = 0; i < n; ++i) {
      const double av = i < a[x].size() ? a[x][i] : 0.0;
      const double bv = i < b[x].size() ? b[x][i] : 0.0;
      if (!close(av, bv, kSumTol)) return false;
    }
  }
  return true;
}

namespace {

/// The LP oracles run only on small shapes: the dense tableau is O(rows *
/// (rows + cols)) memory.
bool small_lp(const Materialized& m, const DemandMatrix& demand) {
  const std::size_t rows_est =
      demand.slot_count() * (m.world.dc_count() + m.topology.link_count() +
                             demand.config_count());
  return rows_est > 0 && rows_est <= 2000;
}

/// A per-config demand correction, as the closed loop computes one: factors
/// 0.8..1.2, rotated across configs by `shift`. Every factor is positive,
/// so the positive-demand pattern never changes.
DemandMatrix perturbed_demand(const DemandMatrix& demand,
                              std::size_t shift = 0) {
  DemandMatrix corrected = demand;
  for (TimeSlot t = 0; t < corrected.slot_count(); ++t) {
    for (std::size_t c = 0; c < corrected.config_count(); ++c) {
      const double factor = 0.8 + 0.1 * static_cast<double>((c + shift) % 5);
      corrected.set_demand(t, c, corrected.demand(t, c) * factor);
    }
  }
  return corrected;
}

/// Sparse LU/eta simplex vs the dense reference tableau on the same
/// scenario LPs, plus a warm-started vs a cold solve: F0 at a per-config
/// perturbed demand, re-solving its own retained model from the unperturbed
/// solve. Optimal OBJECTIVES are unique (placements need not be), so that
/// is what is compared. Scenario infeasibility here is a skip, not a
/// failure.
void lp_differential_oracle(const Materialized& m, const FuzzCase& c,
                            const DemandMatrix& demand,
                            std::vector<OracleFailure>& out) {
  if (!small_lp(m, demand)) return;

  ProvisionOptions po = controller_options(c.options).provision;
  po.lp_options.method = lp::Method::kSparse;
  const SwitchboardProvisioner sparse(m.ctx(), po);
  po.lp_options.method = lp::Method::kDense;
  const SwitchboardProvisioner dense(m.ctx(), po);

  try {
    std::optional<ScenarioLp> basis;
    const ScenarioOutcome f0_sparse = sparse.solve_scenario(
        demand, FailureScenario::none(), nullptr, nullptr, &basis);
    const ScenarioOutcome f0_dense =
        dense.solve_scenario(demand, FailureScenario::none());
    if (!close(f0_sparse.lp_objective, f0_dense.lp_objective, kLpTol)) {
      std::ostringstream os;
      os << "F0 objective sparse " << f0_sparse.lp_objective << " != dense "
         << f0_dense.lp_objective;
      fail(out, "lp-differential", os.str());
      return;
    }
    const DemandMatrix corrected = perturbed_demand(demand);
    const ScenarioOutcome f0_warm = sparse.solve_scenario(
        corrected, FailureScenario::none(), nullptr, nullptr, &basis);
    const ScenarioOutcome f0_cold =
        sparse.solve_scenario(corrected, FailureScenario::none());
    if (!close(f0_warm.lp_objective, f0_cold.lp_objective, kLpTol)) {
      std::ostringstream os;
      os << "perturbed-F0 objective warm " << f0_warm.lp_objective
         << " != cold " << f0_cold.lp_objective;
      fail(out, "lp-differential", os.str());
    }
  } catch (const SolveError&) {
    // A failure scenario with no feasible placement is a property of the
    // random world, not a solver bug.
  }
}

/// Byte equality: an in-place re-solve must reproduce a copy's arithmetic
/// exactly, so no tolerance and no folding of -0.0 into 0.0.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}
bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

std::string reprovision_difference(const ProvisionResult& a,
                                   const ProvisionResult& b) {
  if (!same_bits(a.capacity.dc_serving_cores, b.capacity.dc_serving_cores) ||
      !same_bits(a.capacity.dc_backup_cores, b.capacity.dc_backup_cores) ||
      !same_bits(a.capacity.link_gbps, b.capacity.link_gbps)) {
    return "capacity plan";
  }
  const PlacementMatrix& pa = a.base_placement;
  const PlacementMatrix& pb = b.base_placement;
  if (pa.slot_count() != pb.slot_count() ||
      pa.config_count() != pb.config_count() ||
      pa.dc_count() != pb.dc_count()) {
    return "base placement shape";
  }
  for (TimeSlot t = 0; t < pa.slot_count(); ++t) {
    for (std::size_t c = 0; c < pa.config_count(); ++c) {
      for (std::size_t x = 0; x < pa.dc_count(); ++x) {
        const DcId dc(static_cast<std::uint32_t>(x));
        if (!same_bits(pa.calls(t, c, dc), pb.calls(t, c, dc))) {
          return "base placement";
        }
      }
    }
  }
  if (a.scenarios.size() != b.scenarios.size()) return "scenario count";
  for (std::size_t f = 0; f < a.scenarios.size(); ++f) {
    const ScenarioOutcome& oa = a.scenarios[f];
    const ScenarioOutcome& ob = b.scenarios[f];
    if (!same_bits(oa.lp_objective, ob.lp_objective) ||
        oa.lp_iterations != ob.lp_iterations ||
        !same_bits(oa.required.dc_serving_cores,
                   ob.required.dc_serving_cores) ||
        !same_bits(oa.required.link_gbps, ob.required.link_gbps)) {
      std::ostringstream os;
      os << oa.scenario.name << " objective " << oa.lp_objective << " ("
         << oa.lp_iterations << " iterations) vs " << ob.lp_objective << " ("
         << ob.lp_iterations << ")";
      return os.str();
    }
  }
  return "";
}

std::string plan_difference(const AllocationPlan& a, const AllocationPlan& b) {
  if (a.slot_count() != b.slot_count() ||
      a.config_count() != b.config_count() || a.dc_count() != b.dc_count()) {
    return "plan shape";
  }
  for (TimeSlot t = 0; t < a.slot_count(); ++t) {
    for (std::size_t c = 0; c < a.config_count(); ++c) {
      for (std::size_t x = 0; x < a.dc_count(); ++x) {
        const DcId dc(static_cast<std::uint32_t>(x));
        if (a.quota(t, c, dc) != b.quota(t, c, dc) ||
            !same_bits(a.fractional.calls(t, c, dc),
                       b.fractional.calls(t, c, dc))) {
          std::ostringstream os;
          os << "slot " << t << " config " << c << " dc " << x << ": quota "
             << a.quota(t, c, dc) << " (" << a.fractional.calls(t, c, dc)
             << " calls) vs " << b.quota(t, c, dc) << " ("
             << b.fractional.calls(t, c, dc) << ")";
          return os.str();
        }
      }
    }
  }
  if (!same_bits(a.slot_objective, b.slot_objective)) return "slot objectives";
  if (a.lp_iterations != b.lp_iterations) {
    return "lp iterations " + std::to_string(a.lp_iterations) + " vs " +
           std::to_string(b.lp_iterations);
  }
  if (!same_bits(a.mean_acl_ms, b.mean_acl_ms)) return "mean ACL";
  return "";
}

std::string plan_infeasibility(const AllocationPlan& plan,
                               const DemandMatrix& demand,
                               const CapacityPlan& capacity,
                               const EvalContext& ctx) {
  std::ostringstream os;
  const UsageProfile usage = compute_usage(plan.fractional, demand, ctx);
  for (std::size_t x = 0; x < usage.dc_cores.size(); ++x) {
    const double cap =
        capacity.dc_total_cores(DcId(static_cast<std::uint32_t>(x)));
    for (std::size_t t = 0; t < usage.dc_cores[x].size(); ++t) {
      if (usage.dc_cores[x][t] > cap + kLpTol * std::max(1.0, cap)) {
        os << "slot " << t << " dc " << x << " uses " << usage.dc_cores[x][t]
           << " cores > capacity " << cap;
        return os.str();
      }
    }
  }
  for (std::size_t l = 0; l < usage.link_gbps.size(); ++l) {
    const double cap = capacity.link_gbps[l];
    for (std::size_t t = 0; t < usage.link_gbps[l].size(); ++t) {
      if (usage.link_gbps[l][t] > cap + kLpTol * std::max(1.0, cap)) {
        os << "slot " << t << " link " << l << " uses "
           << usage.link_gbps[l][t] << " gbps > capacity " << cap;
        return os.str();
      }
    }
  }
  for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
    for (std::size_t c = 0; c < demand.config_count(); ++c) {
      const double d = demand.demand(t, c);
      double placed = 0.0;
      std::uint64_t quotas = 0;
      for (std::size_t x = 0; x < plan.dc_count(); ++x) {
        const DcId dc(static_cast<std::uint32_t>(x));
        placed += plan.fractional.calls(t, c, dc);
        quotas += plan.quota(t, c, dc);
      }
      const auto ceil_d =
          d > 0.0 ? static_cast<std::uint64_t>(std::ceil(d - 1e-9)) : 0;
      if (!close(placed, d, kLpTol) || quotas != ceil_d) {
        os << "slot " << t << " config " << c << " places " << placed
           << " calls in " << quotas << " quota slots for demand " << d;
        return os.str();
      }
    }
  }
  return "";
}

namespace {

/// Re-provisions `demand` through `hint`, in place. The same re-provision
/// first runs through a copy of the hint, whose retained LPs rebuild their
/// dual engines, and the in-place run must match it bit for bit. Then
/// every scenario's objective is checked against a cold solve_scenario of
/// that scenario at the floors the warm run gave it: the combined plan of
/// the scenarios before it. Comparing at equal floors stays exact when an
/// earlier scenario has alternate optima. Returns false after recording a
/// failure.
bool reprovision_agrees(const SwitchboardProvisioner& prov,
                        const ProvisionOptions& po, const DemandMatrix& demand,
                        ScenarioBasisHint& hint, const char* what,
                        std::vector<OracleFailure>& out) {
  ScenarioBasisHint copy = hint;
  const ProvisionResult copied = prov.provision(demand, &copy);
  const ProvisionResult warm = prov.provision(demand, &hint);
  const std::string diff = reprovision_difference(warm, copied);
  if (!diff.empty()) {
    fail(out, "reprovision",
         std::string(what) + " re-provision in place differs from one " +
             "through a copy of its hint: " + diff);
    return false;
  }
  CapacityPlan combined = warm.scenarios.front().required;
  for (std::size_t f = 0; f < warm.scenarios.size(); ++f) {
    const ScenarioOutcome& got = warm.scenarios[f];
    const CapacityPlan* floors =
        f > 0 && po.capacity_reuse ? &combined : nullptr;
    const ScenarioOutcome cold =
        prov.solve_scenario(demand, got.scenario, nullptr, floors);
    if (!close(got.lp_objective, cold.lp_objective, kLpTol)) {
      std::ostringstream os;
      os << what << " re-provision: " << got.scenario.name
         << " objective incremental " << got.lp_objective
         << " != from scratch " << cold.lp_objective;
      fail(out, "reprovision", os.str());
      return false;
    }
    combined = max_capacity(combined, got.required);
  }
  return true;
}

/// Incremental vs from-scratch re-provisioning. A cold provision writes
/// every scenario's model and basis into a hint; two re-provisions through
/// it at per-config perturbed demands with the same positive pattern
/// re-solve each retained LP in place with rewritten right-hand sides (the
/// dual simplex under kAuto): the first builds each scenario's dual engine,
/// the second reloads it. Each must match the same re-provision through a
/// copy of its input hint bit for bit. One more re-provision after zeroing
/// one (slot, config) cell changes the demand pattern, so every scenario
/// rebuilds and solves cold: it must equal a cold provision() of the same
/// demand bit for bit.
void reprovision_oracle(const Materialized& m, const FuzzCase& c,
                        const DemandMatrix& demand,
                        std::vector<OracleFailure>& out) {
  if (!small_lp(m, demand)) return;
  const ProvisionOptions po = controller_options(c.options).provision;
  const SwitchboardProvisioner prov(m.ctx(), po);
  try {
    ScenarioBasisHint hint;
    (void)prov.provision(demand, &hint);
    DemandMatrix corrected = perturbed_demand(demand);
    if (!reprovision_agrees(prov, po, perturbed_demand(demand, 2), hint,
                            "perturbed", out) ||
        !reprovision_agrees(prov, po, corrected, hint, "re-perturbed", out)) {
      return;
    }
    for (std::size_t i = 0;
         i < corrected.slot_count() * corrected.config_count(); ++i) {
      const auto t = static_cast<TimeSlot>(i / corrected.config_count());
      const std::size_t col = i % corrected.config_count();
      if (corrected.demand(t, col) > 0.0) {
        corrected.set_demand(t, col, 0.0);
        const ProvisionResult warm = prov.provision(corrected, &hint);
        const std::string diff =
            reprovision_difference(warm, prov.provision(corrected));
        if (!diff.empty()) {
          fail(out, "reprovision",
               "zeroed-cell re-provision differs from a cold provision: " +
                   diff);
        }
        return;
      }
    }
  } catch (const SolveError&) {
    // As above: an infeasible scenario is the world's, not the solver's.
  }
}

/// Re-plans `demand` under `capacity` through `hint` (input and output).
/// The same re-plan first runs through a copy of the input hint, whose
/// retained slot LPs rebuild their dual engines, and the in-place run must
/// match it bit for bit; then every slot's objective must match a hint-less
/// plan's, and both plans must satisfy Eq 10. Returns false after recording
/// a failure.
bool replan_agrees(const AllocationPlanner& planner, const EvalContext& ctx,
                   const DemandMatrix& demand, const CapacityPlan& capacity,
                   double slot_s, PlanLpHint& hint, const std::string& what,
                   std::vector<OracleFailure>& out) {
  PlanLpHint copy = hint;
  const AllocationPlan copied = planner.plan(demand, capacity, slot_s, &copy);
  const AllocationPlan warm = planner.plan(demand, capacity, slot_s, &hint);
  const AllocationPlan cold = planner.plan(demand, capacity, slot_s);
  std::string diff = plan_difference(warm, copied);
  if (!diff.empty()) {
    fail(out, "replan",
         what + " re-plan in place differs from one through a copy of its " +
             "hint: " + diff);
    return false;
  }
  for (TimeSlot t = 0; t < warm.slot_count(); ++t) {
    if (!close(warm.slot_objective[t], cold.slot_objective[t], kLpTol)) {
      std::ostringstream os;
      os << what << " re-plan: slot " << t << " objective in place "
         << warm.slot_objective[t] << " != hint-less "
         << cold.slot_objective[t];
      fail(out, "replan", os.str());
      return false;
    }
  }
  for (const AllocationPlan* plan : {&warm, &cold}) {
    diff = plan_infeasibility(*plan, demand, capacity, ctx);
    if (!diff.empty()) {
      fail(out, "replan", what + " re-plan breaks Eq 10: " + diff);
      return false;
    }
  }
  return true;
}

/// Incremental vs from-scratch re-planning, the allocation-plan twin of the
/// reprovision oracle. A cold plan writes every slot's Eq 10 LP into a
/// hint; two re-plans through it, each at a per-config perturbed demand
/// with the same positive pattern and that demand's provisioned capacity,
/// rewrite every slot's capacity and completeness rhs and re-solve in
/// place (the first builds each slot's dual engine, the second reloads
/// it). A provision that is infeasible by construction is a skip; a plan
/// under capacities provisioned for its own demand always has a solution,
/// so a plan that throws is a failure.
void replan_oracle(const Materialized& m, const FuzzCase& c,
                   const DemandMatrix& demand,
                   std::vector<OracleFailure>& out) {
  if (!small_lp(m, demand)) return;
  const ControllerOptions co = controller_options(c.options);
  const SwitchboardProvisioner prov(m.ctx(), co.provision);
  const AllocationPlanner planner(m.ctx(), co.allocation);
  ScenarioBasisHint basis;
  const auto capacity_for =
      [&](const DemandMatrix& d) -> std::optional<CapacityPlan> {
    try {
      return prov.provision(d, &basis).capacity;
    } catch (const SolveError&) {
      return std::nullopt;
    }
  };
  try {
    const std::optional<CapacityPlan> capacity = capacity_for(demand);
    if (!capacity) return;
    PlanLpHint hint;
    const AllocationPlan plan =
        planner.plan(demand, *capacity, co.slot_s, &hint);
    const std::string diff =
        plan_infeasibility(plan, demand, *capacity, m.ctx());
    if (!diff.empty()) {
      fail(out, "replan", "cold plan breaks Eq 10: " + diff);
      return;
    }
    for (const auto& [shift, what] :
         {std::pair<std::size_t, const char*>{2, "perturbed"},
          {0, "re-perturbed"}}) {
      const DemandMatrix corrected = perturbed_demand(demand, shift);
      const std::optional<CapacityPlan> cap = capacity_for(corrected);
      if (!cap || !replan_agrees(planner, m.ctx(), corrected, *cap, co.slot_s,
                                 hint, what, out)) {
        return;
      }
    }
  } catch (const SolveError& e) {
    fail(out, "replan", std::string("plan threw: ") + e.what());
  }
}

/// Hammers the controller with concurrent signaling while the main thread
/// rebuilds the plan and flips DC health, then verifies a fresh plan and a
/// clean sequential cycle end balanced. Plan rebuilds orphan in-flight
/// calls BY DESIGN (the selector is rebuilt), so churn threads treat
/// sb::Error as expected; the invariant is that the controller itself stays
/// usable and conserves state once the churn stops.
void rebuild_storm_oracle(Exec& exec, const Materialized& m,
                          const FuzzCase& c, const DemandMatrix& demand,
                          std::vector<OracleFailure>& out) {
  if (!c.options.use_plan || m.db.size() == 0) return;
  Switchboard* sb = &exec.controller();
  const SimTime t0 = c.window_end_s + 3600.0;
  const std::size_t dc_count = m.world.dc_count();
  const CallRecord& sample = m.db.records().front();
  const CallConfig& sample_config = m.registry.get(sample.config);
  const LocationId sample_loc = sample.legs.front().location;

  std::atomic<bool> stop{false};
  std::vector<std::thread> churn;
  churn.reserve(3);
  for (std::uint32_t w = 0; w < 3; ++w) {
    churn.emplace_back([&, w] {
      std::uint32_t id = (w + 1) << 20;
      while (!stop.load(std::memory_order_relaxed)) {
        const CallId call(id++);
        try {
          sb->call_started(call, sample_loc, t0);
          sb->config_frozen(call, sample_config, t0);
          sb->call_ended(call, t0 + 1.0);
        } catch (const Error&) {
          // A plan swap or drain between this call's events tore it down;
          // expected under churn.
        }
      }
    });
  }
  try {
    for (std::size_t i = 0; i < 8; ++i) {
      sb->build_allocation_plan(demand, c.window_start_s);
      if (dc_count > 1) {
        const DcId dc(static_cast<std::uint32_t>(i % dc_count));
        sb->dc_failed(dc, t0);
        sb->dc_recovered(dc, t0);
      }
    }
  } catch (const Error& e) {
    stop.store(true, std::memory_order_relaxed);
    for (std::thread& t : churn) t.join();
    fail(out, "rebuild-storm",
         std::string("rebuild/fault churn threw: ") + e.what());
    return;
  }
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : churn) t.join();

  // Quiesce: every DC healthy, fresh plan (fresh selector + quota table),
  // then a clean sequential cycle must leave the controller balanced.
  for (std::uint32_t x = 0; x < dc_count; ++x) {
    sb->dc_recovered(DcId(x), t0);
  }
  sb->build_allocation_plan(demand, c.window_start_s);
  const std::size_t cycle = std::min<std::size_t>(m.db.size(), 50);
  for (std::size_t i = 0; i < cycle; ++i) {
    const CallRecord& rec = m.db.records()[i];
    const CallId call(static_cast<std::uint32_t>((2u << 20) + i));
    sb->call_started(call, rec.legs.front().location, t0);
    sb->config_frozen(call, m.registry.get(rec.config), t0);
    sb->call_ended(call, t0 + 1.0);
  }
  const RealtimeSelector::Stats s = sb->realtime_stats();
  if (sb->active_calls() != 0 || sb->held_slots() != 0 ||
      s.slot_debits != s.slot_credits) {
    std::ostringstream os;
    os << "post-storm clean cycle not conserved: active="
       << sb->active_calls() << " held=" << sb->held_slots()
       << " debits=" << s.slot_debits << " credits=" << s.slot_credits;
    fail(out, "rebuild-storm", os.str());
  }
}

}  // namespace

// The plan clamps beyond-horizon times anyway; rounding the horizon up to
// whole slots just keeps the LP honest about tail demand.
DemandMatrix build_demand(const Materialized& m, const FuzzCase& c) {
  double end = c.window_end_s;
  for (const CallRecord& rec : m.db.records()) {
    end = std::max(end, rec.start_s + rec.duration_s);
  }
  const double slot_s = c.options.slot_s;
  const double span = std::max(end - c.window_start_s, slot_s);
  const auto slots = static_cast<std::size_t>(std::ceil(span / slot_s - 1e-9));
  const double horizon = c.window_start_s + static_cast<double>(slots) * slot_s;
  return DemandMatrix::from_records(m.db, m.registry.ids(), slot_s,
                                    c.window_start_s, horizon);
}

DemandMatrix scaled_demand(const DemandMatrix& d, double scale) {
  DemandMatrix out = d;
  for (TimeSlot t = 0; t < d.slot_count(); ++t) {
    for (std::size_t col = 0; col < d.config_count(); ++col) {
      out.set_demand(t, col, d.demand(t, col) * scale);
    }
  }
  return out;
}

ControllerOptions controller_options(const FuzzOptions& o) {
  ControllerOptions copts;
  copts.slot_s = o.slot_s;
  copts.provision.with_backup = o.with_backup;
  copts.provision.include_link_failures = o.include_link_failures;
  copts.provision.lp_options.method = static_cast<lp::Method>(o.lp_method);
  copts.allocation.lp_options.method = static_cast<lp::Method>(o.lp_method);
  copts.realtime.freeze_delay_s = o.freeze_delay_s;
  copts.realtime.shard_count = o.shard_count;
  copts.realtime.chaos_skip_drain_credit = o.chaos_skip_drain_credit;
  copts.realtime.chaos_skip_server_credit = o.chaos_skip_server_credit;
  copts.worker_rows = o.workers;
  return copts;
}

std::vector<std::vector<double>> recount_dc_buckets(
    const Materialized& m, const HostingLog& log, double bucket_s,
    std::size_t bucket_count) {
  require(bucket_s > 0.0, "recount_dc_buckets: bucket_s must be positive");
  const auto& records = m.db.records();
  const std::size_t dc_count = m.world.dc_count();
  // Per-bucket load DELTAS, prefix-summed into samples at the end. An event
  // at time t first shows up in the sample taken at the next bucket end
  // strictly after t, i.e. bucket floor(t / bucket_s) (the tracker samples
  // bucket ends <= t before applying the event at t).
  std::vector<std::vector<double>> series(
      dc_count, std::vector<double>(bucket_count, 0.0));
  const auto add_delta = [&](SimTime t, DcId dc, double cores) {
    if (cores == 0.0 || !dc.valid()) return;
    const auto b = static_cast<std::size_t>(std::floor(t / bucket_s));
    if (b < bucket_count) series[dc.value()][b] += cores;
  };

  std::vector<std::vector<const HostingEvent*>> per_record(records.size());
  for (const HostingEvent& e : log.events) {
    require(e.record < records.size(),
            "recount_dc_buckets: hosting event references unknown record");
    per_record[e.record].push_back(&e);
  }

  // Merged per-record timeline entry. Hosting events sort before trace
  // events at equal times (rank 0 vs 1): the call must exist before a leg
  // can join, and every other same-instant ordering provably yields the
  // same bucket samples (sampling precedes all events at t, and the
  // deltas land in the same bucket either way).
  struct Ev {
    SimTime t;
    int rank;
    int kind;  ///< 0 = hosting event, 1 = leg join, 2 = media change
    const HostingEvent* host;
  };
  for (std::size_t r = 0; r < records.size(); ++r) {
    const CallRecord& rec = records[r];
    const CallConfig& config = m.registry.get(rec.config);
    std::vector<Ev> evs;
    evs.reserve(per_record[r].size() + rec.legs.size() + 1);
    for (const HostingEvent* he : per_record[r]) {
      evs.push_back({he->time, 0, 0, he});
    }
    for (std::size_t leg = 1; leg < rec.legs.size(); ++leg) {
      evs.push_back(
          {rec.start_s + rec.legs[leg].join_offset_s, 1, 1, nullptr});
    }
    const bool upgrade = config.media() != MediaType::kAudio &&
                         rec.media_change_offset_s > 0.0;
    if (upgrade) {
      evs.push_back({rec.start_s + rec.media_change_offset_s, 1, 2, nullptr});
    }
    std::stable_sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
      return a.t < b.t || (a.t == b.t && a.rank < b.rank);
    });

    bool active = false;
    DcId dc;
    MediaType media = MediaType::kAudio;
    double joined = 0.0;
    const auto cores_pp = [&](MediaType mt) {
      return m.loads.cores_per_participant(mt);
    };
    for (const Ev& ev : evs) {
      if (ev.kind == 0) {
        const HostingEvent& he = *ev.host;
        switch (he.kind) {
          case HostingEvent::Kind::kStart:
            active = true;
            dc = he.dc;
            media = rec.media_change_offset_s > 0.0 ? MediaType::kAudio
                                                    : config.media();
            joined = 1.0;
            add_delta(he.time, dc, cores_pp(media));
            break;
          case HostingEvent::Kind::kMove:
            if (!active) break;
            add_delta(he.time, dc, -cores_pp(media) * joined);
            dc = he.dc;
            add_delta(he.time, dc, cores_pp(media) * joined);
            break;
          case HostingEvent::Kind::kDrop:
          case HostingEvent::Kind::kEnd:
            if (!active) break;
            add_delta(he.time, dc, -cores_pp(media) * joined);
            active = false;
            break;
          case HostingEvent::Kind::kPack:
            break;  // intra-DC packing; DC-level load is unchanged
        }
      } else if (ev.kind == 1) {
        if (!active) continue;  // call already dropped/ended
        joined += 1.0;
        add_delta(ev.t, dc, cores_pp(media));
      } else {
        if (!active) continue;
        add_delta(ev.t, dc, (cores_pp(config.media()) - cores_pp(media)) *
                                joined);
        media = config.media();
      }
    }
  }
  for (auto& row : series) {
    for (std::size_t b = 1; b < row.size(); ++b) row[b] += row[b - 1];
  }
  return series;
}

std::vector<ServerTotals> recount_server_totals(const Materialized& m,
                                                const HostingLog& log) {
  std::vector<ServerTotals> totals(m.world.server_count());
  const auto& records = m.db.records();
  // Current packed server per record. Events of one record appear in replay
  // order in the log (different records interleave, but server accounting
  // is per-record independent), so one forward pass suffices.
  std::vector<ServerId> current(records.size());
  for (const HostingEvent& e : log.events) {
    require(e.record < records.size(),
            "recount_server_totals: hosting event references unknown record");
    ServerId& cur = current[e.record];
    if (e.kind == HostingEvent::Kind::kStart) continue;
    if (!cur.valid() && !e.server.valid()) continue;
    const CallRecord& rec = records[e.record];
    const CallConfig& config = m.registry.get(rec.config);
    // The packer's unit: the static frozen footprint, quantized through the
    // same to_millicores the packer uses — comparisons are exact integers.
    const std::int64_t fp = pack::to_millicores(
        config.total_participants() *
        m.loads.cores_per_participant(config.media()));
    switch (e.kind) {
      case HostingEvent::Kind::kPack:
      case HostingEvent::Kind::kMove:
        if (e.server == cur) break;
        if (cur.valid()) totals[cur.value()].released_mc += fp;
        if (e.server.valid()) {
          require(e.server.value() < totals.size(),
                  "recount_server_totals: hosting event references unknown "
                  "server");
          totals[e.server.value()].admitted_mc += fp;
        }
        cur = e.server;
        break;
      case HostingEvent::Kind::kDrop:
      case HostingEvent::Kind::kEnd:
        if (cur.valid()) totals[cur.value()].released_mc += fp;
        cur = ServerId();
        break;
      case HostingEvent::Kind::kStart:
        break;  // handled above
    }
  }
  return totals;
}

std::string CheckResult::summary() const {
  std::ostringstream os;
  if (provision_infeasible) {
    os << "skip (provisioning infeasible)";
    return os.str();
  }
  os << (ok() ? "ok" : "FAIL") << " calls=" << calls << " dropped=" << dropped
     << " moves=" << failover_moves;
  if (over_capacity_core_s > 0.0) {
    os << " over_cap_core_s=" << over_capacity_core_s;
  }
  for (const OracleFailure& f : failures) {
    os << "\n  [" << f.oracle << "] " << f.detail;
  }
  return os.str();
}

CheckResult run_case(const FuzzCase& c, const CheckOptions& opts) {
  CheckResult res;
  // Flight mode: start the black box from a clean ring so the recording is
  // this case's activity only (retained per-thread up to the ring capacity).
  if (opts.capture_flight) obs::SpanRecorder::global().reset();
  try {
    const std::unique_ptr<Materialized> mp = c.materialize();
    const Materialized& m = *mp;
    const Simulator sim(m.ctx());
    const fault::FaultSchedule* faults =
        m.faults.empty() ? nullptr : &m.faults;

    std::optional<DemandMatrix> demand;
    std::optional<DemandMatrix> forecast;
    if (c.options.use_plan) {
      demand.emplace(build_demand(m, c));
      if (c.options.use_loop && c.options.loop_forecast_scale != 1.0) {
        // Loop cases plan from the under-scaled forecast; the simulator
        // replays the true trace, so the loop must correct mid-run.
        forecast.emplace(
            scaled_demand(*demand, c.options.loop_forecast_scale));
      }
      try {
        // Provision once, throw-away: discovers infeasibility before any
        // oracle machinery runs so it can be reported as a skip.
        Exec probe(m, c, forecast ? &*forecast : &*demand);
      } catch (const SolveError&) {
        res.provision_infeasible = true;
        return res;
      }
    }
    const DemandMatrix* dp =
        forecast ? &*forecast : (demand ? &*demand : nullptr);

    // Reference run: sequential, bit-exact, hosting log captured.
    Exec ref(m, c, dp);
    HostingLog log;
    const SimReport rep =
        sim.run(m.db, ref.allocator(), c.options.freeze_delay_s, faults,
                c.options.bucket_s, &log);
    res.calls = rep.calls;
    res.dropped = rep.dropped_calls;
    res.failover_moves = rep.failover_migrations;

    if (c.options.use_plan) {
      const ProvisionResult& pr = *ref.controller().provision_result();
      if (ref.loop() == nullptr) {
        lp_feasibility_oracle(m, *dp, pr, res.failures);
      } else if (ref.loop()->stats().solve_errors == 0) {
        // After replans the live provision result corresponds to the loop's
        // current forecast (updated only on a fully-successful replan). A
        // solve error leaves the two out of step, so skip the check then.
        lp_feasibility_oracle(m, ref.loop()->current_forecast(), pr,
                              res.failures);
      }
      std::vector<double> cap(m.world.dc_count(), 0.0);
      for (std::uint32_t x = 0; x < cap.size(); ++x) {
        cap[x] = pr.capacity.dc_total_cores(DcId(x));
      }
      res.over_capacity_core_s = fault::over_capacity_core_s(
          rep.dc_cores_buckets, cap, c.options.bucket_s);
    }
    exactly_once_oracle(m, c, log, res.failures);
    conservation_oracle(ref, rep, m.db.size(), res.failures);
    cluster_conservation_oracle(ref, c, res.failures);
    loop_replan_oracle(ref, res.failures);
    recount_oracle(m, c, rep, log, "recount", res.failures);
    server_conservation_oracle(ref, m, log, res.failures);
    down_dc_oracle(m, c, log, res.failures);

    // Determinism: a fresh sequential run must be bit-identical.
    if (opts.run_determinism && res.failures.empty()) {
      Exec re(m, c, dp);
      HostingLog log2;
      const SimReport rep2 =
          sim.run(m.db, re.allocator(), c.options.freeze_delay_s, faults,
                  c.options.bucket_s, &log2);
      if (rep2.calls != rep.calls || rep2.frozen != rep.frozen ||
          rep2.migrations != rep.migrations ||
          rep2.dropped_calls != rep.dropped_calls ||
          rep2.failover_migrations != rep.failover_migrations ||
          rep2.dc_cores_buckets != rep.dc_cores_buckets ||
          log != log2) {
        fail(res.failures, "determinism",
             "second sequential run diverged from the first");
      }
    }

    // Sequential vs concurrent differential. With plan quotas the CAS
    // acquisition order legitimately changes WHICH DC serves a call, so
    // only call conservation is compared cross-run — but the concurrent
    // run's own hosting log must satisfy every single-run oracle.
    if (opts.run_concurrent && res.failures.empty()) {
      Exec conc(m, c, dp);
      HostingLog clog;
      const SimReport crep = sim.run_concurrent(
          m.db, conc.allocator(), c.options.freeze_delay_s,
          c.options.sim_threads, faults, c.options.bucket_s, &clog);
      if (crep.calls != rep.calls) {
        fail(res.failures, "seq-vs-concurrent",
             "concurrent run replayed " + std::to_string(crep.calls) +
                 " calls, sequential " + std::to_string(rep.calls));
      }
      bool server_outage = false;
      for (const fault::FaultEvent& e : c.faults) {
        server_outage |= e.kind == fault::FaultEvent::Kind::kServerDown;
      }
      if (!c.options.use_plan &&
          !(server_outage && m.world.server_count() > 0)) {
        // Plan-less decisions are per-call pure functions of health state,
        // so the two drivers must agree exactly on outcomes (buckets only
        // up to summation order). A server outage breaks this: which server
        // hosts a call depends on packer CAS interleaving, so a server
        // drain's spill/drop choices legitimately differ across drivers —
        // those cases are still covered by the per-run oracles below.
        if (crep.frozen != rep.frozen || crep.migrations != rep.migrations ||
            crep.dropped_calls != rep.dropped_calls ||
            crep.failover_migrations != rep.failover_migrations) {
          fail(res.failures, "seq-vs-concurrent",
               "plan-less concurrent run diverged: frozen " +
                   std::to_string(crep.frozen) + "/" +
                   std::to_string(rep.frozen) + " migrations " +
                   std::to_string(crep.migrations) + "/" +
                   std::to_string(rep.migrations) + " drops " +
                   std::to_string(crep.dropped_calls) + "/" +
                   std::to_string(rep.dropped_calls));
        }
        if (!buckets_close(crep.dc_cores_buckets, rep.dc_cores_buckets)) {
          fail(res.failures, "seq-vs-concurrent",
               "plan-less concurrent bucket series diverged");
        }
      }
      exactly_once_oracle(m, c, clog, res.failures);
      conservation_oracle(conc, crep, m.db.size(), res.failures);
      cluster_conservation_oracle(conc, c, res.failures);
      loop_replan_oracle(conc, res.failures);
      recount_oracle(m, c, crep, clog, "recount-concurrent", res.failures);
      server_conservation_oracle(conc, m, clog, res.failures);
      down_dc_oracle(m, c, clog, res.failures);
    }

    if (opts.run_lp_differential && c.options.use_plan &&
        res.failures.empty()) {
      lp_differential_oracle(m, c, *demand, res.failures);
      if (res.failures.empty()) {
        reprovision_oracle(m, c, *demand, res.failures);
      }
      if (res.failures.empty()) replan_oracle(m, c, *demand, res.failures);
    }

    if (opts.run_rebuild_storm && c.options.rebuild_storm &&
        ref.loop() == nullptr && res.failures.empty()) {
      // Loop cases skip the storm: the loop's last corrected capacities
      // need not cover the pre-loop demand matrix the storm rebuilds from.
      rebuild_storm_oracle(ref, m, c, *demand, res.failures);
    }
  } catch (const Error& e) {
    fail(res.failures, "exception", e.what());
  }
  if (opts.capture_flight && !res.ok()) {
    res.flight = obs::SpanRecorder::global().collect();
  }
  return res;
}

}  // namespace sb::check
