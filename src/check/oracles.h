// The invariant oracle suite + differential executors behind sb_fuzz. One
// call to run_case() executes a FuzzCase end to end (provision -> plan ->
// sequential sim with hosting log) and then checks:
//   - lp-feasibility: the provisioning LP's base placement re-checked
//     against the provisioned capacities and the demand completeness rows;
//   - exactly-once: every started call is ended or dropped exactly once
//     (from the hosting log), drops only under DC faults;
//   - conservation: at quiescence the selector holds zero calls and zero
//     plan slots and slot debits == credits (this is the oracle the
//     chaos_skip_drain_credit knob provably trips);
//   - server-conservation (fleet cases): a single-threaded recount of
//     per-server admitted/released millicores from the hosting log equals
//     the packer's cumulative atomic counters exactly, every server's
//     occupancy is zero at quiescence, and per-DC totals equal the sum
//     over the DC's servers (the oracle chaos_skip_server_credit trips);
//   - recount: the report's per-DC bucket series equals an independent
//     single-threaded recount from the hosting log;
//   - down-dc: no hosting decision lands on a failed DC while another is up;
//   - determinism: a second sequential run is bit-identical;
//   - seq-vs-concurrent: run_concurrent agrees on counts (and, without plan
//     quotas, on the bucket series); its own hosting log passes the
//     exactly-once/recount/conservation oracles;
//   - lp-differential: sparse vs dense-tableau provisioning and warm vs
//     cold scenario solves agree on objectives (small shapes only);
//   - reprovision: a re-provision through a previous provision's hint
//     (retained models re-solved at new rhs, or rebuilt after a demand
//     pattern change) matches a cold solve of every scenario at the same
//     floors, and two chained in-place re-solves match the same runs
//     through copies of their input hints bit for bit (small shapes only);
//   - rebuild-storm: concurrent plan rebuilds + fault edges + signaling
//     churn leave the facade usable and a fresh clean cycle conserved.
// Provisioning that is infeasible BY CONSTRUCTION (a failure scenario with
// no feasible placement) is a skip, not a failure.
#pragma once

#include <string>
#include <vector>

#include "calls/demand.h"
#include "check/fuzz_case.h"
#include "core/controller.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace sb::check {

struct OracleFailure {
  std::string oracle;  ///< stable name, used by the shrinker's same-bug test
  std::string detail;
};

struct CheckResult {
  std::vector<OracleFailure> failures;
  bool provision_infeasible = false;  ///< skipped: scenario LP infeasible
  std::uint64_t calls = 0;
  std::uint64_t dropped = 0;
  std::uint64_t failover_moves = 0;
  /// Integral of realized per-DC bucket load above provisioned
  /// serving+backup (core-seconds). A stat, not a failure: a realized
  /// Poisson trace may legitimately exceed mean-concurrency provisioning.
  double over_capacity_core_s = 0.0;
  /// Black-box flight recording: the last spans in the ring when an oracle
  /// failed (CheckOptions::capture_flight; empty on success, with tracing
  /// compiled out, or when the option is off). sb_fuzz writes this next to
  /// the shrunken repro as Chrome trace-event JSON.
  std::vector<obs::SpanData> flight;

  [[nodiscard]] bool ok() const { return failures.empty(); }
  /// Name of the first failing oracle ("" when ok). The shrinker minimizes
  /// while THIS oracle keeps failing so it never chases a different bug.
  [[nodiscard]] std::string first_oracle() const {
    return failures.empty() ? std::string() : failures.front().oracle;
  }
  [[nodiscard]] std::string summary() const;
};

struct CheckOptions {
  bool run_determinism = true;
  bool run_concurrent = true;
  bool run_lp_differential = true;
  bool run_rebuild_storm = true;  ///< gates the case's rebuild_storm flag
  /// Reset the global SpanRecorder before the case and, on any oracle
  /// failure, snapshot the ring into CheckResult::flight — the black-box
  /// record of what the controller did leading up to the violation. Size
  /// the recorder's ring (SpanRecorder::configure) before the first span
  /// to bound the retained window.
  bool capture_flight = false;
};

/// The demand a plan case provisions from: the case's records from window
/// start through the last call's end, rounded up to whole provisioning
/// slots so the plan covers every freeze the simulation will issue.
[[nodiscard]] DemandMatrix build_demand(const Materialized& m,
                                        const FuzzCase& c);

/// `d` with every cell scaled by `scale`: the under-forecast a closed-loop
/// case plans from. The simulator replays the truth, so the observation
/// leaves the loop's deviation band and the tick must correct.
[[nodiscard]] DemandMatrix scaled_demand(const DemandMatrix& d, double scale);

/// The controller configuration every executor run of a case uses.
[[nodiscard]] ControllerOptions controller_options(const FuzzOptions& o);

/// Executes the case and every applicable oracle. Never throws for scenario
/// bugs — unexpected sb::Error surfaces as an "exception" failure.
[[nodiscard]] CheckResult run_case(const FuzzCase& c,
                                   const CheckOptions& opts = {});

/// Independent recount of the per-DC bucket load series from a hosting log
/// plus the call records (single-threaded, order-insensitive; exposed so
/// check_test can tamper with a log and watch the oracle trip).
[[nodiscard]] std::vector<std::vector<double>> recount_dc_buckets(
    const Materialized& m, const HostingLog& log, double bucket_s,
    std::size_t bucket_count);

/// Cumulative admitted/released millicores one server should have seen.
struct ServerTotals {
  std::int64_t admitted_mc = 0;
  std::int64_t released_mc = 0;
};

/// Independent single-threaded recount of per-server packer totals from a
/// hosting log: each record's static frozen footprint (config participants
/// x per-participant cores, quantized through pack::to_millicores — the
/// packer's own unit) is admitted at its kPack/kMove events and released at
/// server changes and kDrop/kEnd. Indexed by global ServerId; exposed so
/// check_test can tamper with a log and watch the oracle trip.
[[nodiscard]] std::vector<ServerTotals> recount_server_totals(
    const Materialized& m, const HostingLog& log);

}  // namespace sb::check
