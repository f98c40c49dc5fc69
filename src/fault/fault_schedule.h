// Deterministic fault-injection schedules: timed DC-down/up and
// link-down/up events the Simulator weaves into its event stream (both
// run() and run_concurrent()). Schedules are plain sorted data — building
// one never touches the runtime — so the same schedule replays identically
// across driver modes and thread counts. Helpers cover the §5.3 experiment
// shapes ("fail each DC at its regional peak") and seedable random outage
// storms for stress tests.
#pragma once

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "common/types.h"

namespace sb::fault {

struct FaultEvent {
  enum class Kind : std::uint8_t {
    kDcDown,
    kDcUp,
    kLinkDown,
    kLinkUp,
    kServerDown,
    kServerUp,
    kWorkerDown,
    kWorkerUp,
  };

  SimTime time = 0.0;
  Kind kind = Kind::kDcDown;
  DcId dc;          ///< valid iff kind is kDcDown/kDcUp
  LinkId link;      ///< valid iff kind is kLinkDown/kLinkUp
  ServerId server;  ///< valid iff kind is kServerDown/kServerUp
  WorkerId worker;  ///< valid iff kind is kWorkerDown/kWorkerUp

  [[nodiscard]] bool is_dc() const {
    return kind == Kind::kDcDown || kind == Kind::kDcUp;
  }
  [[nodiscard]] bool is_server() const {
    return kind == Kind::kServerDown || kind == Kind::kServerUp;
  }
  [[nodiscard]] bool is_worker() const {
    return kind == Kind::kWorkerDown || kind == Kind::kWorkerUp;
  }
  [[nodiscard]] bool is_down() const {
    return kind == Kind::kDcDown || kind == Kind::kLinkDown ||
           kind == Kind::kServerDown || kind == Kind::kWorkerDown;
  }
};

/// An ordered list of fault events. Builder methods may be called in any
/// order; events() returns them sorted by (time, insertion order), which is
/// the order every simulator driver applies them in.
class FaultSchedule {
 public:
  FaultSchedule& dc_down(DcId dc, SimTime at);
  FaultSchedule& dc_up(DcId dc, SimTime at);
  FaultSchedule& link_down(LinkId link, SimTime at);
  FaultSchedule& link_up(LinkId link, SimTime at);
  FaultSchedule& server_down(ServerId server, SimTime at);
  FaultSchedule& server_up(ServerId server, SimTime at);
  FaultSchedule& worker_down(WorkerId worker, SimTime at);
  FaultSchedule& worker_up(WorkerId worker, SimTime at);
  /// Outage pair: down at `at`, back up `duration_s` later.
  FaultSchedule& fail_dc(DcId dc, SimTime at, double duration_s);
  FaultSchedule& fail_link(LinkId link, SimTime at, double duration_s);
  FaultSchedule& fail_server(ServerId server, SimTime at, double duration_s);
  /// Controller-worker crash/restart pair (sb_cluster HA). A worker kill
  /// never drops calls — the media plane keeps serving — so these events
  /// only exercise the control-plane re-adoption path.
  FaultSchedule& fail_worker(WorkerId worker, SimTime at, double duration_s);

  [[nodiscard]] bool empty() const { return events_.empty(); }
  [[nodiscard]] std::size_t size() const { return events_.size(); }

  /// Events sorted by (time, insertion order). Stable, so two events at the
  /// same instant apply in the order they were added.
  [[nodiscard]] std::vector<FaultEvent> events() const;

  /// Index of the slot where `dc_cores_by_slot` peaks (ties: earliest).
  [[nodiscard]] static std::size_t peak_slot(
      const std::vector<double>& dc_cores_by_slot);

  /// Seedable random storm: `outages` outage pairs over [t0, t1), each
  /// picking a uniform DC (or, with probability `link_fraction` when
  /// link_count > 0, a uniform link; or, with probability `server_fraction`
  /// when server_count > 0, a uniform media server). Outage lengths are
  /// exponential with mean `mean_outage_s`. Deterministic for a given Rng
  /// state; with server_count == 0 the random stream is identical to the
  /// pre-fleet signature, so existing callers replay unchanged.
  [[nodiscard]] static FaultSchedule random(Rng& rng, std::size_t dc_count,
                                            std::size_t link_count,
                                            std::size_t outages, double t0,
                                            double t1, double mean_outage_s,
                                            double link_fraction = 0.25,
                                            std::size_t server_count = 0,
                                            double server_fraction = 0.25);

  /// Rebuilds a schedule from an explicit event list (repro replay and the
  /// sb_check shrinker). Events keep their relative order at equal times —
  /// round-tripping through events() is the identity. Ids must be valid for
  /// their kind.
  [[nodiscard]] static FaultSchedule from_events(
      std::vector<FaultEvent> events);

 private:
  std::vector<FaultEvent> events_;  ///< insertion order
};

}  // namespace sb::fault
