#include "fault/fault_schedule.h"

#include <algorithm>

#include "common/error.h"

namespace sb::fault {

FaultSchedule& FaultSchedule::dc_down(DcId dc, SimTime at) {
  require(dc.valid(), "FaultSchedule: invalid DC");
  events_.push_back({at, FaultEvent::Kind::kDcDown, dc, LinkId(), ServerId(),
                     WorkerId()});
  return *this;
}

FaultSchedule& FaultSchedule::dc_up(DcId dc, SimTime at) {
  require(dc.valid(), "FaultSchedule: invalid DC");
  events_.push_back({at, FaultEvent::Kind::kDcUp, dc, LinkId(), ServerId(),
                     WorkerId()});
  return *this;
}

FaultSchedule& FaultSchedule::link_down(LinkId link, SimTime at) {
  require(link.valid(), "FaultSchedule: invalid link");
  events_.push_back({at, FaultEvent::Kind::kLinkDown, DcId(), link,
                     ServerId(), WorkerId()});
  return *this;
}

FaultSchedule& FaultSchedule::link_up(LinkId link, SimTime at) {
  require(link.valid(), "FaultSchedule: invalid link");
  events_.push_back({at, FaultEvent::Kind::kLinkUp, DcId(), link, ServerId(),
                     WorkerId()});
  return *this;
}

FaultSchedule& FaultSchedule::server_down(ServerId server, SimTime at) {
  require(server.valid(), "FaultSchedule: invalid server");
  events_.push_back({at, FaultEvent::Kind::kServerDown, DcId(), LinkId(),
                     server, WorkerId()});
  return *this;
}

FaultSchedule& FaultSchedule::server_up(ServerId server, SimTime at) {
  require(server.valid(), "FaultSchedule: invalid server");
  events_.push_back({at, FaultEvent::Kind::kServerUp, DcId(), LinkId(),
                     server, WorkerId()});
  return *this;
}

FaultSchedule& FaultSchedule::worker_down(WorkerId worker, SimTime at) {
  require(worker.valid(), "FaultSchedule: invalid worker");
  events_.push_back({at, FaultEvent::Kind::kWorkerDown, DcId(), LinkId(),
                     ServerId(), worker});
  return *this;
}

FaultSchedule& FaultSchedule::worker_up(WorkerId worker, SimTime at) {
  require(worker.valid(), "FaultSchedule: invalid worker");
  events_.push_back({at, FaultEvent::Kind::kWorkerUp, DcId(), LinkId(),
                     ServerId(), worker});
  return *this;
}

FaultSchedule& FaultSchedule::fail_dc(DcId dc, SimTime at, double duration_s) {
  require(duration_s > 0.0, "FaultSchedule: outage duration");
  return dc_down(dc, at).dc_up(dc, at + duration_s);
}

FaultSchedule& FaultSchedule::fail_link(LinkId link, SimTime at,
                                        double duration_s) {
  require(duration_s > 0.0, "FaultSchedule: outage duration");
  return link_down(link, at).link_up(link, at + duration_s);
}

FaultSchedule& FaultSchedule::fail_server(ServerId server, SimTime at,
                                          double duration_s) {
  require(duration_s > 0.0, "FaultSchedule: outage duration");
  return server_down(server, at).server_up(server, at + duration_s);
}

FaultSchedule& FaultSchedule::fail_worker(WorkerId worker, SimTime at,
                                          double duration_s) {
  require(duration_s > 0.0, "FaultSchedule: outage duration");
  return worker_down(worker, at).worker_up(worker, at + duration_s);
}

std::vector<FaultEvent> FaultSchedule::events() const {
  std::vector<FaultEvent> out = events_;
  std::stable_sort(out.begin(), out.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.time < b.time;
                   });
  return out;
}

std::size_t FaultSchedule::peak_slot(
    const std::vector<double>& dc_cores_by_slot) {
  require(!dc_cores_by_slot.empty(), "peak_slot: empty series");
  return static_cast<std::size_t>(
      std::max_element(dc_cores_by_slot.begin(), dc_cores_by_slot.end()) -
      dc_cores_by_slot.begin());
}

FaultSchedule FaultSchedule::random(Rng& rng, std::size_t dc_count,
                                    std::size_t link_count,
                                    std::size_t outages, double t0, double t1,
                                    double mean_outage_s,
                                    double link_fraction,
                                    std::size_t server_count,
                                    double server_fraction) {
  require(dc_count > 0, "FaultSchedule::random: no DCs");
  require(t1 > t0 && mean_outage_s > 0.0, "FaultSchedule::random: bounds");
  FaultSchedule schedule;
  for (std::size_t i = 0; i < outages; ++i) {
    const SimTime at = rng.uniform(t0, t1);
    const double duration = rng.exponential(1.0 / mean_outage_s);
    // Server draw first, but only when a fleet exists: with server_count == 0
    // the per-outage draw sequence is exactly the pre-fleet one.
    if (server_count > 0 && rng.chance(server_fraction)) {
      schedule.fail_server(
          ServerId(static_cast<std::uint32_t>(rng.uniform_index(server_count))),
          at, duration);
    } else if (link_count > 0 && rng.chance(link_fraction)) {
      schedule.fail_link(
          LinkId(static_cast<std::uint32_t>(rng.uniform_index(link_count))),
          at, duration);
    } else {
      schedule.fail_dc(
          DcId(static_cast<std::uint32_t>(rng.uniform_index(dc_count))), at,
          duration);
    }
  }
  return schedule;
}

FaultSchedule FaultSchedule::from_events(std::vector<FaultEvent> events) {
  for (const FaultEvent& e : events) {
    if (e.is_dc()) {
      require(e.dc.valid(), "FaultSchedule::from_events: invalid DC");
    } else if (e.is_server()) {
      require(e.server.valid(), "FaultSchedule::from_events: invalid server");
    } else if (e.is_worker()) {
      require(e.worker.valid(), "FaultSchedule::from_events: invalid worker");
    } else {
      require(e.link.valid(), "FaultSchedule::from_events: invalid link");
    }
  }
  FaultSchedule schedule;
  schedule.events_ = std::move(events);
  return schedule;
}

}  // namespace sb::fault
