#include "loop/demand_schedule.h"

#include <algorithm>
#include <cmath>

#include "common/error.h"
#include "common/rng.h"

namespace sb::loop {

double DemandSchedule::multiplier_at(SimTime t, LocationId first) const {
  double m = 1.0;
  for (const DemandPhase& p : phases_) {
    if (t < p.start_s || t >= p.end_s) continue;
    if (p.location.valid() && p.location != first) continue;
    m *= p.multiplier;
  }
  return m;
}

DemandSchedule DemandSchedule::viral_spike(SimTime start_s, double ramp_s,
                                           double peak, double hold_s,
                                           double decay_s, std::size_t steps) {
  require(peak >= 1.0, "viral_spike: peak multiplier below 1");
  require(steps >= 1, "viral_spike: steps");
  DemandSchedule s;
  // Stair-step up: step k (1-based) holds 1 + (peak - 1) * k / steps.
  const double step_up = ramp_s / static_cast<double>(steps);
  for (std::size_t k = 1; k <= steps; ++k) {
    const double level =
        1.0 + (peak - 1.0) * static_cast<double>(k) / static_cast<double>(steps);
    const SimTime begin = start_s + step_up * static_cast<double>(k - 1);
    const SimTime end =
        k == steps ? start_s + ramp_s : start_s + step_up * static_cast<double>(k);
    s.add_phase({begin, end, level, LocationId()});
  }
  const SimTime peak_begin = start_s + ramp_s;
  s.add_phase({peak_begin, peak_begin + hold_s, peak, LocationId()});
  // Stair-step down mirrors the ramp.
  const SimTime decay_begin = peak_begin + hold_s;
  const double step_down = decay_s / static_cast<double>(steps);
  for (std::size_t k = 1; k <= steps; ++k) {
    const double level =
        1.0 + (peak - 1.0) *
                  static_cast<double>(steps - k) / static_cast<double>(steps);
    if (level <= 1.0) break;  // the last step is baseline; no phase needed
    const SimTime begin = decay_begin + step_down * static_cast<double>(k - 1);
    s.add_phase({begin, begin + step_down, level, LocationId()});
  }
  return s;
}

DemandSchedule DemandSchedule::regional_rebound(LocationId location,
                                                SimTime fail_s,
                                                SimTime recover_s,
                                                double outage_mult,
                                                double rebound_mult,
                                                double rebound_s) {
  require(location.valid(), "regional_rebound: location");
  require(recover_s > fail_s, "regional_rebound: window");
  DemandSchedule s;
  s.add_phase({fail_s, recover_s, outage_mult, location});
  s.add_phase({recover_s, recover_s + rebound_s, rebound_mult, location});
  return s;
}

CallRecordDatabase DemandSchedule::scale_trace(const CallRecordDatabase& db,
                                               std::uint64_t seed,
                                               double jitter_s) const {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + 0x10095cedULL);
  std::uint64_t next_id = 0;
  for (const CallRecord& r : db.records()) {
    next_id = std::max<std::uint64_t>(next_id, r.id.value() + 1);
  }
  // Each record yields at most 1 + ceil(m - 1) calls: itself and its
  // copies. Reserving that bound draws nothing from the RNG.
  std::size_t bound = 0;
  for (const CallRecord& r : db.records()) {
    const LocationId first =
        r.legs.empty() ? LocationId() : r.legs.front().location;
    const double m = multiplier_at(r.start_s, first);
    bound += 1 + static_cast<std::size_t>(std::max(0.0, std::ceil(m - 1.0)));
  }
  CallRecordDatabase out;
  out.reserve(bound);
  for (const CallRecord& r : db.records()) {
    const LocationId first =
        r.legs.empty() ? LocationId() : r.legs.front().location;
    const double m = multiplier_at(r.start_s, first);
    if (m < 1.0) {
      if (rng.chance(m)) out.add(r);
      continue;
    }
    out.add(r);
    const double extra = m - 1.0;
    std::uint64_t copies = static_cast<std::uint64_t>(std::floor(extra));
    if (rng.chance(extra - std::floor(extra))) ++copies;
    for (std::uint64_t c = 0; c < copies; ++c) {
      CallRecord dup = r;
      dup.id = CallId(static_cast<CallId::underlying_type>(next_id++));
      if (jitter_s > 0.0) dup.start_s += rng.uniform(0.0, jitter_s);
      out.add(std::move(dup));
    }
  }
  return out;
}

}  // namespace sb::loop
