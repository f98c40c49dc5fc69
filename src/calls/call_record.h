// Call records: the per-call metadata the service stores (§5's Call Records
// Database) and that Switchboard consumes for forecasting, latency
// estimation, and trace replay. In the paper these come from 15 months of
// Teams history; here the trace generator synthesizes them (see DESIGN.md).
#pragma once

#include <cstdint>
#include <vector>

#include "calls/call_config.h"
#include "common/types.h"

namespace sb {

/// One participant's leg of a call.
struct CallLeg {
  LocationId location;
  double join_offset_s = 0.0;  ///< seconds after call start this leg joined
};

/// One call. Legs are ordered by join offset, so legs.front() is the first
/// joiner — the participant whose location drives the §5.4 initial
/// assignment heuristic.
struct CallRecord {
  CallId id;
  ConfigId config;            ///< final (frozen) call configuration
  SimTime start_s = 0.0;      ///< seconds since trace epoch
  double duration_s = 0.0;
  std::vector<CallLeg> legs;
  /// Seconds after start when the call's media escalated to its final type
  /// (0 = started there). Audio-to-video upgrades mid-call are common.
  double media_change_offset_s = 0.0;
};

/// In-memory store of call records, with the join-offset pooling of Fig 8.
class CallRecordDatabase {
 public:
  void add(CallRecord record);
  void reserve(std::size_t n) { records_.reserve(n); }

  [[nodiscard]] const std::vector<CallRecord>& records() const {
    return records_;
  }
  [[nodiscard]] std::size_t size() const { return records_.size(); }

  /// Pooled join offsets (seconds) across all calls with >= 2 legs; Fig 8's
  /// raw data.
  [[nodiscard]] std::vector<double> join_offsets() const;

 private:
  std::vector<CallRecord> records_;
};

}  // namespace sb
