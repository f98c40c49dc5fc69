// The demand matrix D_tc (Table 2): for each provisioning time slot t and
// call config c, the expected number of concurrent calls. This is the
// primary LP input — built either from ground-truth call records (Table 3)
// or from per-config forecasts (Table 4).
#pragma once

#include <vector>

#include "calls/call_config.h"
#include "calls/call_record.h"
#include "calls/media.h"
#include "common/types.h"

namespace sb {

/// Dense (slot x config) matrix of concurrent-call demand. Values are
/// fractional: a call active for half a slot contributes 0.5 to that slot's
/// average concurrency.
class DemandMatrix {
 public:
  DemandMatrix(std::size_t slot_count, std::size_t config_count);

  /// Builds average-concurrency demand from records over [start_s, end_s)
  /// with `slot_s`-second slots (the paper uses 30-minute buckets). Records
  /// of configs outside `configs` are ignored; `configs` also fixes the
  /// column order (column i = configs[i]).
  static DemandMatrix from_records(const CallRecordDatabase& db,
                                   const std::vector<ConfigId>& configs,
                                   double slot_s, SimTime start_s,
                                   SimTime end_s);

  [[nodiscard]] double demand(TimeSlot t, std::size_t config_col) const;
  void set_demand(TimeSlot t, std::size_t config_col, double calls);
  void add_demand(TimeSlot t, std::size_t config_col, double calls);

  [[nodiscard]] std::size_t slot_count() const { return slots_; }
  [[nodiscard]] std::size_t config_count() const { return configs_.size(); }

  /// The config interned at column `col`.
  [[nodiscard]] ConfigId config_at(std::size_t col) const;
  [[nodiscard]] const std::vector<ConfigId>& configs() const {
    return configs_;
  }

  /// Sum of demand over all slots and configs.
  [[nodiscard]] double total() const;

 private:
  friend DemandMatrix make_demand_matrix(std::vector<ConfigId> configs,
                                         std::size_t slot_count);
  std::size_t slots_;
  std::vector<ConfigId> configs_;
  std::vector<double> cells_;
};

/// Creates an empty matrix with explicit config columns (used by the
/// forecaster to assemble projected demand).
DemandMatrix make_demand_matrix(std::vector<ConfigId> configs,
                                std::size_t slot_count);

/// Core demand contributed by participants from `location` per slot:
/// sum over configs of D_tc * CL(media(c)) * (participants of c at the
/// location). This is the Fig 3 per-country series.
std::vector<double> location_core_demand(const DemandMatrix& demand,
                                         const CallConfigRegistry& registry,
                                         const LoadModel& loads,
                                         LocationId location);

}  // namespace sb
