#include "calls/demand.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/error.h"

namespace sb {

DemandMatrix::DemandMatrix(std::size_t slot_count, std::size_t config_count)
    : slots_(slot_count),
      configs_(config_count),
      cells_(slot_count * config_count, 0.0) {
  require(slot_count > 0 && config_count > 0, "DemandMatrix: empty shape");
  for (std::size_t i = 0; i < config_count; ++i) {
    configs_[i] = ConfigId(static_cast<std::uint32_t>(i));
  }
}

DemandMatrix make_demand_matrix(std::vector<ConfigId> configs,
                                std::size_t slot_count) {
  require(!configs.empty(), "make_demand_matrix: no configs");
  DemandMatrix m(slot_count, configs.size());
  m.configs_ = std::move(configs);
  return m;
}

DemandMatrix DemandMatrix::from_records(const CallRecordDatabase& db,
                                        const std::vector<ConfigId>& configs,
                                        double slot_s, SimTime start_s,
                                        SimTime end_s) {
  require(slot_s > 0.0, "from_records: slot width must be positive");
  require(end_s > start_s, "from_records: empty window");
  const auto slots =
      static_cast<std::size_t>(std::ceil((end_s - start_s) / slot_s));
  DemandMatrix m = make_demand_matrix(configs, slots);

  std::unordered_map<ConfigId, std::size_t> col;
  for (std::size_t i = 0; i < configs.size(); ++i) col[configs[i]] = i;

  for (const CallRecord& r : db.records()) {
    const auto it = col.find(r.config);
    if (it == col.end()) continue;
    const double call_begin = std::max(r.start_s, start_s);
    const double call_end = std::min(r.start_s + r.duration_s, end_s);
    if (call_end <= call_begin) continue;
    auto first = static_cast<std::size_t>((call_begin - start_s) / slot_s);
    auto last = static_cast<std::size_t>((call_end - start_s) / slot_s);
    first = std::min(first, slots - 1);
    last = std::min(last, slots - 1);
    for (std::size_t t = first; t <= last; ++t) {
      const double slot_begin = start_s + static_cast<double>(t) * slot_s;
      const double overlap = std::min(call_end, slot_begin + slot_s) -
                             std::max(call_begin, slot_begin);
      if (overlap > 0.0) {
        m.add_demand(static_cast<TimeSlot>(t), it->second, overlap / slot_s);
      }
    }
  }
  return m;
}

double DemandMatrix::demand(TimeSlot t, std::size_t config_col) const {
  require(t < slots_ && config_col < configs_.size(),
          "DemandMatrix::demand: out of range");
  return cells_[static_cast<std::size_t>(t) * configs_.size() + config_col];
}

void DemandMatrix::set_demand(TimeSlot t, std::size_t config_col,
                              double calls) {
  require(t < slots_ && config_col < configs_.size(),
          "DemandMatrix::set_demand: out of range");
  require(calls >= 0.0, "DemandMatrix::set_demand: negative demand");
  cells_[static_cast<std::size_t>(t) * configs_.size() + config_col] = calls;
}

void DemandMatrix::add_demand(TimeSlot t, std::size_t config_col,
                              double calls) {
  require(t < slots_ && config_col < configs_.size(),
          "DemandMatrix::add_demand: out of range");
  cells_[static_cast<std::size_t>(t) * configs_.size() + config_col] += calls;
}

ConfigId DemandMatrix::config_at(std::size_t col) const {
  require(col < configs_.size(), "config_at: out of range");
  return configs_[col];
}

double DemandMatrix::total() const {
  double acc = 0.0;
  for (double c : cells_) acc += c;
  return acc;
}

std::vector<double> location_core_demand(const DemandMatrix& demand,
                                         const CallConfigRegistry& registry,
                                         const LoadModel& loads,
                                         LocationId location) {
  std::vector<double> series(demand.slot_count(), 0.0);
  for (std::size_t col = 0; col < demand.config_count(); ++col) {
    const CallConfig& config = registry.get(demand.config_at(col));
    std::uint32_t at_location = 0;
    for (const ConfigEntry& e : config.entries()) {
      if (e.location == location) at_location += e.count;
    }
    if (at_location == 0) continue;
    const double cores_per_call =
        loads.cores_per_participant(config.media()) * at_location;
    for (TimeSlot t = 0; t < demand.slot_count(); ++t) {
      series[t] += demand.demand(t, col) * cores_per_call;
    }
  }
  return series;
}

}  // namespace sb
