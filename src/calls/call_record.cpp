#include "calls/call_record.h"

#include <algorithm>

#include "common/error.h"

namespace sb {

void CallRecordDatabase::add(CallRecord record) {
  require(record.config.valid(), "CallRecordDatabase::add: invalid config");
  require(!record.legs.empty(), "CallRecordDatabase::add: no legs");
  require(record.duration_s > 0.0,
          "CallRecordDatabase::add: non-positive duration");
  require(std::is_sorted(record.legs.begin(), record.legs.end(),
                         [](const CallLeg& a, const CallLeg& b) {
                           return a.join_offset_s < b.join_offset_s;
                         }),
          "CallRecordDatabase::add: legs must be sorted by join offset");
  records_.push_back(std::move(record));
}

std::vector<double> CallRecordDatabase::join_offsets() const {
  std::vector<double> offsets;
  for (const CallRecord& r : records_) {
    if (r.legs.size() < 2) continue;
    for (const CallLeg& leg : r.legs) offsets.push_back(leg.join_offset_s);
  }
  return offsets;
}

}  // namespace sb
