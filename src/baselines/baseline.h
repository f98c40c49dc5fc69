// Shared definitions for the two state-of-the-art baselines of §3:
// Round-Robin (RR) and Locality-First (LF). Both produce the same
// BaselineResult shape so Table 3's comparison code treats every scheme
// uniformly.
#pragma once

#include "calls/demand.h"
#include "core/capacity_plan.h"
#include "core/placement.h"

namespace sb {

struct BaselineResult {
  CapacityPlan capacity;
  /// No-failure placement the scheme would operate with.
  PlacementMatrix placement;
  /// Call-weighted mean ACL of that placement.
  double mean_acl_ms = 0.0;
};

struct BaselineOptions {
  /// Provision backup compute + the WAN peaks of failure scenarios.
  bool with_backup = true;
  bool include_link_failures = true;
};

/// DCs a config's calls may use: the DCs of the majority location's region
/// (§2.1 — a call is hosted within its region), or every DC if the region
/// has none.
std::vector<DcId> region_candidates(const CallConfig& config,
                                    const World& world);

}  // namespace sb
