// Average Call Latency (ACL): the participant-weighted mean one-way latency
// of a call's legs when hosted at a given DC (Table 2's ACL(x, c)). The
// provisioning and allocation LPs constrain/minimize this quantity; §2.1
// fixes the operating threshold at 120 ms one-way.
#pragma once

#include <vector>

#include "calls/call_config.h"
#include "common/types.h"
#include "geo/latency.h"

namespace sb {

/// The paper's one-way ACL threshold in milliseconds (Eq 4). The
/// provisioning LPs and the allocation plan both admit a DC for a config only
/// within it, so a plan never needs a DC its capacity was not provisioned at.
inline constexpr double kAclThresholdMs = 120.0;

/// ACL of hosting a call of `config` at `dc`: sum over participants of
/// Lat(dc, participant location) divided by participant count.
double acl_ms(const CallConfig& config, DcId dc, const LatencyMatrix& latency);

/// DCs (from `candidates`) whose ACL for `config` is within `threshold_ms`.
/// If none qualify, returns the single minimum-ACL DC — the paper's rule for
/// widely dispersed calls (§5.3 note). Never returns empty for a non-empty
/// candidate set.
std::vector<DcId> feasible_dcs(const CallConfig& config,
                               const std::vector<DcId>& candidates,
                               const LatencyMatrix& latency,
                               double threshold_ms = kAclThresholdMs);

/// Minimum-ACL DC among candidates (the Locality-First choice, §3.2).
DcId min_acl_dc(const CallConfig& config, const std::vector<DcId>& candidates,
                const LatencyMatrix& latency);

}  // namespace sb
