// Placement matrices: the S_tcx decision of Table 2 — how many calls of
// config column c in slot t are hosted at DC x — plus the usage accounting
// derived from a placement (per-DC core usage, per-link traffic, mean ACL).
// Both baselines and Switchboard produce PlacementMatrix values, so every
// scheme is evaluated by the exact same accounting code.
#pragma once

#include <vector>

#include "calls/acl.h"
#include "calls/demand.h"
#include "core/capacity_plan.h"

namespace sb {

/// Dense slots x config-columns x DCs tensor of (fractional) call counts.
/// Column order matches the DemandMatrix the placement was built against.
class PlacementMatrix {
 public:
  PlacementMatrix(std::size_t slot_count, std::size_t config_count,
                  std::size_t dc_count);

  [[nodiscard]] double calls(TimeSlot t, std::size_t config_col,
                             DcId dc) const;
  void set_calls(TimeSlot t, std::size_t config_col, DcId dc, double calls);
  void add_calls(TimeSlot t, std::size_t config_col, DcId dc, double calls);

  [[nodiscard]] std::size_t slot_count() const { return slots_; }
  [[nodiscard]] std::size_t config_count() const { return configs_; }
  [[nodiscard]] std::size_t dc_count() const { return dcs_; }

  /// Sum over DCs of calls(t, c, x).
  [[nodiscard]] double total_calls(TimeSlot t, std::size_t config_col) const;

 private:
  [[nodiscard]] std::size_t index(TimeSlot t, std::size_t c, DcId dc) const;
  std::size_t slots_;
  std::size_t configs_;
  std::size_t dcs_;
  std::vector<double> cells_;
};

/// Resource usage implied by a placement.
struct UsageProfile {
  /// dc_cores[x][t]: cores used at DC x in slot t.
  std::vector<std::vector<double>> dc_cores;
  /// link_gbps[l][t]: traffic on link l in slot t (Gbps).
  std::vector<std::vector<double>> link_gbps;

  [[nodiscard]] std::vector<double> dc_peaks() const;
  [[nodiscard]] std::vector<double> link_peaks() const;
};

/// Inputs common to every usage/ACL computation.
struct EvalContext {
  const World* world = nullptr;
  const Topology* topology = nullptr;
  const LatencyMatrix* latency = nullptr;
  const CallConfigRegistry* registry = nullptr;
  const LoadModel* loads = nullptr;
  friend bool operator==(const EvalContext&, const EvalContext&) = default;
};

/// Computes per-slot core and link usage of a placement. A call of config c
/// at DC x consumes CL(media) cores per participant and NL(media) Mbps per
/// participant across every link of the WAN path from x to that
/// participant's location (Eq 5/6).
UsageProfile compute_usage(const PlacementMatrix& placement,
                           const DemandMatrix& demand, const EvalContext& ctx);

/// Call-weighted mean ACL of a placement (the Table 3 "Mean ACL" metric).
double mean_acl_ms(const PlacementMatrix& placement, const DemandMatrix& demand,
                   const EvalContext& ctx);

/// A capacity plan covering exactly this placement's peaks: serving cores =
/// per-DC peak usage, links = per-link peak usage, no backup.
CapacityPlan plan_from_usage(const UsageProfile& usage);

/// Mbps -> Gbps conversion used by the accounting.
inline constexpr double kMbpsPerGbps = 1000.0;

/// Resource footprint of hosting one call of a config at one DC: the
/// per-call coefficients the LP builder and the usage accounting share.
struct HostingProfile {
  double cores_per_call = 0.0;
  /// Gbps per call on each WAN link its legs traverse (aggregated across
  /// participants; a link appears once).
  std::vector<std::pair<LinkId, double>> link_gbps_per_call;
  double acl_ms = 0.0;
};

HostingProfile make_hosting_profile(const CallConfig& config, DcId dc,
                                    const EvalContext& ctx);

}  // namespace sb
