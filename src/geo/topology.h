// WAN topology: an undirected graph over locations with per-link latency and
// per-Gbps cost. Traffic between a DC and a participant location follows the
// latency-shortest path, which fixes the paper's Path(x,u) / InPath(l,x,u)
// predicates (Table 2). Link failures do NOT reroute traffic — the
// provisioning LP instead shifts calls to DCs whose fixed path avoids the
// failed link, exactly as in §5.3's failure model.
#pragma once

#include <vector>

#include "common/types.h"
#include "geo/world.h"

namespace sb {

/// One undirected WAN link between two location nodes.
struct WanLink {
  LocationId a;
  LocationId b;
  double latency_ms = 0.0;    ///< one-way propagation + switching latency
  double cost_per_gbps = 1.0; ///< Eq 3's WAN_Cost(l)
  std::string name;           ///< e.g. "JP-HK"
};

/// The WAN graph plus precomputed all-pairs shortest paths.
///
/// Usage: add links, then call compute_paths() once; queries throw if paths
/// have not been computed or the graph is disconnected for the queried pair.
class Topology {
 public:
  explicit Topology(const World& world);

  LinkId add_link(LocationId a, LocationId b, double latency_ms,
                  double cost_per_gbps);

  /// Runs Dijkstra from every node and materializes every path. Must be
  /// called after the last add_link() and before any query below.
  void compute_paths();

  [[nodiscard]] std::size_t link_count() const { return links_.size(); }
  [[nodiscard]] const WanLink& link(LinkId id) const;
  [[nodiscard]] const std::vector<WanLink>& links() const { return links_; }
  [[nodiscard]] std::vector<LinkId> link_ids() const;

  /// One-way latency of the shortest path between two location nodes.
  /// Zero when from == to. Throws if the pair is disconnected.
  [[nodiscard]] double distance_ms(LocationId from, LocationId to) const;

  /// Links on the shortest path between two nodes (empty when from == to).
  [[nodiscard]] const std::vector<LinkId>& path(LocationId from,
                                                LocationId to) const;

  /// Table 2's InPath(l, x, u) with x expressed as its location node.
  [[nodiscard]] bool in_path(LinkId link, LocationId from, LocationId to) const;

  /// True if every node can reach every other node.
  [[nodiscard]] bool connected() const;

  [[nodiscard]] std::size_t node_count() const { return node_count_; }

 private:
  [[nodiscard]] std::size_t pair_index(LocationId from, LocationId to) const;
  void check_ready() const;

  std::size_t node_count_;
  std::vector<WanLink> links_;
  std::vector<std::vector<std::pair<std::uint32_t, LinkId>>> adjacency_;
  // Flattened [from][to] tables, valid after compute_paths().
  std::vector<double> dist_ms_;
  std::vector<std::vector<LinkId>> paths_;
  bool ready_ = false;
};

/// Parameters for synthesizing plausible link costs: submarine/cross-region
/// links are disproportionately expensive, which is what gives the joint
/// compute+network optimization (§4.3) something to trade off.
struct LinkCostParams {
  double base = 4.0;                   ///< fixed cost per Gbps per link
  double per_km = 0.015;               ///< distance-proportional component
  double cross_region_multiplier = 1.6;
};

/// Builds a connected topology by linking every location to its `k` nearest
/// neighbors (by great-circle distance) and then bridging any remaining
/// components via their closest location pair. Latency per link is
/// distance / 200 km/ms + 1 ms switching.
Topology build_knn_topology(const World& world, std::size_t k,
                            const LinkCostParams& costs = {});

}  // namespace sb
