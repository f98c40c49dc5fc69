#include "geo/topology.h"

#include <algorithm>
#include <limits>
#include <queue>

#include "common/error.h"

namespace sb {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kFiberKmPerMs = 200.0;  // ~2/3 the speed of light
constexpr double kSwitchingMs = 1.0;
}  // namespace

Topology::Topology(const World& world)
    : node_count_(world.location_count()), adjacency_(node_count_) {
  require(node_count_ > 0, "Topology: world has no locations");
}

LinkId Topology::add_link(LocationId a, LocationId b, double latency_ms,
                          double cost_per_gbps) {
  require(a.valid() && a.value() < node_count_, "add_link: bad endpoint a");
  require(b.valid() && b.value() < node_count_, "add_link: bad endpoint b");
  require(a != b, "add_link: self loop");
  require(latency_ms >= 0.0, "add_link: negative latency");
  require(cost_per_gbps >= 0.0, "add_link: negative cost");
  const LinkId id(static_cast<std::uint32_t>(links_.size()));
  links_.push_back(WanLink{a, b, latency_ms, cost_per_gbps,
                           "L" + std::to_string(id.value())});
  adjacency_[a.value()].emplace_back(b.value(), id);
  adjacency_[b.value()].emplace_back(a.value(), id);
  ready_ = false;
  return id;
}

void Topology::compute_paths() {
  dist_ms_.assign(node_count_ * node_count_, kInf);
  paths_.assign(node_count_ * node_count_, {});

  std::vector<double> dist(node_count_);
  std::vector<LinkId> parent_link(node_count_);
  std::vector<std::uint32_t> parent_node(node_count_);

  for (std::uint32_t src = 0; src < node_count_; ++src) {
    std::fill(dist.begin(), dist.end(), kInf);
    std::fill(parent_link.begin(), parent_link.end(), LinkId{});
    dist[src] = 0.0;
    using Item = std::pair<double, std::uint32_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> heap;
    heap.emplace(0.0, src);
    while (!heap.empty()) {
      const auto [d, node] = heap.top();
      heap.pop();
      if (d > dist[node]) continue;
      for (const auto& [next, link] : adjacency_[node]) {
        const double nd = d + links_[link.value()].latency_ms;
        if (nd < dist[next]) {
          dist[next] = nd;
          parent_link[next] = link;
          parent_node[next] = node;
          heap.emplace(nd, next);
        }
      }
    }
    for (std::uint32_t dst = 0; dst < node_count_; ++dst) {
      const std::size_t idx = src * node_count_ + dst;
      dist_ms_[idx] = dist[dst];
      if (dst == src || dist[dst] == kInf) continue;
      std::vector<LinkId>& path = paths_[idx];
      for (std::uint32_t at = dst; at != src; at = parent_node[at]) {
        path.push_back(parent_link[at]);
      }
      std::reverse(path.begin(), path.end());
    }
  }
  ready_ = true;
}

const WanLink& Topology::link(LinkId id) const {
  require(id.valid() && id.value() < links_.size(), "link: id out of range");
  return links_[id.value()];
}

std::vector<LinkId> Topology::link_ids() const {
  std::vector<LinkId> ids;
  ids.reserve(links_.size());
  for (std::size_t i = 0; i < links_.size(); ++i) {
    ids.push_back(LinkId(static_cast<std::uint32_t>(i)));
  }
  return ids;
}

std::size_t Topology::pair_index(LocationId from, LocationId to) const {
  require(from.valid() && from.value() < node_count_, "bad 'from' node");
  require(to.valid() && to.value() < node_count_, "bad 'to' node");
  return static_cast<std::size_t>(from.value()) * node_count_ + to.value();
}

void Topology::check_ready() const {
  require(ready_, "Topology: call compute_paths() before querying");
}

double Topology::distance_ms(LocationId from, LocationId to) const {
  check_ready();
  const double d = dist_ms_[pair_index(from, to)];
  require(d != kInf, "distance_ms: nodes are disconnected");
  return d;
}

const std::vector<LinkId>& Topology::path(LocationId from, LocationId to) const {
  check_ready();
  const std::size_t idx = pair_index(from, to);
  require(from == to || !paths_[idx].empty() || dist_ms_[idx] != kInf,
          "path: nodes are disconnected");
  return paths_[idx];
}

bool Topology::in_path(LinkId link, LocationId from, LocationId to) const {
  const auto& p = path(from, to);
  return std::find(p.begin(), p.end(), link) != p.end();
}

bool Topology::connected() const {
  require(ready_, "connected: call compute_paths() first");
  for (double d : dist_ms_) {
    if (d == kInf) return false;
  }
  return true;
}

Topology build_knn_topology(const World& world, std::size_t k,
                            const LinkCostParams& costs) {
  require(k >= 1, "build_knn_topology: k must be >= 1");
  Topology topo(world);
  const auto& locs = world.locations();
  const std::size_t n = locs.size();

  auto km = [&](std::size_t i, std::size_t j) {
    return geo_distance_km(locs[i].latitude_deg, locs[i].longitude_deg,
                           locs[j].latitude_deg, locs[j].longitude_deg);
  };
  auto link_cost = [&](std::size_t i, std::size_t j) {
    double c = costs.base + costs.per_km * km(i, j);
    if (locs[i].region != locs[j].region) c *= costs.cross_region_multiplier;
    return c;
  };
  auto link_latency = [&](std::size_t i, std::size_t j) {
    return km(i, j) / kFiberKmPerMs + kSwitchingMs;
  };

  std::vector<std::vector<bool>> linked(n, std::vector<bool>(n, false));
  auto connect = [&](std::size_t i, std::size_t j) {
    if (linked[i][j]) return;
    linked[i][j] = linked[j][i] = true;
    topo.add_link(LocationId(static_cast<std::uint32_t>(i)),
                  LocationId(static_cast<std::uint32_t>(j)), link_latency(i, j),
                  link_cost(i, j));
  };

  for (std::size_t i = 0; i < n; ++i) {
    std::vector<std::pair<double, std::size_t>> near;
    for (std::size_t j = 0; j < n; ++j) {
      if (j != i) near.emplace_back(km(i, j), j);
    }
    std::sort(near.begin(), near.end());
    for (std::size_t t = 0; t < std::min(k, near.size()); ++t) {
      connect(i, near[t].second);
    }
  }

  // Bridge disconnected components (possible with clustered geographies):
  // union-find over the links added so far, then join the closest pair
  // across components until one component remains.
  std::vector<std::size_t> root(n);
  for (std::size_t i = 0; i < n; ++i) root[i] = i;
  auto find = [&](std::size_t x) {
    while (root[x] != x) x = root[x] = root[root[x]];
    return x;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      if (linked[i][j]) root[find(i)] = find(j);
    }
  }
  for (;;) {
    double best = kInf;
    std::size_t bi = 0, bj = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (find(i) != find(j) && km(i, j) < best) {
          best = km(i, j);
          bi = i;
          bj = j;
        }
      }
    }
    if (best == kInf) break;  // single component
    connect(bi, bj);
    root[find(bi)] = find(bj);
  }

  topo.compute_paths();
  return topo;
}

}  // namespace sb
