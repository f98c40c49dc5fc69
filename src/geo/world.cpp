#include "geo/world.h"

#include <cmath>
#include <numbers>

namespace sb {

LocationId World::add_location(Location loc) {
  require(!loc.name.empty(), "add_location: name required");
  if (find_location(loc.name))
    throw InvalidArgument("add_location: duplicate name " + loc.name);
  require(loc.population_weight >= 0.0,
          "add_location: population weight must be non-negative");
  locations_.push_back(std::move(loc));
  return LocationId(static_cast<std::uint32_t>(locations_.size() - 1));
}

DcId World::add_datacenter(Datacenter dc) {
  require(!dc.name.empty(), "add_datacenter: name required");
  if (find_datacenter(dc.name))
    throw InvalidArgument("add_datacenter: duplicate name " + dc.name);
  require(dc.location.valid() && dc.location.value() < locations_.size(),
          "add_datacenter: unknown location");
  require(dc.core_cost > 0.0, "add_datacenter: core cost must be positive");
  dcs_.push_back(std::move(dc));
  return DcId(static_cast<std::uint32_t>(dcs_.size() - 1));
}

ServerId World::add_server(MediaServer server) {
  require(!server.name.empty(), "add_server: name required");
  if (find_server(server.name))
    throw InvalidArgument("add_server: duplicate name " + server.name);
  require(server.dc.valid() && server.dc.value() < dcs_.size(),
          "add_server: unknown datacenter");
  require(server.cores > 0.0, "add_server: cores must be positive");
  if (servers_by_dc_.size() < dcs_.size()) servers_by_dc_.resize(dcs_.size());
  const ServerId id(static_cast<std::uint32_t>(servers_.size()));
  servers_by_dc_[server.dc.value()].push_back(id);
  servers_.push_back(std::move(server));
  return id;
}

const Location& World::location(LocationId id) const {
  require(id.valid() && id.value() < locations_.size(),
          "location: id out of range");
  return locations_[id.value()];
}

const Datacenter& World::datacenter(DcId id) const {
  require(id.valid() && id.value() < dcs_.size(), "datacenter: id out of range");
  return dcs_[id.value()];
}

const MediaServer& World::server(ServerId id) const {
  require(id.valid() && id.value() < servers_.size(),
          "server: id out of range");
  return servers_[id.value()];
}

const std::vector<ServerId>& World::servers_in_dc(DcId dc) const {
  require(dc.valid() && dc.value() < dcs_.size(),
          "servers_in_dc: id out of range");
  static const std::vector<ServerId> kEmpty;
  if (dc.value() >= servers_by_dc_.size()) return kEmpty;
  return servers_by_dc_[dc.value()];
}

std::optional<LocationId> World::find_location(const std::string& name) const {
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    if (locations_[i].name == name) {
      return LocationId(static_cast<std::uint32_t>(i));
    }
  }
  return std::nullopt;
}

std::optional<DcId> World::find_datacenter(const std::string& name) const {
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    if (dcs_[i].name == name) return DcId(static_cast<std::uint32_t>(i));
  }
  return std::nullopt;
}

std::optional<ServerId> World::find_server(const std::string& name) const {
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    if (servers_[i].name == name) {
      return ServerId(static_cast<std::uint32_t>(i));
    }
  }
  return std::nullopt;
}

std::vector<DcId> World::dcs_in_region(const std::string& region) const {
  std::vector<DcId> result;
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    if (locations_[dcs_[i].location.value()].region == region) {
      result.push_back(DcId(static_cast<std::uint32_t>(i)));
    }
  }
  return result;
}

std::vector<LocationId> World::location_ids() const {
  std::vector<LocationId> ids;
  ids.reserve(locations_.size());
  for (std::size_t i = 0; i < locations_.size(); ++i) {
    ids.push_back(LocationId(static_cast<std::uint32_t>(i)));
  }
  return ids;
}

std::vector<DcId> World::dc_ids() const {
  std::vector<DcId> ids;
  ids.reserve(dcs_.size());
  for (std::size_t i = 0; i < dcs_.size(); ++i) {
    ids.push_back(DcId(static_cast<std::uint32_t>(i)));
  }
  return ids;
}

std::vector<ServerId> World::server_ids() const {
  std::vector<ServerId> ids;
  ids.reserve(servers_.size());
  for (std::size_t i = 0; i < servers_.size(); ++i) {
    ids.push_back(ServerId(static_cast<std::uint32_t>(i)));
  }
  return ids;
}

double geo_distance_km(double lat1_deg, double lon1_deg, double lat2_deg,
                       double lon2_deg) {
  constexpr double kEarthRadiusKm = 6371.0;
  constexpr double kDegToRad = std::numbers::pi / 180.0;
  const double lat1 = lat1_deg * kDegToRad;
  const double lat2 = lat2_deg * kDegToRad;
  const double dlat = (lat2_deg - lat1_deg) * kDegToRad;
  const double dlon = (lon2_deg - lon1_deg) * kDegToRad;
  const double a = std::sin(dlat / 2) * std::sin(dlat / 2) +
                   std::cos(lat1) * std::cos(lat2) * std::sin(dlon / 2) *
                       std::sin(dlon / 2);
  return 2.0 * kEarthRadiusKm * std::asin(std::min(1.0, std::sqrt(a)));
}

}  // namespace sb
