// The world model: participant locations (countries), regions, and
// datacenters. This is the substrate standing in for Azure's footprint —
// the provisioning LP only consumes the ids, costs and coordinates defined
// here (see DESIGN.md, substitutions table).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "common/types.h"

namespace sb {

/// A participant location at country granularity (the granularity call
/// configs use, §5.1).
struct Location {
  std::string name;                ///< e.g. "JP"
  double latitude_deg = 0.0;
  double longitude_deg = 0.0;
  double utc_offset_hours = 0.0;   ///< drives the diurnal demand shift (Fig 3)
  double population_weight = 1.0;  ///< relative share of call participants
  std::string region;              ///< e.g. "APAC"; DCs serve their region
};

/// A datacenter able to host MP servers.
struct Datacenter {
  std::string name;        ///< e.g. "DC-Tokyo"
  LocationId location;     ///< country the DC sits in
  double core_cost = 1.0;  ///< per-core provisioning cost (Eq 3's DC_Cost)
};

/// One media server inside a datacenter's fleet. Registering servers is
/// opt-in: a World with zero servers models each DC as one fungible core
/// pool (the paper's abstraction) and every packing code path disappears.
struct MediaServer {
  std::string name;   ///< e.g. "Tokyo-ms0"
  DcId dc;            ///< owning datacenter
  double cores = 0.0; ///< physical core capacity of this server
};

/// Registry of locations and datacenters. Ids are dense indices into the
/// registration order, so modules can keep parallel vectors keyed by id.
class World {
 public:
  LocationId add_location(Location loc);
  DcId add_datacenter(Datacenter dc);
  ServerId add_server(MediaServer server);

  [[nodiscard]] std::size_t location_count() const { return locations_.size(); }
  [[nodiscard]] std::size_t dc_count() const { return dcs_.size(); }
  [[nodiscard]] std::size_t server_count() const { return servers_.size(); }
  /// True when at least one media server is registered; enables the packing
  /// layer. With fleets, every DC must own at least one server (enforced by
  /// the consumers that pack).
  [[nodiscard]] bool has_fleets() const { return !servers_.empty(); }

  [[nodiscard]] const Location& location(LocationId id) const;
  [[nodiscard]] const Datacenter& datacenter(DcId id) const;
  [[nodiscard]] const MediaServer& server(ServerId id) const;

  [[nodiscard]] const std::vector<Location>& locations() const {
    return locations_;
  }
  [[nodiscard]] const std::vector<Datacenter>& datacenters() const {
    return dcs_;
  }
  [[nodiscard]] const std::vector<MediaServer>& servers() const {
    return servers_;
  }
  /// Servers owned by `dc`, in registration order (empty when no fleet).
  [[nodiscard]] const std::vector<ServerId>& servers_in_dc(DcId dc) const;

  /// Lookup by name; nullopt if absent.
  [[nodiscard]] std::optional<LocationId> find_location(
      const std::string& name) const;
  [[nodiscard]] std::optional<DcId> find_datacenter(
      const std::string& name) const;
  [[nodiscard]] std::optional<ServerId> find_server(
      const std::string& name) const;

  /// All datacenters whose location is in `region`.
  [[nodiscard]] std::vector<DcId> dcs_in_region(const std::string& region) const;

  /// Iteration helpers: every valid id, in order.
  [[nodiscard]] std::vector<LocationId> location_ids() const;
  [[nodiscard]] std::vector<DcId> dc_ids() const;
  [[nodiscard]] std::vector<ServerId> server_ids() const;

 private:
  std::vector<Location> locations_;
  std::vector<Datacenter> dcs_;
  std::vector<MediaServer> servers_;
  /// Per-DC server id lists, parallel to dcs_. Sized lazily by add_server so
  /// servers may be registered after all DCs exist.
  std::vector<std::vector<ServerId>> servers_by_dc_;
};

/// Great-circle distance in km between two (lat, lon) points (haversine).
double geo_distance_km(double lat1_deg, double lon1_deg, double lat2_deg,
                       double lon2_deg);

}  // namespace sb
