#include "check/fuzz_case.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "common/error.h"
#include "lp/solver.h"

namespace sb::check {

namespace {

Json location_to_json(const Location& loc) {
  Json::Object o;
  o["name"] = loc.name;
  o["lat"] = loc.latitude_deg;
  o["lon"] = loc.longitude_deg;
  o["utc"] = loc.utc_offset_hours;
  o["pop"] = loc.population_weight;
  o["region"] = loc.region;
  return Json(std::move(o));
}

Location location_from_json(const Json& j) {
  Location loc;
  loc.name = j.get("name").as_string();
  loc.latitude_deg = j.get("lat").as_number();
  loc.longitude_deg = j.get("lon").as_number();
  loc.utc_offset_hours = j.get("utc").as_number();
  loc.population_weight = j.get("pop").as_number();
  loc.region = j.get("region").as_string();
  return loc;
}

Json dc_to_json(const Datacenter& dc) {
  Json::Object o;
  o["name"] = dc.name;
  o["location"] = static_cast<std::uint64_t>(dc.location.value());
  o["core_cost"] = dc.core_cost;
  return Json(std::move(o));
}

Datacenter dc_from_json(const Json& j) {
  Datacenter dc;
  dc.name = j.get("name").as_string();
  dc.location = LocationId(static_cast<std::uint32_t>(j.get("location").as_u64()));
  dc.core_cost = j.get("core_cost").as_number();
  return dc;
}

Json link_to_json(const WanLink& l) {
  Json::Object o;
  o["a"] = static_cast<std::uint64_t>(l.a.value());
  o["b"] = static_cast<std::uint64_t>(l.b.value());
  o["latency_ms"] = l.latency_ms;
  o["cost_per_gbps"] = l.cost_per_gbps;
  return Json(std::move(o));
}

WanLink link_from_json(const Json& j) {
  WanLink l;
  l.a = LocationId(static_cast<std::uint32_t>(j.get("a").as_u64()));
  l.b = LocationId(static_cast<std::uint32_t>(j.get("b").as_u64()));
  l.latency_ms = j.get("latency_ms").as_number();
  l.cost_per_gbps = j.get("cost_per_gbps").as_number();
  return l;
}

Json call_to_json(const FuzzCall& c) {
  Json::Object o;
  o["id"] = c.id;
  o["media"] = static_cast<std::uint64_t>(c.media);
  o["start_s"] = c.start_s;
  o["duration_s"] = c.duration_s;
  o["media_change_offset_s"] = c.media_change_offset_s;
  Json::Array legs;
  legs.reserve(c.legs.size());
  for (const CallLeg& leg : c.legs) {
    Json::Object lo;
    lo["loc"] = static_cast<std::uint64_t>(leg.location.value());
    lo["join_s"] = leg.join_offset_s;
    legs.emplace_back(std::move(lo));
  }
  o["legs"] = Json(std::move(legs));
  return Json(std::move(o));
}

FuzzCall call_from_json(const Json& j) {
  FuzzCall c;
  c.id = j.get("id").as_u64();
  const std::uint64_t media = j.get("media").as_u64();
  require(media < kMediaTypeCount, "FuzzCall: bad media type");
  c.media = static_cast<MediaType>(media);
  c.start_s = j.get("start_s").as_number();
  c.duration_s = j.get("duration_s").as_number();
  c.media_change_offset_s = j.get("media_change_offset_s").as_number();
  for (const Json& lj : j.get("legs").as_array()) {
    CallLeg leg;
    leg.location =
        LocationId(static_cast<std::uint32_t>(lj.get("loc").as_u64()));
    leg.join_offset_s = lj.get("join_s").as_number();
    c.legs.push_back(leg);
  }
  require(!c.legs.empty(), "FuzzCall: no legs");
  return c;
}

Json server_to_json(const FuzzServer& s) {
  Json::Object o;
  o["dc"] = static_cast<std::uint64_t>(s.dc);
  o["cores"] = s.cores;
  return Json(std::move(o));
}

FuzzServer server_from_json(const Json& j) {
  FuzzServer s;
  s.dc = static_cast<std::uint32_t>(j.get("dc").as_u64());
  s.cores = j.get("cores").as_number();
  return s;
}

Json fault_to_json(const fault::FaultEvent& e) {
  Json::Object o;
  o["time"] = e.time;
  o["kind"] = static_cast<std::uint64_t>(e.kind);
  o["index"] = static_cast<std::uint64_t>(e.is_dc()       ? e.dc.value()
                                          : e.is_server() ? e.server.value()
                                          : e.is_worker() ? e.worker.value()
                                                          : e.link.value());
  return Json(std::move(o));
}

fault::FaultEvent fault_from_json(const Json& j) {
  fault::FaultEvent e;
  e.time = j.get("time").as_number();
  const std::uint64_t kind = j.get("kind").as_u64();
  require(kind <= 7, "FaultEvent: bad kind");
  e.kind = static_cast<fault::FaultEvent::Kind>(kind);
  const auto index = static_cast<std::uint32_t>(j.get("index").as_u64());
  if (e.is_dc()) {
    e.dc = DcId(index);
  } else if (e.is_server()) {
    e.server = ServerId(index);
  } else if (e.is_worker()) {
    e.worker = WorkerId(index);
  } else {
    e.link = LinkId(index);
  }
  return e;
}

Json options_to_json(const FuzzOptions& o) {
  Json::Object j;
  j["freeze_delay_s"] = o.freeze_delay_s;
  j["bucket_s"] = o.bucket_s;
  j["slot_s"] = o.slot_s;
  j["shard_count"] = o.shard_count;
  j["sim_threads"] = o.sim_threads;
  j["use_plan"] = o.use_plan;
  j["with_backup"] = o.with_backup;
  j["include_link_failures"] = o.include_link_failures;
  j["lp_method"] = o.lp_method;
  j["rebuild_storm"] = o.rebuild_storm;
  j["chaos_skip_drain_credit"] = o.chaos_skip_drain_credit;
  j["chaos_skip_server_credit"] = o.chaos_skip_server_credit;
  j["workers"] = o.workers;
  j["lease_ttl_s"] = o.lease_ttl_s;
  j["chaos_skip_wal_freeze"] = o.chaos_skip_wal_freeze;
  j["use_loop"] = o.use_loop;
  j["loop_cadence_s"] = o.loop_cadence_s;
  j["loop_band"] = o.loop_band;
  j["loop_forecast_scale"] = o.loop_forecast_scale;
  j["loop_flash"] = o.loop_flash;
  j["chaos_skip_replan"] = o.chaos_skip_replan;
  return Json(std::move(j));
}

FuzzOptions options_from_json(const Json& j) {
  FuzzOptions o;
  o.freeze_delay_s = j.get("freeze_delay_s").as_number();
  o.bucket_s = j.get("bucket_s").as_number();
  o.slot_s = j.get("slot_s").as_number();
  o.shard_count = static_cast<std::size_t>(j.get("shard_count").as_u64());
  o.sim_threads = static_cast<std::size_t>(j.get("sim_threads").as_u64());
  o.use_plan = j.get("use_plan").as_bool();
  o.with_backup = j.get("with_backup").as_bool();
  o.include_link_failures = j.get("include_link_failures").as_bool();
  // Older repros carry two removed provisioner options. scenario_threads
  // never changed a result, so it is ignored; floor_mode 1 (every failure
  // scenario floored on F0 alone) cannot be replayed by the chained floors
  // that remain.
  require(j.get_or("floor_mode", 0.0) == 0.0,
          "FuzzOptions: floor_mode 1 (F0-only floors) was removed; only "
          "chained floors (0) replay");
  const std::int64_t lp_method = j.get("lp_method").as_i64();
  require(lp_method == static_cast<int>(lp::Method::kAuto) ||
              lp_method == static_cast<int>(lp::Method::kDense) ||
              lp_method == static_cast<int>(lp::Method::kSparse) ||
              lp_method == static_cast<int>(lp::Method::kDual),
          "FuzzOptions: bad lp_method");
  o.lp_method = static_cast<int>(lp_method);
  o.rebuild_storm = j.get_or("rebuild_storm", false);
  o.chaos_skip_drain_credit = j.get_or("chaos_skip_drain_credit", false);
  o.chaos_skip_server_credit = j.get_or("chaos_skip_server_credit", false);
  o.workers = static_cast<std::size_t>(j.get_or("workers", 0.0));
  o.lease_ttl_s = j.get_or("lease_ttl_s", 30.0);
  o.chaos_skip_wal_freeze = j.get_or("chaos_skip_wal_freeze", false);
  o.use_loop = j.get_or("use_loop", false);
  o.loop_cadence_s = j.get_or("loop_cadence_s", 300.0);
  o.loop_band = j.get_or("loop_band", 0.25);
  o.loop_forecast_scale = j.get_or("loop_forecast_scale", 1.0);
  o.loop_flash = static_cast<int>(j.get_or("loop_flash", 0.0));
  o.chaos_skip_replan = j.get_or("chaos_skip_replan", false);
  return o;
}

World build_world(const FuzzWorld& fw) {
  require(!fw.locations.empty(), "FuzzCase: no locations");
  require(!fw.dcs.empty(), "FuzzCase: no datacenters");
  World world;
  for (const Location& loc : fw.locations) world.add_location(loc);
  for (const Datacenter& dc : fw.dcs) {
    require(dc.location.valid() && dc.location.value() < fw.locations.size(),
            "FuzzCase: datacenter references unknown location");
    world.add_datacenter(dc);
  }
  if (!fw.servers.empty()) {
    std::vector<std::uint8_t> covered(fw.dcs.size(), 0);
    for (std::size_t s = 0; s < fw.servers.size(); ++s) {
      const FuzzServer& srv = fw.servers[s];
      require(srv.dc < fw.dcs.size(),
              "FuzzCase: server references unknown DC");
      require(srv.cores > 0.0, "FuzzCase: server cores");
      covered[srv.dc] = 1;
      world.add_server({fw.dcs[srv.dc].name + "-srv" + std::to_string(s),
                        DcId(srv.dc), srv.cores});
    }
    for (std::size_t x = 0; x < covered.size(); ++x) {
      require(covered[x] != 0, "FuzzCase: fleet does not cover every DC");
    }
  }
  return world;
}

Topology build_topology(const World& world, const FuzzWorld& fw) {
  Topology topo(world);
  for (const WanLink& l : fw.links) {
    topo.add_link(l.a, l.b, l.latency_ms, l.cost_per_gbps);
  }
  topo.compute_paths();
  require(topo.connected(), "FuzzCase: topology is disconnected");
  return topo;
}

CallRecordDatabase build_db(const FuzzCase& c, CallConfigRegistry& registry) {
  CallRecordDatabase db;
  db.reserve(c.calls.size());
  for (const FuzzCall& fc : c.calls) {
    // Reconstruct the config from the legs: the trace generator expands
    // every config entry into exactly one leg per participant, so grouping
    // legs by location recovers the original entry multiset.
    std::map<LocationId, std::uint32_t> counts;
    for (const CallLeg& leg : fc.legs) {
      require(leg.location.valid() &&
                  leg.location.value() < c.world.locations.size(),
              "FuzzCase: call leg references unknown location");
      ++counts[leg.location];
    }
    std::vector<ConfigEntry> entries;
    entries.reserve(counts.size());
    for (const auto& [loc, n] : counts) entries.push_back({loc, n});
    const ConfigId config =
        registry.intern(CallConfig::make(std::move(entries), fc.media));
    CallRecord rec;
    rec.id = CallId(static_cast<std::uint32_t>(fc.id));
    rec.config = config;
    rec.start_s = fc.start_s;
    rec.duration_s = fc.duration_s;
    rec.media_change_offset_s = fc.media_change_offset_s;
    rec.legs = fc.legs;
    db.add(std::move(rec));
  }
  return db;
}

fault::FaultSchedule build_faults(const FuzzCase& c) {
  for (const fault::FaultEvent& e : c.faults) {
    if (e.is_dc()) {
      require(e.dc.valid() && e.dc.value() < c.world.dcs.size(),
              "FuzzCase: fault references unknown DC");
    } else if (e.is_server()) {
      require(e.server.valid() && e.server.value() < c.world.servers.size(),
              "FuzzCase: fault references unknown server");
    } else if (e.is_worker()) {
      require(e.worker.valid() && e.worker.value() < c.options.workers,
              "FuzzCase: fault references unknown worker");
    } else {
      require(e.link.valid() && e.link.value() < c.world.links.size(),
              "FuzzCase: fault references unknown link");
    }
  }
  return fault::FaultSchedule::from_events(c.faults);
}

}  // namespace

Materialized::Materialized(const FuzzCase& c)
    : world(build_world(c.world)),
      topology(build_topology(world, c.world)),
      latency(LatencyMatrix::from_topology(world, topology)),
      registry(),
      loads(LoadModel::paper_default()),
      db(build_db(c, registry)),
      faults(build_faults(c)) {}

Json FuzzCase::to_json() const {
  Json::Object root;
  root["seed"] = seed;
  root["window_start_s"] = window_start_s;
  root["window_end_s"] = window_end_s;

  Json::Object world_obj;
  Json::Array locations;
  for (const Location& loc : world.locations) {
    locations.push_back(location_to_json(loc));
  }
  world_obj["locations"] = Json(std::move(locations));
  Json::Array dcs;
  for (const Datacenter& dc : world.dcs) dcs.push_back(dc_to_json(dc));
  world_obj["dcs"] = Json(std::move(dcs));
  Json::Array links;
  for (const WanLink& l : world.links) links.push_back(link_to_json(l));
  world_obj["links"] = Json(std::move(links));
  if (!world.servers.empty()) {
    // Emitted only for fleet cases: a no-fleet case serializes byte-
    // identically to the pre-fleet format.
    Json::Array servers;
    for (const FuzzServer& s : world.servers) {
      servers.push_back(server_to_json(s));
    }
    world_obj["servers"] = Json(std::move(servers));
  }
  root["world"] = Json(std::move(world_obj));

  Json::Array call_arr;
  call_arr.reserve(calls.size());
  for (const FuzzCall& c : calls) call_arr.push_back(call_to_json(c));
  root["calls"] = Json(std::move(call_arr));

  Json::Array fault_arr;
  for (const fault::FaultEvent& e : faults) fault_arr.push_back(fault_to_json(e));
  root["faults"] = Json(std::move(fault_arr));

  root["options"] = options_to_json(options);
  return Json(std::move(root));
}

FuzzCase FuzzCase::from_json(const Json& j) {
  FuzzCase c;
  c.seed = j.get("seed").as_u64();
  c.window_start_s = j.get("window_start_s").as_number();
  c.window_end_s = j.get("window_end_s").as_number();

  const Json& world_obj = j.get("world");
  for (const Json& lj : world_obj.get("locations").as_array()) {
    c.world.locations.push_back(location_from_json(lj));
  }
  for (const Json& dj : world_obj.get("dcs").as_array()) {
    c.world.dcs.push_back(dc_from_json(dj));
  }
  for (const Json& lj : world_obj.get("links").as_array()) {
    c.world.links.push_back(link_from_json(lj));
  }
  if (const Json* servers = world_obj.find("servers")) {
    for (const Json& sj : servers->as_array()) {
      c.world.servers.push_back(server_from_json(sj));
    }
  }

  for (const Json& cj : j.get("calls").as_array()) {
    c.calls.push_back(call_from_json(cj));
  }
  for (const Json& fj : j.get("faults").as_array()) {
    c.faults.push_back(fault_from_json(fj));
  }
  c.options = options_from_json(j.get("options"));
  return c;
}

std::string FuzzCase::describe() const {
  std::ostringstream os;
  os << "seed=" << seed << " locs=" << world.locations.size()
     << " dcs=" << world.dcs.size() << " links=" << world.links.size();
  if (!world.servers.empty()) os << " servers=" << world.servers.size();
  os << " calls=" << calls.size() << " faults=" << faults.size()
     << (options.use_plan ? " plan" : " no-plan")
     << (options.rebuild_storm ? " storm" : "")
     << (options.chaos_skip_drain_credit ? " chaos" : "")
     << (options.chaos_skip_server_credit ? " chaos-server" : "")
     << (options.chaos_skip_wal_freeze ? " chaos-wal" : "")
     << (options.chaos_skip_replan ? " chaos-replan" : "");
  if (options.workers > 0) os << " workers=" << options.workers;
  if (options.use_loop) {
    os << " loop(cadence=" << options.loop_cadence_s
       << " band=" << options.loop_band
       << " fc=" << options.loop_forecast_scale;
    if (options.loop_flash == 1) os << " spike";
    if (options.loop_flash == 2) os << " rebound";
    os << ")";
  }
  return os.str();
}

std::unique_ptr<Materialized> FuzzCase::materialize() const {
  return std::make_unique<Materialized>(*this);
}

void write_repro(const FuzzCase& c, const std::string& path) {
  std::ofstream out(path);
  if (!out.good()) throw InvalidArgument("write_repro: cannot open " + path);
  out << c.to_json().dump(2) << "\n";
  if (!out.good())
    throw InvalidArgument("write_repro: write failed for " + path);
}

FuzzCase load_repro(const std::string& path) {
  std::ifstream in(path);
  if (!in.good()) throw InvalidArgument("load_repro: cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return FuzzCase::from_json(Json::parse(buf.str()));
}

}  // namespace sb::check
