#include "flood/flood_service.h"

#include "flood/flood_agent.h"
#include "util/check.h"

namespace hlsrg {

FloodService::FloodService(Simulator& sim, MobilityModel& mobility,
                           NodeRegistry& registry, RadioMedium& medium,
                           GpsrRouter& gpsr, GeocastService& geocast,
                           Aabb map_bounds, FloodConfig cfg)
    : LocationService(sim, mobility, registry, medium, gpsr, geocast,
                      PacketKind::kFloodQuery, PacketKind::kFloodAck),
      map_bounds_(map_bounds),
      cfg_(cfg) {
  register_fleet(*this, vehicle_agents_);
  mobility.add_listener(this);
}

FloodService::~FloodService() = default;

FloodVehicleAgent& FloodService::vehicle_agent(VehicleId v) {
  return vehicle_agents_[v.index()];
}

void FloodService::start_query(QueryTracker::QueryId qid, VehicleId src,
                               VehicleId dst) {
  vehicle_agents_[src.index()].start_query(qid, dst);
}

ServiceStats FloodService::service_stats() const {
  ServiceStats s;
  for (const auto& agent : vehicle_agents_) {
    s.table_records += agent.cache_size();
    s.table_bytes += agent.cache_bytes();
  }
  s.table_bytes += registry().bytes();
  return s;
}

void FloodService::sample_region_stats(
    const RegionTelemetry& regions, std::vector<std::uint64_t>& table_records,
    std::vector<std::uint64_t>& queue_depth) const {
  // FLOOD keeps only per-vehicle position caches; no serving tier, so queue
  // depth stays zero. Region ids come off the registry's SoA rows, which
  // mirror `regions`' own region_of.
  (void)regions;
  (void)queue_depth;
  for (std::size_t i = 0; i < vehicle_agents_.size(); ++i) {
    const int r = registry().vehicle_region(VehicleId{i});
    table_records[static_cast<std::size_t>(r)] +=
        vehicle_agents_[i].cache_size();
  }
}

void FloodService::on_moved(VehicleId v, Vec2 before, Vec2 after) {
  vehicle_agents_[v.index()].handle_moved(before, after);
}

}  // namespace hlsrg
