#include "rlsmp/rlsmp_service.h"

#include "rlsmp/rlsmp_agent.h"
#include "util/check.h"

namespace hlsrg {

RlsmpService::RlsmpService(Simulator& sim, MobilityModel& mobility,
                           NodeRegistry& registry, RadioMedium& medium,
                           GpsrRouter& gpsr, GeocastService& geocast,
                           const CellGrid& cells, RlsmpConfig cfg)
    : LocationService(sim, mobility, registry, medium, gpsr, geocast,
                      PacketKind::kRlsmpQuery, PacketKind::kRlsmpAck),
      cells_(&cells),
      cfg_(cfg) {
  register_fleet(*this, vehicle_agents_);
  mobility.add_listener(this);
  sim.schedule_after(cfg_.aggregation_period,
                     [this] { aggregation_tick(1); });
}

RlsmpService::~RlsmpService() = default;

RlsmpVehicleAgent& RlsmpService::vehicle_agent(VehicleId v) {
  return vehicle_agents_[v.index()];
}

void RlsmpService::aggregation_tick(std::int64_t period_index) {
  // Stagger per-agent pushes within the period so claims can suppress peers.
  for (auto& agent : vehicle_agents_) {
    const double jitter_ms = sim().protocol_rng().uniform(0.0, 100.0);
    sim().schedule_after(SimTime::from_ms(jitter_ms),
                         [a = &agent, period_index] {
                           a->aggregation_tick(period_index);
                         });
  }
  sim().schedule_after(cfg_.aggregation_period, [this, period_index] {
    aggregation_tick(period_index + 1);
  });
}

void RlsmpService::start_query(QueryTracker::QueryId qid, VehicleId src,
                               VehicleId dst) {
  vehicle_agents_[src.index()].start_query(qid, dst);
}

ServiceStats RlsmpService::service_stats() const {
  ServiceStats s;
  for (const auto& agent : vehicle_agents_) {
    s.table_records += agent.cell_table_size() + agent.cluster_table_size();
    s.table_bytes += agent.table_bytes();
  }
  s.table_bytes += registry().bytes();
  return s;
}

void RlsmpService::sample_region_stats(
    const RegionTelemetry& regions, std::vector<std::uint64_t>& table_records,
    std::vector<std::uint64_t>& queue_depth) const {
  // All RLSMP state is vehicle-held (cell + cluster tables); there is no
  // fixed serving tier, so queue depth stays zero. Region ids come off the
  // registry's SoA rows, which mirror `regions`' own region_of.
  (void)regions;
  (void)queue_depth;
  for (std::size_t i = 0; i < vehicle_agents_.size(); ++i) {
    const int r = registry().vehicle_region(VehicleId{i});
    table_records[static_cast<std::size_t>(r)] +=
        vehicle_agents_[i].cell_table_size() +
        vehicle_agents_[i].cluster_table_size();
  }
}

void RlsmpService::on_moved(VehicleId v, Vec2 before, Vec2 after) {
  vehicle_agents_[v.index()].handle_moved(before, after);
}

}  // namespace hlsrg
