// RLSMP service: the comparison baseline, wired over the same substrates as
// HLSRG (same map, mobility, radio, GPSR, geocast) minus the RSU plane —
// RLSMP is infrastructure-free by design.
#pragma once

#include <memory>
#include <vector>

#include "core/location_service.h"
#include "mobility/mobility_model.h"
#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/radio.h"
#include "rlsmp/cell_grid.h"
#include "rlsmp/rlsmp_config.h"
#include "sim/simulator.h"

namespace hlsrg {

class RlsmpVehicleAgent;

class RlsmpService final : public LocationService, public MovementListener {
 public:
  RlsmpService(Simulator& sim, MobilityModel& mobility, NodeRegistry& registry,
               RadioMedium& medium, GpsrRouter& gpsr, GeocastService& geocast,
               const CellGrid& cells, RlsmpConfig cfg);
  ~RlsmpService() override;

  // --- LocationService ------------------------------------------------------
  [[nodiscard]] const char* name() const override { return "RLSMP"; }
  [[nodiscard]] ServiceStats service_stats() const override;
  void sample_region_stats(const RegionTelemetry& regions,
                           std::vector<std::uint64_t>& table_records,
                           std::vector<std::uint64_t>& queue_depth)
      const override;

  // --- MovementListener -----------------------------------------------------
  void on_moved(VehicleId v, Vec2 before, Vec2 after) override;

  // --- RLSMP context shared with agents (the fleet base has the rest) ----
  [[nodiscard]] const RlsmpConfig& cfg() const { return cfg_; }
  [[nodiscard]] const CellGrid& cells() const { return *cells_; }

  // Out-of-line: the agents are stored by value and indexing the vector
  // needs the complete (forward-declared) type.
  [[nodiscard]] RlsmpVehicleAgent& vehicle_agent(VehicleId v);

 private:
  void start_query(QueryTracker::QueryId qid, VehicleId src,
                   VehicleId dst) override;
  void aggregation_tick(std::int64_t period_index);

  const CellGrid* cells_;
  RlsmpConfig cfg_;

  // By value, reserved to the exact count by register_fleet (agents capture
  // `this` in scheduled timers; the vector must never reallocate).
  std::vector<RlsmpVehicleAgent> vehicle_agents_;
};

}  // namespace hlsrg
