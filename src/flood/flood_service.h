// Flooding-based location service — the first category in the paper's
// related-work taxonomy ("each node broadcasts its location information
// packet to the network... very wasteful in terms of the networks total
// bandwidth", citing DREAM).
//
// Implemented faithfully to the category: vehicles flood distance-triggered
// location packets over the whole map; every vehicle caches every record;
// queries answer from the local cache and confirm with a GPSR probe + ACK,
// falling back to a network-wide reactive query flood on a cache miss (the
// LAR-style reactive variant, the taxonomy's other flavor). It exists to
// quantify the overhead blow-up the paper argues motivates rendezvous-based
// designs like HLSRG.
#pragma once

#include <memory>
#include <vector>

#include "core/location_service.h"
#include "flood/flood_config.h"
#include "geom/aabb.h"
#include "mobility/mobility_model.h"
#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/radio.h"
#include "sim/simulator.h"

namespace hlsrg {

class FloodVehicleAgent;

class FloodService final : public LocationService, public MovementListener {
 public:
  FloodService(Simulator& sim, MobilityModel& mobility, NodeRegistry& registry,
               RadioMedium& medium, GpsrRouter& gpsr, GeocastService& geocast,
               Aabb map_bounds, FloodConfig cfg);
  ~FloodService() override;

  // --- LocationService ------------------------------------------------------
  [[nodiscard]] const char* name() const override { return "FLOOD"; }
  [[nodiscard]] ServiceStats service_stats() const override;
  void sample_region_stats(const RegionTelemetry& regions,
                           std::vector<std::uint64_t>& table_records,
                           std::vector<std::uint64_t>& queue_depth)
      const override;

  // --- MovementListener -----------------------------------------------------
  void on_moved(VehicleId v, Vec2 before, Vec2 after) override;

  // --- FLOOD context shared with agents (the fleet base has the rest) ----
  [[nodiscard]] const FloodConfig& cfg() const { return cfg_; }
  [[nodiscard]] const Aabb& map_bounds() const { return map_bounds_; }
  // Out-of-line: the agents are stored by value and indexing the vector
  // needs the complete (forward-declared) type.
  [[nodiscard]] FloodVehicleAgent& vehicle_agent(VehicleId v);

 private:
  void start_query(QueryTracker::QueryId qid, VehicleId src,
                   VehicleId dst) override;

  Aabb map_bounds_;
  FloodConfig cfg_;

  // By value, reserved to the exact count by register_fleet (agents capture
  // `this` in scheduled timers; the vector must never reallocate).
  std::vector<FloodVehicleAgent> vehicle_agents_;
};

}  // namespace hlsrg
