// HLSRG protocol service: wires vehicle agents, RSU agents, and the update /
// collection / query machinery over the substrates (paper chapter 2 end to
// end). One HlsrgService instance runs one protocol world.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/hlsrg_config.h"
#include "core/location_service.h"
#include "core/messages.h"
#include "core/update_rules.h"
#include "grid/hierarchy.h"
#include "infra/rsu_grid.h"
#include "mobility/mobility_model.h"
#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/radio.h"
#include "net/wired.h"
#include "service/service_config.h"
#include "sim/simulator.h"

namespace hlsrg {

class HlsrgVehicleAgent;
class HlsrgRsuAgent;
class ChurnManager;

class HlsrgService final : public LocationService, public MovementListener {
 public:
  // `rsus` may be null (A2 ablation: vehicle-only collection); cfg.use_rsus
  // must then be false. The service registers one radio node per vehicle,
  // installs itself as a mobility listener, installs RSU sinks, and starts
  // the RSU timers.
  HlsrgService(Simulator& sim, const RoadNetwork& net,
               const GridHierarchy& hierarchy, MobilityModel& mobility,
               NodeRegistry& registry, RadioMedium& medium, GpsrRouter& gpsr,
               GeocastService& geocast, WiredNetwork& wired,
               const RsuGrid* rsus, HlsrgConfig cfg);
  ~HlsrgService() override;

  // --- LocationService ------------------------------------------------------
  [[nodiscard]] const char* name() const override { return "HLSRG"; }
  [[nodiscard]] ServiceStats service_stats() const override;
  void sample_region_stats(const RegionTelemetry& regions,
                           std::vector<std::uint64_t>& table_records,
                           std::vector<std::uint64_t>& queue_depth)
      const override;
  void configure_tier(const ServiceTierConfig& cfg) override;
  void on_overload(bool overloaded) override { overloaded_ = overloaded; }
  std::optional<QueryTracker::QueryId> serve_cached(VehicleId src,
                                                    VehicleId dst) override;

  // --- MovementListener -----------------------------------------------------
  void on_intersection_pass(VehicleId v, IntersectionId node, SegmentId in_seg,
                            SegmentId out_seg) override;
  void on_moved(VehicleId v, Vec2 before, Vec2 after) override;
  // Parking lifecycle (forwarded to the ChurnManager when hosting is on).
  void on_parked(VehicleId v) override;
  void on_departed(VehicleId v, bool abrupt) override;

  // --- HLSRG context shared with agents (the fleet base has the rest) ----
  [[nodiscard]] const HlsrgConfig& cfg() const { return cfg_; }
  [[nodiscard]] const RoadNetwork& network() const { return *net_; }
  [[nodiscard]] const GridHierarchy& hierarchy() const { return *hierarchy_; }
  [[nodiscard]] WiredNetwork& wired() { return *wired_; }
  [[nodiscard]] const RsuGrid* rsus() const { return rsus_; }
  // Heavy-traffic tier knobs (default-constructed = tier off) and the
  // current admission-control regime; RSU/vehicle agents consult both.
  [[nodiscard]] const ServiceTierConfig& tier() const { return tier_; }
  [[nodiscard]] bool overloaded() const { return overloaded_; }

  // Acts as Dv's location server for `query` using the stored record: sends
  // the notification by directional road geocast (artery records; routed to
  // the recorded position first) or by flooding the record's L1 grid
  // (normal-road records). Shared by grid-center vehicles and L2 RSUs — the
  // paper lets either act as the location server.
  void send_notification(NodeId origin, const L1Record& target_record,
                         const QueryPayload& query);

  // --- fault layer hooks ------------------------------------------------------
  // Crash/reboot an RSU agent (FaultInjector callback). No-op without RSUs.
  void set_rsu_up(RsuId id, bool up);
  // GPS error model: every position written into a protocol record passes
  // through this transform (identity when unset). Installed by the fault
  // layer for gps_noise windows; the map-matched L1 grid/road fields stay
  // topology-derived and are NOT perturbed.
  void set_gps_transform(std::function<Vec2(Vec2)> transform) {
    gps_transform_ = std::move(transform);
  }
  [[nodiscard]] Vec2 observed_pos(Vec2 p) const {
    return gps_transform_ ? gps_transform_(p) : p;
  }

  // Test/diagnostic access. Out-of-line: the agents are stored by value and
  // indexing the vectors needs their complete types (forward-declared here).
  [[nodiscard]] const HlsrgVehicleAgent& vehicle_agent(VehicleId v) const;
  [[nodiscard]] HlsrgVehicleAgent& vehicle_agent(VehicleId v);
  [[nodiscard]] const UpdateRuleEngine& rules() const { return rules_; }
  [[nodiscard]] const std::vector<HlsrgRsuAgent>& rsu_agents() const {
    return rsu_agents_;
  }
  // Direct agent access for the churn layer (host installs cycle set_up).
  [[nodiscard]] HlsrgRsuAgent& rsu_agent(RsuId id);
  // Non-null iff cfg().parked_rsu_hosting (and RSUs exist).
  [[nodiscard]] ChurnManager* churn() { return churn_.get(); }
  [[nodiscard]] const ChurnManager* churn() const { return churn_.get(); }

 private:
  void start_query(QueryTracker::QueryId qid, VehicleId src,
                   VehicleId dst) override;

  const RoadNetwork* net_;
  const GridHierarchy* hierarchy_;
  WiredNetwork* wired_;
  const RsuGrid* rsus_;
  HlsrgConfig cfg_;
  ServiceTierConfig tier_;
  bool overloaded_ = false;
  UpdateRuleEngine rules_;

  // Agents stored by value: one contiguous block instead of a pointer array
  // plus one heap node per agent. The constructor reserves the exact counts
  // up front and the vectors never grow after that, so the `this` pointers
  // the agents capture in their scheduled timers stay valid for the run.
  std::vector<HlsrgVehicleAgent> vehicle_agents_;
  std::vector<HlsrgRsuAgent> rsu_agents_;
  std::unique_ptr<ChurnManager> churn_;
  std::function<Vec2(Vec2)> gps_transform_;
};

}  // namespace hlsrg
