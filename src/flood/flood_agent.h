// Per-vehicle behaviour of the flooding baseline: distance-triggered
// network-wide location floods, an everyone-knows-everyone cache, and
// cache-probe / reactive-flood queries.
#pragma once

#include "flood/flood_messages.h"
#include "net/node_registry.h"
#include "sim/expiring_table.h"

namespace hlsrg {

class FloodService;

class FloodVehicleAgent final : public PacketSink {
 public:
  FloodVehicleAgent(FloodService& service, VehicleId vehicle, NodeId node);

  void on_receive(const Packet& packet, NodeId from) override;

  // Mobility hook: accumulates driven distance and floods when due.
  void handle_moved(Vec2 before, Vec2 after);

  void start_query(QueryTracker::QueryId qid, VehicleId target);

  [[nodiscard]] std::size_t cache_size() const { return cache_.size(); }
  [[nodiscard]] std::size_t cache_bytes() const { return cache_.bytes(); }

 private:
  struct CacheEntry {
    VehicleId vehicle;
    Vec2 pos;
    SimTime time;
  };

  void flood_own_location();
  // The probe both attempts send (counted as an originated query packet).
  [[nodiscard]] std::shared_ptr<FloodProbePayload> make_probe(
      QueryTracker::QueryId qid, VehicleId target);
  // After a failed first attempt: one network-wide reactive flood, then the
  // last timer.
  void reactive_retry(QueryTracker::QueryId qid);

  FloodService* svc_;
  VehicleId vehicle_;
  NodeId node_;
  double distance_since_flood_;
  ExpiringTable<CacheEntry> cache_;
};

}  // namespace hlsrg
