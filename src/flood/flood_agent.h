// Per-vehicle behaviour of the flooding baseline: distance-triggered
// network-wide location floods, an everyone-knows-everyone cache, and
// cache-probe / reactive-flood queries.
#pragma once

#include "flood/flood_messages.h"
#include "net/node_registry.h"
#include "sim/event_queue.h"
#include "sim/expiring_table.h"
#include "util/flat_table.h"

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

  FloodService* svc_;
  VehicleId vehicle_;
  NodeId node_;
  double distance_since_flood_;
  ExpiringTable<CacheEntry> cache_;

  struct Pending {
    VehicleId target;
    EventHandle timeout;
  };
  // Flat agent-local bookkeeping (a handful of live entries per vehicle;
  // DESIGN.md §15).
  SmallFlatMap<QueryTracker::QueryId, Pending> pending_;
  SortedIdSet<QueryTracker::QueryId> answered_;
};

}  // namespace hlsrg
