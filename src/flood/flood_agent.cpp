#include "flood/flood_agent.h"

#include <algorithm>

#include "flood/flood_service.h"
#include "util/check.h"

namespace hlsrg {

FloodVehicleAgent::FloodVehicleAgent(FloodService& service, VehicleId vehicle,
                                     NodeId node)
    : svc_(&service), vehicle_(vehicle), node_(node) {
  // Stagger initial floods across the first update interval so ignition does
  // not synchronize the whole fleet.
  distance_since_flood_ =
      svc_->sim().protocol_rng().uniform(0.0, svc_->cfg().update_distance_m);
}

void FloodVehicleAgent::handle_moved(Vec2 before, Vec2 after) {
  distance_since_flood_ += distance(before, after);
  if (distance_since_flood_ >= svc_->cfg().update_distance_m) {
    distance_since_flood_ = 0.0;
    flood_own_location();
  }
}

void FloodVehicleAgent::flood_own_location() {
  auto payload = std::make_shared<FloodUpdatePayload>();
  payload->vehicle = vehicle_;
  payload->pos = svc_->vehicle_pos(vehicle_);
  payload->time = svc_->sim().now();
  svc_->metrics().update_packets_originated++;
  svc_->sim().count_region_update(payload->pos);
  svc_->geocast().flood(
      node_, svc_->make_packet(PacketKind::kFloodUpdate, node_, payload),
      GeocastRegion::from_box(svc_->map_bounds(), /*margin=*/100.0),
      &svc_->metrics().update_transmissions);
  svc_->sim().instant_span(SpanKind::kUpdate, SpanStatus::kOk,
                           vehicle_.value(), kNoQuery, payload->pos, kNoQuery,
                           -1, "distance");
}

void FloodVehicleAgent::on_receive(const Packet& packet, NodeId /*from*/) {
  switch (packet.kind) {
    case PacketKind::kFloodUpdate: {
      const auto& u = payload_as<FloodUpdatePayload>(packet);
      if (u.vehicle == vehicle_) return;
      cache_.record(CacheEntry{u.vehicle, u.pos, u.time});
      return;
    }
    case PacketKind::kFloodProbe:
    case PacketKind::kFloodQuery: {
      const auto& p = payload_as<FloodProbePayload>(packet);
      if (p.target != vehicle_) return;
      svc_->send_ack(vehicle_, p.query_id, p.src_pos);
      return;
    }
    case PacketKind::kFloodAck:
      svc_->receive_ack(packet, vehicle_);
      return;
    default:
      return;
  }
}

void FloodVehicleAgent::start_query(QueryTracker::QueryId qid,
                                    VehicleId target) {
  cache_.purge(svc_->sim().now(), svc_->cfg().cache_expiry);
  const auto probe = make_probe(qid, target);

  if (const CacheEntry* hit = cache_.find(target)) {
    svc_->sim().count_region_served(probe->src_pos);
    // Proactive path (DREAM's "expected zone"): flood a disk-shaped region
    // around the cached position, sized by how far the target could have
    // driven since the record was made.
    svc_->metrics().server_lookup_hits++;
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kOk,
                             vehicle_.value(), target.value(), probe->src_pos,
                             qid, -1, "cache");
    const double age_sec = (svc_->sim().now() - hit->time).sec();
    constexpr double kMaxSpeedMps = 60.0 / 3.6;
    const double drift =
        std::clamp(100.0 + age_sec * kMaxSpeedMps, 100.0, 900.0);
    const Aabb zone{{hit->pos.x - drift, hit->pos.y - drift},
                    {hit->pos.x + drift, hit->pos.y + drift}};
    svc_->geocast().flood(node_, svc_->make_packet(PacketKind::kFloodProbe, node_, probe),
                          GeocastRegion::from_box(zone),
                          &svc_->metrics().query_transmissions);
  } else {
    // Reactive path: flood the question (LAR-style).
    svc_->metrics().server_lookup_misses++;
    svc_->sim().instant_span(SpanKind::kTableLookup, SpanStatus::kFailed,
                             vehicle_.value(), target.value(), probe->src_pos,
                             qid, -1, "cache");
    svc_->geocast().flood(
        node_, svc_->make_packet(PacketKind::kFloodQuery, node_, probe),
        GeocastRegion::from_box(svc_->map_bounds(), /*margin=*/100.0),
        &svc_->metrics().query_transmissions);
  }

  svc_->tracker().arm(qid, 1, svc_->cfg().ack_timeout,
                      [this, qid] { reactive_retry(qid); });
}

void FloodVehicleAgent::reactive_retry(QueryTracker::QueryId qid) {
  svc_->geocast().flood(
      node_,
      svc_->make_packet(PacketKind::kFloodQuery, node_,
                        make_probe(qid, svc_->tracker().target_of(qid))),
      GeocastRegion::from_box(svc_->map_bounds(), /*margin=*/100.0),
      &svc_->metrics().query_transmissions);
  svc_->tracker().arm(qid, 2, svc_->cfg().ack_timeout,
                      [this, qid] { svc_->tracker().fail(qid); });
}

std::shared_ptr<FloodProbePayload> FloodVehicleAgent::make_probe(
    QueryTracker::QueryId qid, VehicleId target) {
  auto probe = std::make_shared<FloodProbePayload>();
  probe->query_id = qid;
  probe->src_pos = svc_->vehicle_pos(vehicle_);
  probe->target = target;
  svc_->metrics().query_packets_originated++;
  return probe;
}

}  // namespace hlsrg
