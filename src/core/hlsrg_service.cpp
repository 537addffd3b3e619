#include "core/hlsrg_service.h"

#include "core/churn_manager.h"
#include "core/rsu_agent.h"
#include "core/vehicle_agent.h"
#include "util/check.h"

namespace hlsrg {

HlsrgService::HlsrgService(Simulator& sim, const RoadNetwork& net,
                           const GridHierarchy& hierarchy,
                           MobilityModel& mobility, NodeRegistry& registry,
                           RadioMedium& medium, GpsrRouter& gpsr,
                           GeocastService& geocast, WiredNetwork& wired,
                           const RsuGrid* rsus, HlsrgConfig cfg)
    : LocationService(sim, mobility, registry, medium, gpsr, geocast,
                      PacketKind::kQueryRequest, PacketKind::kAck),
      net_(&net),
      hierarchy_(&hierarchy),
      wired_(&wired),
      rsus_(rsus),
      cfg_(cfg),
      rules_(net, hierarchy, mobility.turn_policy(), cfg_) {
  HLSRG_CHECK_MSG(!cfg_.use_rsus || rsus_ != nullptr,
                  "use_rsus requires a deployed RsuGrid");

  // One radio node + agent per vehicle. The parked flag is seeded here: the
  // churn manager's initial staffing scan (below) already reads it.
  register_fleet(*this, vehicle_agents_);

  // RSU agents (sinks installed onto the infra-registered nodes).
  if (rsus_ != nullptr && cfg_.use_rsus) {
    rsu_agents_.reserve(rsus_->all().size());
    for (const RsuGrid::Rsu& r : rsus_->all()) {
      rsu_agents_.emplace_back(*this, r.id, r.level, r.coord, r.node);
      registry.set_sink(r.node, &rsu_agents_.back());
      rsu_agents_.back().start_timers();
    }
  }

  // Parked-cars-as-RSUs: the ChurnManager binds initial hosts (vacant roles
  // go dark) and reacts to the parking lifecycle. Constructed only when the
  // knob is on, so fixed-RSU runs carry no churn state at all.
  if (cfg_.parked_rsu_hosting) {
    HLSRG_CHECK_MSG(rsus_ != nullptr && cfg_.use_rsus,
                    "parked_rsu_hosting requires RSUs");
    churn_ = std::make_unique<ChurnManager>(*this);
  }

  mobility.add_listener(this);
}

HlsrgService::~HlsrgService() = default;

const HlsrgVehicleAgent& HlsrgService::vehicle_agent(VehicleId v) const {
  return vehicle_agents_[v.index()];
}

HlsrgVehicleAgent& HlsrgService::vehicle_agent(VehicleId v) {
  return vehicle_agents_[v.index()];
}

HlsrgRsuAgent& HlsrgService::rsu_agent(RsuId id) {
  return rsu_agents_[id.index()];
}

void HlsrgService::start_query(QueryTracker::QueryId qid, VehicleId src,
                               VehicleId dst) {
  vehicle_agents_[src.index()].start_query(qid, dst);
}

void HlsrgService::set_rsu_up(RsuId id, bool up) {
  if (id.index() >= rsu_agents_.size()) return;  // no RSUs (A2 ablation)
  if (churn_ != nullptr) {
    // The churn layer owns role liveness: reboots of vacant roles are
    // refused (there is no host to boot).
    churn_->set_rsu_up(id, up);
    return;
  }
  rsu_agents_[id.index()].set_up(up);
}

void HlsrgService::on_parked(VehicleId v) {
  if (churn_ != nullptr) churn_->on_parked(v);
}

void HlsrgService::on_departed(VehicleId v, bool abrupt) {
  if (churn_ != nullptr) churn_->on_departed(v, abrupt);
}

void HlsrgService::configure_tier(const ServiceTierConfig& cfg) {
  tier_ = cfg;
  for (auto& agent : rsu_agents_) agent.configure_tier(cfg);
}

std::optional<QueryTracker::QueryId> HlsrgService::serve_cached(
    VehicleId src, VehicleId dst) {
  if (!tier_.enabled || !tier_.caching || rsus_ == nullptr || !cfg_.use_rsus) {
    return std::nullopt;
  }
  // Only the source's home L2 RSU is worth a detour: the first attempt
  // already passes near it, so a warm cache there turns the whole hierarchy
  // walk into one radio round-trip.
  const Vec2 pos = vehicle_pos(src);
  const GridCoord l2 =
      GridHierarchy::parent(hierarchy_->l1_at(pos), GridLevel::kL2);
  const RsuId id = rsus_->rsu_at(l2, GridLevel::kL2);
  HlsrgRsuAgent& agent = rsu_agents_[id.index()];
  if (!agent.up() || !agent.cache_fresh(dst)) return std::nullopt;
  const QueryTracker::QueryId qid = tracker().issue(src, dst);
  SpanScope scope(sim(), tracker().span_of(qid));
  // Route the request straight at the warm RSU. Physics still applies — the
  // request rides GPSR and can be lost, and the retry path then walks the
  // normal hierarchy.
  vehicle_agents_[src.index()].start_query(qid, dst, rsus_->rsu(id).node);
  return qid;
}

ServiceStats HlsrgService::service_stats() const {
  ServiceStats s;
  for (const auto& agent : vehicle_agents_) {
    s.table_records += agent.table().size();
    s.table_bytes += agent.table().bytes();
  }
  for (const auto& agent : rsu_agents_) {
    s.table_records += agent.l2_table().size() + agent.l3_table().size() +
                       agent.full_table().size();
    s.table_bytes += agent.l2_table().bytes() + agent.l3_table().bytes() +
                     agent.full_table().bytes();
  }
  s.table_bytes += registry().bytes();
  return s;
}

void HlsrgService::sample_region_stats(
    const RegionTelemetry& regions, std::vector<std::uint64_t>& table_records,
    std::vector<std::uint64_t>& queue_depth) const {
  // Vehicle-held L1 tables land in the holder's current region (SoA row,
  // mirrors `regions`' region_of); RSU tables and the batching-window
  // backlog land in the RSU's (fixed) region.
  for (std::size_t i = 0; i < vehicle_agents_.size(); ++i) {
    const int r = registry().vehicle_region(VehicleId{i});
    table_records[static_cast<std::size_t>(r)] +=
        vehicle_agents_[i].table().size();
  }
  if (rsus_ == nullptr) return;
  for (const RsuGrid::Rsu& rsu : rsus_->all()) {
    const HlsrgRsuAgent& agent = rsu_agents_[rsu.id.index()];
    const auto r = static_cast<std::size_t>(regions.region_of(rsu.pos));
    table_records[r] += agent.l2_table().size() + agent.l3_table().size() +
                        agent.full_table().size();
    queue_depth[r] += agent.pending_batches();
  }
}

void HlsrgService::on_intersection_pass(VehicleId v, IntersectionId node,
                                        SegmentId in_seg, SegmentId out_seg) {
  vehicle_agents_[v.index()].handle_intersection_pass(node, in_seg, out_seg);
}

void HlsrgService::on_moved(VehicleId v, Vec2 before, Vec2 after) {
  vehicle_agents_[v.index()].handle_moved(before, after);
}

void HlsrgService::send_notification(NodeId origin,
                                     const L1Record& target_record,
                                     const QueryPayload& query) {
  auto note = std::make_shared<NotificationPayload>();
  note->query_id = query.query_id;
  note->target = query.target;
  note->src_pos = query.src_pos;
  const Packet pkt = make_packet(PacketKind::kNotification, origin, note);
  metrics().query_packets_originated++;
  metrics().notifications_sent++;
  // Open until the query settles (the notification has no ACK of its own);
  // the route/flood legs below nest under it.
  const SpanId note_span = sim().begin_span(
      SpanKind::kNotification, query.target.value(), query.src_vehicle.value(),
      target_record.pos, query.query_id, 1,
      target_record.on_artery ? "artery_corridor" : "l1_grid_flood");
  SpanScope scope(sim(), note_span);

  if (target_record.on_artery) {
    // Strategy (1): Dv updated from a main artery — geocast along the road
    // in the recorded direction. The recorded position can be far from the
    // server, so the notification is routed there first and the corridor
    // flood starts from whichever node is found nearby.
    const GeocastRegion region = GeocastRegion::corridor(
        target_record.pos, target_record.dir, cfg_.corridor_half_width_m,
        cfg_.search_ahead_m, cfg_.corridor_behind_m);
    gpsr().send(
        origin, target_record.pos, std::nullopt, pkt,
        &metrics().query_transmissions,
        /*deliver=*/
        [this, pkt, region](NodeId at) {
          geocast().flood(at, pkt, region, &metrics().query_transmissions);
        },
        /*fail=*/{}, /*delivery_radius=*/cfg_.center_radius_m * 2.0);
  } else {
    // Strategy (2): Dv updated from a normal road — "still driving within
    // this Level 1 grid"; flood the grid.
    const GeocastRegion region = GeocastRegion::from_box(
        hierarchy_->cell_box(target_record.l1, GridLevel::kL1),
        /*margin=*/cfg_.corridor_half_width_m);
    geocast().flood(origin, pkt, region, &metrics().query_transmissions);
  }
}

}  // namespace hlsrg
