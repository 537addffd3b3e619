#include "core/location_service.h"

#include <algorithm>

#include "net/gpsr.h"
#include "util/check.h"

namespace hlsrg {

QueryTracker::QueryId QueryTracker::issue(VehicleId src, VehicleId dst) {
  sim_->metrics().queries_issued++;
  const auto id = static_cast<QueryId>(records_.size());
  Record& r = records_.emplace_back();
  r.src = src;
  r.dst = dst;
  r.issued = sim_->now();
  // Root of the query's span tree; every leg recorded until the query
  // settles hangs under it (directly or via propagated context).
  r.span = sim_->begin_span(SpanKind::kQuery, src.value(), dst.value(),
                            Vec2{}, id);
  std::uint64_t& peak = sim_->metrics().peak_outstanding;
  peak = std::max<std::uint64_t>(peak, records_.size() - settled_count_);
  return id;
}

bool QueryTracker::settle(QueryId id, bool success) {
  HLSRG_CHECK(id < records_.size());
  Record& r = records_[id];
  if (r.settled) return false;
  if (r.timer.valid()) {
    sim_->cancel(r.timer);
    r.timer = EventHandle{};
  }
  r.settled = true;
  ++settled_count_;
  r.success = success;
  r.completed = sim_->now();
  if (TraceLog* trace = sim_->trace()) {
    trace->end_open_spans_for_query(
        id, sim_->now(), success ? SpanStatus::kOk : SpanStatus::kFailed);
  }
  return true;
}

void QueryTracker::succeed(QueryId id) {
  if (!settle(id, true)) return;
  sim_->metrics().queries_succeeded++;
  const Record& r = records_[id];
  sim_->metrics().query_latency.add(r.completed - r.issued);
}

void QueryTracker::fail(QueryId id) {
  if (settle(id, false)) sim_->metrics().queries_failed++;
}

bool QueryTracker::armed(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].timer.valid();
}

int QueryTracker::attempt(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].attempt;
}

bool QueryTracker::answer(QueryId id) {
  HLSRG_CHECK(id < records_.size());
  const bool first = !records_[id].answered;
  records_[id].answered = true;
  return first;
}

bool QueryTracker::settled(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].settled;
}

bool QueryTracker::succeeded(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].success;
}

SimTime QueryTracker::latency(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  const Record& r = records_[id];
  return r.success ? r.completed - r.issued : SimTime{};
}

std::size_t QueryTracker::outstanding() const {
  return records_.size() - settled_count_;
}

VehicleId QueryTracker::source_of(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].src;
}

VehicleId QueryTracker::target_of(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].dst;
}

SimTime QueryTracker::issued_at(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].issued;
}

SimTime QueryTracker::completed_at(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].completed;
}

SpanId QueryTracker::span_of(QueryId id) const {
  HLSRG_CHECK(id < records_.size());
  return records_[id].span;
}

LocationService::LocationService(Simulator& sim, MobilityModel& mobility,
                                 NodeRegistry& registry, RadioMedium& medium,
                                 GpsrRouter& gpsr, GeocastService& geocast,
                                 PacketKind query_kind, PacketKind ack_kind)
    : sim_(&sim),
      mobility_(&mobility),
      registry_(&registry),
      medium_(&medium),
      gpsr_(&gpsr),
      geocast_(&geocast),
      query_kind_(query_kind),
      ack_kind_(ack_kind),
      tracker_(sim) {}

QueryTracker::QueryId LocationService::issue_query(VehicleId src,
                                                   VehicleId dst) {
  HLSRG_CHECK(src.index() < vehicle_nodes_.size());
  HLSRG_CHECK(dst.index() < vehicle_nodes_.size());
  const QueryTracker::QueryId qid = tracker_.issue(src, dst);
  // Everything the source agent does now nests under the query's root span.
  SpanScope scope(*sim_, tracker_.span_of(qid));
  start_query(qid, src, dst);
  return qid;
}

Packet LocationService::make_packet(
    PacketKind kind, NodeId origin,
    std::shared_ptr<const PayloadBase> payload) {
  Packet p;
  p.id = packet_ids_.next();
  p.kind = kind;
  p.origin = origin;
  p.origin_pos = registry_->position(origin);
  p.created = sim_->now();
  p.payload = std::move(payload);
  return p;
}

void LocationService::send_ack(VehicleId dv, QueryTracker::QueryId qid,
                               Vec2 src_pos) {
  if (!tracker_.answer(qid)) return;
  auto ack = std::make_shared<AckPayload>();
  ack->query_id = qid;
  const NodeId node = node_of(dv);
  const Packet pkt = make_packet(ack_kind_, node, ack);
  metrics().query_packets_originated++;
  metrics().acks_sent++;
  // The ACK leg stays open until the query settles (the tracker closes it);
  // nest it under the propagated context when one survived the delivery,
  // else directly under the query root (geocast floods deliver without
  // span context).
  const VehicleId src = tracker_.source_of(qid);
  SpanScope anchor(*sim_, sim_->active_span() != kNoSpan
                              ? sim_->active_span()
                              : tracker_.span_of(qid));
  const SpanId ack_span = sim_->begin_span(
      SpanKind::kAckLeg, dv.value(), src.value(), vehicle_pos(dv), qid);
  SpanScope scope(*sim_, ack_span);
  gpsr_->send(node, src_pos, node_of(src), pkt,
              &metrics().query_transmissions);
}

void LocationService::receive_ack(const Packet& ack, VehicleId at) {
  const auto& a = payload_as<AckPayload>(ack);
  if (tracker_.source_of(a.query_id) == at) tracker_.succeed(a.query_id);
}

}  // namespace hlsrg
