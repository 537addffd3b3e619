// Protocol-agnostic location-service contract, the shared vehicle fleet, and
// query bookkeeping.
//
// HLSRG, the RLSMP baseline and the FLOOD baseline all derive from
// LocationService, so scenario code, the workload driver, and the metric
// pipeline are shared; a benchmark compares protocols by running the same
// (map, mobility, seed, workload) world twice with a different service
// plugged in. The base also owns what the three protocols do identically:
// the substrate references, one radio node per vehicle, packet stamping,
// query issuance and the source-side handshake (ACK timer, Dv's ACK back to
// the source, settlement) through the QueryTracker.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "mobility/mobility_model.h"
#include "net/node_registry.h"
#include "net/packet.h"
#include "sim/simulator.h"
#include "util/check.h"
#include "util/tagged_id.h"

namespace hlsrg {

class GeocastService;
class GpsrRouter;
class QueryAdmission;
class RadioMedium;
struct ServiceTierConfig;

// Owns every query's lifecycle: issue, the armed ACK timer and its attempt
// number, the Dv-side "answered" bit, and settlement into RunMetrics exactly
// once.
class QueryTracker {
 public:
  explicit QueryTracker(Simulator& sim) : sim_(&sim) {}

  using QueryId = std::uint32_t;

  // Registers a query issued now; counts into metrics.queries_issued.
  QueryId issue(VehicleId src, VehicleId dst);

  // Marks success (idempotent; late duplicate ACKs are ignored). Records the
  // latency from issue to now in metrics.query_latency and cancels the armed
  // ACK timer.
  void succeed(QueryId id);

  // Marks failure (idempotent; a success beats a later failure and vice
  // versa — first settle wins). Cancels the armed ACK timer.
  void fail(QueryId id);

  // Arms the query's ACK timer for `attempt`: `on_timeout` runs after
  // `timeout` unless the query settles first. The fired timer is disarmed
  // before `on_timeout` runs, so the callback may re-arm the next attempt.
  // One timer per query: arming over an armed timer is a bug.
  template <typename F>
  void arm(QueryId id, int attempt, SimTime timeout, F on_timeout) {
    HLSRG_CHECK(id < records_.size());
    Record& r = records_[id];
    HLSRG_CHECK(!r.settled && !r.timer.valid());
    r.attempt = attempt;
    r.timer = sim_->schedule_after(
        timeout, [this, id, fn = std::move(on_timeout)]() mutable {
          records_[id].timer = EventHandle{};
          fn();
        });
  }

  // True while the query's ACK timer is armed. Between any two events every
  // unsettled query has one — the invariant the AvailabilityAuditor checks.
  [[nodiscard]] bool armed(QueryId id) const;
  // Attempt number of the last armed timer; 0 before the first.
  [[nodiscard]] int attempt(QueryId id) const;

  // Dv side: true the first time the target answers this query, false for
  // duplicate notifications (geocast floods deliver several copies).
  bool answer(QueryId id);

  // Number of queries ever issued; ids are dense in [0, count()).
  [[nodiscard]] std::size_t count() const { return records_.size(); }

  [[nodiscard]] bool settled(QueryId id) const;
  // True iff the query settled successfully.
  [[nodiscard]] bool succeeded(QueryId id) const;
  // Latency from issue to success; zero for unsettled or failed queries.
  [[nodiscard]] SimTime latency(QueryId id) const;
  [[nodiscard]] std::size_t outstanding() const;
  [[nodiscard]] VehicleId source_of(QueryId id) const;
  [[nodiscard]] VehicleId target_of(QueryId id) const;
  [[nodiscard]] SimTime issued_at(QueryId id) const;
  // Settle time; zero for unsettled queries.
  [[nodiscard]] SimTime completed_at(QueryId id) const;
  // The query's root span (kNoSpan when tracing is off); protocol timers use
  // this to re-anchor async continuations via SpanScope.
  [[nodiscard]] SpanId span_of(QueryId id) const;

 private:
  struct Record {
    VehicleId src;
    VehicleId dst;
    SimTime issued;
    SimTime completed;
    bool settled = false;
    bool success = false;
    bool answered = false;
    int attempt = 0;
    EventHandle timer;
    SpanId span = kNoSpan;
  };
  // Cancels the armed timer and records the outcome; false if already
  // settled.
  bool settle(QueryId id, bool success);

  Simulator* sim_;
  std::vector<Record> records_;
  // outstanding() is on the admission hot path (every submit under load), so
  // settles are counted as they happen instead of rescanning records_.
  std::size_t settled_count_ = 0;
};

// The Dv -> Sv answer of every protocol's handshake. Protocols send it
// under their own ACK PacketKind (the ledger keys on the kind).
struct AckPayload final : PayloadBase {
  QueryTracker::QueryId query_id = 0;
};

// End-of-run protocol-state footprint of a LocationService. Service-tier
// counters (cache, batching, shedding) are not repeated here: RunMetrics
// owns them.
struct ServiceStats {
  // Location-table entries currently held across the protocol's servers
  // (vehicles + RSUs); 0 for protocols that keep no tables.
  std::size_t table_records = 0;
  // Heap bytes behind those tables plus the node registry's SoA arrays —
  // the protocol-state footprint (container capacities, not malloc
  // overhead). Feeds the bytes-per-vehicle memory gate in the bench
  // pipeline; process peak RSS is tracked separately by the runner.
  std::size_t table_bytes = 0;
};

// The public face of a location service protocol and the fleet base its
// agents reach the substrates through.
class LocationService {
 public:
  virtual ~LocationService() = default;
  LocationService(const LocationService&) = delete;
  LocationService& operator=(const LocationService&) = delete;

  // Protocol name for reports ("HLSRG", "RLSMP", "FLOOD").
  [[nodiscard]] virtual const char* name() const = 0;

  // Issues a location query: `src` wants the position of `dst`. Asynchronous;
  // the outcome lands in the simulator metrics via the tracker. Returns the
  // query id for per-query inspection via tracker().
  QueryTracker::QueryId issue_query(VehicleId src, VehicleId dst);

  [[nodiscard]] QueryTracker& tracker() { return tracker_; }
  [[nodiscard]] const QueryTracker& tracker() const { return tracker_; }

  // Table occupancy and footprint; the default reports an empty service.
  [[nodiscard]] virtual ServiceStats service_stats() const { return {}; }

  // Per-region gauge sampling for the World's periodic sampler: adds this
  // service's table records and pending-work depth into the per-region rows
  // (both pre-sized to regions.region_count()). Protocols without tables
  // keep the default no-op.
  virtual void sample_region_stats(
      const RegionTelemetry& regions,
      std::vector<std::uint64_t>& table_records,
      std::vector<std::uint64_t>& queue_depth) const {
    (void)regions;
    (void)table_records;
    (void)queue_depth;
  }

  // Wire discriminator of this protocol's query-request packet; admission
  // control books shed queries under it in the PacketLedger.
  [[nodiscard]] PacketKind query_kind() const { return query_kind_; }

  // ---- service-tier hooks (no-op defaults) -------------------------------
  // Applies heavy-traffic tier knobs (batching window, cache TTL, overload
  // response). Protocols without a serving tier ignore it.
  virtual void configure_tier(const ServiceTierConfig& cfg) { (void)cfg; }

  // Admission control edge transition: entered (true) or left (false) the
  // overloaded regime. Protocols may shed secondary radio work while set.
  virtual void on_overload(bool overloaded) { (void)overloaded; }

  // Fast path consulted by admission before the full protocol machinery:
  // serve `src`'s query for `dst` from a warm service-tier cache if one
  // holds a fresh record. Must issue and (eventually) settle a tracked
  // query when it returns an id; nullopt = no cached answer, run the full
  // path.
  virtual std::optional<QueryTracker::QueryId> serve_cached(VehicleId src,
                                                            VehicleId dst) {
    (void)src;
    (void)dst;
    return std::nullopt;
  }

  // The admission seam this service's retry path should consult; null until
  // the harness installs one (tests that drive issue_query directly never
  // need it).
  void set_admission(QueryAdmission* admission) { admission_ = admission; }
  [[nodiscard]] QueryAdmission* admission() const { return admission_; }

  // ---- fleet context shared with agents ----------------------------------
  [[nodiscard]] Simulator& sim() { return *sim_; }
  [[nodiscard]] RunMetrics& metrics() { return sim_->metrics(); }
  [[nodiscard]] MobilityModel& mobility() { return *mobility_; }
  [[nodiscard]] NodeRegistry& registry() { return *registry_; }
  [[nodiscard]] const NodeRegistry& registry() const { return *registry_; }
  [[nodiscard]] RadioMedium& medium() { return *medium_; }
  [[nodiscard]] GpsrRouter& gpsr() { return *gpsr_; }
  [[nodiscard]] GeocastService& geocast() { return *geocast_; }
  [[nodiscard]] NodeId node_of(VehicleId v) const {
    return vehicle_nodes_[v.index()];
  }
  [[nodiscard]] Vec2 vehicle_pos(VehicleId v) const {
    return mobility_->position(v);
  }

  // Builds a packet stamped with origin/time.
  [[nodiscard]] Packet make_packet(PacketKind kind, NodeId origin,
                                   std::shared_ptr<const PayloadBase> payload);

  // Dv side of the handshake: the query's target `dv` answers a notification
  // (or probe) with an ACK routed by GPSR straight to the source, addressed
  // at `src_pos` (the source's position when it asked). Duplicate
  // notifications of an answered query send nothing.
  void send_ack(VehicleId dv, QueryTracker::QueryId qid, Vec2 src_pos);

  // Sv side: an ACK delivered to vehicle `at` settles its query only when
  // `at` is the query's source.
  void receive_ack(const Packet& ack, VehicleId at);

 protected:
  LocationService(Simulator& sim, MobilityModel& mobility,
                  NodeRegistry& registry, RadioMedium& medium, GpsrRouter& gpsr,
                  GeocastService& geocast, PacketKind query_kind,
                  PacketKind ack_kind);

  // Gives every vehicle its radio node and agent, in vehicle order: register
  // the node, bind it, seed the parked flag, construct the agent, install it
  // as the node's sink. `agents` is reserved to the exact count first, so
  // each agent's address — which its timers capture — is final.
  template <typename Service, typename Agent>
  void register_fleet(Service& service, std::vector<Agent>& agents) {
    const std::size_t n = mobility_->vehicle_count();
    vehicle_nodes_.reserve(n);
    agents.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      const VehicleId v{i};
      const NodeId node = registry_->add_node(mobility_->position(v));
      registry_->bind_vehicle(v, node);
      registry_->set_vehicle_parked(v, mobility_->parked(v));
      vehicle_nodes_.push_back(node);
      agents.emplace_back(service, v, node);
      registry_->set_sink(node, &agents.back());
    }
  }

 private:
  // Protocol hook: `src`'s agent starts the first attempt of query `qid`,
  // nested under the query's root span, and arms its ACK timer.
  virtual void start_query(QueryTracker::QueryId qid, VehicleId src,
                           VehicleId dst) = 0;

  Simulator* sim_;
  MobilityModel* mobility_;
  NodeRegistry* registry_;
  RadioMedium* medium_;
  GpsrRouter* gpsr_;
  GeocastService* geocast_;
  PacketKind query_kind_;
  PacketKind ack_kind_;
  QueryTracker tracker_;
  PacketIdSource packet_ids_;
  std::vector<NodeId> vehicle_nodes_;
  QueryAdmission* admission_ = nullptr;
};

}  // namespace hlsrg
