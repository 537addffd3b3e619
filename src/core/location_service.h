// Protocol-agnostic location-service contract and query bookkeeping.
//
// Both HLSRG and the RLSMP baseline implement LocationService, so scenario
// code, the workload driver, and the metric pipeline are shared; a benchmark
// compares protocols by running the same (map, mobility, seed, workload)
// world twice with a different service plugged in.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.h"
#include "sim/simulator.h"
#include "util/tagged_id.h"

namespace hlsrg {

class QueryAdmission;
struct ServiceTierConfig;

// Tracks outstanding queries and settles them into RunMetrics exactly once.
class QueryTracker {
 public:
  explicit QueryTracker(Simulator& sim) : sim_(&sim) {}

  using QueryId = std::uint32_t;

  // Registers a query issued now; counts into metrics.queries_issued.
  QueryId issue(VehicleId src, VehicleId dst);

  // Marks success (idempotent; late duplicate ACKs are ignored). Records the
  // latency from issue to now in metrics.query_latency.
  void succeed(QueryId id);

  // Marks failure (idempotent; a success beats a later failure and vice
  // versa — first settle wins).
  void fail(QueryId id);

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
    SpanId span = kNoSpan;
  };
  Simulator* sim_;
  std::vector<Record> records_;
  // outstanding() is on the admission hot path (every submit under load), so
  // settles are counted as they happen instead of rescanning records_.
  std::size_t settled_count_ = 0;
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

// The public face of a location service protocol.
class LocationService {
 public:
  virtual ~LocationService() = default;

  // Protocol name for reports ("HLSRG", "RLSMP").
  [[nodiscard]] virtual const char* name() const = 0;

  // Issues a location query: `src` wants the position of `dst`. Asynchronous;
  // the outcome lands in the simulator metrics via the protocol's tracker.
  // Returns the query id for per-query inspection via tracker().
  virtual QueryTracker::QueryId issue_query(VehicleId src, VehicleId dst) = 0;

  [[nodiscard]] virtual QueryTracker& tracker() = 0;

  // Table occupancy and footprint; the default reports an empty service.
  [[nodiscard]] virtual ServiceStats service_stats() const { return {}; }

  // Current position of a vehicle as the protocol sees it; region telemetry
  // attributes admission decisions (sheds) to the source's region with it.
  // The origin default only matters for bespoke test stubs with no mobility.
  [[nodiscard]] virtual Vec2 vehicle_position(VehicleId v) const {
    (void)v;
    return Vec2{};
  }

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
  [[nodiscard]] virtual PacketKind query_kind() const {
    return PacketKind::kNone;
  }

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

 private:
  QueryAdmission* admission_ = nullptr;
};

}  // namespace hlsrg
