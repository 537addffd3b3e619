// Named counters and latency accumulators for per-run metrics.
//
// Every protocol-relevant transmission increments a counter here; the bench
// harness reads RunMetrics after a run to produce the paper's figures.
// Counters are plain members (not a string-keyed map) so the hot path is an
// increment, and so the set of metrics is a compile-time-visible contract.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "sim/time.h"
#include "util/check.h"
#include "util/counter_fields.h"

namespace hlsrg {

// Per-packet-kind channel accounting for the conservation auditor. Every
// channel-level delivery decision is recorded at decision time: a broadcast
// offers the packet to each in-range receiver, a unicast to its target, a
// wired send to its destination; each offer settles immediately as either
// delivered (reception scheduled) or dropped (lost to the channel). The
// invariant `offered == delivered + dropped` therefore holds per kind at
// every instant — in-flight packets are counted as pending events by the
// event-queue conservation law instead. The kind key is the raw PacketKind
// value (sim cannot depend on net/packet.h); all kinds fit in one byte.
class PacketLedger {
 public:
  static constexpr std::size_t kSlots = 256;

  void add_offered(int kind) { ++offered_[slot(kind)]; }
  void add_delivered(int kind) { ++delivered_[slot(kind)]; }
  void add_dropped(int kind) { ++dropped_[slot(kind)]; }
  // Shed packets were refused by admission control *before* reaching a
  // channel, so they are deliberately outside the offered/delivered/dropped
  // law; the auditor reconciles them against the RunMetrics shed counters.
  void add_shed(int kind) { ++shed_[slot(kind)]; }

  [[nodiscard]] std::uint64_t offered(int kind) const {
    return offered_[slot(kind)];
  }
  [[nodiscard]] std::uint64_t delivered(int kind) const {
    return delivered_[slot(kind)];
  }
  [[nodiscard]] std::uint64_t dropped(int kind) const {
    return dropped_[slot(kind)];
  }
  [[nodiscard]] std::uint64_t shed(int kind) const { return shed_[slot(kind)]; }

  [[nodiscard]] std::uint64_t total_offered() const { return sum(offered_); }
  [[nodiscard]] std::uint64_t total_delivered() const {
    return sum(delivered_);
  }
  [[nodiscard]] std::uint64_t total_dropped() const { return sum(dropped_); }
  [[nodiscard]] std::uint64_t total_shed() const { return sum(shed_); }

  void merge(const PacketLedger& other) {
    for (std::size_t i = 0; i < kSlots; ++i) {
      offered_[i] += other.offered_[i];
      delivered_[i] += other.delivered_[i];
      dropped_[i] += other.dropped_[i];
      shed_[i] += other.shed_[i];
    }
  }

 private:
  [[nodiscard]] static std::size_t slot(int kind) {
    HLSRG_DCHECK(kind >= 0 && kind < static_cast<int>(kSlots));
    return static_cast<std::size_t>(kind) % kSlots;
  }
  [[nodiscard]] static std::uint64_t sum(
      const std::array<std::uint64_t, kSlots>& a) {
    std::uint64_t t = 0;
    for (std::uint64_t v : a) t += v;
    return t;
  }

  std::array<std::uint64_t, kSlots> offered_{};
  std::array<std::uint64_t, kSlots> delivered_{};
  std::array<std::uint64_t, kSlots> dropped_{};
  std::array<std::uint64_t, kSlots> shed_{};
};

// Accumulates latency samples; reports count/mean/min/max and percentiles.
// Sample counts here are small (one per query), so every sample is kept and
// percentiles are exact.
class LatencyStat {
 public:
  void add(SimTime sample);

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] double mean_ms() const;
  [[nodiscard]] double min_ms() const;
  [[nodiscard]] double max_ms() const;
  // Exact percentile (nearest-rank), q in [0,1]; 0 when empty.
  [[nodiscard]] double percentile_ms(double q) const;
  [[nodiscard]] double p50_ms() const { return percentile_ms(0.50); }
  [[nodiscard]] double p90_ms() const { return percentile_ms(0.90); }
  [[nodiscard]] double p95_ms() const { return percentile_ms(0.95); }
  [[nodiscard]] double p99_ms() const { return percentile_ms(0.99); }

  // Merges another accumulator into this one (used when averaging replicas).
  void merge(const LatencyStat& other);

 private:
  std::uint64_t count_ = 0;
  std::int64_t sum_us_ = 0;
  std::int64_t min_us_ = 0;
  std::int64_t max_us_ = 0;
  // Kept unsorted; sorted on demand by percentile_ms.
  mutable std::vector<std::int64_t> samples_us_;
  mutable bool sorted_ = false;
};

// Engine-level execution statistics for one run: how much work the
// discrete-event core did and how fast the host executed it. Protocol
// metrics (RunMetrics) describe the simulated world; EngineStats describe
// the simulator itself — the bench reports emit both so perf PRs are
// measurable.
struct EngineStats {
  std::uint64_t events_processed = 0;   // events dispatched by the queue
  std::uint64_t events_scheduled = 0;   // events ever scheduled
  std::uint64_t peak_queue_depth = 0;   // pending-event high-water mark
  std::uint64_t peak_rss_bytes = 0;     // process RSS high-water mark
  std::uint64_t table_bytes = 0;        // protocol-table + registry heap
                                        // bytes at end of run
  std::uint64_t trace_spans_dropped = 0;   // spans past the cap
  double sim_time_sec = 0.0;            // simulated horizon covered
  double wall_clock_sec = 0.0;          // host time spent running the replica

  // Host throughput; 0 when wall-clock was not captured.
  [[nodiscard]] double events_per_sec() const {
    return wall_clock_sec > 0.0
               ? static_cast<double>(events_processed) / wall_clock_sec
               : 0.0;
  }

  // Aggregates replicas: counts and times sum, peaks take the max (replicas
  // run concurrently, so depths never stack in one queue, and RSS is a
  // process-wide high-water mark to begin with).
  void merge(const EngineStats& other);
};

// Determinism-digest group of a RunMetrics counter (harness/digest.cpp).
// kCore counters are always hashed; kFault counters only when
// fault_plan_digest != 0 and kChurn counters only when churn_active != 0, so
// runs without faults or churn hash byte-identically to builds that predate
// those subsystems; kNone counters are never hashed.
enum class DigestGroup : std::uint8_t { kCore, kFault, kChurn, kNone };

// Every RunMetrics counter, named once: X(name, merge rule, digest group).
// The list expands into RunMetrics' std::uint64_t members, in this order, and
// into kRunMetricsFields, which drives RunMetrics::merge, the run-report JSON
// write and parse, and the determinism digest. Each group is hashed in list
// order, so moving or regrouping an entry changes digests.
//
// Adding a counter is one line here: pick kSum (or kMax for a high-water
// mark or a run-wide marker) and kNone, unless the change is meant to shift
// the digests of every run (kCore) or of fault / churn runs.
//
// Semantics:
//   *_originated : packets created by their source (what the paper counts as
//                  "number of location update packets").
//   *_transmissions : every radio transmission, including forwards/rebroadcasts
//                  (overhead in airtime terms).
#define HLSRG_RUN_METRICS(X)                                                  \
  /* --- location update traffic --- */                                       \
  X(update_packets_originated, kSum, kCore)                                   \
  X(update_transmissions, kSum, kCore)                                        \
  /* Hierarchy maintenance: L1 table handoffs/pushes, L2->L3 merges           \
     (HLSRG); leader->LSC aggregation (RLSMP). */                             \
  X(aggregation_packets, kSum, kCore)                                         \
  X(aggregation_transmissions, kSum, kCore)                                   \
  /* --- query traffic --- */                                                 \
  X(queries_issued, kSum, kCore)                                              \
  X(queries_succeeded, kSum, kCore)                                           \
  X(queries_failed, kSum, kCore)                                              \
  X(query_packets_originated, kSum, kCore) /* request + notif. + ACK */       \
  X(query_transmissions, kSum, kCore)      /* all hops of the above */        \
  /* --- protocol-event accounting (diagnosis + tests) --- */                 \
  X(server_lookup_hits, kSum, kCore)   /* L1 center / LSC table hit */        \
  X(server_lookup_misses, kSum, kCore) /* ... miss (up / spiral) */           \
  X(rsu_lookup_hits, kSum, kCore)      /* L2/L3 RSU table hit */              \
  X(rsu_lookup_misses, kSum, kCore)                                           \
  X(notifications_sent, kSum, kCore) /* geocasts toward Dv */                 \
  X(acks_sent, kSum, kCore)          /* Dv answered */                        \
  /* --- radio-level accounting --- */                                        \
  X(radio_broadcasts, kSum, kCore) /* one-hop broadcast transmissions */      \
  X(radio_unicasts, kSum, kCore)   /* GPSR hop transmissions */               \
  X(radio_drops, kSum, kCore)      /* receptions lost to the channel */       \
  X(wired_messages, kSum, kCore)   /* RSU backhaul messages */                \
  X(gpsr_failures, kSum, kCore)    /* unicast abandoned (no route) */         \
  /* --- fault + degradation accounting (src/fault) --- */                    \
  /* wired sends lost: no path, cut link, or down endpoint */                 \
  X(wired_drops, kSum, kFault)                                                \
  X(rsu_suppressed, kSum, kFault) /* packets arriving at a crashed RSU */     \
  X(query_retries, kSum, kFault)  /* request re-issues (attempt > 1) */       \
  /* sends escalated around a dead component (RSU / wired path) */            \
  X(query_failovers, kSum, kFault)                                            \
  X(queries_stranded, kSum, kNone)     /* unsettled at the run horizon */     \
  X(fault_queries_issued, kSum, kNone) /* issued during a fault window */     \
  X(fault_queries_ok, kSum, kNone)     /* ... of those, succeeded */          \
  /* sum of fault-clear -> first-success gaps over recovered windows */       \
  X(recovery_time_us, kSum, kNone)                                            \
  /* finite fault windows with a post-clearance success */                    \
  X(recovery_windows, kSum, kNone)                                            \
  /* FNV digest of the active fault schedule; 0 = no faults scheduled. Gates  \
     the kFault group. Replicas of one sweep share a plan, so the merge       \
     keeps the (common) nonzero digest. */                                    \
  X(fault_plan_digest, kMax, kFault)                                          \
  /* --- service-tier accounting (src/service) --- */                         \
  X(queries_offered, kSum, kNone) /* submissions seen by QueryAdmission */    \
  X(queries_shed, kSum, kNone)    /* new queries refused under overload */    \
  /* retry attempts refused (the query then fails, never hangs silently) */   \
  X(retries_shed, kSum, kNone)                                                \
  X(cache_hits, kSum, kNone)   /* RSU hot-destination cache answered */       \
  X(cache_misses, kSum, kNone) /* cache probed, no fresh entry */             \
  X(cache_invalidations, kSum, kNone) /* evicted by fresher update */         \
  X(batched_queries, kSum, kNone)     /* queries that rode a batch flush */   \
  X(batch_flushes, kSum, kNone)       /* wired batch lookups sent */          \
  /* unsettled-query high-water mark; replicas run in separate worlds, so     \
     the fleet-wide peak is the worst one */                                  \
  X(peak_outstanding, kMax, kNone)                                            \
  /* --- infrastructure-churn accounting (parked-cars-as-RSUs, src/core) ---  \
     Record conservation law (ChurnAuditor):                                  \
       records_at_departure == handoff_records_delivered                      \
                               + handoff_records_expired                      \
                               + handoff_records_in_flight                    \
     holds at every instant — in-flight records settle when their handoff     \
     packet is delivered (merged), suppressed at a crashed receiver, or lost  \
     after MAC retries. Role law: role_departures == role_elections +         \
     role_vacancies. */                                                       \
  X(role_departures, kSum, kChurn) /* hosts that left an L2/L3 role */        \
  X(role_elections, kSum, kChurn)  /* successor bound at departure time */    \
  X(role_vacancies, kSum, kChurn)  /* departures that left the role down */   \
  X(role_fills, kSum, kChurn)      /* vacant roles re-staffed later */        \
  X(handoffs_sent, kSum, kChurn)   /* kRoleHandoff packets sent */            \
  X(handoffs_delivered, kSum, kChurn) /* ... merged by the receiver */        \
  X(handoffs_lost, kSum, kChurn) /* ... lost / suppressed / unreachable */    \
  X(handoff_records_sent, kSum, kChurn) /* records riding a handoff */        \
  X(handoff_records_delivered, kSum, kChurn) /* ... merged at receiver */     \
  /* records ledger-accounted as expired (abrupt departure, lost packet,      \
     no absorber) */                                                          \
  X(handoff_records_expired, kSum, kChurn)                                    \
  X(handoff_records_in_flight, kSum, kChurn) /* gauge: sent, unsettled */     \
  X(records_at_departure, kSum, kChurn) /* records held by leaving hosts */   \
  /* Nonzero when the churn subsystem ran (ChurnManager constructed). Gates   \
     the kChurn group; a common marker across replicas of one sweep. */       \
  X(churn_active, kMax, kNone)

// All metrics for one simulation run.
struct RunMetrics {
  HLSRG_RUN_METRICS(HLSRG_COUNTER_MEMBER)

  // Per-kind channel conservation ledger (offered == delivered + dropped),
  // fed by the radio broadcast/unicast and wired paths that carry a Packet.
  PacketLedger channel;

  LatencyStat query_latency;

  void merge(const RunMetrics& other);

  // Total control transmissions attributable to updates (Fig 3.2's metric).
  [[nodiscard]] std::uint64_t total_update_overhead() const {
    return update_packets_originated;
  }
  // Total transmissions attributable to queries (Fig 3.3's metric).
  [[nodiscard]] std::uint64_t total_query_overhead() const {
    return query_transmissions + wired_messages;
  }
  [[nodiscard]] double success_rate() const {
    return queries_issued == 0
               ? 0.0
               : static_cast<double>(queries_succeeded) /
                     static_cast<double>(queries_issued);
  }
  // Goodput against *offered* load: successes over everything submitted,
  // shed included. Falls back to success_rate() for runs that bypass the
  // admission seam (direct issue_query callers in tests).
  [[nodiscard]] double served_rate() const {
    return queries_offered == 0
               ? success_rate()
               : static_cast<double>(queries_succeeded) /
                     static_cast<double>(queries_offered);
  }
  // Success rate restricted to queries issued while a fault window was
  // active; falls back to the overall rate when no query overlapped a fault.
  [[nodiscard]] double availability() const {
    return fault_queries_issued == 0
               ? success_rate()
               : static_cast<double>(fault_queries_ok) /
                     static_cast<double>(fault_queries_issued);
  }
  // Mean time from a fault window clearing to the first query success at or
  // after the clearance; 0 when no finite window recovered.
  [[nodiscard]] double recovery_ms() const {
    return recovery_windows == 0
               ? 0.0
               : static_cast<double>(recovery_time_us) /
                     static_cast<double>(recovery_windows) * 1e-3;
  }
  // Fraction of handed-off location records that reached their successor /
  // absorber; 1 when no handoff ever carried a record.
  [[nodiscard]] double handoff_record_delivery_rate() const {
    return handoff_records_sent == 0
               ? 1.0
               : static_cast<double>(handoff_records_delivered) /
                     static_cast<double>(handoff_records_sent);
  }
};

struct RunMetricsField : CounterField<RunMetrics> {
  DigestGroup group;
};

#define HLSRG_RUN_METRICS_FIELD(name, merge, group) \
  {{#name, &RunMetrics::name, MergeRule::merge}, DigestGroup::group},
inline constexpr RunMetricsField kRunMetricsFields[] = {
    HLSRG_RUN_METRICS(HLSRG_RUN_METRICS_FIELD)};
#undef HLSRG_RUN_METRICS_FIELD

}  // namespace hlsrg
