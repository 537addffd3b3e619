// Per-L3-region telemetry: load counters, a cross-region wired traffic
// matrix, and sampled time series.
//
// One RegionTelemetry per World, always on (feeding it is counter
// increments only — no RNG, no events, no simulation state), so like
// MetricsRegistry it is digest-neutral by construction. Counters are
// recorded at the same decision sites as the PacketLedger, which makes the
// per-region sums close exactly against the global ledger and RunMetrics —
// the conservation laws pinned in tests/obs_test.cpp:
//
//   sum(radio_broadcasts)            == RunMetrics::radio_broadcasts
//   sum(radio_unicasts)              == RunMetrics::radio_unicasts
//   sum(radio_dropped)               == RunMetrics::radio_drops
//   sum(radio_delivered + wired_in)  == channel.total_delivered()
//   sum(radio_dropped + wired_dropped) == channel.total_dropped()
//   sum(updates)                     == update_packets_originated
//   sum(cache_hits)                  == RunMetrics::cache_hits
//   sum(queries_shed)                == queries_shed + retries_shed
//   sum(role_migrations)             == role_elections + role_fills
//   sum(handoff_records)             == handoff_records_delivered
//   matrix row/col sums              == wired_out / wired_in per region
//   matrix hop total                 == RunMetrics::wired_messages
//
// Region attribution: transmissions belong to the sender's region,
// receptions/losses to the receiver's, wired traffic to the endpoint
// regions (the matrix is directed: source row, destination column).
//
// The position→region mapper replicates GridHierarchy::coord_at(p, kL3)
// arithmetic exactly — upper_bound over the L1 boundary lines (half-open
// cells, outside positions clamped), then /4 — against a private copy of
// the boundary coordinates, so the hot instrumentation paths never touch
// the hierarchy or take an indirect call.
#pragma once

#include <cstdint>
#include <vector>

#include "geom/vec2.h"
#include "report/json.h"
#include "util/check.h"
#include "util/counter_fields.h"

namespace hlsrg {

class PhaseProfiler;

// Per-region counters, named once: X(name, merge rule). The list expands
// into RegionCounters' members, in this order, and into kRegionCounterFields,
// which drives RegionCounters::merge and the `regions[]` JSON keys. All are
// recorded at channel/protocol decision time (see the header comment for the
// exact laws).
#define HLSRG_REGION_COUNTERS(X)                                              \
  X(radio_broadcasts, kSum) /* broadcast transmissions from here */           \
  X(radio_unicasts, kSum)   /* unicast attempts from here */                  \
  X(radio_delivered, kSum)  /* receptions scheduled for nodes here */         \
  X(radio_dropped, kSum)    /* channel losses at receivers here */            \
  X(wired_out, kSum)        /* wired packets sent from here */                \
  X(wired_in, kSum)         /* wired packets delivered here */                \
  X(wired_dropped, kSum)    /* wired sends from here with no path */          \
  X(updates, kSum)          /* update packets originated here */              \
  X(queries_served, kSum)   /* location-table lookup hits here */             \
  X(cache_hits, kSum)       /* service-tier cache answers here */             \
  X(queries_shed, kSum)     /* admissions refused for sources here */         \
  X(role_migrations, kSum)  /* role hosts elected/filled here */              \
  X(handoff_records, kSum)  /* handoff records delivered here */

struct RegionCounters {
  HLSRG_REGION_COUNTERS(HLSRG_COUNTER_MEMBER)

  // Deliveries a region's nodes had to handle — the load measure behind the
  // imbalance summary (radio receptions + wired arrivals).
  [[nodiscard]] std::uint64_t load() const {
    return radio_delivered + wired_in;
  }

  void merge(const RegionCounters& other);
};

#define HLSRG_REGION_COUNTER_FIELD(name, merge) \
  {#name, &RegionCounters::name, MergeRule::merge},
inline constexpr CounterField<RegionCounters> kRegionCounterFields[] = {
    HLSRG_REGION_COUNTERS(HLSRG_REGION_COUNTER_FIELD)};
#undef HLSRG_REGION_COUNTER_FIELD

class RegionTelemetry {
 public:
  // Unconfigured shell (0 regions); merge() adopts the first configured
  // source. The harness aggregate starts in this state.
  RegionTelemetry() = default;

  // `x_edges`/`y_edges` are the L1 boundary-line coordinates (map edges
  // included, ascending) from the road-adapted partition.
  RegionTelemetry(std::vector<double> x_edges, std::vector<double> y_edges);

  [[nodiscard]] bool configured() const { return cols_ > 0; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int region_count() const { return cols_ * rows_; }
  [[nodiscard]] int replicas() const { return replicas_; }

  // L3 region containing p; identical arithmetic to
  // GridHierarchy::coord_at(p, GridLevel::kL3) (clamped half-open cells).
  [[nodiscard]] int region_of(Vec2 p) const {
    return interval(y_edges_, l1_rows_, p.y) / 4 * cols_ +
           interval(x_edges_, l1_cols_, p.x) / 4;
  }

  [[nodiscard]] RegionCounters& at(int region) {
    return counters_[static_cast<std::size_t>(region)];
  }
  [[nodiscard]] const RegionCounters& at(int region) const {
    return counters_[static_cast<std::size_t>(region)];
  }

  // Wired delivery from region `from` to region `to`: matrix cell plus the
  // endpoint wired_out/wired_in counters.
  void add_wired_delivered(int from, int to, int hops, std::uint64_t bytes) {
    const std::size_t cell = static_cast<std::size_t>(from) *
                                 static_cast<std::size_t>(cols_ * rows_) +
                             static_cast<std::size_t>(to);
    ++matrix_packets_[cell];
    matrix_hops_[cell] += static_cast<std::uint64_t>(hops);
    matrix_bytes_[cell] += bytes;
    ++at(from).wired_out;
    ++at(to).wired_in;
  }
  void add_wired_dropped(int from) { ++at(from).wired_dropped; }

  [[nodiscard]] std::uint64_t matrix_packets(int from, int to) const {
    return matrix_packets_[static_cast<std::size_t>(from) *
                               static_cast<std::size_t>(cols_ * rows_) +
                           static_cast<std::size_t>(to)];
  }
  [[nodiscard]] std::uint64_t matrix_hops(int from, int to) const {
    return matrix_hops_[static_cast<std::size_t>(from) *
                            static_cast<std::size_t>(cols_ * rows_) +
                        static_cast<std::size_t>(to)];
  }
  [[nodiscard]] std::uint64_t matrix_bytes(int from, int to) const {
    return matrix_bytes_[static_cast<std::size_t>(from) *
                             static_cast<std::size_t>(cols_ * rows_) +
                         static_cast<std::size_t>(to)];
  }

  // Appends one sample tick (the World's periodic sampler). The three
  // vectors must be region_count() long.
  void push_sample(double t_sec, std::vector<std::uint64_t> vehicles,
                   std::vector<std::uint64_t> table_records,
                   std::vector<std::uint64_t> queue_depth);

  [[nodiscard]] std::size_t sample_count() const { return times_sec_.size(); }

  // Load-imbalance summary over RegionCounters::load().
  struct Imbalance {
    double max_over_mean = 0.0;  // hottest region vs the mean (1 = uniform)
    double cv = 0.0;             // coefficient of variation (stddev / mean)
    std::uint64_t total_load = 0;
  };
  [[nodiscard]] Imbalance load_imbalance() const;

  // Replica aggregation: counters and matrix cells add element-wise, the
  // sampled series keep the first replica (mirroring MetricsRegistry), and
  // an unconfigured shell adopts the source's geometry.
  void merge(const RegionTelemetry& other);

  // Region/matrix/series document (no schema key; obs_document() wraps it).
  [[nodiscard]] JsonValue to_json() const;

 private:
  // Index of the half-open interval [edges[i], edges[i+1]) containing v,
  // clamped to [0, n-1] — GridHierarchy's interval_index over plain doubles.
  // L1 edge counts are small (a handful of boundary roads per axis), so a
  // branchless-ish linear scan beats binary search and stays inline.
  [[nodiscard]] static int interval(const std::vector<double>& edges, int n,
                                    double v) {
    int idx = 0;
    // First interior edge is edges[1]; v >= edge means the greater side.
    for (int i = 1; i < n && v >= edges[static_cast<std::size_t>(i)]; ++i) {
      idx = i;
    }
    return idx;
  }

  int l1_cols_ = 0;
  int l1_rows_ = 0;
  int cols_ = 0;
  int rows_ = 0;
  int replicas_ = 1;
  std::vector<double> x_edges_;
  std::vector<double> y_edges_;
  std::vector<RegionCounters> counters_;
  // Directed region×region wired traffic, flattened row-major (from, to).
  std::vector<std::uint64_t> matrix_packets_;
  std::vector<std::uint64_t> matrix_hops_;
  std::vector<std::uint64_t> matrix_bytes_;
  // Sampled series: times_sec_[i] pairs with row i of each per-region table.
  std::vector<double> times_sec_;
  std::vector<std::vector<std::uint64_t>> vehicles_;
  std::vector<std::vector<std::uint64_t>> table_records_;
  std::vector<std::vector<std::uint64_t>> queue_depth_;
};

// Assembles the `--obs-out` document: {"schema":"hlsrg-obs/v1",
// "telemetry":{…},"profile":{…}|null}. `profiler` may be null (profiling
// off) or empty.
[[nodiscard]] JsonValue obs_document(const RegionTelemetry& telemetry,
                                     const PhaseProfiler* profiler);

}  // namespace hlsrg
