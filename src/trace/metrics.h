// Named diagnostics: log-bucketed histograms and periodic time series.
// Run counters and query latency live in RunMetrics (sim/counters.h); the
// registry holds only distributions and time axes RunMetrics has no field
// for.
//
// The registry is the always-on companion to the optional TraceLog: feeding
// it draws no randomness and allocates only on first use of a name, so it is
// safe to populate unconditionally without perturbing determinism digests.
// Names use a dotted lowercase scheme, "<subsystem>.<quantity>[_<unit>]"
// (e.g. "gpsr.route_hops", "world.live_queries") — see DESIGN.md §8.
// Storage is std::map so iteration (and therefore JSON serialization) is
// sorted and deterministic, and node addresses are stable: hot paths cache
// the Histogram* once instead of re-hashing the name per sample.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hlsrg {

class JsonValue;

// Power-of-two-bucketed histogram of non-negative integer samples (latency
// in µs, hop counts, ...). Bucket 0 holds v <= 0 wholesale; bucket i >= 1
// covers [2^(i-1), 2^i - 1]. Quantiles interpolate linearly inside the
// bucket and are clamped to the exact observed [min, max], so single-sample
// and bucket-edge cases stay sane.
class Histogram {
 public:
  static constexpr int kBuckets = 64;

  void record(std::int64_t v) {
    ++count_;
    sum_ += v;
    if (count_ == 1 || v < min_) min_ = v;
    if (count_ == 1 || v > max_) max_ = v;
    ++buckets_[bucket_index(v)];
  }

  [[nodiscard]] std::uint64_t count() const { return count_; }
  [[nodiscard]] std::int64_t sum() const { return sum_; }
  [[nodiscard]] std::int64_t min() const { return min_; }
  [[nodiscard]] std::int64_t max() const { return max_; }
  [[nodiscard]] double mean() const {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / count_;
  }
  [[nodiscard]] std::uint64_t bucket_count(int i) const { return buckets_[i]; }

  // Inclusive lower/upper value bounds of bucket i.
  [[nodiscard]] static std::int64_t bucket_lo(int i) {
    return i == 0 ? 0 : std::int64_t{1} << (i - 1);
  }
  [[nodiscard]] static std::int64_t bucket_hi(int i) {
    return i == 0 ? 0 : (std::int64_t{1} << i) - 1;
  }

  // q in [0, 1]; 0 samples -> 0.
  [[nodiscard]] double quantile(double q) const;

  // Bucket-wise sum; min/max/sum/count fold in too.
  void merge(const Histogram& other);

  [[nodiscard]] static int bucket_index(std::int64_t v) {
    if (v <= 0) return 0;
    const int w = std::bit_width(static_cast<std::uint64_t>(v));
    return w < kBuckets ? w : kBuckets - 1;
  }

 private:
  std::array<std::uint64_t, kBuckets> buckets_{};
  std::uint64_t count_ = 0;
  std::int64_t sum_ = 0;
  std::int64_t min_ = 0;
  std::int64_t max_ = 0;
};

// One sampled time series: parallel (sim-time, value) columns.
struct TimeSeries {
  std::vector<double> times_sec;
  std::vector<double> values;

  void sample(double t_sec, double v) {
    times_sec.push_back(t_sec);
    values.push_back(v);
  }
};

class MetricsRegistry {
 public:
  // Named histogram; the returned pointer stays valid for the registry's
  // lifetime (std::map nodes don't move) — cache it on hot paths.
  Histogram* histogram(const std::string& name) { return &histograms_[name]; }

  // Appends one (t, v) point to a named series.
  void sample(const std::string& name, double t_sec, double v) {
    series_[name].sample(t_sec, v);
  }

  [[nodiscard]] const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }
  [[nodiscard]] const std::map<std::string, TimeSeries>& series() const {
    return series_;
  }

  // Cross-replica fold: histograms merge bucket-wise, series keep the first
  // replica's samples (per-replica time axes don't concatenate
  // meaningfully).
  void merge(const MetricsRegistry& other);

 private:
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, TimeSeries> series_;
};

// JSON shape (report/json.h):
// {"histograms": {name: {count,mean,min,max,p50,p90,p95,p99,buckets}},
// "series": {name: {"t_sec": [...], "v": [...]}}.
[[nodiscard]] JsonValue registry_to_json(const MetricsRegistry& reg);

}  // namespace hlsrg
