#include "trace/metrics.h"

#include <algorithm>

#include "report/json.h"

namespace hlsrg {

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based, nearest-rank rounded up).
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, q * static_cast<double>(count_) + 0.5));
  std::uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    if (buckets_[i] == 0) continue;
    if (seen + buckets_[i] < rank) {
      seen += buckets_[i];
      continue;
    }
    // Interpolate linearly inside the bucket, then clamp to the observed
    // range so edge buckets (which the true min/max only partially fill)
    // cannot report values never seen.
    const double lo = static_cast<double>(bucket_lo(i));
    const double hi = static_cast<double>(bucket_hi(i));
    const double within =
        static_cast<double>(rank - seen) / static_cast<double>(buckets_[i]);
    const double v = lo + (hi - lo) * within;
    return std::clamp(v, static_cast<double>(min_),
                      static_cast<double>(max_));
  }
  return static_cast<double>(max_);
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ += other.sum_;
  for (int i = 0; i < kBuckets; ++i) buckets_[i] += other.buckets_[i];
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, h] : other.histograms_) histograms_[name].merge(h);
  for (const auto& [name, s] : other.series_) {
    series_.emplace(name, s);  // keep-first: no-op when already present
  }
}

namespace {

JsonValue histogram_to_json(const Histogram& h) {
  JsonValue out = JsonValue::object();
  out.set("count", h.count());
  out.set("mean", h.mean());
  out.set("min", h.min());
  out.set("max", h.max());
  out.set("p50", h.quantile(0.50));
  out.set("p90", h.quantile(0.90));
  out.set("p95", h.quantile(0.95));
  out.set("p99", h.quantile(0.99));
  JsonValue buckets = JsonValue::array();
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    if (h.bucket_count(i) == 0) continue;
    JsonValue b = JsonValue::object();
    b.set("le", Histogram::bucket_hi(i));
    b.set("count", h.bucket_count(i));
    buckets.push_back(std::move(b));
  }
  out.set("buckets", std::move(buckets));
  return out;
}

}  // namespace

JsonValue registry_to_json(const MetricsRegistry& reg) {
  JsonValue out = JsonValue::object();
  JsonValue hists = JsonValue::object();
  for (const auto& [name, h] : reg.histograms()) {
    hists.set(name, histogram_to_json(h));
  }
  out.set("histograms", std::move(hists));

  JsonValue series = JsonValue::object();
  for (const auto& [name, s] : reg.series()) {
    JsonValue one = JsonValue::object();
    JsonValue t = JsonValue::array();
    JsonValue v = JsonValue::array();
    for (double x : s.times_sec) t.push_back(x);
    for (double x : s.values) v.push_back(x);
    one.set("t_sec", std::move(t));
    one.set("v", std::move(v));
    series.set(name, std::move(one));
  }
  out.set("series", std::move(series));
  return out;
}

}  // namespace hlsrg
