#include "sim/counters.h"

#include <algorithm>
#include <cmath>

namespace hlsrg {

void LatencyStat::add(SimTime sample) {
  const std::int64_t us = sample.us();
  if (count_ == 0) {
    min_us_ = max_us_ = us;
  } else {
    min_us_ = std::min(min_us_, us);
    max_us_ = std::max(max_us_, us);
  }
  sum_us_ += us;
  ++count_;
  samples_us_.push_back(us);
  sorted_ = false;
}

double LatencyStat::percentile_ms(double q) const {
  if (samples_us_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_us_.begin(), samples_us_.end());
    sorted_ = true;
  }
  q = std::min(std::max(q, 0.0), 1.0);
  // Nearest-rank: ceil(q*n), 1-based.
  const std::size_t rank = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(q * static_cast<double>(samples_us_.size()))));
  return static_cast<double>(samples_us_[rank - 1]) * 1e-3;
}

double LatencyStat::mean_ms() const {
  return count_ == 0 ? 0.0
                     : static_cast<double>(sum_us_) /
                           static_cast<double>(count_) * 1e-3;
}

double LatencyStat::min_ms() const {
  return count_ == 0 ? 0.0 : static_cast<double>(min_us_) * 1e-3;
}

double LatencyStat::max_ms() const {
  return count_ == 0 ? 0.0 : static_cast<double>(max_us_) * 1e-3;
}

void LatencyStat::merge(const LatencyStat& other) {
  if (other.count_ == 0) return;
  if (count_ == 0) {
    *this = other;
    return;
  }
  min_us_ = std::min(min_us_, other.min_us_);
  max_us_ = std::max(max_us_, other.max_us_);
  sum_us_ += other.sum_us_;
  count_ += other.count_;
  samples_us_.insert(samples_us_.end(), other.samples_us_.begin(),
                     other.samples_us_.end());
  sorted_ = false;
}

void EngineStats::merge(const EngineStats& other) {
  events_processed += other.events_processed;
  events_scheduled += other.events_scheduled;
  peak_queue_depth = std::max(peak_queue_depth, other.peak_queue_depth);
  peak_rss_bytes = std::max(peak_rss_bytes, other.peak_rss_bytes);
  // Replicas each hold a full copy of the world; the max is the footprint a
  // single replica needs, which is what the memory gate compares.
  table_bytes = std::max(table_bytes, other.table_bytes);
  trace_spans_dropped += other.trace_spans_dropped;
  sim_time_sec += other.sim_time_sec;
  wall_clock_sec += other.wall_clock_sec;
}

void RunMetrics::merge(const RunMetrics& other) {
  merge_counters(*this, other, kRunMetricsFields);
  channel.merge(other.channel);
  query_latency.merge(other.query_latency);
}

}  // namespace hlsrg
