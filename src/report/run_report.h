// RunReport: the machine-readable record of one measured run — scenario
// configuration, protocol metrics, latency summary, and engine statistics.
// Every bench emits these inside its BENCH_<name>.json; scenario_cli emits
// one per invocation. The schema is documented in docs/PROTOCOL.md
// ("Bench report JSON schema") and versioned via kBenchSchema.
#pragma once

#include <optional>
#include <string>

#include "harness/scenario.h"
#include "report/json.h"
#include "sim/counters.h"

namespace hlsrg {

// Bumped whenever a field is renamed or changes meaning; additions are
// backward compatible and do not bump it.
inline constexpr const char* kBenchSchema = "hlsrg-bench/v1";

// Compact latency digest (LatencyStat keeps raw samples; reports keep the
// order statistics the figures use).
struct LatencySummary {
  std::uint64_t count = 0;
  double mean_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
  double p50_ms = 0.0;
  double p90_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;

  [[nodiscard]] static LatencySummary from(const LatencyStat& stat);
};

struct RunReport {
  std::string protocol;    // "HLSRG" / "RLSMP" / "FLOOD"
  ScenarioConfig config;   // the serialized subset round-trips; see to_json
  RunMetrics metrics;      // counters only; latency lives in `latency`
  LatencySummary latency;
  EngineStats engine;
  // Optional observability payload (trace/metrics.h registry_to_json):
  // hop-count histograms and time series. Null when the run produced none;
  // carried through to_json/from_json verbatim.
  JsonValue observability;
  // Optional wall-clock phase profile (obs/profiler.h to_json). Null unless
  // the run profiled; carried through verbatim like `observability`.
  JsonValue profile;

  [[nodiscard]] JsonValue to_json() const;
  // Inverse of to_json for the serialized field set; unknown fields are
  // ignored, missing fields keep their defaults. Returns false (and fills
  // *error) when `v` is not an object or a field has the wrong type shape.
  static bool from_json(const JsonValue& v, RunReport* out,
                        std::string* error = nullptr);
};

// Builds a report from one finished measurement.
[[nodiscard]] RunReport make_run_report(Protocol protocol,
                                        const ScenarioConfig& cfg,
                                        const RunMetrics& metrics,
                                        const EngineStats& engine);

// --- serialization pieces (shared by RunReport and the bench driver) --------
[[nodiscard]] JsonValue scenario_to_json(const ScenarioConfig& cfg);
void scenario_from_json(const JsonValue& v, ScenarioConfig* cfg);
[[nodiscard]] JsonValue metrics_to_json(const RunMetrics& m);
void metrics_from_json(const JsonValue& v, RunMetrics* m);
[[nodiscard]] JsonValue latency_to_json(const LatencySummary& l);
void latency_from_json(const JsonValue& v, LatencySummary* l);
// `run`, when given, adds the keys the engine block reports from RunMetrics
// (broadcasts, broadcasts_per_sec, peak_outstanding_queries); per-replica
// entries pass null and carry engine-only fields.
[[nodiscard]] JsonValue engine_to_json(const EngineStats& e,
                                       const RunMetrics* run = nullptr);
void engine_from_json(const JsonValue& v, EngineStats* e);

// The headline derived metrics every figure plots, as a JSON object:
// update_overhead, query_overhead, success_rate, mean_query_latency_ms.
// `service_tier` gates the served/shed/cache-hit rate block: the admission
// seam counts offered load even with the tier off, so the config flag (not
// the counter) decides whether tier fields appear in the report.
[[nodiscard]] JsonValue derived_metrics_json(const RunMetrics& merged,
                                             bool service_tier,
                                             std::size_t replicas);

}  // namespace hlsrg
