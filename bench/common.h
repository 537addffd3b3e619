// Shared scaffolding for the figure benches.
//
// Every bench sweeps an x-axis (map size, vehicle count, or a config knob),
// runs protocols over the same seeds, prints the series the paper plots as
// an aligned table plus CSV, and records every measurement into a
// BENCH_<name>.json report (schema in docs/PROTOCOL.md) for the regression
// pipeline (scripts/bench_compare.py).
//
// All bench binaries accept the uniform flag set parsed by BenchOptions:
//   --replicas N   statistical effort per point (HLSRG_BENCH_REPLICAS env
//                  works too; the per-bench defaults keep a full
//                  `for b in build/bench/*` pass in the low minutes)
//   --seed S       override every sweep point's base seed
//   --threads T    replica-runner thread count (0 = auto)
//   --out FILE     JSON report path (default BENCH_<name>.json in the cwd)
//   --audit-determinism
//                  re-run every measurement's replica set single-threaded
//                  and fail (exit 2) unless the per-replica state digests
//                  match the multi-threaded run bit for bit
//   --trace FILE   capture replica 0 of the first measurement into a
//                  Chrome-trace JSON (load in Perfetto / chrome://tracing);
//                  includes wall-clock engine phases of that measurement and,
//                  under --obs-out, the pid-3 phase-profile flame track
//   --obs-out FILE write the first measurement's region observatory document
//                  (per-L3-region telemetry + traffic matrix + phase
//                  profile; schema hlsrg-obs/v1) and enable the wall-clock
//                  profiler for that measurement — digests are unaffected
//                  (render with scripts/obs_dashboard.py)
//   --fault-plan FILE
//                  run every measurement under this fault plan (JSON,
//                  fault/fault_plan.h); replaces any plan the bench builds
//                  inline
//   --fault-seed S pin the fault RNG stream (0 = derive from replica seed)
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness/digest.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "report/bench_report.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"
#include "util/args.h"
#include "util/format.h"

namespace hlsrg::bench {

struct BenchOptions {
  std::string name;       // bench name; also names the default JSON output
  int replicas = 1;
  int threads = 0;
  std::uint64_t seed = 0;  // 0 = keep each sweep point's built-in seed
  std::string out;         // JSON report path
  std::string trace;       // Chrome-trace JSON path ("" = no trace)
  std::string obs_out;     // region-observatory JSON path ("" = off)
  std::string fault_plan;  // fault-plan JSON path ("" = bench's own plan)
  std::uint64_t fault_seed = 0;  // nonzero pins the fault RNG stream
  bool audit_determinism = false;  // cross-check digests vs 1-thread rerun
  bool parse_failed = false;
  int exit_code = 0;
};

// Parses the uniform bench flag set. On --help or a parse error, the caller
// should exit with `exit_code` (parse_failed is set). Benches that build
// their own fault plan inline (the chaos benches) pass
// `inline_fault_plan = true`; everywhere else --fault-seed without
// --fault-plan is a fail-fast error, because no injector would be built and
// the pinned stream would be silently ignored.
inline BenchOptions parse_options(int argc, char** argv, const char* name,
                                  int default_replicas,
                                  bool inline_fault_plan = false) {
  BenchOptions opts;
  opts.name = name;
  opts.replicas = default_replicas;
  if (const char* env = std::getenv("HLSRG_BENCH_REPLICAS")) {
    opts.replicas = std::max(1, std::atoi(env));
  }
  opts.out = std::string("BENCH_") + name + ".json";

  ArgParser args(std::string("bench ") + name);
  args.add_int("--replicas", "N", "replicas per sweep point", &opts.replicas);
  args.add_int("--threads", "T", "replica threads (0 = auto)", &opts.threads);
  std::uint64_t seed = 0;
  args.add_uint64("--seed", "S", "override the base seed of every point",
                  &seed);
  args.add_string("--out", "FILE", "JSON report path", &opts.out);
  args.add_string("--trace", "FILE",
                  "Chrome-trace JSON of the first measurement's replica 0",
                  &opts.trace);
  args.add_string("--obs-out", "FILE",
                  "region observatory JSON of the first measurement "
                  "(implies profiling it)",
                  &opts.obs_out);
  args.add_flag("--audit-determinism",
                "verify state digests against a single-threaded rerun",
                &opts.audit_determinism);
  args.add_string("--fault-plan", "FILE",
                  "fault-plan JSON applied to every measurement",
                  &opts.fault_plan);
  args.add_uint64("--fault-seed", "S", "pin the fault RNG stream",
                  &opts.fault_seed);
  if (!args.parse(argc, argv)) {
    opts.parse_failed = true;
    opts.exit_code = args.exit_code();
    return opts;
  }
  if (opts.fault_seed != 0 && opts.fault_plan.empty() && !inline_fault_plan) {
    std::fprintf(stderr,
                 "--fault-seed has no effect without --fault-plan\n");
    opts.parse_failed = true;
    opts.exit_code = 1;
    return opts;
  }
  opts.seed = seed;
  opts.replicas = std::max(1, opts.replicas);
  opts.threads = std::max(0, opts.threads);
  return opts;
}

struct SweepRow {
  std::string label;
  ScenarioConfig config;
};

// Runs every bench measurement, prints the paper-style tables, and owns the
// JSON report. Construct once per binary; finish() (or the destructor)
// writes the report.
class SweepDriver {
 public:
  explicit SweepDriver(const BenchOptions& opts)
      : opts_(opts), report_(opts.name, opts.replicas) {}

  SweepDriver(const SweepDriver&) = delete;
  SweepDriver& operator=(const SweepDriver&) = delete;
  ~SweepDriver() { finish(); }

  [[nodiscard]] const BenchOptions& options() const { return opts_; }
  [[nodiscard]] int replicas() const { return opts_.replicas; }

  // Runs one (config, protocol) measurement under the driver's replica /
  // thread / seed settings and records it into the report. `label` is the
  // sweep-point label within the current section.
  ReplicaSet run(const std::string& label, const ScenarioConfig& cfg,
                 Protocol protocol) {
    ScenarioConfig effective = cfg;
    if (opts_.seed != 0) effective.seed = opts_.seed;
    if (!opts_.fault_plan.empty()) {
      // External plan replaces whatever the bench built inline; the World
      // loads the file because the inline plan is now empty.
      effective.fault_plan = FaultPlan{};
      effective.fault_plan_file = opts_.fault_plan;
    }
    if (opts_.fault_seed != 0) effective.fault_seed = opts_.fault_seed;
    // --trace / --obs-out: capture the very first measurement only; later
    // measurements run untraced and unprofiled.
    TraceLog* trace = nullptr;
    if (!opts_.trace.empty() && !trace_captured_) {
      trace = &trace_log_;
      trace_captured_ = true;
    }
    const bool capture_obs = !opts_.obs_out.empty() && !obs_captured_;
    if (capture_obs) {
      // Profiling is digest-neutral (counters/timers only), so flipping it
      // on for this measurement cannot change any reported metric.
      effective.profile = true;
      obs_captured_ = true;
    }
    const ReplicaSet set =
        run_replicas(effective, protocol, opts_.replicas,
                     static_cast<std::size_t>(opts_.threads), trace);
    if (trace != nullptr) {
      wall_spans_.insert(wall_spans_.end(), set.phases.begin(),
                         set.phases.end());
    }
    if (capture_obs) {
      obs_regions_ = set.regions;
      obs_profile_ = set.profile;
    }
    if (opts_.audit_determinism) {
      check_determinism(label, effective, protocol, set);
    }
    report_.add_result(label, protocol_name(protocol), effective, set);
    return set;
  }

  // Starts a report section; mirror of one printed table.
  void begin_section(const std::string& title, const std::string& metric) {
    report_.begin_section(title, metric);
  }

  // Comparison sweep: runs HLSRG and RLSMP on every row and prints one table
  // for the metric extractor (maps a ReplicaSet to the plotted value).
  template <typename MetricFn>
  void comparison(const std::string& title, const std::string& metric_name,
                  const std::vector<SweepRow>& rows, MetricFn metric) {
    begin_section(title, metric_name);
    std::printf("== %s ==\n", title.c_str());
    std::printf("   (%d replicas per point, seeds %llu..)\n", opts_.replicas,
                static_cast<unsigned long long>(
                    opts_.seed != 0 ? opts_.seed : rows.front().config.seed));
    TextTable table;
    table.add_row({"point", "HLSRG " + metric_name, "RLSMP " + metric_name,
                   "HLSRG/RLSMP"});
    for (const SweepRow& row : rows) {
      const ReplicaSet h = run(row.label, row.config, Protocol::kHlsrg);
      const ReplicaSet r = run(row.label, row.config, Protocol::kRlsmp);
      const double hv = metric(h);
      const double rv = metric(r);
      table.add_row({row.label, fmt_double(hv, 2), fmt_double(rv, 2),
                     rv != 0.0 ? fmt_double(hv / rv, 3) : "n/a"});
    }
    std::fputs(table.render().c_str(), stdout);
    std::printf("-- CSV --\n%s\n", table.render_csv().c_str());
  }

  // Writes the JSON report; false when the write failed (callers should turn
  // that into a nonzero exit). Safe to call once explicitly — the destructor
  // becomes a no-op afterwards.
  bool finish() {
    if (finished_) return true;
    finished_ = true;
    bool ok = true;
    if (trace_captured_ && !opts_.trace.empty()) {
      std::string error;
      if (!write_chrome_trace(trace_log_, wall_spans_, opts_.trace, &error,
                              obs_profile_.empty() ? nullptr : &obs_profile_)) {
        std::fprintf(stderr, "bench trace: %s\n", error.c_str());
        ok = false;
      } else {
        std::printf("chrome trace: %s\n", opts_.trace.c_str());
      }
    }
    if (obs_captured_ && !opts_.obs_out.empty()) {
      std::string error;
      if (!write_json_file(
              obs_document(obs_regions_,
                           obs_profile_.empty() ? nullptr : &obs_profile_),
              opts_.obs_out, &error)) {
        std::fprintf(stderr, "bench obs: %s\n", error.c_str());
        ok = false;
      } else {
        std::printf("obs document: %s\n", opts_.obs_out.c_str());
      }
    }
    if (opts_.out.empty()) return ok;
    std::string error;
    if (!report_.write(opts_.out, &error)) {
      std::fprintf(stderr, "bench report: %s\n", error.c_str());
      return false;
    }
    std::printf("json report: %s\n", opts_.out.c_str());
    return ok;
  }

 private:
  // --audit-determinism: re-runs the replica set on one thread and compares
  // per-replica end-state digests. Replicas share no mutable state, so any
  // mismatch means threading leaked into simulation results (shared RNG,
  // global state, a race); that invalidates every figure, so the process
  // exits immediately with status 2.
  void check_determinism(const std::string& label, const ScenarioConfig& cfg,
                         Protocol protocol, const ReplicaSet& set) {
    const ReplicaSet baseline = run_replicas(cfg, protocol, opts_.replicas, 1);
    const std::size_t bad =
        first_digest_mismatch(baseline.digests, set.digests);
    if (bad == static_cast<std::size_t>(-1)) return;
    const std::uint64_t got =
        bad < set.digests.size() ? set.digests[bad] : 0;
    std::fprintf(stderr,
                 "determinism audit failed: %s %s replica %zu (seed %llu): "
                 "1-thread digest %016llx, %d-thread digest %016llx\n",
                 label.c_str(), protocol_name(protocol), bad,
                 static_cast<unsigned long long>(cfg.seed + bad),
                 static_cast<unsigned long long>(baseline.digests[bad]),
                 opts_.threads,
                 static_cast<unsigned long long>(got));
    std::exit(2);
  }

  BenchOptions opts_;
  BenchReport report_;
  TraceLog trace_log_;
  std::vector<WallSpan> wall_spans_;
  RegionTelemetry obs_regions_;
  PhaseProfiler obs_profile_;
  bool trace_captured_ = false;
  bool obs_captured_ = false;
  bool finished_ = false;
};

}  // namespace hlsrg::bench
