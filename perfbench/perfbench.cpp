// Repo benchmark: host wall time per simulated second on three
// workloads, driven through the public World API from outside src/.
//
//   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//             [--trace-out PATH]
//
// --trace 0 runs the timed pass: every world is built, stepped with
// World::run_until in 1-simulated-second steps and finished with
// World::run(), with nothing but the benchmark's own clock reads around the
// calls. Beforehand each world also runs unstepped in a child process; the
// two state digests must match, and the child's peak RSS is the world's.
// Host times are reported at a reference host speed (see host_scale).
// --trace 1 runs each world timed and then again profiled
// (ScenarioConfig::profile) with benchmark spans around every call, checks
// that both end in the same digest, and runs the per-layer probes; spans go
// to a Chrome trace file at exit.
//
// The last stdout line is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0, the per-layer metrics
// with --trace 1. Any failed correctness check makes the exit code 1.
#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "core/location_table.h"
#include "grid/hierarchy.h"
#include "grid/partition.h"
#include "harness/digest.h"
#include "harness/runner.h"
#include "harness/scenario.h"
#include "harness/world.h"
#include "mobility/mobility_model.h"
#include "net/neighbor_index.h"
#include "obs/profiler.h"
#include "roadnet/map_builder.h"
#include "sim/event_queue.h"
#include "sim/simulator.h"
#include "trace/chrome_trace.h"
#include "trace/trace.h"

namespace {

using namespace hlsrg;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

// Distance between the seeds of consecutive worlds in one run. Large and
// prime so that runs with nearby --seed values never share a world.
constexpr std::uint64_t kSeedStride = 100003;

struct Workload {
  const char* name;
  std::uint64_t default_seed;
  std::vector<Protocol> protocols;
  // Host seconds one seed's worlds take in the timed pass on a 4-core x86
  // box (Release). Sets how many seeds a run of --seconds S covers, so the
  // world list is a pure function of (seed, S) and the simulated metrics
  // repeat exactly for a given command line.
  double host_s_per_seed;
  ScenarioConfig (*config)(std::uint64_t seed);
};

// The paper's setup: 2 km map, 500 vehicles, 10 % one-shot sources,
// 60 + 30 + 60 s, RSUs on; HLSRG and RLSMP on the same seeds.
ScenarioConfig paper_2km(std::uint64_t seed) {
  return paper_scenario(500, seed);
}

// Twice the paper's vehicle density: 1000 vehicles on the 2 km map
// (250 veh/km^2, ~110 vehicles per radio range), 40 + 20 + 5 s with 1.5 %
// one-shot sources; HLSRG only. Query floods at this density are what makes
// a world expensive, and their cost varies with each world's layout, so
// worlds are short and a run pools many (with 3 % sources, half as many
// worlds left run-to-run spreads near 0.15); the long warm-up keeps the
// median step a query-free one, so step_ms_p50 measures the steady
// beacon/update load and step_ms_p90 the floods.
ScenarioConfig dense_2km(std::uint64_t seed) {
  ScenarioConfig cfg = paper_scenario(1000, seed);
  cfg.warmup = SimTime::from_sec(40.0);
  cfg.query_window = SimTime::from_sec(20.0);
  cfg.grace = SimTime::from_sec(5.0);
  cfg.source_fraction = 0.015;
  return cfg;
}

// The load_knee tier scenario just past its knee: 1.2 km map, 180
// vehicles, open-loop Poisson at 45 queries/s for 10 s (then 20 s to drain)
// with 80 % aimed at 5 hotspot targets; shedding at 96 outstanding, 40 ms
// batches of up to 8, 15 s cache. At the knee itself (36/s) the 5 s retry
// tail starts right at the 95th latency percentile, so query_delay_p95_ms
// flipped between seeds. Past it, how many queries a world serves depends
// on where its hotspot targets sit, so worlds are short and a run pools
// many: with a 25 s query window, half as many worlds left query_delay_p95_ms
// spreading 0.19 between seeds.
ScenarioConfig rsu_hotspot(std::uint64_t seed) {
  ScenarioConfig cfg = paper_scenario(180, seed);
  cfg.map.size_m = 1200.0;
  cfg.source_fraction = 0.0;
  cfg.hotspot_targets = 5;
  cfg.warmup = SimTime::from_sec(40.0);
  cfg.query_window = SimTime::from_sec(10.0);
  cfg.grace = SimTime::from_sec(20.0);
  cfg.service.enabled = true;
  cfg.service.hotspot_fraction = 0.8;
  cfg.service.rsu_lookup_time = SimTime::from_ms(40.0);
  cfg.service.open_loop_rate_per_sec = 45.0;
  cfg.service.max_outstanding = 96;
  cfg.service.batching = true;
  cfg.service.batch_window = SimTime::from_ms(40.0);
  cfg.service.max_batch = 8;
  cfg.service.caching = true;
  cfg.service.cache_ttl = SimTime::from_sec(15.0);
  cfg.service.cache_capacity = 512;
  return cfg;
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"paper_2km", 7100, {Protocol::kHlsrg, Protocol::kRlsmp}, 0.55,
       paper_2km},
      {"dense_2km", 9950, {Protocol::kHlsrg}, 0.5, dense_2km},
      {"rsu_hotspot", 41, {Protocol::kHlsrg}, 0.35, rsu_hotspot},
  };
  return all;
}

struct WorldSpec {
  int id = 0;
  int group = 0;  // worlds of one seed (one per protocol) share a group
  ScenarioConfig cfg;
  Protocol protocol = Protocol::kHlsrg;
};

std::vector<WorldSpec> world_list(const Workload& w, std::uint64_t seed,
                                  double seconds) {
  const int seeds =
      std::max(1, static_cast<int>(std::lround(seconds / w.host_s_per_seed)));
  std::vector<WorldSpec> out;
  for (int i = 0; i < seeds; ++i) {
    const std::uint64_t s = seed + static_cast<std::uint64_t>(i) * kSeedStride;
    for (Protocol p : w.protocols) {
      out.push_back({static_cast<int>(out.size()), i, w.config(s), p});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Benchmark spans (wall clock, kept in memory, written as Chrome trace)

class SpanRecorder {
 public:
  explicit SpanRecorder(bool on) : on_(on), epoch_(Clock::now()) {}

  // Runs `fn` inside a span named `name` on `track` (the world id; probes
  // that touch no world use their own track). Returns the elapsed ms.
  template <typename Fn>
  double span(const char* name, int track, Fn&& fn) {
    const Clock::time_point t0 = Clock::now();
    fn();
    const Clock::time_point t1 = Clock::now();
    if (on_) spans_.push_back({name, track, secs(t0), secs(t1)});
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  }

  [[nodiscard]] const std::vector<WallSpan>& spans() const { return spans_; }

 private:
  [[nodiscard]] double secs(Clock::time_point t) const {
    return std::chrono::duration<double>(t - epoch_).count();
  }
  bool on_;
  Clock::time_point epoch_;
  std::vector<WallSpan> spans_;
};

// ---------------------------------------------------------------------------
// Statistics

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  // Nearest rank, as LatencyStat does.
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

template <typename Fn>
double median_ms(int reps, Fn&& fn) {
  std::vector<double> ms;
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point t0 = Clock::now();
    fn();
    ms.push_back(ms_since(t0));
  }
  return median_of(ms);
}

// ---------------------------------------------------------------------------
// Host speed

// A fixed amount of work of the benchmark's own, unrelated to the simulator:
// random read-modify-writes over 8 MB and a sort of 100k integers. Its time
// tracks how fast the host runs memory-bound code at the moment.
void calibration_kernel() {
  static std::vector<std::uint32_t> mem(std::size_t{1} << 21);
  std::uint64_t x = 12345;
  std::uint64_t acc = 0;
  for (int i = 0; i < 400000; ++i) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    std::uint32_t& m = mem[(x >> 40) & (mem.size() - 1)];
    m += static_cast<std::uint32_t>(x);
    acc += m;
  }
  std::vector<std::uint64_t> v(100000);
  for (std::uint64_t& e : v) {
    x = x * 6364136223846793005ULL + 1;
    e = x;
  }
  std::sort(v.begin(), v.end());
  static volatile std::uint64_t sink;  // keeps the work from being elided
  sink = acc + v[v.size() / 2];
}

// The kernel's time on the reference host.
constexpr double kReferenceCalibrationMs = 10.0;

// Factor that turns host ms measured now into ms at the reference speed:
// reference kernel time / the kernel's median time now. A shared host runs
// the benchmark 20-30 % slower for minutes at a time; timed next to each
// world, the kernel slows with it, so scaled times follow the program and
// not the host's load.
double host_scale(double* calibration_ms) {
  *calibration_ms = median_ms(3, calibration_kernel);
  return ratio(kReferenceCalibrationMs, *calibration_ms);
}

// ---------------------------------------------------------------------------
// One world: build, step, finish, check

struct WorldResult {
  double build_ms = 0.0;
  double run_ms = 0.0;  // every step plus the final World::run()
  std::vector<double> step_ms;
  double sim_s = 0.0;
  double calibration_ms = 0.0;  // the host's kernel time next to this run
  std::uint64_t digest = 0;
  RunMetrics metrics;
  EngineStats engine;
  ServiceStats stats;
  std::uint64_t stranded = 0;
  std::uint64_t broadcast_receivers = 0;  // see ledger_split()
  double audit_ms = 0.0;
  PhaseProfiler profile;
  std::vector<std::string> errors;
};

// Offers the packet ledger books for broadcast receivers: everything offered
// minus unicast attempts (one offer each) minus wired sends (one offer each,
// routable or not).
void ledger_split(World& world, WorldResult* r) {
  const RegionTelemetry& regions = world.regions();
  std::uint64_t wired = 0;
  for (int i = 0; i < regions.region_count(); ++i) {
    wired += regions.at(i).wired_out + regions.at(i).wired_dropped;
  }
  r->broadcast_receivers = world.metrics().channel.total_offered() -
                           world.metrics().radio_unicasts - wired;
}

// Correctness checks on a finished world: clean audit and closed query
// accounting. Returns the audit's wall ms.
double check_world(World& world, WorldResult* r, SpanRecorder& rec, int id) {
  AuditReport report;
  const double audit_ms =
      rec.span("audit", id, [&] { report = world.audit_now(); });
  if (!report.ok()) r->errors.push_back("audit: " + report.to_string());
  const RunMetrics& m = world.metrics();
  const std::uint64_t settled_or_open =
      m.queries_succeeded + m.queries_failed + r->stranded + m.queries_shed;
  if (settled_or_open != m.queries_offered) {
    r->errors.push_back(
        "query accounting: succeeded " + std::to_string(m.queries_succeeded) +
        " + failed " + std::to_string(m.queries_failed) + " + stranded " +
        std::to_string(r->stranded) + " + shed " +
        std::to_string(m.queries_shed) + " != offered " +
        std::to_string(m.queries_offered));
  }
  if (m.queries_offered == 0) r->errors.push_back("no queries offered");
  return audit_ms;
}

// Builds and runs one world in 1-simulated-second steps. With `profile` the
// world carries the PhaseProfiler and every call is wrapped in a span.
// `probe`, when set, is called on the finished world before it is destroyed.
WorldResult run_stepped(const WorldSpec& spec, bool profile,
                        SpanRecorder& rec,
                        const std::function<void(World&)>& probe = {}) {
  WorldResult r;
  ScenarioConfig cfg = spec.cfg;
  cfg.profile = profile;
  std::unique_ptr<World> world;
  r.build_ms = rec.span("world_build", spec.id, [&] {
    world = std::make_unique<World>(cfg, spec.protocol);
  });
  const auto end_s = static_cast<int>(std::ceil(cfg.end_time().sec()));
  r.step_ms.reserve(static_cast<std::size_t>(end_s));
  for (int s = 1; s <= end_s; ++s) {
    const SimTime t = std::min(SimTime::from_sec(s), cfg.end_time());
    const double ms =
        rec.span("step", spec.id, [&] { world->run_until(t); });
    r.step_ms.push_back(ms);
    r.run_ms += ms;
  }
  r.run_ms += rec.span("finalize", spec.id, [&] { world->run(); });
  r.sim_s = world->sim().now().sec();
  rec.span("digest", spec.id, [&] { r.digest = state_digest(*world); });
  r.metrics = world->metrics();
  r.engine = world->sim().engine_stats();
  r.stats = world->service().service_stats();
  r.stranded = world->service().tracker().outstanding();
  ledger_split(*world, &r);
  r.audit_ms = check_world(*world, &r, rec, spec.id);
  if (world->profiler() != nullptr) r.profile = *world->profiler();
  if (probe) probe(*world);
  return r;
}

// Rescales the run's host times to the reference host speed.
void scale_times(WorldResult* r, double scale) {
  r->build_ms *= scale;
  r->run_ms *= scale;
  for (double& ms : r->step_ms) ms *= scale;
}

// Median of three constructions of the world, in ms: World construction is
// short next to the run, so one sample is mostly noise.
double median_build_ms(const WorldSpec& spec) {
  return median_ms(3, [&] { World w(spec.cfg, spec.protocol); });
}

// The world run unstepped with World::run() in a child process: its state
// digest, and the child's peak RSS — the world's own memory high-water mark,
// free of whatever earlier worlds left in this process's heap.
struct ChildRun {
  bool ok = false;
  std::uint64_t digest = 0;
  std::uint64_t peak_rss_bytes = 0;
};

// A started child: its pid and the read end of its pipe (pid < 0 if the
// start failed).
struct Child {
  pid_t pid = -1;
  int fd = -1;
};

Child start_unstepped_child(const WorldSpec& spec) {
  int fds[2];
  if (pipe(fds) != 0) return {};
  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return {};
  }
  if (pid == 0) {
    close(fds[0]);
    World world(spec.cfg, spec.protocol);
    world.run();
    const std::uint64_t msg[2] = {state_digest(world),
                                  process_peak_rss_bytes()};
    const bool sent = write(fds[1], msg, sizeof msg) ==
                      static_cast<ssize_t>(sizeof msg);
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  return {pid, fds[0]};
}

// Waits for a started child and collects its result.
ChildRun finish_child(const Child& child) {
  ChildRun out;
  if (child.pid < 0) return out;
  std::uint64_t msg[2] = {0, 0};
  std::size_t got = 0;
  while (got < sizeof msg) {
    const ssize_t n = read(child.fd, reinterpret_cast<char*>(msg) + got,
                           sizeof msg - got);
    if (n > 0) {
      got += static_cast<std::size_t>(n);
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(child.fd);
  int status = 0;
  while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
  }
  out.ok = got == sizeof msg && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  out.digest = msg[0];
  out.peak_rss_bytes = msg[1];
  return out;
}

// Sums over every node of the profile tree with this name, at any nesting.
struct ProfileSum {
  std::uint64_t calls = 0;
  double inclusive_ms = 0.0;
  double self_ms = 0.0;
};

ProfileSum profile_sum(const std::vector<WorldResult>& runs,
                       const char* name) {
  ProfileSum s;
  for (const WorldResult& r : runs) {
    for (const PhaseProfiler::Node& n : r.profile.nodes()) {
      if (std::strcmp(n.name, name) != 0) continue;
      s.calls += n.calls;
      s.inclusive_ms += static_cast<double>(n.inclusive_ns) * 1e-6;
      s.self_ms += static_cast<double>(n.exclusive_ns()) * 1e-6;
    }
  }
  return s;
}

// ---------------------------------------------------------------------------
// Metric output

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-32s %18.6f %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted);
  json += ", \"failed\": " + std::to_string(failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::snprintf(value, sizeof value, "%.17g", v);
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " + value +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// Protocol-side results pooled over every world of the timed pass.
struct Pooled {
  double run_ms = 0.0;
  double sim_s = 0.0;
  double veh_min = 0.0;
  std::vector<double> steps;
  LatencyStat latency;
  std::uint64_t offered = 0;
  std::uint64_t succeeded = 0;
  std::uint64_t update_tx = 0;
  std::uint64_t query_tx = 0;
};

Pooled pool(const std::vector<WorldSpec>& specs,
            const std::vector<WorldResult>& runs) {
  Pooled p;
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const WorldResult& r = runs[i];
    const RunMetrics& m = r.metrics;
    p.run_ms += r.run_ms;
    p.sim_s += r.sim_s;
    p.veh_min += specs[i].cfg.vehicles * r.sim_s / 60.0;
    p.steps.insert(p.steps.end(), r.step_ms.begin(), r.step_ms.end());
    p.latency.merge(m.query_latency);
    p.offered += m.queries_offered;
    p.succeeded += m.queries_succeeded;
    p.update_tx += m.update_transmissions + m.aggregation_transmissions;
    p.query_tx += m.total_query_overhead();
  }
  return p;
}

std::vector<Metric> end_to_end_metrics(const std::vector<WorldSpec>& specs,
                                       const std::vector<WorldResult>& runs,
                                       double setup_ms, double peak_rss_mb) {
  const Pooled p = pool(specs, runs);
  return {
      {"wall_ms_per_sim_s", ratio(p.run_ms, p.sim_s), "ms"},
      {"step_ms_p50", percentile(p.steps, 0.50), "ms"},
      {"step_ms_p90", percentile(p.steps, 0.90), "ms"},
      {"setup_s", setup_ms * 1e-3, "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"query_success",
       ratio(static_cast<double>(p.succeeded), static_cast<double>(p.offered)),
       "fraction"},
      {"query_delay_p50_ms", p.latency.p50_ms(), "ms"},
      {"query_delay_p95_ms", p.latency.p95_ms(), "ms"},
      {"update_tx_per_veh_min",
       ratio(static_cast<double>(p.update_tx), p.veh_min), "count"},
      {"query_tx_per_query",
       ratio(static_cast<double>(p.query_tx), static_cast<double>(p.offered)),
       "count"},
  };
}

// ---------------------------------------------------------------------------
// Probes: each layer's public API called directly at the workload's sizes.

struct Probes {
  double roadnet_build_ms = 0.0;
  double grid_build_ms = 0.0;
  double mobility_ms_per_sim_s = 0.0;
  double queue_ns_per_event = 0.0;
  double nbr_build_ns_per_node = 0.0;
  double nbr_query_ns = 0.0;
  double nbr_neighbors_per_query = 0.0;
  double table_record_ns = 0.0;
  double table_find_ns = 0.0;
  double table_purge_ns_per_record = 0.0;
};

// Deterministic 64-bit mixer for probe inputs (no simulator RNG involved).
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

void probe_map_and_grid(const ScenarioConfig& cfg, Probes* p) {
  p->roadnet_build_ms = median_ms(5, [&] {
    const RoadNetwork net = build_manhattan_map(cfg.map);
    if (net.intersection_count() == 0) std::abort();
  });
  const RoadNetwork net = build_manhattan_map(cfg.map);
  p->grid_build_ms = median_ms(5, [&] {
    const GridHierarchy h(net, build_partition(net, cfg.partition));
    (void)h;
  });
}

// A Simulator running only the mobility model, at the workload's fleet size.
void probe_mobility(const ScenarioConfig& cfg, Probes* p) {
  const RoadNetwork net = build_manhattan_map(cfg.map);
  constexpr double kSimS = 20.0;
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    Simulator sim(cfg.seed);
    MobilityModel mobility(sim, net, cfg.mobility);
    mobility.place_random_vehicles(cfg.vehicles);
    mobility.start();
    const Clock::time_point t0 = Clock::now();
    sim.run_until(SimTime::from_sec(kSimS));
    ms.push_back(ms_since(t0));
  }
  p->mobility_ms_per_sim_s = median_of(ms) / kSimS;
}

// EventQueue held at `depth` pending events: each dispatched event schedules
// one successor, so every pop is matched by a push at the same depth.
void probe_queue(std::size_t depth, Probes* p) {
  depth = std::max<std::size_t>(depth, 1);
  constexpr std::uint64_t kEvents = 400000;
  std::vector<double> ms;
  for (int rep = 0; rep < 3; ++rep) {
    EventQueue q;
    std::uint64_t state = 1;
    std::uint64_t fired = 0;
    auto delay = [&state] {
      state = mix(state);
      return SimTime::from_us(static_cast<std::int64_t>(state % 1000000));
    };
    std::function<void()> reschedule = [&] {
      ++fired;
      q.schedule_at(q.now() + delay(), [&] { reschedule(); });
    };
    for (std::size_t i = 0; i < depth; ++i) {
      q.schedule_at(delay(), [&] { reschedule(); });
    }
    const Clock::time_point t0 = Clock::now();
    while (fired < kEvents) q.run_one();
    ms.push_back(ms_since(t0));
  }
  p->queue_ns_per_event = median_of(ms) * 1e6 / static_cast<double>(kEvents);
}

// A fresh NeighborIndex over the warmed world's registry: full build cost
// per node, then one range query at every node's position.
void probe_neighbors(World& world, Probes* p) {
  const NodeRegistry& reg = world.registry();
  const RadioConfig& radio = world.config().radio;
  const double nodes = static_cast<double>(reg.count());
  p->nbr_build_ns_per_node = median_ms(5, [&] {
    NeighborIndex index(reg, radio.range_m, radio.contention_free_neighbors);
    index.refresh(world.sim().now());
  }) * 1e6 / nodes;
  NeighborIndex index(reg, radio.range_m, radio.contention_free_neighbors);
  index.refresh(world.sim().now());
  std::vector<NodeId> out;
  std::uint64_t found = 0;
  const double ms = median_ms(3, [&] {
    found = 0;
    for (std::size_t i = 0; i < reg.count(); ++i) {
      const NodeId id{static_cast<std::uint32_t>(i)};
      out.clear();
      index.query(reg.position(id), radio.range_m, id, &out);
      found += out.size();
    }
  });
  p->nbr_query_ns = ms * 1e6 / nodes;
  p->nbr_neighbors_per_query = static_cast<double>(found) / nodes;
}

// One location-table level at `records` entries: insert + refresh every
// record (record_ns), look every key up (find_ns), then expire them all
// (purge_ns_per_record).
template <typename Table, typename MakeRec>
void probe_table(std::size_t records, MakeRec make, double* record_ns,
                 double* find_ns, double* purge_ns) {
  std::vector<double> rec_ms;
  std::vector<double> find_ms;
  std::vector<double> purge_ms;
  std::size_t hits = 0;
  for (int rep = 0; rep < 5; ++rep) {
    Table table;
    Clock::time_point t0 = Clock::now();
    for (int pass = 1; pass <= 2; ++pass) {
      for (std::size_t i = 0; i < records; ++i) {
        const std::size_t k = mix(i) % records;
        table.record(make(VehicleId{static_cast<std::uint32_t>(k)},
                          SimTime::from_sec(pass + static_cast<double>(i) /
                                                       records)));
      }
    }
    rec_ms.push_back(ms_since(t0));
    t0 = Clock::now();
    for (std::size_t i = 0; i < records; ++i) {
      hits += table.find(VehicleId{static_cast<std::uint32_t>(
                  mix(i + 7) % records)}) != nullptr;
    }
    find_ms.push_back(ms_since(t0));
    const std::size_t live = table.size();
    t0 = Clock::now();
    const std::size_t purged =
        table.purge(SimTime::from_sec(1000.0), SimTime::from_sec(1.0));
    purge_ms.push_back(ms_since(t0));
    if (purged != live || hits == 0) std::abort();
  }
  const double n = static_cast<double>(records);
  *record_ns += median_of(rec_ms) * 1e6 / (2.0 * n);
  *find_ns += median_of(find_ms) * 1e6 / n;
  *purge_ns += median_of(purge_ms) * 1e6 / n;
}

// L1, L2 and L3 tables holding one record per vehicle of the workload (an
// L3 table of a one-region map holds exactly that); reported as the mean
// over the three levels.
void probe_tables(std::size_t records, Probes* p) {
  records = std::max<std::size_t>(records, 1);
  probe_table<L1Table>(
      records,
      [](VehicleId v, SimTime t) {
        L1Record r;
        r.vehicle = v;
        r.time = t;
        return r;
      },
      &p->table_record_ns, &p->table_find_ns, &p->table_purge_ns_per_record);
  probe_table<L2Table>(
      records, [](VehicleId v, SimTime t) { return L2Summary{v, t, {}}; },
      &p->table_record_ns, &p->table_find_ns, &p->table_purge_ns_per_record);
  probe_table<L3Table>(
      records, [](VehicleId v, SimTime t) { return L3Summary{v, t, {}, {}}; },
      &p->table_record_ns, &p->table_find_ns, &p->table_purge_ns_per_record);
  p->table_record_ns /= 3.0;
  p->table_find_ns /= 3.0;
  p->table_purge_ns_per_record /= 3.0;
}

// ---------------------------------------------------------------------------
// Passes

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  bool seed_set = false;
  double seconds = 10.0;
  int trace = 0;
  std::string trace_out;
};

void report_errors(const std::vector<WorldSpec>& specs,
                   const std::vector<WorldResult>& runs, std::size_t* failed) {
  for (std::size_t i = 0; i < runs.size(); ++i) {
    if (runs[i].errors.empty()) continue;
    ++*failed;
    for (const std::string& e : runs[i].errors) {
      std::fprintf(stderr, "world %d (%s, seed %llu): %s\n", specs[i].id,
                   protocol_name(specs[i].protocol),
                   static_cast<unsigned long long>(specs[i].cfg.seed),
                   e.c_str());
    }
  }
}

int timed_pass(const std::vector<WorldSpec>& specs) {
  // Unstepped reference runs first, each in its own child process, while
  // this process is still small: a child's peak RSS then measures its world
  // alone. peak_rss_mb is the largest world of a seed (its protocols), mean
  // over the seeds: flood-heavy seeds need a deeper event queue, and a mean
  // over many seeds moves less than a median across that spread. Two
  // children run at once: they are not timed, and the host has a few cores.
  constexpr std::size_t kChildren = 2;
  std::vector<ChildRun> reference;
  std::vector<Child> running;
  std::map<int, double> group_rss_mb;
  for (std::size_t next = 0; reference.size() < specs.size();) {
    while (next < specs.size() && running.size() < kChildren) {
      running.push_back(start_unstepped_child(specs[next++]));
    }
    reference.push_back(finish_child(running.front()));
    running.erase(running.begin());
    double& mb = group_rss_mb[specs[reference.size() - 1].group];
    mb = std::max(mb, static_cast<double>(reference.back().peak_rss_bytes) /
                          (1024.0 * 1024.0));
  }
  double rss_mb = 0.0;
  for (const auto& [group, mb] : group_rss_mb) rss_mb += mb;
  rss_mb /= static_cast<double>(group_rss_mb.size());
  SpanRecorder off(false);
  std::vector<WorldResult> runs;
  double setup_ms = 0.0;
  double raw_run_ms = 0.0;
  std::vector<double> calibration_ms;
  for (const WorldSpec& spec : specs) {
    double cal = 0.0;
    const double scale = host_scale(&cal);
    setup_ms += median_build_ms(spec) * scale;
    runs.push_back(run_stepped(spec, false, off));
    raw_run_ms += runs.back().run_ms;
    scale_times(&runs.back(), scale);
    calibration_ms.push_back(cal);
  }
  // Stepping must be digest-neutral: the unstepped World::run() of the same
  // world ends in the same state.
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!reference[i].ok) {
      runs[i].errors.push_back("unstepped reference run failed");
    } else if (reference[i].digest != runs[i].digest) {
      runs[i].errors.push_back("stepped digest differs from unstepped run");
    }
  }
  std::size_t failed = 0;
  report_errors(specs, runs, &failed);
  const std::vector<Metric> metrics =
      end_to_end_metrics(specs, runs, setup_ms, rss_mb);
  const Pooled p = pool(specs, runs);
  std::printf("timed pass: %zu worlds, %zu steps of 1 sim-s, %.0f sim-s, "
              "%llu queries offered; unscaled %.4f ms per sim-s, calibration "
              "kernel %.3f ms (median; reference %.1f ms)\n",
              specs.size(), p.steps.size(), p.sim_s,
              static_cast<unsigned long long>(p.offered),
              ratio(raw_run_ms, p.sim_s), median_of(calibration_ms),
              kReferenceCalibrationMs);
  print_result(failed == 0, specs.size(), failed, metrics);
  return failed == 0 ? 0 : 1;
}

int traced_pass(const Workload& w, const std::vector<WorldSpec>& specs,
                const std::string& trace_out) {
  SpanRecorder off(false);
  SpanRecorder rec(true);
  std::vector<WorldResult> timed;
  std::vector<WorldResult> traced;
  Probes probes;
  for (const WorldSpec& spec : specs) {
    double cal = 0.0;
    host_scale(&cal);
    timed.push_back(run_stepped(spec, false, off));
    timed.back().calibration_ms = cal;
    // The traced run of the same world, profiled and spanned. The last
    // world's warmed registry feeds the neighbour-index probe.
    std::function<void(World&)> probe;
    if (&spec == &specs.back()) {
      probe = [&](World& world) {
        rec.span("probe.neighbor_index", spec.id,
                 [&] { probe_neighbors(world, &probes); });
      };
    }
    WorldResult r = run_stepped(spec, true, rec, probe);
    for (const std::string& e : timed.back().errors) {
      r.errors.push_back("timed run: " + e);
    }
    if (r.digest != timed.back().digest) {
      r.errors.push_back("traced digest differs from timed run");
    }
    traced.push_back(std::move(r));
  }
  const int probe_track = static_cast<int>(specs.size());
  const ScenarioConfig& cfg0 = specs.front().cfg;
  rec.span("probe.roadnet_grid", probe_track,
           [&] { probe_map_and_grid(cfg0, &probes); });
  rec.span("probe.mobility", probe_track,
           [&] { probe_mobility(cfg0, &probes); });
  std::uint64_t peak_depth = 0;
  for (const WorldResult& r : traced) {
    peak_depth = std::max(peak_depth, r.engine.peak_queue_depth);
  }
  rec.span("probe.event_queue", probe_track,
           [&] { probe_queue(peak_depth, &probes); });
  rec.span("probe.tables", probe_track, [&] {
    probe_tables(static_cast<std::size_t>(cfg0.vehicles), &probes);
  });

  std::size_t failed = 0;
  report_errors(specs, traced, &failed);

  // Counters (identical between the two passes: digests match).
  double events = 0, broadcasts = 0, receivers = 0, unicasts = 0, gpsr_fail = 0,
         wired = 0, offered_ch = 0, delivered_ch = 0, hits = 0, lookups = 0,
         sim_s = 0, build_ms = 0, audit_ms = 0, traced_ms = 0, timed_ms = 0;
  double offered_q = 0, shed = 0, cache_hits = 0, cache_probes = 0,
         batched = 0, peak_outstanding = 0;
  double hl_records = 0, hl_bytes = 0, hl_veh = 0, rl_bytes = 0, rl_veh = 0;
  int hl_worlds = 0;
  for (std::size_t i = 0; i < traced.size(); ++i) {
    const WorldResult& r = traced[i];
    const RunMetrics& m = r.metrics;
    events += static_cast<double>(r.engine.events_processed);
    broadcasts += static_cast<double>(m.radio_broadcasts);
    receivers += static_cast<double>(r.broadcast_receivers);
    unicasts += static_cast<double>(m.radio_unicasts);
    gpsr_fail += static_cast<double>(m.gpsr_failures);
    wired += static_cast<double>(m.wired_messages);
    offered_ch += static_cast<double>(m.channel.total_offered());
    delivered_ch += static_cast<double>(m.channel.total_delivered());
    hits += static_cast<double>(m.server_lookup_hits + m.rsu_lookup_hits);
    lookups += static_cast<double>(m.server_lookup_hits + m.rsu_lookup_hits +
                                   m.server_lookup_misses +
                                   m.rsu_lookup_misses);
    sim_s += r.sim_s;
    build_ms += r.build_ms;
    audit_ms += r.audit_ms;
    traced_ms += r.run_ms;
    timed_ms += timed[i].run_ms;
    offered_q += static_cast<double>(m.queries_offered);
    shed += static_cast<double>(m.queries_shed + m.retries_shed);
    cache_hits += static_cast<double>(m.cache_hits);
    cache_probes += static_cast<double>(m.cache_hits + m.cache_misses);
    batched += static_cast<double>(m.batched_queries);
    peak_outstanding =
        std::max(peak_outstanding, static_cast<double>(m.peak_outstanding));
    const double veh = specs[i].cfg.vehicles;
    if (specs[i].protocol == Protocol::kRlsmp) {
      rl_bytes += static_cast<double>(r.stats.table_bytes);
      rl_veh += veh;
    } else {
      hl_records += static_cast<double>(r.stats.table_records);
      hl_bytes += static_cast<double>(r.stats.table_bytes);
      hl_veh += veh;
      ++hl_worlds;
    }
  }
  const ProfileSum loop = profile_sum(traced, "event_loop");
  const ProfileSum dispatch = profile_sum(traced, "dispatch");
  const ProfileSum bcast = profile_sum(traced, "radio_broadcast");
  const ProfileSum ucast = profile_sum(traced, "radio_unicast");
  const ProfileSum rebuild = profile_sum(traced, "neighbor_index_rebuild");
  const ProfileSum wired_send = profile_sum(traced, "wired_send");
  const ProfileSum rsu = profile_sum(traced, "rsu_handle");
  const ProfileSum flush = profile_sum(traced, "batch_flush");
  // Each protocol's share of the timed runs, at the reference host speed
  // like the end-to-end wall_ms_per_sim_s.
  auto scaled_wall = [&](Protocol protocol) {
    double ms = 0.0;
    double secs = 0.0;
    for (std::size_t i = 0; i < timed.size(); ++i) {
      if (specs[i].protocol != protocol) continue;
      ms += timed[i].run_ms *
            ratio(kReferenceCalibrationMs, timed[i].calibration_ms);
      secs += timed[i].sim_s;
    }
    return ratio(ms, secs);
  };
  std::vector<double> calibration_ms;
  for (const WorldResult& r : timed) calibration_ms.push_back(r.calibration_ms);

  const std::vector<Metric> metrics = {
      {"harness.world_build_ms", build_ms, "ms"},
      {"roadnet.build_ms", probes.roadnet_build_ms, "ms"},
      {"grid.build_ms", probes.grid_build_ms, "ms"},
      {"mobility.ms_per_sim_s", probes.mobility_ms_per_sim_s, "ms"},
      {"sim.events_per_sim_s", ratio(events, sim_s), "count"},
      {"sim.events_per_broadcast", ratio(events, broadcasts), "count"},
      {"sim.peak_queue_depth", static_cast<double>(peak_depth), "count"},
      {"sim.dispatch_self_ms", dispatch.self_ms, "ms"},
      {"sim.event_loop_self_ms", loop.self_ms, "ms"},
      {"sim.queue_ns_per_event", probes.queue_ns_per_event, "ns"},
      {"radio.broadcasts", broadcasts, "count"},
      {"radio.receivers_per_broadcast", ratio(receivers, broadcasts), "count"},
      {"radio.broadcast_self_ms", bcast.self_ms, "ms"},
      {"radio.ns_per_receiver", ratio(bcast.self_ms * 1e6, receivers), "ns"},
      {"radio.delivery_ratio", ratio(delivered_ch, offered_ch), "fraction"},
      {"radio.unicasts", unicasts, "count"},
      {"radio.unicast_self_ms", ucast.self_ms, "ms"},
      {"gpsr.failures", gpsr_fail, "count"},
      {"nbr.rebuilds", static_cast<double>(rebuild.calls), "count"},
      {"nbr.rebuilds_per_broadcast",
       ratio(static_cast<double>(rebuild.calls), broadcasts), "count"},
      {"nbr.rebuild_ms", rebuild.inclusive_ms, "ms"},
      {"nbr.build_ns_per_node", probes.nbr_build_ns_per_node, "ns"},
      {"nbr.query_ns", probes.nbr_query_ns, "ns"},
      {"nbr.neighbors_per_query", probes.nbr_neighbors_per_query, "count"},
      {"wired.messages", wired, "count"},
      {"wired.send_ms", wired_send.inclusive_ms, "ms"},
      {"core.lookup_hit_ratio", ratio(hits, lookups), "fraction"},
      {"core.rsu_handle_ms", rsu.inclusive_ms, "ms"},
      {"core.table_records", ratio(hl_records, hl_worlds), "count"},
      {"core.table_bytes_per_veh", ratio(hl_bytes, hl_veh), "B"},
      {"table.record_ns", probes.table_record_ns, "ns"},
      {"table.find_ns", probes.table_find_ns, "ns"},
      {"table.purge_ns_per_record", probes.table_purge_ns_per_record, "ns"},
      {"hlsrg.wall_ms_per_sim_s", scaled_wall(Protocol::kHlsrg), "ms"},
      {"rlsmp.wall_ms_per_sim_s", scaled_wall(Protocol::kRlsmp), "ms"},
      {"rlsmp.table_bytes_per_veh", ratio(rl_bytes, rl_veh), "B"},
      {"service.shed_fraction", ratio(shed, offered_q), "fraction"},
      {"service.cache_hit_ratio", ratio(cache_hits, cache_probes), "fraction"},
      {"service.batched_fraction", ratio(batched, offered_q), "fraction"},
      {"service.batch_flush_ms", flush.inclusive_ms, "ms"},
      {"service.peak_outstanding", peak_outstanding, "count"},
      {"audit.ms", ratio(audit_ms, static_cast<double>(traced.size())), "ms"},
      {"profile.coverage",
       ratio(loop.inclusive_ms - dispatch.self_ms - loop.self_ms,
             loop.inclusive_ms),
       "fraction"},
      {"trace.overhead", ratio(traced_ms, timed_ms) - 1.0, "fraction"},
      {"host.calibration_ms", median_of(calibration_ms), "ms"},
  };

  // Largest attributed layer by self time (the dispatch/event_loop residue
  // is unattributed and left out).
  std::pair<const char*, double> top{"", -1.0};
  for (const auto& [name, ms] :
       {std::pair<const char*, double>{"radio_broadcast", bcast.self_ms},
        {"radio_unicast", ucast.self_ms},
        {"neighbor_index_rebuild", rebuild.self_ms},
        {"wired_send", wired_send.self_ms},
        {"rsu_handle", rsu.self_ms},
        {"batch_flush", flush.self_ms}}) {
    if (ms > top.second) top = {name, ms};
  }
  std::printf("traced pass (%s): %zu worlds; largest attributed layer by "
              "self time: %s (%.1f ms)\n",
              w.name, specs.size(), top.first, top.second);

  // Trace file: benchmark spans (pid 2, one track per world) plus the merged
  // phase profile (pid 3).
  PhaseProfiler merged;
  for (const WorldResult& r : traced) merged.merge(r.profile);
  std::string error;
  bool correct = failed == 0;
  if (!write_chrome_trace(TraceLog{}, rec.spans(), trace_out, &error,
                          &merged)) {
    std::fprintf(stderr, "cannot write trace %s: %s\n", trace_out.c_str(),
                 error.c_str());
    correct = false;
  } else {
    std::printf("trace: %zu spans -> %s\n", rec.spans().size(),
                trace_out.c_str());
  }
  print_result(correct, specs.size(), failed, metrics);
  return correct ? 0 : 1;
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "{paper_2km|dense_2km|rsu_hotspot} [--seed N] [--seconds S] "
               "[--trace 0|1] [--trace-out PATH]\n",
               msg);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v, &end, 10);
      o.seed_set = true;
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v, &end);
      if (!(o.seconds > 0.0 && o.seconds <= 3600.0)) usage("bad --seconds");
    } else if (a == "--trace") {
      o.trace = static_cast<int>(std::strtol(v, &end, 10));
      if (o.trace != 0 && o.trace != 1) usage("--trace takes 0 or 1");
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage(("unknown flag " + a).c_str());
    }
    if (end != nullptr && *end != '\0') usage(("bad value for " + a).c_str());
  }
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opts = parse(argc, argv);
  const Workload* w = nullptr;
  for (const Workload& c : workloads()) {
    if (opts.workload == c.name) w = &c;
  }
  if (w == nullptr) usage("unknown or missing --workload");
  if (opts.trace == 1 && opts.trace_out.empty()) {
    usage("--trace 1 needs --trace-out");
  }
  const std::uint64_t seed = opts.seed_set ? opts.seed : w->default_seed;
  const std::vector<WorldSpec> specs = world_list(*w, seed, opts.seconds);
  std::printf("workload %s, seed %llu, %zu worlds\n", w->name,
              static_cast<unsigned long long>(seed), specs.size());
  if (opts.trace == 0) return timed_pass(specs);
  return traced_pass(*w, specs, opts.trace_out);
}
