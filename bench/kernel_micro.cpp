// Kernel microbenchmarks for the simulation engine hot paths
// (google-benchmark): event queue, RNG, neighbor index, table operations,
// map + partition build, and a full small-world step as an end-to-end engine
// figure. The JSON-reporting engine-throughput bench that CI gates lives in
// micro_engine.cpp.
#include <benchmark/benchmark.h>

#include <cmath>

#include "core/location_table.h"
#include "grid/hierarchy.h"
#include "grid/partition.h"
#include "harness/world.h"
#include "net/neighbor_index.h"
#include "roadnet/map_builder.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace hlsrg {
namespace {

void BM_EventQueueScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  for (auto _ : state) {
    EventQueue q;
    for (std::size_t i = 0; i < n; ++i) {
      q.schedule_at(SimTime::from_us(rng.uniform_int(0, 1'000'000)),
                    [] { benchmark::DoNotOptimize(0); });
    }
    q.run_until(SimTime::from_sec(2));
    benchmark::DoNotOptimize(q.now());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_EventQueueScheduleRun)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_EventQueueCancel(benchmark::State& state) {
  for (auto _ : state) {
    EventQueue q;
    std::vector<EventHandle> handles;
    handles.reserve(10000);
    for (int i = 0; i < 10000; ++i) {
      handles.push_back(q.schedule_at(SimTime::from_us(i), [] {}));
    }
    for (std::size_t i = 0; i < handles.size(); i += 2) q.cancel(handles[i]);
    q.run_until(SimTime::from_sec(1));
  }
}
BENCHMARK(BM_EventQueueCancel);

void BM_RngUniform(benchmark::State& state) {
  Rng rng(1);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

void BM_RngUniformInt(benchmark::State& state) {
  Rng rng(1);
  std::int64_t acc = 0;
  for (auto _ : state) acc += rng.uniform_int(0, 999);
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniformInt);

// Refresh after m of n nodes moved (state.range(1) of state.range(0)), with
// one generation bump per batch as the pose bridge does every mobility tick:
// the rebuild visits only the written nodes. The square grows with n to
// keep the density of 700 nodes on 2 km x 2 km, and nodes toggle 7 m along
// x, about one tick of driving, so most updates stay in their sub-bucket.
void BM_NeighborIndexRefresh(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto m = static_cast<std::size_t>(state.range(1));
  const double side = 2000.0 * std::sqrt(static_cast<double>(n) / 700.0);
  NodeRegistry reg;
  Rng rng(2);
  std::vector<Vec2> home;
  for (std::size_t i = 0; i < n; ++i) {
    home.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
    reg.add_node(home.back());
  }
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime{});
  std::size_t next = 0;
  bool away = false;
  for (auto _ : state) {
    for (std::size_t j = 0; j < m; ++j) {
      reg.set_position(NodeId{next},
                       away ? home[next] + Vec2{7.0, 0.0} : home[next]);
      if (++next == n) {
        next = 0;
        away = !away;
      }
    }
    reg.bump_position_generation();
    index.refresh(SimTime{});
    benchmark::DoNotOptimize(index);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(m) * state.iterations());
}
BENCHMARK(BM_NeighborIndexRefresh)
    ->Args({700, 1})
    ->Args({700, 70})
    ->Args({700, 700})
    ->Args({32000, 70});

// Every node's contention density after a bump (which invalidates the
// cached densities) on a 2 km x 2 km square: 500 nodes is the paper
// density, 1000 the perfbench dense_2km fleet.
void BM_NeighborIndexDensity(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  NodeRegistry reg;
  Rng rng(5);
  for (std::size_t i = 0; i < n; ++i) {
    reg.add_node({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)});
  }
  NeighborIndex index(reg, 500.0);
  for (auto _ : state) {
    reg.bump_position_generation();
    index.refresh(SimTime{});
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) sum += index.local_density(NodeId{i});
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(n) * state.iterations());
}
BENCHMARK(BM_NeighborIndexDensity)->Arg(500)->Arg(1000);

void BM_NeighborIndexQuery(benchmark::State& state) {
  NodeRegistry reg;
  Rng rng(3);
  for (int i = 0; i < 700; ++i) {
    const Vec2 p{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    reg.add_node(p);
  }
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime::from_us(1));
  std::vector<NodeId> out;
  for (auto _ : state) {
    out.clear();
    index.query({rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)}, 500.0,
                NodeId{}, &out);
    benchmark::DoNotOptimize(out.size());
  }
}
BENCHMARK(BM_NeighborIndexQuery);

void BM_ExpiringTableLookup(benchmark::State& state) {
  L1Table table;
  for (std::uint32_t i = 0; i < 500; ++i) {
    L1Record rec;
    rec.vehicle = VehicleId{i * 3};
    table.record(rec);
  }
  Rng rng(4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        table.find(VehicleId{static_cast<std::uint32_t>(
            rng.uniform_int(0, 1500))}));
  }
}
BENCHMARK(BM_ExpiringTableLookup);

void BM_MapBuild(benchmark::State& state) {
  for (auto _ : state) {
    const RoadNetwork net = build_manhattan_map({});
    benchmark::DoNotOptimize(net.segment_count());
  }
}
BENCHMARK(BM_MapBuild);

void BM_PartitionBuild(benchmark::State& state) {
  const RoadNetwork net = build_manhattan_map({});
  for (auto _ : state) {
    const Partition p = build_partition(net);
    benchmark::DoNotOptimize(p.cols());
  }
}
BENCHMARK(BM_PartitionBuild);

void BM_WorldConstruct(benchmark::State& state) {
  for (auto _ : state) {
    ScenarioConfig cfg = paper_scenario(300, 1);
    World world(cfg, Protocol::kHlsrg);
    benchmark::DoNotOptimize(world.planned_queries());
  }
}
BENCHMARK(BM_WorldConstruct);

void BM_WorldSimulatedSecond(benchmark::State& state) {
  // Cost of one simulated second of the full HLSRG world (mobility + radio +
  // protocol), amortized.
  ScenarioConfig cfg = paper_scenario(static_cast<int>(state.range(0)), 1);
  cfg.grace = SimTime::from_sec(100000);  // never ends on its own
  World world(cfg, Protocol::kHlsrg);
  double t = 1.0;
  for (auto _ : state) {
    world.run_until(SimTime::from_sec(t));
    t += 1.0;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WorldSimulatedSecond)->Arg(300)->Arg(700)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace hlsrg
