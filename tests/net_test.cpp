// Tests for net: registry, neighbor index, radio medium, GPSR, geocast, and
// the wired backhaul.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "net/geocast.h"
#include "net/gpsr.h"
#include "net/neighbor_index.h"
#include "net/node_registry.h"
#include "net/radio.h"
#include "net/wired.h"
#include "obs/region_telemetry.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace hlsrg {
namespace {

// Records every packet it receives.
class CaptureSink : public PacketSink {
 public:
  void on_receive(const Packet& packet, NodeId from) override {
    received.push_back({packet, from});
  }
  struct Rx {
    Packet packet;
    NodeId from;
  };
  std::vector<Rx> received;
};

struct TestPayload final : PayloadBase {
  int value = 0;
};

Packet make_test_packet(int value = 7) {
  auto p = std::make_shared<TestPayload>();
  p->value = value;
  Packet pkt;
  pkt.id = PacketId{std::uint32_t{1}};
  pkt.kind = PacketKind::kQueryRequest;
  pkt.payload = p;
  return pkt;
}

// A registry of static nodes with capture sinks.
class StaticNet {
 public:
  explicit StaticNet(Simulator& sim, RadioConfig cfg = {})
      : sim_(&sim) {
    cfg_ = cfg;
  }

  NodeId add(Vec2 pos) {
    sinks_.push_back(std::make_unique<CaptureSink>());
    const NodeId id = registry_.add_node(pos, sinks_.back().get());
    return id;
  }

  RadioMedium& medium() {
    if (!medium_) medium_ = std::make_unique<RadioMedium>(*sim_, registry_, cfg_);
    return *medium_;
  }

  CaptureSink& sink(NodeId id) { return *sinks_[id.index()]; }
  NodeRegistry& registry() { return registry_; }

 private:
  Simulator* sim_;
  RadioConfig cfg_;
  NodeRegistry registry_;
  std::vector<std::unique_ptr<CaptureSink>> sinks_;
  std::unique_ptr<RadioMedium> medium_;
};

RadioConfig lossless() {
  RadioConfig cfg;
  cfg.base_loss = 0.0;
  cfg.distance_loss = 0.0;
  cfg.contention_loss_per_neighbor = 0.0;
  return cfg;
}

// --- NodeRegistry -------------------------------------------------------------

TEST(NodeRegistryTest, PositionsArePushed) {
  NodeRegistry reg;
  const NodeId id = reg.add_node(Vec2{1, 2});
  EXPECT_EQ(reg.position(id), (Vec2{1, 2}));
  reg.set_position(id, Vec2{3, 4});
  EXPECT_EQ(reg.position(id), (Vec2{3, 4}));
}

TEST(NodeRegistryTest, VehicleSoaRows) {
  NodeRegistry reg;
  const NodeId n0 = reg.add_node(Vec2{1, 0});
  const NodeId n1 = reg.add_node(Vec2{2, 0});
  reg.bind_vehicle(VehicleId{0u}, n0);
  reg.bind_vehicle(VehicleId{1u}, n1);
  ASSERT_EQ(reg.vehicle_count(), 2u);
  EXPECT_EQ(reg.vehicle_node(VehicleId{1u}), n1);
  EXPECT_EQ(reg.vehicle_position(VehicleId{1u}), (Vec2{2, 0}));
  // Rows seed at rest / region -1; setters keep them current.
  EXPECT_FALSE(reg.vehicle_parked(VehicleId{0u}));
  EXPECT_EQ(reg.vehicle_region(VehicleId{0u}), -1);
  reg.set_vehicle_parked(VehicleId{0u}, true);
  reg.set_vehicle_velocity(VehicleId{0u}, Vec2{0, 5});
  reg.set_vehicle_region(VehicleId{0u}, 3);
  EXPECT_TRUE(reg.vehicle_parked(VehicleId{0u}));
  EXPECT_EQ(reg.vehicle_velocity(VehicleId{0u}), (Vec2{0, 5}));
  EXPECT_EQ(reg.vehicle_region(VehicleId{0u}), 3);
  // A pose push through the node handle is visible through the vehicle view.
  reg.set_position(n0, Vec2{7, 8});
  EXPECT_EQ(reg.vehicle_position(VehicleId{0u}), (Vec2{7, 8}));
}

TEST(NodeRegistryTest, SinkInstallation) {
  NodeRegistry reg;
  const NodeId id = reg.add_node(Vec2{});
  EXPECT_EQ(reg.sink(id), nullptr);
  CaptureSink sink;
  reg.set_sink(id, &sink);
  EXPECT_EQ(reg.sink(id), &sink);
}

// --- NeighborIndex ------------------------------------------------------------

TEST(NeighborIndexTest, MatchesBruteForce) {
  Simulator sim(5);
  NodeRegistry reg;
  Rng rng(5);
  std::vector<Vec2> pts;
  for (int i = 0; i < 300; ++i) {
    const Vec2 p{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    pts.push_back(p);
    reg.add_node(p);
  }
  NeighborIndex index(reg, 500.0);
  index.refresh(sim.now());
  for (int q = 0; q < 50; ++q) {
    const Vec2 query{rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)};
    std::vector<NodeId> got;
    index.query(query, 500.0, NodeId{}, &got);
    std::vector<NodeId> want;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (distance(pts[i], query) <= 500.0) want.push_back(NodeId{i});
    }
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want);
    EXPECT_EQ(index.count_within(query, 500.0, NodeId{}),
              static_cast<int>(want.size()));
  }
}

TEST(NeighborIndexTest, ExcludesRequestedNode) {
  Simulator sim(1);
  NodeRegistry reg;
  const NodeId a = reg.add_node(Vec2{0, 0});
  reg.add_node(Vec2{10, 0});
  NeighborIndex index(reg, 100.0);
  index.refresh(sim.now());
  std::vector<NodeId> out;
  index.query({0, 0}, 100.0, a, &out);
  EXPECT_EQ(out.size(), 1u);
  EXPECT_NE(out[0], a);
}

// local_density() (the sub-bucket count) must equal exact_density() (the
// count_within walk) at every node.
void expect_densities_exact(const NodeRegistry& reg, NeighborIndex& index) {
  for (std::size_t i = 0; i < reg.count(); ++i) {
    const NodeId id{i};
    ASSERT_EQ(index.local_density(id), index.exact_density(id))
        << "node " << i << " at " << reg.position(id);
  }
}

TEST(NeighborIndexTest, SubBucketDensityMatchesCountWithinFuzz) {
  for (const double cell : {100.0, 500.0}) {
    Rng rng(static_cast<std::uint64_t>(cell));
    NodeRegistry reg;
    const double half = cell / 2.0;
    // A coordinate around the origin: uniform, on a cell or sub-cell edge
    // (every multiple of cell/2, negative ones included), or a few ulps off
    // such an edge.
    const auto coord = [&] {
      const double edge =
          half * static_cast<double>(rng.uniform_int(-8, 8));
      switch (rng.uniform_int(0, 2)) {
        case 0:
          return rng.uniform(-4.0 * cell, 4.0 * cell);
        case 1:
          return edge;
        default: {
          double x = edge;
          const bool up = rng.chance(0.5);
          for (std::int64_t k = rng.uniform_int(1, 3); k > 0; --k) {
            x = std::nextafter(x, up ? 1e300 : -1e300);
          }
          return x;
        }
      }
    };
    for (int i = 0; i < 600; ++i) reg.add_node(Vec2{coord(), coord()});
    // Nodes at exactly distance R (3-4-5 offsets and axis offsets from edge
    // points, all exact in binary) and coincident nodes.
    for (int i = 0; i < 300; ++i) {
      const NodeId base{static_cast<std::uint32_t>(rng.uniform_int(0, 599))};
      const Vec2 p = reg.position(base);
      const double a = cell * 3.0 / 5.0;
      const double b = cell * 4.0 / 5.0;
      const Vec2 offsets[] = {{a, b}, {-b, a}, {cell, 0.0}, {0.0, -cell},
                              {0.0, 0.0}};
      reg.add_node(p + offsets[rng.uniform_int(0, 4)]);
    }
    NeighborIndex index(reg, cell);
    index.refresh(SimTime{});
    expect_densities_exact(reg, index);
    // And again after incremental moves onto more edges.
    for (int i = 0; i < 200; ++i) {
      reg.set_position(
          NodeId{static_cast<std::uint32_t>(rng.uniform_int(0, 899))},
          Vec2{coord(), coord()});
    }
    reg.bump_position_generation();
    index.refresh(SimTime{});
    expect_densities_exact(reg, index);
  }
}

TEST(NeighborIndexTest, SubBucketDensityMarginCoversRoundedBins) {
  // With a cell size that has no exact binary form, p / cell rounds: a node
  // an ulp or two from a sub-cell edge can be binned across it, a hair
  // outside its sub-bucket's nominal bounds, and the bounds round too.
  // Nodes placed at distance R from such corners, give or take ulps, put
  // sub-buckets right at the wholly-inside threshold; only the rounding
  // margin keeps the count equal to count_within.
  const double cell = 333.3;
  const double side = cell / 2.0;
  const double r = cell;
  NodeRegistry reg;
  const auto step = [](double x, int ulps) {
    for (; ulps > 0; --ulps) x = std::nextafter(x, 1e300);
    for (; ulps < 0; ++ulps) x = std::nextafter(x, -1e300);
    return x;
  };
  for (int kx = -12; kx <= 12; kx += 4) {
    for (int ky = -12; ky <= 12; ky += 4) {
      for (int s = 0; s < 4; ++s) {
        const Vec2 corner{kx * cell + (s / 2) * side,
                          ky * cell + (s % 2) * side};
        for (int i = -2; i <= 2; ++i) {
          for (int j = -2; j <= 2; ++j) {
            reg.add_node(Vec2{step(corner.x, i), step(corner.y, j)});
          }
        }
        const double a = r * 0.6;
        const double b = r * 0.8;
        for (const Vec2 off : {Vec2{a, b}, Vec2{b, a}, Vec2{-a, -b},
                               Vec2{-b, -a}, Vec2{a, -b}, Vec2{-b, a}}) {
          const Vec2 p = corner + off;
          for (int i = -2; i <= 2; ++i) {
            for (int j = -2; j <= 2; ++j) {
              reg.add_node(Vec2{step(p.x, i), step(p.y, j)});
            }
          }
        }
      }
    }
  }
  NeighborIndex index(reg, cell);
  index.refresh(SimTime{});
  expect_densities_exact(reg, index);
}

// Compares `index` against a fresh full build over the same registry: every
// node's query() result, ids and order, and every local_density.
void expect_matches_fresh_build(const NodeRegistry& reg, double cell,
                                NeighborIndex& index) {
  NeighborIndex fresh(reg, cell);
  fresh.refresh(SimTime{});
  std::vector<NodeId> got;
  std::vector<NodeId> want;
  for (std::size_t i = 0; i < reg.count(); ++i) {
    const NodeId id{i};
    got.clear();
    want.clear();
    index.query(reg.position(id), cell, id, &got);
    fresh.query(reg.position(id), cell, id, &want);
    ASSERT_EQ(got, want) << "query order diverged at node " << i;
    ASSERT_EQ(index.local_density(id), fresh.local_density(id))
        << "density diverged at node " << i;
  }
}

TEST(NeighborIndexTest, IncrementalRefreshMatchesFreshBuild) {
  const double cell = 100.0;
  Rng rng(31);
  NodeRegistry reg;
  const auto random_pos = [&] {
    return Vec2{rng.uniform(-250.0, 350.0), rng.uniform(-250.0, 350.0)};
  };
  for (int i = 0; i < 80; ++i) reg.add_node(random_pos());
  NeighborIndex index(reg, cell);
  index.refresh(SimTime{});
  for (int round = 0; round < 300; ++round) {
    const auto n = static_cast<std::int64_t>(reg.count());
    // Mostly a few writes, some only, some all, bumped; sometimes so many
    // that the registry's write log drops them and the refresh rescans.
    const std::int64_t writes =
        round % 25 == 0 ? 3 * n : rng.uniform_int(1, 6);
    bool bumped = false;
    for (std::int64_t w = 0; w < writes; ++w) {
      const NodeId id{static_cast<std::uint32_t>(rng.uniform_int(0, n - 1))};
      // Small moves stay in the sub-bucket (in-place update), larger ones
      // cross sub-buckets and cells.
      const Vec2 p = rng.chance(0.5)
                         ? reg.position(id) + Vec2{rng.uniform(-2.0, 2.0),
                                                   rng.uniform(-2.0, 2.0)}
                         : random_pos();
      reg.set_position(id, p);
      if (rng.chance(0.3)) {
        reg.bump_position_generation();
        bumped = true;
      }
    }
    if (rng.chance(0.05)) {
      reg.add_node(random_pos());
      bumped = true;
    }
    index.refresh(SimTime{});
    // Unbumped writes stay invisible, so a fresh build only agrees once a
    // bump (or a new node) has made every write visible.
    if (bumped) expect_matches_fresh_build(reg, cell, index);
  }
}

TEST(NeighborIndexTest, UnbumpedWriteBecomesVisibleThroughAnotherBump) {
  // A stop-line pose is written without a bump; another vehicle's bump
  // makes the next rebuild pick it up.
  NodeRegistry reg;
  const NodeId a = reg.add_node(Vec2{50.0, 50.0});
  const NodeId b = reg.add_node(Vec2{800.0, 400.0});
  const NodeId probe = reg.add_node(Vec2{880.0, 50.0});
  NeighborIndex index(reg, 500.0);
  index.refresh(SimTime{});
  reg.set_position(a, Vec2{700.0, 50.0});  // no bump
  reg.set_position(b, Vec2{810.0, 400.0});
  reg.bump_position_generation();
  index.refresh(SimTime{});
  std::vector<NodeId> out;
  index.query(reg.position(probe), 500.0, probe, &out);
  EXPECT_EQ(out, (std::vector<NodeId>{a, b}));
  EXPECT_EQ(index.local_density(probe), 2);
  expect_matches_fresh_build(reg, 500.0, index);
}

// --- RadioMedium ------------------------------------------------------------

TEST(RadioTest, LossProbabilityMonotoneInDistance) {
  Simulator sim(1);
  NodeRegistry reg;
  RadioMedium medium(sim, reg, {});
  double prev = -1.0;
  for (double d = 0; d <= 500; d += 50) {
    const double p = medium.loss_probability(d, 0);
    EXPECT_GE(p, prev);
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
    prev = p;
  }
}

TEST(RadioTest, LossProbabilityGrowsWithContention) {
  Simulator sim(1);
  NodeRegistry reg;
  RadioMedium medium(sim, reg, {});
  EXPECT_GT(medium.loss_probability(100, 100),
            medium.loss_probability(100, 0));
}

TEST(RadioTest, BroadcastReachesOnlyNodesInRange) {
  Simulator sim(2);
  StaticNet net(sim, lossless());
  const NodeId sender = net.add({0, 0});
  const NodeId near = net.add({400, 0});
  const NodeId far = net.add({900, 0});
  net.medium().broadcast(sender, make_test_packet());
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(net.sink(near).received.size(), 1u);
  EXPECT_TRUE(net.sink(far).received.empty());
  EXPECT_TRUE(net.sink(sender).received.empty());  // no self-delivery
  EXPECT_EQ(sim.metrics().radio_broadcasts, 1u);
}

TEST(RadioTest, BroadcastCarriesPayloadAndSender) {
  Simulator sim(2);
  StaticNet net(sim, lossless());
  const NodeId sender = net.add({0, 0});
  const NodeId rx = net.add({100, 0});
  net.medium().broadcast(sender, make_test_packet(99));
  sim.run_until(SimTime::from_sec(1));
  ASSERT_EQ(net.sink(rx).received.size(), 1u);
  const auto& r = net.sink(rx).received[0];
  EXPECT_EQ(r.from, sender);
  EXPECT_EQ(payload_as<TestPayload>(r.packet).value, 99);
}

TEST(RadioTest, DeliveryIsDelayed) {
  Simulator sim(2);
  StaticNet net(sim, lossless());
  const NodeId sender = net.add({0, 0});
  const NodeId rx = net.add({100, 0});
  net.medium().broadcast(sender, make_test_packet());
  sim.run_until(SimTime::from_us(1));  // epsilon: nothing delivered yet
  EXPECT_TRUE(net.sink(rx).received.empty());
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(net.sink(rx).received.size(), 1u);
}

TEST(RadioTest, TotalLossDropsEverything) {
  Simulator sim(2);
  RadioConfig cfg;
  cfg.base_loss = 1.0;
  cfg.max_loss = 1.0;
  StaticNet net(sim, cfg);
  const NodeId sender = net.add({0, 0});
  const NodeId rx = net.add({100, 0});
  net.medium().broadcast(sender, make_test_packet());
  sim.run_until(SimTime::from_sec(1));
  EXPECT_TRUE(net.sink(rx).received.empty());
  EXPECT_GT(sim.metrics().radio_drops, 0u);
}

TEST(RadioTest, UnicastDeliversToSink) {
  Simulator sim(3);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({300, 0});
  bool lost = false;
  net.medium().unicast(a, b, make_test_packet(), [&] { lost = true; });
  sim.run_until(SimTime::from_sec(1));
  EXPECT_FALSE(lost);
  EXPECT_EQ(net.sink(b).received.size(), 1u);
}

TEST(RadioTest, UnicastOutOfRangeReportsLost) {
  Simulator sim(3);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({2000, 0});
  bool lost = false;
  net.medium().unicast(a, b, make_test_packet(), [&] { lost = true; });
  sim.run_until(SimTime::from_sec(1));
  EXPECT_TRUE(lost);
  EXPECT_TRUE(net.sink(b).received.empty());
}

TEST(RadioTest, UnicastRetriesOvercomeModerateLoss) {
  // With p_loss ~0.5 per attempt and 2 retries, delivery ~87.5% per frame;
  // across 200 frames expect clearly more deliveries than single-shot.
  Simulator sim(4);
  RadioConfig cfg = lossless();
  cfg.base_loss = 0.5;
  cfg.max_loss = 0.5;
  cfg.unicast_retries = 2;
  StaticNet net(sim, cfg);
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({10, 0});
  int lost = 0;
  for (int i = 0; i < 200; ++i) {
    net.medium().unicast(a, b, make_test_packet(), [&] { ++lost; });
  }
  sim.run_until(SimTime::from_sec(5));
  const int delivered = static_cast<int>(net.sink(b).received.size());
  EXPECT_EQ(delivered + lost, 200);
  EXPECT_NEAR(delivered, 175, 20);  // ~87.5%
}

TEST(RadioTest, UnicastFrameCallsExactlyOneCallback) {
  Simulator sim(5);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({100, 0});
  int delivered = 0, lost = 0;
  for (int i = 0; i < 50; ++i) {
    net.medium().unicast_frame(a, b, PacketKind::kAck, [&] { ++delivered; },
                               [&] { ++lost; });
  }
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(delivered + lost, 50);
  EXPECT_EQ(delivered, 50);  // lossless
  // Frame transport must not touch sinks.
  EXPECT_TRUE(net.sink(b).received.empty());
}

// --- One unicast kernel ---------------------------------------------------------
//
// unicast() is unicast_frame() plus sink delivery. Between the same pair, in
// two simulators with the same seed, the two entry points must spend the same
// draws and leave the same record: outcomes, hop spans, ledger and telemetry.

// A sink that logs each reception into a shared settle-order log.
class LogSink : public PacketSink {
 public:
  explicit LogSink(std::vector<std::pair<int, bool>>* log) : log_(log) {}
  void on_receive(const Packet& packet, NodeId /*from*/) override {
    log_->emplace_back(
        static_cast<const TestPayload&>(*packet.payload).value, true);
  }

 private:
  std::vector<std::pair<int, bool>>* log_;
};

struct UnicastRecord {
  std::vector<std::pair<int, bool>> outcomes;  // (send index, delivered)
  std::vector<std::int32_t> retries_used;      // per kRadioHop span
  std::vector<SpanStatus> statuses;
  std::vector<Vec2> end_positions;
  std::vector<std::string> details;
  std::uint64_t unicasts = 0, drops = 0;
  std::uint64_t offered = 0, delivered = 0, dropped = 0;
  std::uint64_t region_unicasts = 0, region_delivered = 0, region_dropped = 0;
};

UnicastRecord run_unicasts(bool via_sink, Vec2 target_pos) {
  Simulator sim(21);
  TraceLog trace;
  sim.set_trace(&trace);
  RegionTelemetry regions({0.0, 3000.0}, {0.0, 3000.0});
  sim.set_regions(&regions);
  RadioConfig cfg = lossless();
  cfg.base_loss = 0.5;
  cfg.max_loss = 0.5;
  cfg.unicast_retries = 2;
  UnicastRecord r;
  NodeRegistry registry;
  LogSink sink(&r.outcomes);
  const NodeId a = registry.add_node({0, 0});
  const NodeId b = registry.add_node(target_pos, &sink);
  RadioMedium radio(sim, registry, cfg);
  for (int i = 0; i < 40; ++i) {
    auto lost = [&r, i] { r.outcomes.emplace_back(i, false); };
    if (via_sink) {
      radio.unicast(a, b, make_test_packet(i), lost);
    } else {
      radio.unicast_frame(
          a, b, PacketKind::kQueryRequest,
          [&r, i] { r.outcomes.emplace_back(i, true); }, lost);
    }
  }
  sim.run_until(SimTime::from_sec(5));
  for (const Span& s : trace.spans()) {
    if (s.kind != SpanKind::kRadioHop) continue;
    r.retries_used.push_back(s.value);
    r.statuses.push_back(s.status);
    r.end_positions.push_back(s.end_pos);
    r.details.emplace_back(s.detail != nullptr ? s.detail : "");
  }
  const RunMetrics& m = sim.metrics();
  const int kind = static_cast<int>(PacketKind::kQueryRequest);
  r.unicasts = m.radio_unicasts;
  r.drops = m.radio_drops;
  r.offered = m.channel.total_offered();
  r.delivered = m.channel.delivered(kind);
  r.dropped = m.channel.dropped(kind);
  const RegionCounters& rc = regions.at(0);
  r.region_unicasts = rc.radio_unicasts;
  r.region_delivered = rc.radio_delivered;
  r.region_dropped = rc.radio_dropped;
  return r;
}

void expect_same_record(const UnicastRecord& sink, const UnicastRecord& frame) {
  EXPECT_EQ(sink.outcomes, frame.outcomes);
  EXPECT_EQ(sink.retries_used, frame.retries_used);
  EXPECT_EQ(sink.statuses, frame.statuses);
  EXPECT_EQ(sink.end_positions, frame.end_positions);
  EXPECT_EQ(sink.details, frame.details);
  EXPECT_EQ(sink.unicasts, frame.unicasts);
  EXPECT_EQ(sink.drops, frame.drops);
  EXPECT_EQ(sink.offered, frame.offered);
  EXPECT_EQ(sink.delivered, frame.delivered);
  EXPECT_EQ(sink.dropped, frame.dropped);
  EXPECT_EQ(sink.region_unicasts, frame.region_unicasts);
  EXPECT_EQ(sink.region_delivered, frame.region_delivered);
  EXPECT_EQ(sink.region_dropped, frame.region_dropped);
}

TEST(UnicastKernelTest, SinkAndFrameEntryPointsAgreeUnderLoss) {
  const UnicastRecord sink = run_unicasts(/*via_sink=*/true, {200, 0});
  const UnicastRecord frame = run_unicasts(/*via_sink=*/false, {200, 0});
  expect_same_record(sink, frame);
  // The run exercises every branch of the retry loop.
  ASSERT_EQ(sink.outcomes.size(), 40u);
  EXPECT_TRUE(std::any_of(sink.outcomes.begin(), sink.outcomes.end(),
                          [](const auto& o) { return !o.second; }));
  EXPECT_TRUE(std::any_of(sink.outcomes.begin(), sink.outcomes.end(),
                          [](const auto& o) { return o.second; }));
  EXPECT_TRUE(std::count(sink.retries_used.begin(), sink.retries_used.end(),
                         1) > 0);
  EXPECT_EQ(sink.offered, sink.delivered + sink.dropped);
  EXPECT_EQ(sink.unicasts, sink.offered);
  EXPECT_EQ(sink.region_unicasts, sink.unicasts);
  for (const std::string& d : sink.details) EXPECT_EQ(d, "query_request");
  for (Vec2 p : sink.end_positions) EXPECT_EQ(p, (Vec2{200, 0}));
}

TEST(UnicastKernelTest, SinkAndFrameEntryPointsAgreeOutOfRange) {
  const UnicastRecord sink = run_unicasts(/*via_sink=*/true, {2000, 0});
  const UnicastRecord frame = run_unicasts(/*via_sink=*/false, {2000, 0});
  expect_same_record(sink, frame);
  ASSERT_EQ(sink.outcomes.size(), 40u);
  for (const auto& o : sink.outcomes) EXPECT_FALSE(o.second);
  // Every send spends all three attempts, then fails its span.
  EXPECT_EQ(sink.unicasts, 120u);
  EXPECT_EQ(sink.region_dropped, 120u);
  for (std::int32_t used : sink.retries_used) EXPECT_EQ(used, 2);
  for (SpanStatus st : sink.statuses) EXPECT_EQ(st, SpanStatus::kFailed);
}

// --- Fan-out delivery --------------------------------------------------------
//
// A broadcast schedules one event at the shared hop delay, and that event
// walks the surviving receivers. These pin the properties the old
// one-event-per-receiver scheme had: same order, same timestamp, and nothing
// a receiver schedules can run before the last receiver.

// Reception log shared by every receiver. The first reception schedules a
// zero-delay follow-up event that logs an invalid NodeId.
struct Timeline {
  explicit Timeline(Simulator& s) : sim(&s) {}
  void record(NodeId rx) {
    if (entries.empty()) {
      sim->schedule_after(SimTime{}, [this] {
        entries.push_back({NodeId{}, sim->now()});
      });
    }
    entries.push_back({rx, sim->now()});
  }
  Simulator* sim;
  std::vector<std::pair<NodeId, SimTime>> entries;
};

class TimelineSink : public PacketSink {
 public:
  TimelineSink(Timeline& timeline, NodeId self)
      : timeline_(&timeline), self_(self) {}
  void on_receive(const Packet&, NodeId) override { timeline_->record(self_); }

 private:
  Timeline* timeline_;
  NodeId self_;
};

// Node 0 sends; nodes 1..n receive. Everyone sits inside one 500 m index
// cell, so the index walk visits receivers in ascending NodeId order; the
// receivers are placed out of id order along x so that order is not also
// distance order.
class FanOutNet {
 public:
  FanOutNet(Simulator& sim, RadioConfig cfg, int receivers)
      : timeline_(sim) {
    registry_.add_node(Vec2{250, 250});
    for (int i = 0; i < receivers; ++i) {
      const double x = 20.0 + 30.0 * ((i * 5) % 7);  // distinct for i < 7
      registry_.add_node(Vec2{x, 100});
    }
    for (std::size_t i = 0; i < registry_.count(); ++i) {
      sinks_.push_back(std::make_unique<TimelineSink>(timeline_, NodeId{i}));
      registry_.set_sink(NodeId{i}, sinks_.back().get());
    }
    medium_ = std::make_unique<RadioMedium>(sim, registry_, cfg);
  }

  // Broadcasts from node 0 through broadcast() or broadcast_each().
  int send(bool each) {
    const NodeId sender{0u};
    if (!each) return medium_->broadcast(sender, make_test_packet());
    return medium_->broadcast_each(sender, PacketKind::kQueryRequest,
                                   [this](NodeId rx) { timeline_.record(rx); });
  }

  const Timeline& timeline() const { return timeline_; }

 private:
  Timeline timeline_;
  NodeRegistry registry_;
  std::vector<std::unique_ptr<TimelineSink>> sinks_;
  std::unique_ptr<RadioMedium> medium_;
};

class FanOutTest : public ::testing::TestWithParam<bool> {};

TEST_P(FanOutTest, OneEventCarriesEverySurvivor) {
  Simulator sim(21);
  FanOutNet net(sim, lossless(), 5);
  const std::uint64_t before = sim.queue().events_scheduled();
  EXPECT_EQ(net.send(GetParam()), 5);
  EXPECT_EQ(sim.queue().events_scheduled(), before + 1);
  sim.run_until(SimTime::from_sec(1));
  // Five receptions plus the follow-up the first one scheduled.
  EXPECT_EQ(net.timeline().entries.size(), 6u);
}

TEST_P(FanOutTest, TotalLossSchedulesNothing) {
  Simulator sim(22);
  RadioConfig cfg;
  cfg.base_loss = 1.0;
  cfg.max_loss = 1.0;
  FanOutNet net(sim, cfg, 5);
  const std::uint64_t before = sim.queue().events_scheduled();
  EXPECT_EQ(net.send(GetParam()), 5);
  EXPECT_EQ(sim.queue().events_scheduled(), before);
  EXPECT_EQ(sim.metrics().radio_drops, 5u);
  sim.run_until(SimTime::from_sec(1));
  EXPECT_TRUE(net.timeline().entries.empty());
}

TEST_P(FanOutTest, ReceiversRunInIdOrderAtOneTimeBeforeTheirFollowUps) {
  Simulator sim(23);
  FanOutNet net(sim, lossless(), 6);
  net.send(GetParam());
  sim.run_until(SimTime::from_sec(1));
  const auto& entries = net.timeline().entries;
  ASSERT_EQ(entries.size(), 7u);
  const SimTime at = entries[0].second;
  EXPECT_GT(at, SimTime{});
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(entries[i].first, NodeId{i + 1}) << "reception " << i;
    EXPECT_EQ(entries[i].second, at);
  }
  // The zero-delay event the first receiver scheduled runs after the last
  // receiver, at the same timestamp.
  EXPECT_FALSE(entries.back().first.valid());
  EXPECT_EQ(entries.back().second, at);
}

std::string kernel_name(const ::testing::TestParamInfo<bool>& param_info) {
  return param_info.param ? "BroadcastEach" : "Broadcast";
}

INSTANTIATE_TEST_SUITE_P(Kernel, FanOutTest, ::testing::Bool(), kernel_name);

// --- GPSR ----------------------------------------------------------------------

TEST(GpsrTest, DeliversAlongALine) {
  Simulator sim(6);
  StaticNet net(sim, lossless());
  std::vector<NodeId> chain;
  for (int i = 0; i <= 6; ++i) chain.push_back(net.add({i * 400.0, 0}));
  GpsrRouter gpsr(net.medium(), net.registry());
  bool delivered = false;
  std::uint64_t tx = 0;
  gpsr.send(chain.front(), {2400, 0}, chain.back(), make_test_packet(), &tx,
            [&](NodeId at) {
              delivered = true;
              EXPECT_EQ(at, chain.back());
            });
  sim.run_until(SimTime::from_sec(2));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.sink(chain.back()).received.size(), 1u);
  EXPECT_GE(tx, 6u);  // at least one hop per gap
  // Intermediate nodes never consume the packet.
  EXPECT_TRUE(net.sink(chain[3]).received.empty());
}

TEST(GpsrTest, PositionAddressedDeliversWithinRadius) {
  Simulator sim(6);
  StaticNet net(sim, lossless());
  const NodeId src = net.add({0, 0});
  net.add({450, 0});
  const NodeId near_dest = net.add({880, 0});
  GpsrRouter gpsr(net.medium(), net.registry());
  bool delivered = false;
  gpsr.send(src, {900, 0}, std::nullopt, make_test_packet(), nullptr,
            [&](NodeId at) {
              delivered = true;
              EXPECT_EQ(at, near_dest);
            },
            {}, /*delivery_radius=*/50.0);
  sim.run_until(SimTime::from_sec(2));
  EXPECT_TRUE(delivered);
  EXPECT_EQ(net.sink(near_dest).received.size(), 1u);
}

TEST(GpsrTest, FailsWhenPartitioned) {
  Simulator sim(6);
  StaticNet net(sim, lossless());
  const NodeId src = net.add({0, 0});
  const NodeId dst = net.add({5000, 0});  // unreachable island
  GpsrRouter gpsr(net.medium(), net.registry());
  bool failed = false;
  gpsr.send(src, {5000, 0}, dst, make_test_packet(), nullptr, {},
            [&] { failed = true; });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_TRUE(failed);
  EXPECT_GT(sim.metrics().gpsr_failures, 0u);
}

TEST(GpsrTest, LostHopFailsTheRouteAtTheHolder) {
  // Every frame is lost, so the source's first hop is abandoned: the route
  // span must end at the node holding the packet (the source), not at the
  // destination or a previous hop.
  Simulator sim(8);
  TraceLog trace;
  sim.set_trace(&trace);
  RadioConfig cfg = lossless();
  cfg.base_loss = 1.0;
  cfg.max_loss = 1.0;
  StaticNet net(sim, cfg);
  const NodeId src = net.add({100, 50});
  net.add({500, 50});
  const NodeId dst = net.add({900, 50});
  GpsrRouter gpsr(net.medium(), net.registry());
  int failed = 0;
  gpsr.send(src, {900, 50}, dst, make_test_packet(), nullptr, {},
            [&] { ++failed; });
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(failed, 1);
  EXPECT_EQ(sim.metrics().gpsr_failures, 1u);
  int routes = 0;
  for (const Span& s : trace.spans()) {
    if (s.kind != SpanKind::kGpsrRoute) continue;
    ++routes;
    EXPECT_EQ(s.status, SpanStatus::kFailed);
    EXPECT_EQ(s.end_pos, (Vec2{100, 50}));
  }
  EXPECT_EQ(routes, 1);
}

TEST(GpsrTest, PerimeterModeRoutesAroundAVoid) {
  // A "C" shape: greedy hits a local minimum at the tip and must recover via
  // perimeter mode around the gap.
  Simulator sim(7);
  StaticNet net(sim, lossless());
  //   src --- a --- tip   (gap)   dst
  //            \-- down1 -- down2 --/
  const NodeId src = net.add({0, 0});
  net.add({400, 0});
  net.add({800, 0});           // tip; dst at 2000 is 1200 away (out of range)
  net.add({800, -400});        // detour south
  net.add({1200, -400});
  net.add({1600, -400});
  net.add({1900, -100});
  const NodeId dst = net.add({2000, 0});
  GpsrRouter gpsr(net.medium(), net.registry());
  bool delivered = false;
  gpsr.send(src, {2000, 0}, dst, make_test_packet(), nullptr,
            [&](NodeId) { delivered = true; });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_TRUE(delivered);
}

// --- Geocast ----------------------------------------------------------------------

TEST(GeocastTest, BoxFloodReachesEveryNodeInRegionOnce) {
  Simulator sim(8);
  StaticNet net(sim, lossless());
  std::vector<NodeId> inside;
  for (int i = 0; i < 5; ++i) {
    inside.push_back(net.add({100.0 + 150.0 * i, 100}));
  }
  const NodeId outside = net.add({2000, 2000});
  const NodeId origin = inside[0];
  GeocastService geo(net.medium(), net.registry());
  std::uint64_t tx = 0;
  geo.flood(origin, make_test_packet(),
            GeocastRegion::from_box(Aabb{{0, 0}, {1000, 1000}}), &tx);
  sim.run_until(SimTime::from_sec(2));
  for (std::size_t i = 1; i < inside.size(); ++i) {
    EXPECT_EQ(net.sink(inside[i]).received.size(), 1u) << i;
  }
  EXPECT_TRUE(net.sink(outside).received.empty());
  EXPECT_GE(tx, 1u);
}

TEST(GeocastTest, CorridorFloodStaysInCorridor) {
  Simulator sim(8);
  StaticNet net(sim, lossless());
  const NodeId origin = net.add({0, 0});
  const NodeId on_road1 = net.add({400, 10});
  const NodeId on_road2 = net.add({800, -10});
  const NodeId off_road = net.add({400, 300});
  const NodeId behind = net.add({-400, 0});
  GeocastService geo(net.medium(), net.registry());
  geo.flood(origin, make_test_packet(),
            GeocastRegion::corridor({0, 0}, {1, 0}, 50.0, 1200.0, 100.0));
  sim.run_until(SimTime::from_sec(2));
  EXPECT_EQ(net.sink(on_road1).received.size(), 1u);
  EXPECT_EQ(net.sink(on_road2).received.size(), 1u);
  EXPECT_TRUE(net.sink(off_road).received.empty());
  EXPECT_TRUE(net.sink(behind).received.empty());
}

TEST(GeocastTest, FloodTerminatesUnderLoss) {
  Simulator sim(9);
  RadioConfig cfg;
  cfg.base_loss = 0.3;
  StaticNet net(sim, cfg);
  for (int i = 0; i < 40; ++i) {
    net.add({(i % 8) * 120.0, (i / 8) * 120.0});
  }
  GeocastService geo(net.medium(), net.registry());
  std::uint64_t tx = 0;
  geo.flood(NodeId{std::size_t{0}}, make_test_packet(),
            GeocastRegion::from_box(Aabb{{0, 0}, {1000, 1000}}), &tx);
  sim.run_until(SimTime::from_sec(10));
  EXPECT_TRUE(sim.queue().empty());
  EXPECT_LE(tx, 256u);  // respects the budget
}

// --- Wired -------------------------------------------------------------------------

TEST(WiredTest, DirectLinkDelivery) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1000, 0});
  WiredNetwork wired(sim, net.registry());
  wired.connect(a, b);
  EXPECT_TRUE(wired.send(a, b, make_test_packet(5)));
  sim.run_until(SimTime::from_sec(1));
  ASSERT_EQ(net.sink(b).received.size(), 1u);
  EXPECT_EQ(payload_as<TestPayload>(net.sink(b).received[0].packet).value, 5);
  EXPECT_EQ(sim.metrics().wired_messages, 1u);
}

TEST(WiredTest, MultiHopRouting) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1, 0});
  const NodeId c = net.add({2, 0});
  const NodeId d = net.add({3, 0});
  WiredNetwork wired(sim, net.registry());
  wired.connect(a, b);
  wired.connect(b, c);
  wired.connect(c, d);
  EXPECT_EQ(wired.hop_count(a, d), 3);
  std::uint64_t tx = 0;
  EXPECT_TRUE(wired.send(a, d, make_test_packet(), &tx));
  sim.run_until(SimTime::from_sec(1));
  EXPECT_EQ(net.sink(d).received.size(), 1u);
  EXPECT_EQ(tx, 3u);
}

TEST(WiredTest, NoPathReturnsFalse) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1, 0});
  WiredNetwork wired(sim, net.registry());
  EXPECT_FALSE(wired.send(a, b, make_test_packet()));
  EXPECT_EQ(wired.hop_count(a, b), -1);
  EXPECT_EQ(wired.hop_count(a, a), 0);
}

TEST(WiredTest, ConnectIsIdempotent) {
  Simulator sim(10);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({1, 0});
  WiredNetwork wired(sim, net.registry());
  wired.connect(a, b);
  wired.connect(a, b);
  wired.connect(b, a);
  EXPECT_EQ(wired.links_of(a).size(), 1u);
  EXPECT_EQ(wired.links_of(b).size(), 1u);
}

// --- Beacons -------------------------------------------------------------------

TEST(BeaconTest, NeighborsLearnedWithinOneInterval) {
  Simulator sim(20);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  const NodeId b = net.add({300, 0});
  net.add({900, 0});  // out of range of a
  BeaconConfig cfg;
  cfg.enabled = true;
  cfg.interval_sec = 1.0;
  cfg.timeout_sec = 3.0;
  BeaconService beacons(net.medium(), net.registry(), cfg);
  sim.run_until(SimTime::from_sec(1.5));
  std::vector<BeaconService::Neighbor> out;
  beacons.neighbors_of(a, &out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].id, b);
  EXPECT_EQ(out[0].heard_pos, (Vec2{300, 0}));
  EXPECT_GT(beacons.beacons_sent(), 0u);
}

TEST(BeaconTest, NeighborsOfListsAscendingIdsWhateverTheHearingOrder) {
  // GPSR's tie-breaks rely on neighbors_of returning ascending NodeIds; the
  // table itself keeps records in the order they were first heard.
  Simulator sim(22);
  StaticNet net(sim, lossless());
  const NodeId a = net.add({0, 0});
  for (int i = 1; i <= 5; ++i) net.add({60.0 * i, 0});
  BeaconConfig cfg;
  cfg.enabled = true;
  cfg.interval_sec = 1.0;
  cfg.timeout_sec = 3.0;
  BeaconService beacons(net.medium(), net.registry(), cfg);
  std::vector<NodeId> heard_order;
  std::vector<BeaconService::Neighbor> out;
  for (int ms = 1; ms <= 1500; ++ms) {
    sim.run_until(SimTime::from_ms(ms));
    out.clear();
    beacons.neighbors_of(a, &out);
    for (const BeaconService::Neighbor& n : out) {
      if (std::find(heard_order.begin(), heard_order.end(), n.id) ==
          heard_order.end()) {
        heard_order.push_back(n.id);
      }
    }
  }
  ASSERT_EQ(heard_order.size(), 5u);
  ASSERT_FALSE(std::is_sorted(heard_order.begin(), heard_order.end()))
      << "precondition: this seed must hear neighbors out of id order";
  out.clear();
  beacons.neighbors_of(a, &out);
  ASSERT_EQ(out.size(), 5u);
  EXPECT_TRUE(std::is_sorted(out.begin(), out.end(),
                             [](const BeaconService::Neighbor& x,
                                const BeaconService::Neighbor& y) {
                               return x.id < y.id;
                             }));
}

TEST(BeaconTest, StaleNeighborsExpire) {
  Simulator sim(21);
  NodeRegistry reg;
  Vec2 b_pos{300, 0};
  std::vector<std::unique_ptr<CaptureSink>> sinks;
  const NodeId a = reg.add_node(Vec2{0, 0});
  const NodeId b = reg.add_node(b_pos);
  RadioMedium medium(sim, reg, lossless());
  BeaconConfig cfg;
  cfg.enabled = true;
  cfg.interval_sec = 1.0;
  cfg.timeout_sec = 2.5;
  BeaconService beacons(medium, reg, cfg);
  sim.run_until(SimTime::from_sec(2));
  std::vector<BeaconService::Neighbor> out;
  beacons.neighbors_of(a, &out);
  EXPECT_FALSE(out.empty());
  // b drives out of range; after the timeout its entry must be gone.
  reg.set_position(b, Vec2{5000, 0});
  reg.bump_position_generation();
  sim.run_until(SimTime::from_sec(6));
  out.clear();
  beacons.neighbors_of(a, &out);
  EXPECT_TRUE(out.empty());
  (void)b;
}

TEST(BeaconTest, GpsrRoutesOverBeaconTables) {
  Simulator sim(22);
  StaticNet net(sim, lossless());
  std::vector<NodeId> chain;
  for (int i = 0; i <= 5; ++i) chain.push_back(net.add({i * 400.0, 0}));
  BeaconConfig cfg;
  cfg.enabled = true;
  BeaconService beacons(net.medium(), net.registry(), cfg);
  GpsrRouter gpsr(net.medium(), net.registry());
  gpsr.set_beacons(&beacons);
  // Let one beacon round populate the tables first.
  bool delivered = false;
  sim.run_until(SimTime::from_sec(2));
  sim.schedule_after(SimTime::from_us(1), [&] {
    gpsr.send(chain.front(), {2000, 0}, chain.back(), make_test_packet(),
              nullptr, [&](NodeId) { delivered = true; });
  });
  sim.run_until(SimTime::from_sec(5));
  EXPECT_TRUE(delivered);
}

// Parameterized: GPSR delivery rate on random dense placements is high.
class GpsrDensitySweep : public ::testing::TestWithParam<int> {};

TEST_P(GpsrDensitySweep, DeliversOnConnectedRandomPlacements) {
  Simulator sim(100 + static_cast<std::uint64_t>(GetParam()));
  StaticNet net(sim, lossless());
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const int n = GetParam();
  std::vector<NodeId> nodes;
  for (int i = 0; i < n; ++i) {
    nodes.push_back(net.add(
        {rng.uniform(0.0, 2000.0), rng.uniform(0.0, 2000.0)}));
  }
  GpsrRouter gpsr(net.medium(), net.registry());
  int delivered = 0, failed = 0;
  const int trials = 30;
  for (int t = 0; t < trials; ++t) {
    const NodeId src = nodes[rng.uniform_u64(static_cast<std::uint64_t>(n))];
    const NodeId dst = nodes[rng.uniform_u64(static_cast<std::uint64_t>(n))];
    gpsr.send(src, net.registry().position(dst), dst, make_test_packet(),
              nullptr, [&](NodeId) { ++delivered; }, [&] { ++failed; });
  }
  sim.run_until(SimTime::from_sec(30));
  EXPECT_EQ(delivered + failed, trials);
  // Dense lossless placements: the vast majority must deliver.
  EXPECT_GE(delivered, trials * 8 / 10);
}

INSTANTIATE_TEST_SUITE_P(Density, GpsrDensitySweep,
                         ::testing::Values(150, 300, 600));

}  // namespace
}  // namespace hlsrg
