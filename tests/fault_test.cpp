// Tests for the fault-injection subsystem: wired up/down state and ledger
// accounting, BFS-cache invalidation, FaultPlan JSON round trips,
// retry-backoff math, radio degradation zones (beacon expiry across a fault
// window), and World-level RSU crash/reboot with availability accounting.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/hlsrg_config.h"
#include "fault/fault_injector.h"
#include "fault/fault_plan.h"
#include "harness/digest.h"
#include "harness/world.h"
#include "net/beacons.h"
#include "net/radio.h"
#include "net/wired.h"
#include "report/json.h"
#include "sim/simulator.h"

namespace hlsrg {
namespace {

class NullSink : public PacketSink {
 public:
  void on_receive(const Packet&, NodeId) override { ++received; }
  int received = 0;
};

struct TestPayload final : PayloadBase {};

Packet make_test_packet() {
  Packet pkt;
  pkt.id = PacketId{std::uint32_t{1}};
  pkt.kind = PacketKind::kQueryRequest;
  pkt.payload = std::make_shared<TestPayload>();
  return pkt;
}

// Four statically-placed wired nodes: a - b - c - d chain.
struct WiredChain {
  explicit WiredChain(Simulator& sim) : wired(sim, registry) {
    for (int i = 0; i < 4; ++i) {
      sinks.push_back(std::make_unique<NullSink>());
      const double x = 100.0 * i;
      nodes.push_back(registry.add_node(Vec2{x, 0.0},
                                        sinks.back().get()));
    }
    wired.connect(nodes[0], nodes[1]);
    wired.connect(nodes[1], nodes[2]);
    wired.connect(nodes[2], nodes[3]);
  }
  NodeRegistry registry;
  std::vector<std::unique_ptr<NullSink>> sinks;
  std::vector<NodeId> nodes;
  WiredNetwork wired;
};

// --- wired fault state ------------------------------------------------------

TEST(WiredFaultTest, UnreachableSendIsLedgerAccounted) {
  Simulator sim(1);
  NodeRegistry registry;
  NullSink sink;
  const NodeId a = registry.add_node(Vec2{0, 0}, &sink);
  const NodeId b = registry.add_node(Vec2{100, 0}, &sink);
  WiredNetwork wired(sim, registry);  // no links at all
  std::uint64_t tx = 0;
  EXPECT_FALSE(wired.send(a, b, make_test_packet(), &tx));
  EXPECT_EQ(tx, 0u);  // nothing traversed a link
  const RunMetrics& m = sim.metrics();
  EXPECT_EQ(m.wired_drops, 1u);
  const int kind = static_cast<int>(PacketKind::kQueryRequest);
  EXPECT_EQ(m.channel.offered(kind), 1u);
  EXPECT_EQ(m.channel.dropped(kind), 1u);
  EXPECT_EQ(m.channel.delivered(kind), 0u);
}

TEST(WiredFaultTest, DownNodeBlocksRoutingAndRecovers) {
  Simulator sim(2);
  WiredChain chain(sim);
  const auto& n = chain.nodes;
  EXPECT_EQ(chain.wired.hop_count(n[0], n[3]), 3);

  chain.wired.set_node_up(n[1], false);
  EXPECT_FALSE(chain.wired.node_up(n[1]));
  EXPECT_EQ(chain.wired.hop_count(n[0], n[3]), -1);
  EXPECT_EQ(chain.wired.hop_count(n[0], n[1]), -1);  // down endpoint
  EXPECT_FALSE(chain.wired.send(n[0], n[3], make_test_packet()));
  EXPECT_EQ(sim.metrics().wired_drops, 1u);

  chain.wired.set_node_up(n[1], true);
  EXPECT_EQ(chain.wired.hop_count(n[0], n[3]), 3);
  EXPECT_TRUE(chain.wired.send(n[0], n[3], make_test_packet()));
}

TEST(WiredFaultTest, DownLinkBlocksRoutingAndRecovers) {
  Simulator sim(3);
  WiredChain chain(sim);
  const auto& n = chain.nodes;
  chain.wired.set_link_up(n[1], n[2], false);
  EXPECT_FALSE(chain.wired.link_up(n[2], n[1]));  // symmetric
  EXPECT_EQ(chain.wired.hop_count(n[0], n[3]), -1);
  EXPECT_EQ(chain.wired.hop_count(n[0], n[1]), 1);  // near side still routes
  chain.wired.set_link_up(n[2], n[1], true);
  EXPECT_EQ(chain.wired.hop_count(n[0], n[3]), 3);
}

TEST(WiredFaultTest, HopCountCacheInvalidatesOnTopologyChange) {
  Simulator sim(4);
  NodeRegistry registry;
  NullSink sink;
  std::vector<NodeId> n;
  for (int i = 0; i < 3; ++i) {
    const double x = 100.0 * i;
    n.push_back(registry.add_node(Vec2{x, 0.0}, &sink));
  }
  WiredNetwork wired(sim, registry);
  wired.connect(n[0], n[1]);
  EXPECT_EQ(wired.hop_count(n[0], n[2]), -1);  // caches the BFS from n[0]
  wired.connect(n[1], n[2]);                   // must invalidate that cache
  EXPECT_EQ(wired.hop_count(n[0], n[2]), 2);
  wired.set_link_up(n[0], n[1], false);
  EXPECT_EQ(wired.hop_count(n[0], n[2]), -1);
}

TEST(WiredFaultTest, LinksEnumeratesEachLinkOnceSorted) {
  Simulator sim(5);
  WiredChain chain(sim);
  const auto links = chain.wired.links();
  ASSERT_EQ(links.size(), 3u);
  for (std::size_t i = 0; i < links.size(); ++i) {
    EXPECT_LT(links[i].first.value(), links[i].second.value());
    if (i > 0) {
      EXPECT_LT(links[i - 1].first.value(), links[i].first.value() + 1);
    }
  }
}

// --- FaultPlan model --------------------------------------------------------

FaultPlan sample_plan() {
  FaultPlan plan;
  plan.fault_seed = 99;
  plan.overrides.max_attempts = 4;
  plan.overrides.retry_backoff_base = 2.0;
  FaultWindow crash;
  crash.kind = FaultKind::kRsuCrash;
  crash.begin = SimTime::from_sec(55.0);
  crash.end = SimTime::from_sec(85.0);
  crash.level = 3;
  crash.col = 0;
  crash.row = 0;
  plan.windows.push_back(crash);
  FaultWindow cut;
  cut.kind = FaultKind::kLinkCut;
  cut.begin = SimTime::from_sec(10.0);
  cut.level = 2;
  cut.col = 1;
  cut.row = 0;
  cut.peer_level = 3;
  cut.peer_col = 0;
  cut.peer_row = 0;
  plan.windows.push_back(cut);
  FaultWindow part;
  part.kind = FaultKind::kPartition;
  part.begin = SimTime::from_sec(20.0);
  part.end = SimTime::from_sec(50.0);
  part.has_box = true;
  part.box = Aabb{{0.0, 0.0}, {1000.0, 2000.0}};
  plan.windows.push_back(part);
  FaultWindow loss;
  loss.kind = FaultKind::kRadioLoss;
  loss.begin = SimTime::from_sec(30.0);
  loss.end = SimTime::from_sec(60.0);
  loss.has_box = true;
  loss.box = Aabb{{500.0, 500.0}, {1500.0, 1500.0}};
  loss.extra_loss = 0.4;
  plan.windows.push_back(loss);
  FaultWindow gps;
  gps.kind = FaultKind::kGpsNoise;
  gps.begin = SimTime::from_sec(30.0);
  gps.end = SimTime::from_sec(60.0);
  gps.sigma_m = 25.0;
  plan.windows.push_back(gps);
  return plan;
}

TEST(FaultPlanTest, JsonRoundTripPreservesEverything) {
  const FaultPlan plan = sample_plan();
  FaultPlan back;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(plan.to_json(), &back, &error)) << error;
  EXPECT_EQ(back.fault_seed, 99u);
  ASSERT_EQ(back.windows.size(), 5u);
  EXPECT_EQ(back.windows[0].kind, FaultKind::kRsuCrash);
  EXPECT_EQ(back.windows[1].kind, FaultKind::kLinkCut);
  EXPECT_TRUE(back.windows[1].open_ended());
  EXPECT_EQ(back.windows[2].kind, FaultKind::kPartition);
  EXPECT_TRUE(back.windows[2].has_box);
  EXPECT_DOUBLE_EQ(back.windows[3].extra_loss, 0.4);
  EXPECT_DOUBLE_EQ(back.windows[4].sigma_m, 25.0);
  ASSERT_TRUE(back.overrides.max_attempts.has_value());
  EXPECT_EQ(*back.overrides.max_attempts, 4);
  // The digest is a pure function of the schedule, so a round trip keeps it.
  EXPECT_EQ(back.digest(), plan.digest());
  EXPECT_NE(plan.digest(), 0u);
}

TEST(FaultPlanTest, ChurnWindowRoundTripsAndValidates) {
  FaultPlan plan;
  FaultWindow burst;
  burst.kind = FaultKind::kChurn;
  burst.begin = SimTime::from_sec(70.0);
  burst.end = SimTime::from_sec(90.0);
  burst.has_box = true;
  burst.box = Aabb{{0.0, 0.0}, {1000.0, 2000.0}};
  burst.depart_fraction = 0.5;
  plan.windows.push_back(burst);

  FaultPlan back;
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(plan.to_json(), &back, &error)) << error;
  ASSERT_EQ(back.windows.size(), 1u);
  EXPECT_EQ(back.windows[0].kind, FaultKind::kChurn);
  EXPECT_TRUE(back.windows[0].has_box);
  EXPECT_DOUBLE_EQ(back.windows[0].depart_fraction, 0.5);
  EXPECT_EQ(back.digest(), plan.digest());
  EXPECT_NE(plan.digest(), 0u);
  // The fraction joins the digest: a different burst is a different plan.
  FaultPlan other = plan;
  other.windows[0].depart_fraction = 0.25;
  EXPECT_NE(other.digest(), plan.digest());

  // depart_fraction outside (0, 1] is rejected, as is omitting it.
  const auto too_big = JsonValue::parse(
      R"({"schema":"hlsrg-fault/v1","faults":[
            {"kind":"churn","begin_sec":1,"end_sec":2,"depart_fraction":1.5}]})");
  ASSERT_TRUE(too_big.has_value());
  EXPECT_FALSE(FaultPlan::from_json(*too_big, &back, &error));
  EXPECT_NE(error.find("depart_fraction"), std::string::npos) << error;
  const auto missing = JsonValue::parse(
      R"({"schema":"hlsrg-fault/v1","faults":[
            {"kind":"churn","begin_sec":1,"end_sec":2}]})");
  ASSERT_TRUE(missing.has_value());
  EXPECT_FALSE(FaultPlan::from_json(*missing, &back, &error));
}

TEST(FaultPlanTest, EmptyPlanDigestsToZero) {
  EXPECT_EQ(FaultPlan{}.digest(), 0u);
  EXPECT_TRUE(FaultPlan{}.empty());
  EXPECT_FALSE(sample_plan().empty());
}

TEST(FaultPlanTest, RejectsUnknownKindAndBadShapes) {
  FaultPlan out;
  std::string error;
  const auto unknown = JsonValue::parse(
      R"({"schema":"hlsrg-fault/v1","faults":[
            {"kind":"meteor_strike","begin_sec":1,"end_sec":2}]})");
  ASSERT_TRUE(unknown.has_value());
  EXPECT_FALSE(FaultPlan::from_json(*unknown, &out, &error));
  EXPECT_NE(error.find("meteor_strike"), std::string::npos);

  // radio_loss without a box.
  const auto parsed = JsonValue::parse(
      R"({"schema":"hlsrg-fault/v1","faults":[
            {"kind":"radio_loss","begin_sec":1,"end_sec":2,"extra_loss":0.5}]})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_FALSE(FaultPlan::from_json(*parsed, &out, &error));

  // max_attempts out of range.
  const auto bad_attempts = JsonValue::parse(
      R"({"schema":"hlsrg-fault/v1","overrides":{"max_attempts":40},"faults":[]})");
  ASSERT_TRUE(bad_attempts.has_value());
  EXPECT_FALSE(FaultPlan::from_json(*bad_attempts, &out, &error));
  EXPECT_NE(error.find("max_attempts"), std::string::npos);
}

// --- retry backoff ----------------------------------------------------------

TEST(RetryBackoffTest, BaseOneIsExactlyTheFlatAckTimeout) {
  HlsrgConfig cfg;  // paper defaults: 5 s flat
  for (int attempt = 1; attempt <= 8; ++attempt) {
    EXPECT_EQ(retry_timeout(cfg, attempt), cfg.ack_timeout);
  }
}

TEST(RetryBackoffTest, ExponentialGrowthIsCapped) {
  HlsrgConfig cfg;
  cfg.retry_backoff_base = 2.0;
  cfg.retry_backoff_cap = SimTime::from_sec(12.0);
  EXPECT_EQ(retry_timeout(cfg, 1), SimTime::from_sec(5.0));
  EXPECT_EQ(retry_timeout(cfg, 2), SimTime::from_sec(10.0));
  EXPECT_EQ(retry_timeout(cfg, 3), SimTime::from_sec(12.0));  // capped (20 s)
  EXPECT_EQ(retry_timeout(cfg, 4), SimTime::from_sec(12.0));
}

// --- radio degradation zones ------------------------------------------------

TEST(RadioLossZoneTest, BeaconNeighborExpiresAcrossFaultWindow) {
  Simulator sim(6);
  NodeRegistry reg;
  const NodeId a = reg.add_node(Vec2{0, 0});
  const NodeId b = reg.add_node(Vec2{300, 0});
  RadioConfig rcfg;
  rcfg.base_loss = 0.0;
  RadioMedium medium(sim, reg, rcfg);
  BeaconConfig bcfg;
  bcfg.enabled = true;
  bcfg.interval_sec = 1.0;
  bcfg.timeout_sec = 3.0;
  BeaconService beacons(medium, reg, bcfg);

  sim.run_until(SimTime::from_sec(2.0));
  std::vector<BeaconService::Neighbor> out;
  beacons.neighbors_of(a, &out);
  EXPECT_FALSE(out.empty());  // healthy radio: a hears b

  // Fault window: total loss for receivers around a. Beacons from b keep
  // being offered but every reception at a drops, so past the beacon
  // timeout the neighbor entry must expire.
  medium.set_loss_zones({{Aabb{{-50.0, -50.0}, {50.0, 50.0}}, 1.0}});
  sim.run_until(SimTime::from_sec(8.0));
  out.clear();
  beacons.neighbors_of(a, &out);
  EXPECT_TRUE(out.empty());
  EXPECT_GT(sim.metrics().radio_drops, 0u);

  // Window ends: the zone list clears and the neighbor is relearned.
  medium.set_loss_zones({});
  sim.run_until(SimTime::from_sec(10.0));
  out.clear();
  beacons.neighbors_of(a, &out);
  EXPECT_FALSE(out.empty());
  (void)b;
}

// --- World-level fault runs -------------------------------------------------

ScenarioConfig crash_scenario(std::uint64_t seed) {
  // Small map: the single L3 RSU crashes across the start of the query
  // window, so early queries must survive on retries until the reboot.
  ScenarioConfig cfg = paper_scenario(150, seed);
  cfg.hlsrg.max_attempts = 4;
  cfg.hlsrg.retry_backoff_base = 2.0;
  FaultWindow w;
  w.kind = FaultKind::kRsuCrash;
  w.begin = SimTime::from_sec(55.0);
  w.end = SimTime::from_sec(75.0);
  w.level = 3;
  w.col = -1;  // every L3 RSU (the 2 km map has exactly one)
  cfg.fault_plan.windows.push_back(w);
  return cfg;
}

TEST(FaultWorldTest, RsuCrashRunStaysAuditCleanAndCountsAvailability) {
  const ScenarioConfig cfg = crash_scenario(71);
  World world(cfg, Protocol::kHlsrg);
  ASSERT_NE(world.fault(), nullptr);
  const RunMetrics& m = world.run();
  EXPECT_TRUE(world.audit_now().ok()) << world.audit_now().to_string();
  EXPECT_GT(m.queries_issued, 0u);
  // Queries issued inside the [55, 75) window are the availability cohort.
  EXPECT_GT(m.fault_queries_issued, 0u);
  EXPECT_LE(m.fault_queries_ok, m.fault_queries_issued);
  // The crash suppressed traffic at the dead RSU and the digest records the
  // schedule that did it.
  EXPECT_GT(m.rsu_suppressed, 0u);
  EXPECT_NE(m.fault_plan_digest, 0u);
  EXPECT_EQ(m.fault_plan_digest, cfg.fault_plan.digest());
  // Settled + stranded covers every query: nothing silently lost.
  EXPECT_EQ(m.queries_issued,
            m.queries_succeeded + m.queries_failed + m.queries_stranded);
}

TEST(FaultWorldTest, FaultRunsAreDeterministic) {
  const ScenarioConfig cfg = crash_scenario(72);
  World a(cfg, Protocol::kHlsrg);
  World b(cfg, Protocol::kHlsrg);
  a.run();
  b.run();
  EXPECT_EQ(state_digest(a), state_digest(b));
  EXPECT_EQ(a.metrics().fault_queries_ok, b.metrics().fault_queries_ok);
}

TEST(FaultWorldTest, EmptyPlanFileIsByteIdenticalToNoPlan) {
  const std::string path = ::testing::TempDir() + "/hlsrg_empty_fault.json";
  std::string error;
  ASSERT_TRUE(write_json_file(FaultPlan{}.to_json(), path, &error)) << error;

  ScenarioConfig plain = paper_scenario(100, 73);
  ScenarioConfig with_file = plain;
  with_file.fault_plan_file = path;

  World a(plain, Protocol::kHlsrg);
  World b(with_file, Protocol::kHlsrg);
  EXPECT_EQ(b.fault(), nullptr);  // empty plan builds no injector
  a.run();
  b.run();
  EXPECT_EQ(state_digest(a), state_digest(b));
  EXPECT_EQ(a.metrics().fault_plan_digest, 0u);
  EXPECT_EQ(b.metrics().fault_plan_digest, 0u);
}

// The PR's acceptance gate: under an all-faults plan (crash + link cut +
// partition + radio loss + GPS noise), graceful degradation must not lose
// to doing nothing. Deterministic — one fixed seed, exact replay.
TEST(FaultWorldTest, FailoverBeatsNoFailoverOnAllFaultsPlan) {
  ScenarioConfig cfg = paper_scenario(300, 76);
  cfg.map.size_m = 4000.0;  // 2x2 L3 mesh: sibling L3s exist to fail over to
  cfg.hlsrg.max_attempts = 4;
  cfg.hlsrg.retry_backoff_base = 2.0;
  auto window = [&cfg](FaultKind kind, double begin, double end) -> FaultWindow& {
    FaultWindow w;
    w.kind = kind;
    w.begin = SimTime::from_sec(begin);
    w.end = SimTime::from_sec(end);
    cfg.fault_plan.windows.push_back(w);
    return cfg.fault_plan.windows.back();
  };
  {  // L3 (0,0) dies for good: outlasts the whole retry budget.
    FaultWindow& w = window(FaultKind::kRsuCrash, 55.0, 0.0);
    w.level = 3;
    w.col = 0;
    w.row = 0;
  }
  {
    FaultWindow& w = window(FaultKind::kLinkCut, 60.0, 0.0);
    w.level = 2;
    w.col = 3;
    w.row = 3;
    w.peer_level = 3;
    w.peer_col = 1;
    w.peer_row = 1;
  }
  {
    FaultWindow& w = window(FaultKind::kPartition, 50.0, 80.0);
    w.has_box = true;
    w.box = Aabb{{0.0, 0.0}, {2000.0, 4000.0}};
  }
  {
    FaultWindow& w = window(FaultKind::kRadioLoss, 50.0, 85.0);
    w.has_box = true;
    w.box = Aabb{{2000.0, 0.0}, {4000.0, 2000.0}};
    w.extra_loss = 0.3;
  }
  window(FaultKind::kGpsNoise, 50.0, 85.0).sigma_m = 20.0;

  ScenarioConfig control = cfg;
  control.hlsrg.enable_failover = false;
  World with(cfg, Protocol::kHlsrg);
  World without(control, Protocol::kHlsrg);
  const RunMetrics& m_with = with.run();
  const RunMetrics& m_without = without.run();
  EXPECT_TRUE(with.audit_now().ok()) << with.audit_now().to_string();
  EXPECT_TRUE(without.audit_now().ok()) << without.audit_now().to_string();
  EXPECT_GT(m_with.query_failovers, 0u);
  EXPECT_EQ(m_without.query_failovers, 0u);
  EXPECT_GT(m_with.queries_succeeded, m_without.queries_succeeded);
  EXPECT_GT(m_with.fault_queries_ok, m_without.fault_queries_ok);
}

TEST(FaultWorldTest, PlanOverridesReachTheProtocolConfig) {
  ScenarioConfig cfg = paper_scenario(2, 74);
  cfg.fault_plan.overrides.max_attempts = 6;
  cfg.fault_plan.overrides.ack_timeout_sec = 2.5;
  World world(cfg, Protocol::kHlsrg);
  EXPECT_EQ(world.config().hlsrg.max_attempts, 6);
  EXPECT_EQ(world.config().hlsrg.ack_timeout, SimTime::from_sec(2.5));
}

}  // namespace
}  // namespace hlsrg
