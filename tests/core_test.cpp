// Tests for core: the update-rule engine truth table, location tables with
// expiry, and message plumbing.
#include <gtest/gtest.h>

#include "core/hlsrg_config.h"
#include "core/location_table.h"
#include "core/messages.h"
#include "core/update_rules.h"
#include "grid/hierarchy.h"
#include "mobility/turn_policy.h"
#include "roadnet/map_builder.h"

namespace hlsrg {
namespace {

// Fixture exposing rule evaluation on a concrete map by coordinates.
class UpdateRulesFixture {
 public:
  explicit UpdateRulesFixture(MapConfig map_cfg = {.size_m = 2000},
                              HlsrgConfig cfg = {})
      : net_(build_manhattan_map(map_cfg)),
        hierarchy_(net_, build_partition(net_)),
        policy_(net_, TurnPolicyConfig{}),
        cfg_(cfg),
        rules_(net_, hierarchy_, policy_, cfg_) {}

  // Evaluates a pass through the intersection at `at`, arriving from the
  // direction of `from_pos` and leaving toward `to_pos`.
  UpdateDecision pass(Vec2 from_pos, Vec2 at, Vec2 to_pos) {
    const IntersectionId node = net_.nearest_intersection(at);
    const IntersectionId from = net_.nearest_intersection(from_pos);
    const IntersectionId to = net_.nearest_intersection(to_pos);
    const SegmentId in = find_segment(from, node);
    const SegmentId out = find_segment(node, to);
    EXPECT_TRUE(in.valid()) << "no segment " << from_pos << "->" << at;
    EXPECT_TRUE(out.valid()) << "no segment " << at << "->" << to_pos;
    return rules_.evaluate(node, in, out);
  }

  const RoadNetwork& net() const { return net_; }
  const GridHierarchy& hierarchy() const { return hierarchy_; }

 private:
  SegmentId find_segment(IntersectionId a, IntersectionId b) {
    for (SegmentId sid : net_.intersection(a).out) {
      if (net_.segment(sid).to == b) return sid;
    }
    return {};
  }

  RoadNetwork net_;
  GridHierarchy hierarchy_;
  TurnPolicy policy_;
  HlsrgConfig cfg_;
  UpdateRuleEngine rules_;
};

TEST(UpdateRulesTest, Class1StraightOnArteryDoesNotUpdateAtL1Boundary) {
  UpdateRulesFixture f;
  // Eastbound along the y=500 artery, straight through (500,500): crosses
  // the x=500 boundary (level 1/2) but not an L3 boundary.
  const UpdateDecision d = f.pass({250, 500}, {500, 500}, {750, 500});
  EXPECT_TRUE(d.was_class1);
  EXPECT_TRUE(d.grid_changed);
  EXPECT_GE(d.crossing_level, 1);
  EXPECT_LT(d.crossing_level, 3);
  EXPECT_FALSE(d.send);
}

TEST(UpdateRulesTest, Class1TurnTriggersUpdate) {
  UpdateRulesFixture f;
  // Eastbound on the y=500 artery, turning north onto the x=500 artery.
  const UpdateDecision d = f.pass({250, 500}, {500, 500}, {500, 750});
  EXPECT_TRUE(d.was_class1);
  EXPECT_TRUE(d.send);
}

TEST(UpdateRulesTest, Class1TurnOntoNormalRoadAlsoTriggers) {
  UpdateRulesFixture f;
  // Eastbound on y=500 artery, turning north onto the x=250 normal road.
  const UpdateDecision d = f.pass({0, 500}, {250, 500}, {250, 750});
  EXPECT_TRUE(d.was_class1);
  EXPECT_TRUE(d.send);
}

TEST(UpdateRulesTest, Class1StraightAcrossL3BoundarySends) {
  UpdateRulesFixture f(MapConfig{.size_m = 4000});
  // 4 km map: L3 cells are 2 km; x=2000 is an L3 boundary. Eastbound on the
  // y=500 artery straight through (2000,500).
  const UpdateDecision d = f.pass({1750, 500}, {2000, 500}, {2250, 500});
  EXPECT_TRUE(d.was_class1);
  EXPECT_EQ(d.crossing_level, 3);
  EXPECT_TRUE(d.send);
}

TEST(UpdateRulesTest, Class2StraightAcrossAnyBoundarySends) {
  UpdateRulesFixture f;
  // Eastbound on the y=250 normal road through (500,250): crosses x=500.
  const UpdateDecision d = f.pass({250, 250}, {500, 250}, {750, 250});
  EXPECT_FALSE(d.was_class1);
  EXPECT_TRUE(d.grid_changed);
  EXPECT_TRUE(d.send);
}

TEST(UpdateRulesTest, Class2StraightInsideGridStaysQuiet) {
  UpdateRulesFixture f;
  // Eastbound on y=250 through (250,250): stays inside L1 (0,0).
  const UpdateDecision d = f.pass({0, 250}, {250, 250}, {500, 250});
  EXPECT_FALSE(d.was_class1);
  EXPECT_FALSE(d.grid_changed);
  EXPECT_FALSE(d.send);
}

TEST(UpdateRulesTest, Class2TurnOntoSelectedArterySends) {
  UpdateRulesFixture f;
  // Northbound on x=250 normal road, turning east onto the y=500 artery.
  const UpdateDecision d = f.pass({250, 250}, {250, 500}, {500, 500});
  EXPECT_FALSE(d.was_class1);
  EXPECT_TRUE(d.send);
}

TEST(UpdateRulesTest, Class2TurnOntoNormalRoadStaysQuiet) {
  UpdateRulesFixture f;
  // Northbound on x=250, turning east onto y=250 (both normal, no boundary).
  const UpdateDecision d = f.pass({250, 0}, {250, 250}, {500, 250});
  EXPECT_FALSE(d.was_class1);
  EXPECT_FALSE(d.send);
}

TEST(UpdateRulesTest, UnselectedArteryIsClass2) {
  // Arteries every 250 m: only every other artery is a boundary; vehicles on
  // unselected arteries follow class-2 rules.
  UpdateRulesFixture f(MapConfig{
      .size_m = 2000, .artery_spacing = 250, .minor_spacing = 250});
  const GridHierarchy& h = f.hierarchy();
  // Find an unselected horizontal artery line.
  double unselected_y = -1;
  for (double y : {250.0, 750.0, 1250.0, 1750.0}) {
    bool selected = false;
    for (const BoundaryLine& l : h.partition().y_lines) {
      if (std::abs(l.coord - y) < 1.0) selected = true;
    }
    if (!selected) {
      unselected_y = y;
      break;
    }
  }
  ASSERT_GT(unselected_y, 0.0);
  // Straight east along the unselected artery through a vertical boundary.
  double boundary_x = h.partition().x_lines[1].coord;
  const UpdateDecision d =
      f.pass({boundary_x - 250, unselected_y}, {boundary_x, unselected_y},
             {boundary_x + 250, unselected_y});
  EXPECT_FALSE(d.was_class1);
  EXPECT_TRUE(d.send);  // class 2 crossing a boundary
}

TEST(UpdateRulesTest, NaiveModeSendsOnEveryGridChange) {
  HlsrgConfig cfg;
  cfg.naive_every_crossing = true;
  UpdateRulesFixture f(MapConfig{.size_m = 2000}, cfg);
  const UpdateDecision artery =
      f.pass({250, 500}, {500, 500}, {750, 500});
  EXPECT_TRUE(artery.send);  // suppressed under paper rules, sent here
  const UpdateDecision inside = f.pass({0, 250}, {250, 250}, {500, 250});
  EXPECT_FALSE(inside.send);  // no grid change, still quiet
}

TEST(UpdateRulesTest, SuppressionOffMakesEveryoneClass2) {
  HlsrgConfig cfg;
  cfg.suppress_artery_updates = false;
  UpdateRulesFixture f(MapConfig{.size_m = 2000}, cfg);
  // Straight on the artery across a boundary now sends (class-2 rule 1).
  const UpdateDecision d = f.pass({250, 500}, {500, 500}, {750, 500});
  EXPECT_TRUE(d.send);
}

TEST(UpdateRulesTest, ProbeOnBoundaryRoadIsStable) {
  UpdateRulesFixture f;
  // Driving along a boundary artery must not register spurious crossings of
  // the road it is driving on.
  const UpdateDecision d = f.pass({500, 250}, {500, 500}, {500, 750});
  // Northbound along x=500: crossing y=500 is a real perpendicular boundary
  // crossing; but col must be stable.
  EXPECT_EQ(d.old_l1.col, d.new_l1.col);
  EXPECT_EQ(d.new_l1.row, d.old_l1.row + 1);
}

// --- location tables -----------------------------------------------------------

L1Record rec(std::uint32_t vid, double t_sec, GridCoord l1 = {0, 0}) {
  L1Record r;
  r.vehicle = VehicleId{vid};
  r.time = SimTime::from_sec(t_sec);
  r.l1 = l1;
  r.pos = {1, 2};
  r.dir = {1, 0};
  return r;
}

TEST(L1TableTest, NewestWins) {
  L1Table t;
  t.record(rec(1, 10.0));
  t.record(rec(1, 5.0));  // older: ignored
  ASSERT_NE(t.find(VehicleId{1u}), nullptr);
  EXPECT_EQ(t.find(VehicleId{1u})->time, SimTime::from_sec(10.0));
  t.record(rec(1, 20.0));  // newer: replaces
  EXPECT_EQ(t.find(VehicleId{1u})->time, SimTime::from_sec(20.0));
  EXPECT_EQ(t.size(), 1u);
}

TEST(L1TableTest, PurgeDropsOnlyExpired) {
  L1Table t;
  t.record(rec(1, 0.0));
  t.record(rec(2, 100.0));
  const std::size_t purged =
      t.purge(SimTime::from_sec(140.0), SimTime::from_min(2.2));
  EXPECT_EQ(purged, 1u);
  EXPECT_EQ(t.find(VehicleId{1u}), nullptr);
  EXPECT_NE(t.find(VehicleId{2u}), nullptr);
}

TEST(L1TableTest, SnapshotAndMergeRoundTrip) {
  L1Table a;
  a.record(rec(1, 1.0));
  a.record(rec(2, 2.0));
  L1Table b;
  b.record(rec(2, 5.0));  // newer than a's
  b.record(rec(3, 3.0));
  a.merge(b.snapshot());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.find(VehicleId{2u})->time, SimTime::from_sec(5.0));
}

TEST(L1TableTest, EraseAndClear) {
  L1Table t;
  t.record(rec(1, 1.0));
  t.record(rec(2, 1.0));
  t.erase(VehicleId{1u});
  EXPECT_EQ(t.size(), 1u);
  t.clear();
  EXPECT_EQ(t.size(), 0u);
}

TEST(L2TableTest, SchemaAndExpiry) {
  L2Table t;
  t.record(L2Summary{VehicleId{1u}, SimTime::from_sec(10), {2, 3}});
  t.record(L2Summary{VehicleId{1u}, SimTime::from_sec(4), {9, 9}});  // stale
  ASSERT_NE(t.find(VehicleId{1u}), nullptr);
  EXPECT_EQ(t.find(VehicleId{1u})->l1, (GridCoord{2, 3}));
  t.purge(SimTime::from_sec(200), SimTime::from_min(2.2));
  EXPECT_EQ(t.size(), 0u);
}

TEST(L3TableTest, SchemaAndMerge) {
  L3Table t;
  t.record(L3Summary{VehicleId{1u}, SimTime::from_sec(10), {0, 1}, {0, 0}});
  std::vector<L3Summary> gossip{
      {VehicleId{1u}, SimTime::from_sec(20), {1, 1}, {1, 0}},
      {VehicleId{2u}, SimTime::from_sec(5), {0, 0}, {0, 0}},
  };
  t.merge(gossip);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.find(VehicleId{1u})->owner_l3, (GridCoord{1, 0}));
  EXPECT_EQ(t.find(VehicleId{1u})->l2, (GridCoord{1, 1}));
}

// --- messages ---------------------------------------------------------------------

TEST(MessagesTest, DedupKeySeparatesAttempts) {
  QueryPayload a;
  a.query_id = 7;
  a.attempt = 1;
  QueryPayload b = a;
  b.attempt = 2;
  EXPECT_NE(a.dedup_key(), b.dedup_key());
  QueryPayload c;
  c.query_id = 8;
  c.attempt = 1;
  EXPECT_NE(a.dedup_key(), c.dedup_key());
  ServerClaimPayload claim;
  claim.query_id = 7;
  claim.attempt = 1;
  EXPECT_EQ(claim.dedup_key(), a.dedup_key());
}

TEST(MessagesTest, PayloadDowncast) {
  auto u = std::make_shared<UpdatePayload>();
  u->record = rec(5, 1.0);
  Packet pkt;
  pkt.kind = PacketKind::kLocationUpdate;
  pkt.payload = u;
  EXPECT_EQ(payload_as<UpdatePayload>(pkt).record.vehicle, VehicleId{5u});
}

// ---------------------------------------------------------------------------
// QueryTracker: each query's ACK timer lives in its tracker record.
// ---------------------------------------------------------------------------

TEST(QueryTrackerTest, SucceedCancelsTheArmedTimer) {
  Simulator sim(1);
  QueryTracker tracker(sim);
  const QueryTracker::QueryId id = tracker.issue(VehicleId{0u}, VehicleId{1u});
  bool fired = false;
  tracker.arm(id, 1, SimTime::from_sec(5.0), [&fired] { fired = true; });
  EXPECT_TRUE(tracker.armed(id));
  EXPECT_EQ(tracker.attempt(id), 1);
  sim.run_until(SimTime::from_sec(1.0));

  const std::uint64_t cancelled = sim.queue().events_cancelled();
  tracker.succeed(id);
  EXPECT_EQ(sim.queue().events_cancelled(), cancelled + 1);
  EXPECT_FALSE(tracker.armed(id));
  // A duplicate ACK settles nothing and cancels nothing.
  tracker.succeed(id);
  EXPECT_EQ(sim.queue().events_cancelled(), cancelled + 1);

  sim.run_until(SimTime::from_sec(10.0));
  EXPECT_FALSE(fired);
  EXPECT_TRUE(tracker.succeeded(id));
  EXPECT_EQ(tracker.latency(id), SimTime::from_sec(1.0));
  EXPECT_EQ(sim.metrics().queries_succeeded, 1u);
}

TEST(QueryTrackerTest, FailOnAFiredTimerCancelsNothing) {
  Simulator sim(1);
  QueryTracker tracker(sim);
  const QueryTracker::QueryId id = tracker.issue(VehicleId{0u}, VehicleId{1u});
  bool armed_in_callback = true;
  tracker.arm(id, 2, SimTime::from_sec(5.0), [&] {
    // The fired timer is disarmed before its callback runs.
    armed_in_callback = tracker.armed(id);
    tracker.fail(id);
  });
  sim.run_until(SimTime::from_sec(10.0));
  EXPECT_FALSE(armed_in_callback);
  EXPECT_TRUE(tracker.settled(id));
  EXPECT_FALSE(tracker.succeeded(id));
  EXPECT_EQ(tracker.attempt(id), 2);
  EXPECT_EQ(sim.queue().events_cancelled(), 0u);
  EXPECT_EQ(sim.metrics().queries_failed, 1u);
}

TEST(QueryTrackerTest, FiredTimerMayArmTheNextAttempt) {
  Simulator sim(1);
  QueryTracker tracker(sim);
  const QueryTracker::QueryId id = tracker.issue(VehicleId{0u}, VehicleId{1u});
  tracker.arm(id, 1, SimTime::from_sec(1.0), [&] {
    tracker.arm(id, 2, SimTime::from_sec(1.0), [&] { tracker.fail(id); });
  });
  sim.run_until(SimTime::from_sec(1.5));
  EXPECT_TRUE(tracker.armed(id));
  EXPECT_EQ(tracker.attempt(id), 2);
  sim.run_until(SimTime::from_sec(3.0));
  EXPECT_TRUE(tracker.settled(id));
  EXPECT_FALSE(tracker.armed(id));
  // Dv answers each query once, however many notification copies arrive.
  EXPECT_TRUE(tracker.answer(id));
  EXPECT_FALSE(tracker.answer(id));
}

}  // namespace
}  // namespace hlsrg
