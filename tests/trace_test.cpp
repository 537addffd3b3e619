// Tests for the span trace: recording, per-query lookup, the span-tree text
// dump, and the protocol hooks that feed it.
#include <gtest/gtest.h>

#include <algorithm>

#include "harness/digest.h"
#include "harness/world.h"
#include "trace/trace.h"

namespace hlsrg {
namespace {

Span make_span(SpanKind kind, SpanId parent = kNoSpan,
               std::uint32_t query = kNoQuery) {
  Span s;
  s.kind = kind;
  s.parent = parent;
  s.query_id = query;
  return s;
}

std::size_t count_spans(const TraceLog& log, SpanKind kind) {
  return static_cast<std::size_t>(
      std::count_if(log.spans().begin(), log.spans().end(),
                    [kind](const Span& s) { return s.kind == kind; }));
}

std::size_t count_spans(const TraceLog& log, SpanKind kind,
                        SpanStatus status) {
  return static_cast<std::size_t>(std::count_if(
      log.spans().begin(), log.spans().end(), [kind, status](const Span& s) {
        return s.kind == kind && s.status == status;
      }));
}

TEST(TraceLogTest, RecordAndCount) {
  TraceLog log;
  const SpanId a = log.begin_span(make_span(SpanKind::kUpdate),
                                  SimTime::from_sec(1));
  const SpanId b = log.begin_span(make_span(SpanKind::kQuery, kNoSpan, 7),
                                  SimTime::from_sec(2));
  EXPECT_EQ(a, 1u);  // ids are record order, starting at 1
  EXPECT_EQ(b, 2u);
  EXPECT_EQ(log.span_count(), 2u);
  ASSERT_NE(log.span(b), nullptr);
  EXPECT_EQ(log.span(b)->kind, SpanKind::kQuery);
  EXPECT_EQ(log.span(b)->status, SpanStatus::kOpen);
  EXPECT_EQ(log.span(kNoSpan), nullptr);
  EXPECT_EQ(log.span(3), nullptr);
}

TEST(TraceLogTest, FilterByQueryIgnoresNonQueryKinds) {
  TraceLog log;
  log.begin_span(make_span(SpanKind::kUpdate), SimTime{});
  const SpanId root =
      log.begin_span(make_span(SpanKind::kQuery, kNoSpan, 0), SimTime{});
  log.begin_span(make_span(SpanKind::kQuery, kNoSpan, 1), SimTime{});
  log.begin_span(make_span(SpanKind::kRadioHop, root), SimTime{});
  const SpanId ack =
      log.begin_span(make_span(SpanKind::kAckLeg, root, 0), SimTime{});
  const auto story = log.spans_for_query(0);
  ASSERT_EQ(story.size(), 2u);  // query 0 is a real id, kNoQuery is not
  EXPECT_EQ(story[0].id, root);
  EXPECT_EQ(story[1].id, ack);
  EXPECT_EQ(log.spans_for_query(1).size(), 1u);
  EXPECT_TRUE(log.spans_for_query(2).empty());
}

// Pins the text dump on a hand-built log with nested, interleaved query
// trees: every span prints under its parent, children in begin order, and
// a span whose parent id is not in the log is not printed.
TEST(TraceLogTest, SpanTreeTextNestsInterleavedTrees) {
  TraceLog log;
  Span q0 = make_span(SpanKind::kQuery, kNoSpan, 0);
  q0.subject = 1;
  q0.other = 2;
  const SpanId r0 = log.begin_span(q0, SimTime::from_sec(1));    // 1
  const SpanId r1 = log.begin_span(make_span(SpanKind::kQuery, kNoSpan, 1),
                                   SimTime::from_sec(1.5));       // 2
  Span route = make_span(SpanKind::kGpsrRoute, r0, 0);
  route.level = 1;
  const SpanId g0 = log.begin_span(route, SimTime::from_sec(2));  // 3
  Span update = make_span(SpanKind::kUpdate);
  update.detail = "crossing";
  update.value = 12;
  log.begin_span(update, SimTime::from_sec(2.25));                 // 4
  const SpanId g1 = log.begin_span(make_span(SpanKind::kGpsrRoute, r1, 1),
                                   SimTime::from_sec(2.5));       // 5
  log.begin_span(make_span(SpanKind::kRadioHop, g0),
                 SimTime::from_sec(3));                            // 6
  log.begin_span(make_span(SpanKind::kRadioHop, g1),
                 SimTime::from_sec(3.5));                          // 7
  log.begin_span(make_span(SpanKind::kRadioHop, g0),
                 SimTime::from_sec(4));                            // 8
  log.begin_span(make_span(SpanKind::kAckLeg, r0, 0),
                 SimTime::from_sec(5));                            // 9
  log.begin_span(make_span(SpanKind::kRadioHop, 99),
                 SimTime::from_sec(5));                            // 10
  log.end_span(g0, SimTime::from_sec(4.5), SpanStatus::kOk, Vec2{}, 2);
  log.end_open_spans_for_query(0, SimTime::from_sec(6), SpanStatus::kOk);
  log.end_open_spans_for_query(1, SimTime::from_sec(7), SpanStatus::kFailed);

  EXPECT_EQ(log.span_tree_text(),
            "query [ok] 1.000000s -> 6.000000s subject=1 other=2 query=0\n"
            "  gpsr_route [ok] 2.000000s -> 4.500000s query=0 level=1 "
            "value=2\n"
            "    radio_hop [open] 3.000000s -> 3.000000s\n"
            "    radio_hop [open] 4.000000s -> 4.000000s\n"
            "  ack_leg [ok] 5.000000s -> 6.000000s query=0\n"
            "query [failed] 1.500000s -> 7.000000s query=1\n"
            "  gpsr_route [failed] 2.500000s -> 7.000000s query=1\n"
            "    radio_hop [open] 3.500000s -> 3.500000s\n"
            "update [open] 2.250000s -> 2.250000s value=12 "
            "detail=crossing\n");
}

// --- protocol integration ---------------------------------------------------

// The span record agrees with the run counters: one query root per issued
// query (closed with its outcome), one update span per originated update,
// one notification span per notification and one ACK leg per ACK.
void expect_span_laws(const TraceLog& trace, const RunMetrics& m,
                      Protocol protocol) {
  SCOPED_TRACE(protocol_name(protocol));
  EXPECT_EQ(trace.dropped_spans(), 0u);
  EXPECT_EQ(count_spans(trace, SpanKind::kQuery), m.queries_issued);
  EXPECT_EQ(count_spans(trace, SpanKind::kQuery, SpanStatus::kOk),
            m.queries_succeeded);
  EXPECT_EQ(count_spans(trace, SpanKind::kQuery, SpanStatus::kFailed),
            m.queries_failed);
  EXPECT_EQ(count_spans(trace, SpanKind::kUpdate),
            m.update_packets_originated);
  EXPECT_EQ(count_spans(trace, SpanKind::kNotification),
            m.notifications_sent);
  EXPECT_EQ(count_spans(trace, SpanKind::kAckLeg), m.acks_sent);
}

TEST(TraceIntegrationTest, HlsrgRunEmitsCoherentTrace) {
  ScenarioConfig cfg = paper_scenario(300, 61);
  World world(cfg, Protocol::kHlsrg);
  TraceLog trace;
  world.attach_trace(&trace);
  world.run();

  const RunMetrics& m = world.metrics();
  expect_span_laws(trace, m, Protocol::kHlsrg);
  EXPECT_GT(m.queries_succeeded, 0u);
  EXPECT_GT(count_spans(trace, SpanKind::kTablePush), 0u);
  EXPECT_GT(count_spans(trace, SpanKind::kTableHandoff), 0u);

  // Spans begin in nondecreasing time order (single-threaded DES).
  for (std::size_t i = 1; i < trace.spans().size(); ++i) {
    EXPECT_GE(trace.spans()[i].begin, trace.spans()[i - 1].begin);
  }

  // Every successful query's story opens with its root and carries the ACK
  // leg back from the target.
  for (const Span& s : trace.spans()) {
    if (s.kind != SpanKind::kQuery || s.status != SpanStatus::kOk) continue;
    const auto story = trace.spans_for_query(s.query_id);
    ASSERT_GE(story.size(), 2u);
    EXPECT_EQ(story.front().id, s.id);
    EXPECT_TRUE(std::any_of(story.begin(), story.end(), [&s](const Span& x) {
      return x.kind == SpanKind::kAckLeg && x.subject == s.other &&
             x.other == s.subject;
    })) << "query " << s.query_id;
  }
}

TEST(TraceIntegrationTest, DetachedTraceCostsNothing) {
  ScenarioConfig cfg = paper_scenario(200, 62);
  World with(cfg, Protocol::kHlsrg);
  TraceLog trace;
  with.attach_trace(&trace);
  World without(cfg, Protocol::kHlsrg);
  with.run();
  without.run();
  // Tracing must not perturb the simulation.
  EXPECT_EQ(with.metrics().radio_broadcasts,
            without.metrics().radio_broadcasts);
  EXPECT_EQ(with.metrics().queries_succeeded,
            without.metrics().queries_succeeded);
  EXPECT_EQ(state_digest(with), state_digest(without));
  EXPECT_GT(trace.span_count(), 0u);
}

TEST(TraceIntegrationTest, RlsmpAndFloodAlsoTrace) {
  for (Protocol protocol : {Protocol::kRlsmp, Protocol::kFlood}) {
    ScenarioConfig cfg = paper_scenario(150, 63);
    World world(cfg, protocol);
    TraceLog trace;
    world.attach_trace(&trace);
    world.run();
    EXPECT_GT(count_spans(trace, SpanKind::kUpdate), 0u)
        << protocol_name(protocol);
    expect_span_laws(trace, world.metrics(), protocol);
  }
}

}  // namespace
}  // namespace hlsrg
