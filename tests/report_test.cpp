// Tests for the report subsystem: the JSON document model (writer + parser)
// and the RunReport serializer round trip.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <limits>
#include <string>
#include <vector>

#include "fault/fault_plan.h"
#include "harness/runner.h"
#include "report/bench_report.h"
#include "report/json.h"
#include "report/run_report.h"
#include "trace/metrics.h"

namespace hlsrg {
namespace {

TEST(JsonTest, ScalarsDump) {
  EXPECT_EQ(JsonValue().dump(), "null");
  EXPECT_EQ(JsonValue(true).dump(), "true");
  EXPECT_EQ(JsonValue(false).dump(), "false");
  EXPECT_EQ(JsonValue(42).dump(), "42");
  EXPECT_EQ(JsonValue(std::uint64_t{1234567890123}).dump(), "1234567890123");
  EXPECT_EQ(JsonValue(1.5).dump(), "1.5");
  EXPECT_EQ(JsonValue("hi").dump(), "\"hi\"");
}

TEST(JsonTest, StringEscaping) {
  EXPECT_EQ(JsonValue("a\"b\\c\nd").dump(), "\"a\\\"b\\\\c\\nd\"");
  const auto parsed = JsonValue::parse("\"a\\\"b\\\\c\\nd\\u0041\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->as_string(), "a\"b\\c\ndA");
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplaces) {
  JsonValue o = JsonValue::object();
  o.set("b", 1);
  o.set("a", 2);
  o.set("b", 3);  // replace keeps position
  EXPECT_EQ(o.dump(), "{\"b\":3,\"a\":2}");
  EXPECT_EQ(o.at("b").as_int(), 3);
  EXPECT_TRUE(o.at("missing").is_null());
  EXPECT_FALSE(o.contains("missing"));
}

TEST(JsonTest, RoundTripNested) {
  JsonValue o = JsonValue::object();
  o.set("name", "bench");
  o.set("n", 3);
  o.set("ok", true);
  o.set("nothing", JsonValue());
  JsonValue arr = JsonValue::array();
  arr.push_back(1);
  arr.push_back(2.25);
  JsonValue inner = JsonValue::object();
  inner.set("x", -7);
  arr.push_back(std::move(inner));
  o.set("items", std::move(arr));

  for (const int indent : {0, 2}) {
    const std::string text = o.dump(indent);
    std::string error;
    const auto parsed = JsonValue::parse(text, &error);
    ASSERT_TRUE(parsed.has_value()) << error;
    EXPECT_EQ(parsed->dump(), o.dump());
  }
}

TEST(JsonTest, ParseErrors) {
  std::string error;
  EXPECT_FALSE(JsonValue::parse("", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("{\"a\":}", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("[1,]", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("123 456", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("\"unterminated", &error).has_value());
  EXPECT_FALSE(JsonValue::parse("tru", &error).has_value());
  EXPECT_FALSE(error.empty());
}

TEST(JsonTest, ParseAcceptsWhitespaceAndNumbers) {
  const auto v = JsonValue::parse(" { \"a\" : [ -1.5e2 , 0 ] } ");
  ASSERT_TRUE(v.has_value());
  EXPECT_DOUBLE_EQ(v->at("a").items()[0].as_double(), -150.0);
  EXPECT_DOUBLE_EQ(v->at("a").items()[1].as_double(), 0.0);
}

TEST(JsonTest, SixtyFourBitIntegersRoundTripExactly) {
  const std::uint64_t max_u = std::numeric_limits<std::uint64_t>::max();
  const std::uint64_t past_double = (std::uint64_t{1} << 53) + 1;
  const std::int64_t min_i = std::numeric_limits<std::int64_t>::min();
  JsonValue o = JsonValue::object();
  o.set("max_u", max_u);
  o.set("past_double", past_double);
  o.set("min_i", min_i);
  EXPECT_EQ(o.dump(), "{\"max_u\":18446744073709551615,"
                      "\"past_double\":9007199254740993,"
                      "\"min_i\":-9223372036854775808}");
  for (const int indent : {0, 2}) {
    std::string error;
    const auto back = JsonValue::parse(o.dump(indent), &error);
    ASSERT_TRUE(back.has_value()) << error;
    EXPECT_EQ(back->at("max_u").as_uint64(), max_u);
    EXPECT_EQ(back->at("past_double").as_uint64(), past_double);
    EXPECT_EQ(back->at("min_i").dump(), "-9223372036854775808");
    EXPECT_EQ(back->dump(indent), o.dump(indent));
  }
}

TEST(JsonTest, SmallIntegersAndNonIntegersPrintAsBefore) {
  // Below 2^53 an exact integer prints exactly as its double does, and
  // doubles, exponents and out-of-range literals stay on the double path.
  for (const std::uint64_t u : {std::uint64_t{0}, std::uint64_t{42},
                                (std::uint64_t{1} << 53) - 1}) {
    EXPECT_EQ(JsonValue(u).dump(), JsonValue(static_cast<double>(u)).dump());
  }
  EXPECT_EQ(JsonValue(std::int64_t{-7}).dump(), JsonValue(-7.0).dump());
  EXPECT_EQ(JsonValue(1e300).dump(), "1.0000000000000001e+300");
  EXPECT_EQ(JsonValue(0.1).dump(), "0.10000000000000001");
  EXPECT_EQ(JsonValue::parse("2.5e3")->dump(), "2500");
  EXPECT_EQ(JsonValue::parse("-0")->dump(), "0");
  EXPECT_EQ(JsonValue::parse("123456789012345678901234")->dump(),
            "1.2345678901234569e+23");
}

// Every counter gets a distinct value, so a field the writer or the parser
// drops or swaps cannot go unnoticed.
RunMetrics sample_metrics() {
  RunMetrics m;
  std::uint64_t value = 1000;
  for (const RunMetricsField& f : kRunMetricsFields) {
    m.*f.member = value;
    value += 17;
  }
  m.query_latency.add(SimTime::from_ms(120.0));
  m.query_latency.add(SimTime::from_ms(80.0));
  m.query_latency.add(SimTime::from_ms(500.0));
  return m;
}

TEST(RunReportTest, JsonRoundTripFieldEquality) {
  ScenarioConfig cfg = paper_scenario(450, 77);
  cfg.map.irregular = true;
  cfg.partition.target_size = 400.0;
  cfg.radio.range_m = 450.0;
  cfg.workload = ScenarioConfig::WorkloadKind::kHotspot;
  cfg.source_fraction = 0.2;
  cfg.poisson_rate_per_sec = 2.5;
  cfg.hotspot_targets = 7;
  cfg.warmup = SimTime::from_sec(45.0);
  cfg.query_window = SimTime::from_sec(20.0);
  cfg.grace = SimTime::from_sec(30.0);
  cfg.mobility.parked_fraction = 0.25;
  cfg.hlsrg.use_rsus = false;
  cfg.hlsrg.suppress_artery_updates = false;
  cfg.hlsrg.l1_expiry = SimTime::from_sec(90.0);

  EngineStats engine;
  engine.events_processed = 46121;
  engine.events_scheduled = 46504;
  engine.peak_queue_depth = 930;
  engine.sim_time_sec = 150.0;
  engine.wall_clock_sec = 0.0625;
  engine.peak_rss_bytes = 123456789;
  engine.table_bytes = 424242;

  const RunReport report =
      make_run_report(Protocol::kHlsrg, cfg, sample_metrics(), engine);

  // Serialize, re-parse the text, deserialize, and compare every field.
  std::string error;
  const auto doc = JsonValue::parse(report.to_json().dump(2), &error);
  ASSERT_TRUE(doc.has_value()) << error;
  RunReport back;
  ASSERT_TRUE(RunReport::from_json(*doc, &back, &error)) << error;

  EXPECT_EQ(back.protocol, "HLSRG");

  // Scenario config subset.
  EXPECT_EQ(back.config.seed, cfg.seed);
  EXPECT_EQ(back.config.vehicles, cfg.vehicles);
  EXPECT_DOUBLE_EQ(back.config.map.size_m, cfg.map.size_m);
  EXPECT_EQ(back.config.map.irregular, cfg.map.irregular);
  EXPECT_DOUBLE_EQ(back.config.partition.target_size,
                   cfg.partition.target_size);
  EXPECT_DOUBLE_EQ(back.config.radio.range_m, cfg.radio.range_m);
  EXPECT_EQ(back.config.workload, cfg.workload);
  EXPECT_DOUBLE_EQ(back.config.source_fraction, cfg.source_fraction);
  EXPECT_DOUBLE_EQ(back.config.poisson_rate_per_sec, cfg.poisson_rate_per_sec);
  EXPECT_EQ(back.config.hotspot_targets, cfg.hotspot_targets);
  EXPECT_EQ(back.config.warmup, cfg.warmup);
  EXPECT_EQ(back.config.query_window, cfg.query_window);
  EXPECT_EQ(back.config.grace, cfg.grace);
  EXPECT_DOUBLE_EQ(back.config.mobility.parked_fraction,
                   cfg.mobility.parked_fraction);
  EXPECT_EQ(back.config.hlsrg.use_rsus, cfg.hlsrg.use_rsus);
  EXPECT_EQ(back.config.hlsrg.suppress_artery_updates,
            cfg.hlsrg.suppress_artery_updates);
  EXPECT_EQ(back.config.hlsrg.l1_expiry, cfg.hlsrg.l1_expiry);

  // Counters: every field of the list, each written under its own key.
  EXPECT_EQ(metrics_to_json(report.metrics).size(),
            std::size(kRunMetricsFields));
  for (const RunMetricsField& f : kRunMetricsFields) {
    EXPECT_EQ(back.metrics.*f.member, report.metrics.*f.member) << f.name;
  }

  // Latency digest.
  EXPECT_EQ(back.latency.count, report.latency.count);
  EXPECT_DOUBLE_EQ(back.latency.mean_ms, report.latency.mean_ms);
  EXPECT_DOUBLE_EQ(back.latency.min_ms, report.latency.min_ms);
  EXPECT_DOUBLE_EQ(back.latency.max_ms, report.latency.max_ms);
  EXPECT_DOUBLE_EQ(back.latency.p50_ms, report.latency.p50_ms);
  EXPECT_DOUBLE_EQ(back.latency.p95_ms, report.latency.p95_ms);
  EXPECT_DOUBLE_EQ(back.latency.p99_ms, report.latency.p99_ms);

  // Engine stats.
  EXPECT_EQ(back.engine.events_processed, engine.events_processed);
  EXPECT_EQ(back.engine.events_scheduled, engine.events_scheduled);
  EXPECT_EQ(back.engine.peak_queue_depth, engine.peak_queue_depth);
  EXPECT_DOUBLE_EQ(back.engine.sim_time_sec, engine.sim_time_sec);
  EXPECT_DOUBLE_EQ(back.engine.wall_clock_sec, engine.wall_clock_sec);
  EXPECT_EQ(back.engine.peak_rss_bytes, engine.peak_rss_bytes);
  EXPECT_EQ(back.engine.table_bytes, engine.table_bytes);
}

// The engine block reports broadcasts and the outstanding-query peak from
// RunMetrics, and the observability block holds only histograms and series.
// A chaos-plan run with the service tier on walks every path that once kept
// a second copy of a count (wired drops, suppression, retries, cache, batch,
// shed, latency).
TEST(RunReportTest, EngineBlockReadsRunMetricsUnderChaosAndTier) {
  ScenarioConfig cfg = paper_scenario(200, 7);
  const auto plan = JsonValue::parse(R"({
    "schema": "hlsrg-fault/v1",
    "fault_seed": 99,
    "faults": [
      {"kind": "rsu_crash", "begin_sec": 55, "end_sec": 80,
       "level": 3, "row": 0, "col": 0},
      {"kind": "radio_loss", "begin_sec": 50, "end_sec": 85,
       "box": [0, 0, 1000, 2000], "extra_loss": 0.4}
    ],
    "overrides": {"max_attempts": 4, "retry_backoff_base": 2.0}
  })");
  ASSERT_TRUE(plan.has_value());
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(*plan, &cfg.fault_plan, &error)) << error;
  cfg.service.enabled = true;
  cfg.service.open_loop_rate_per_sec = 20.0;
  cfg.service.batching = true;
  cfg.service.caching = true;
  cfg.service.max_outstanding = 30;

  const ReplicaSet set = run_replicas(cfg, Protocol::kHlsrg, 1, 1);
  RunReport report =
      make_run_report(Protocol::kHlsrg, cfg, set.merged, set.engine_total);
  report.observability = registry_to_json(set.observability);
  const JsonValue doc = report.to_json();

  const JsonValue& metrics = doc.at("metrics");
  const JsonValue& engine = doc.at("engine");
  const std::uint64_t broadcasts = metrics.at("radio_broadcasts").as_uint64();
  ASSERT_GT(broadcasts, 0u);
  ASSERT_GT(metrics.at("peak_outstanding").as_uint64(), 0u);
  EXPECT_EQ(engine.at("broadcasts").as_uint64(), broadcasts);
  EXPECT_EQ(engine.at("peak_outstanding_queries").as_uint64(),
            metrics.at("peak_outstanding").as_uint64());
  const double wall = engine.at("wall_clock_sec").as_double();
  ASSERT_GT(wall, 0.0);
  EXPECT_DOUBLE_EQ(engine.at("broadcasts_per_sec").as_double(),
                   static_cast<double>(broadcasts) / wall);

  const JsonValue& obs = doc.at("observability");
  ASSERT_EQ(obs.size(), 2u);
  EXPECT_EQ(obs.members()[0].first, "histograms");
  EXPECT_EQ(obs.members()[1].first, "series");
  EXPECT_FALSE(obs.at("histograms").contains("query.delay_us"));
}

TEST(FaultPlanReportTest, FaultRunReportCarriesTheExactPlanDigest) {
  ScenarioConfig cfg = paper_scenario(150, 7);
  const auto plan = JsonValue::parse(R"({
    "schema": "hlsrg-fault/v1",
    "fault_seed": 99,
    "faults": [
      {"kind": "radio_loss", "begin_sec": 50, "end_sec": 85,
       "box": [0, 0, 1000, 2000], "extra_loss": 0.4}
    ]
  })");
  ASSERT_TRUE(plan.has_value());
  std::string error;
  ASSERT_TRUE(FaultPlan::from_json(*plan, &cfg.fault_plan, &error)) << error;
  const ReplicaSet set = run_replicas(cfg, Protocol::kHlsrg, 1, 1);
  const std::uint64_t digest = set.merged.fault_plan_digest;
  ASSERT_EQ(digest, cfg.fault_plan.digest());
  // A double cannot hold this digest, so the check below is a real one.
  ASSERT_GT(digest, std::uint64_t{1} << 53);

  const RunReport report =
      make_run_report(Protocol::kHlsrg, cfg, set.merged, set.engine_total);
  const std::string text = report.to_json().dump(2);
  EXPECT_NE(text.find("\"fault_plan_digest\": " + std::to_string(digest)),
            std::string::npos);
  const auto doc = JsonValue::parse(text, &error);
  ASSERT_TRUE(doc.has_value()) << error;
  EXPECT_EQ(doc->at("metrics").at("fault_plan_digest").as_uint64(), digest);
  RunReport back;
  ASSERT_TRUE(RunReport::from_json(*doc, &back, &error)) << error;
  EXPECT_EQ(back.metrics.fault_plan_digest, digest);
}

TEST(RunMetricsTest, MergeAppliesEachFieldsRule) {
  // Even fields merge a smaller value in, odd fields a larger one, so a sum
  // or a max taken on the wrong side shows up either way.
  RunMetrics a;
  RunMetrics b;
  std::uint64_t i = 0;
  for (const RunMetricsField& f : kRunMetricsFields) {
    a.*f.member = 100 + i;
    b.*f.member = i % 2 == 0 ? 10 + i : 1000 + i;
    ++i;
  }
  RunMetrics merged = a;
  merged.merge(b);
  std::vector<std::string> max_fields;
  for (const RunMetricsField& f : kRunMetricsFields) {
    const std::uint64_t x = a.*f.member;
    const std::uint64_t y = b.*f.member;
    if (f.merge == MergeRule::kMax) {
      max_fields.emplace_back(f.name);
      EXPECT_EQ(merged.*f.member, std::max(x, y)) << f.name;
    } else {
      EXPECT_EQ(merged.*f.member, x + y) << f.name;
    }
  }
  EXPECT_EQ(max_fields, (std::vector<std::string>{
                            "fault_plan_digest", "peak_outstanding",
                            "churn_active"}));
}

TEST(RunReportTest, FromJsonRejectsMalformed) {
  RunReport out;
  std::string error;
  EXPECT_FALSE(RunReport::from_json(JsonValue(3.0), &out, &error));
  JsonValue incomplete = JsonValue::object();
  incomplete.set("protocol", "HLSRG");
  EXPECT_FALSE(RunReport::from_json(incomplete, &out, &error));
  EXPECT_NE(error.find("missing"), std::string::npos);
}

TEST(BenchReportTest, SectionsRowsAndResults) {
  BenchReport report("unit_bench", 2);
  report.begin_section("section one", "success");

  ReplicaSet set;
  set.replicas.resize(2);
  set.engine.resize(2);
  set.engine[0].events_processed = 10;
  set.engine[0].wall_clock_sec = 0.5;
  set.engine[1].events_processed = 30;
  set.engine[1].wall_clock_sec = 0.25;
  for (const EngineStats& e : set.engine) set.engine_total.merge(e);
  set.merged = sample_metrics();

  const ScenarioConfig cfg = paper_scenario(300, 9);
  report.add_result("point A", "HLSRG", cfg, set);
  report.add_result("point A", "RLSMP", cfg, set);
  report.add_result("point B", "HLSRG", cfg, set);

  const JsonValue doc = report.to_json();
  EXPECT_EQ(doc.at("schema").as_string(), kBenchSchema);
  EXPECT_EQ(doc.at("bench").as_string(), "unit_bench");
  EXPECT_EQ(doc.at("replicas").as_int(), 2);
  ASSERT_EQ(doc.at("sections").size(), 1u);
  const JsonValue& rows = doc.at("sections").items()[0].at("rows");
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows.items()[0].at("label").as_string(), "point A");
  EXPECT_EQ(rows.items()[0].at("results").size(), 2u);
  EXPECT_EQ(rows.items()[1].at("results").size(), 1u);

  const JsonValue& first = rows.items()[0].at("results").items()[0];
  EXPECT_EQ(first.at("protocol").as_string(), "HLSRG");
  EXPECT_EQ(first.at("replica_engine").size(), 2u);
  EXPECT_EQ(first.at("engine").at("events_processed").as_uint64(), 40u);
  // Merged-over-2-replicas derived value: update packets / 2.
  EXPECT_DOUBLE_EQ(
      first.at("derived").at("update_overhead").as_double(),
      static_cast<double>(set.merged.update_packets_originated) / 2.0);

  // The whole document survives a text round trip.
  const auto parsed = JsonValue::parse(doc.dump(2));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->dump(), doc.dump());
}

TEST(FaultPlanReportTest, PlanSurvivesAFileRoundTrip) {
  FaultPlan plan;
  plan.fault_seed = 1234;
  plan.overrides.retry_backoff_base = 2.0;
  FaultWindow w;
  w.kind = FaultKind::kRadioLoss;
  w.begin = SimTime::from_sec(50.0);
  w.end = SimTime::from_sec(85.0);
  w.has_box = true;
  w.box = Aabb{{2000.0, 0.0}, {4000.0, 4000.0}};
  w.extra_loss = 0.5;
  plan.windows.push_back(w);

  const std::string path =
      ::testing::TempDir() + "/hlsrg_fault_plan_roundtrip.json";
  std::string error;
  ASSERT_TRUE(write_json_file(plan.to_json(), path, &error)) << error;
  FaultPlan back;
  ASSERT_TRUE(FaultPlan::load(path, &back, &error)) << error;
  EXPECT_EQ(back.digest(), plan.digest());
  EXPECT_EQ(back.fault_seed, 1234u);
  ASSERT_EQ(back.windows.size(), 1u);
  EXPECT_TRUE(back.windows[0].has_box);
  EXPECT_DOUBLE_EQ(back.windows[0].box.hi.x, 4000.0);
}

TEST(FaultPlanReportTest, RunReportRoundTripsFaultMetrics) {
  RunReport report;
  report.protocol = "HLSRG";
  report.config = paper_scenario(100, 3);
  report.config.fault_plan_file = "plans/chaos.json";
  report.config.fault_seed = 7;
  report.metrics.queries_issued = 10;
  report.metrics.wired_drops = 4;
  report.metrics.rsu_suppressed = 6;
  report.metrics.query_retries = 5;
  report.metrics.query_failovers = 2;
  report.metrics.queries_stranded = 1;
  report.metrics.fault_queries_issued = 8;
  report.metrics.fault_queries_ok = 6;
  report.metrics.recovery_time_us = 1500000;
  report.metrics.recovery_windows = 2;
  report.metrics.fault_plan_digest = 0xabcdef;

  RunReport back;
  std::string error;
  ASSERT_TRUE(RunReport::from_json(report.to_json(), &back, &error)) << error;
  EXPECT_EQ(back.config.fault_plan_file, "plans/chaos.json");
  EXPECT_EQ(back.config.fault_seed, 7u);
  EXPECT_EQ(back.metrics.wired_drops, 4u);
  EXPECT_EQ(back.metrics.rsu_suppressed, 6u);
  EXPECT_EQ(back.metrics.query_retries, 5u);
  EXPECT_EQ(back.metrics.query_failovers, 2u);
  EXPECT_EQ(back.metrics.queries_stranded, 1u);
  EXPECT_EQ(back.metrics.fault_queries_issued, 8u);
  EXPECT_EQ(back.metrics.fault_queries_ok, 6u);
  EXPECT_EQ(back.metrics.fault_plan_digest, 0xabcdefu);
  EXPECT_DOUBLE_EQ(back.metrics.availability(), 6.0 / 8.0);
  EXPECT_DOUBLE_EQ(back.metrics.recovery_ms(), 750.0);
}

}  // namespace
}  // namespace hlsrg
