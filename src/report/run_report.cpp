#include "report/run_report.h"

namespace hlsrg {

namespace {

const char* workload_name(ScenarioConfig::WorkloadKind kind) {
  switch (kind) {
    case ScenarioConfig::WorkloadKind::kOneShot:
      return "oneshot";
    case ScenarioConfig::WorkloadKind::kPoisson:
      return "poisson";
    case ScenarioConfig::WorkloadKind::kHotspot:
      return "hotspot";
  }
  return "oneshot";
}

ScenarioConfig::WorkloadKind workload_from_name(const std::string& name) {
  if (name == "poisson") return ScenarioConfig::WorkloadKind::kPoisson;
  if (name == "hotspot") return ScenarioConfig::WorkloadKind::kHotspot;
  return ScenarioConfig::WorkloadKind::kOneShot;
}

}  // namespace

LatencySummary LatencySummary::from(const LatencyStat& stat) {
  LatencySummary s;
  s.count = stat.count();
  s.mean_ms = stat.mean_ms();
  s.min_ms = stat.min_ms();
  s.max_ms = stat.max_ms();
  s.p50_ms = stat.p50_ms();
  s.p90_ms = stat.p90_ms();
  s.p95_ms = stat.p95_ms();
  s.p99_ms = stat.p99_ms();
  return s;
}

JsonValue scenario_to_json(const ScenarioConfig& cfg) {
  JsonValue o = JsonValue::object();
  o.set("seed", cfg.seed);
  o.set("vehicles", cfg.vehicles);
  o.set("map_size_m", cfg.map.size_m);
  o.set("map_irregular", cfg.map.irregular);
  if (!cfg.map_file.empty()) o.set("map_file", cfg.map_file);
  o.set("partition_target_m", cfg.partition.target_size);
  o.set("radio_range_m", cfg.radio.range_m);
  o.set("workload", workload_name(cfg.workload));
  o.set("source_fraction", cfg.source_fraction);
  o.set("poisson_rate_per_sec", cfg.poisson_rate_per_sec);
  o.set("hotspot_targets", cfg.hotspot_targets);
  o.set("warmup_sec", cfg.warmup.sec());
  o.set("query_window_sec", cfg.query_window.sec());
  o.set("grace_sec", cfg.grace.sec());
  o.set("sample_interval_sec", cfg.sample_interval.sec());
  // Only when set, so profiler-free reports stay byte-identical to older
  // builds (same pattern as the service-tier block below).
  if (cfg.profile) o.set("profile", cfg.profile);
  o.set("parked_fraction", cfg.mobility.parked_fraction);
  o.set("use_rsus", cfg.hlsrg.use_rsus);
  o.set("suppress_artery_updates", cfg.hlsrg.suppress_artery_updates);
  o.set("naive_every_crossing", cfg.hlsrg.naive_every_crossing);
  o.set("l1_expiry_sec", cfg.hlsrg.l1_expiry.sec());
  o.set("l2_expiry_sec", cfg.hlsrg.l2_expiry.sec());
  o.set("l3_expiry_sec", cfg.hlsrg.l3_expiry.sec());
  o.set("beacons_enabled", cfg.beacons.enabled);
  o.set("beacon_interval_sec", cfg.beacons.interval_sec);
  if (!cfg.fault_plan_file.empty()) {
    o.set("fault_plan_file", cfg.fault_plan_file);
  }
  if (cfg.fault_seed != 0) o.set("fault_seed", cfg.fault_seed);
  if (cfg.hlsrg.parked_rsu_hosting || cfg.mobility.churn.enabled) {
    // Churn block only when parked hosting / the parking lifecycle runs, so
    // churn-free reports stay byte-identical to pre-churn builds.
    o.set("parked_rsu_hosting", cfg.hlsrg.parked_rsu_hosting);
    o.set("host_radius_m", cfg.hlsrg.host_radius_m);
    o.set("enable_handoff", cfg.hlsrg.enable_handoff);
    o.set("role_fill_delay_sec", cfg.hlsrg.role_fill_delay.sec());
    o.set("churn_detect_delay_sec", cfg.hlsrg.churn_detect_delay.sec());
    o.set("churn_enabled", cfg.mobility.churn.enabled);
    o.set("park_rate_per_sec", cfg.mobility.churn.park_rate_per_sec);
    o.set("dwell_mean_sec", cfg.mobility.churn.dwell_mean_sec);
    o.set("min_dwell_sec", cfg.mobility.churn.min_dwell_sec);
  }
  if (cfg.service.enabled) {
    // Service-tier block only when the tier runs, so tier-free reports stay
    // byte-identical to pre-tier builds.
    o.set("service_enabled", cfg.service.enabled);
    o.set("open_loop_rate_per_sec", cfg.service.open_loop_rate_per_sec);
    o.set("open_loop_ramp_per_sec2", cfg.service.open_loop_ramp_per_sec2);
    o.set("hotspot_fraction", cfg.service.hotspot_fraction);
    o.set("rsu_lookup_sec", cfg.service.rsu_lookup_time.sec());
    o.set("max_outstanding", cfg.service.max_outstanding);
    o.set("shed_retries", cfg.service.shed_retries);
    o.set("batching", cfg.service.batching);
    o.set("batch_window_sec", cfg.service.batch_window.sec());
    o.set("max_batch", cfg.service.max_batch);
    o.set("caching", cfg.service.caching);
    o.set("cache_ttl_sec", cfg.service.cache_ttl.sec());
    o.set("cache_capacity", cfg.service.cache_capacity);
  }
  return o;
}

void scenario_from_json(const JsonValue& v, ScenarioConfig* cfg) {
  if (v.contains("seed")) cfg->seed = v.at("seed").as_uint64();
  if (v.contains("vehicles")) cfg->vehicles = v.at("vehicles").as_int();
  if (v.contains("map_size_m")) cfg->map.size_m = v.at("map_size_m").as_double();
  if (v.contains("map_irregular")) {
    cfg->map.irregular = v.at("map_irregular").as_bool();
  }
  if (v.contains("map_file")) cfg->map_file = v.at("map_file").as_string();
  if (v.contains("partition_target_m")) {
    cfg->partition.target_size = v.at("partition_target_m").as_double();
  }
  if (v.contains("radio_range_m")) {
    cfg->radio.range_m = v.at("radio_range_m").as_double();
  }
  if (v.contains("workload")) {
    cfg->workload = workload_from_name(v.at("workload").as_string());
  }
  if (v.contains("source_fraction")) {
    cfg->source_fraction = v.at("source_fraction").as_double();
  }
  if (v.contains("poisson_rate_per_sec")) {
    cfg->poisson_rate_per_sec = v.at("poisson_rate_per_sec").as_double();
  }
  if (v.contains("hotspot_targets")) {
    cfg->hotspot_targets = v.at("hotspot_targets").as_int();
  }
  if (v.contains("warmup_sec")) {
    cfg->warmup = SimTime::from_sec(v.at("warmup_sec").as_double());
  }
  if (v.contains("query_window_sec")) {
    cfg->query_window = SimTime::from_sec(v.at("query_window_sec").as_double());
  }
  if (v.contains("grace_sec")) {
    cfg->grace = SimTime::from_sec(v.at("grace_sec").as_double());
  }
  if (v.contains("sample_interval_sec")) {
    cfg->sample_interval =
        SimTime::from_sec(v.at("sample_interval_sec").as_double());
  }
  if (v.contains("profile")) cfg->profile = v.at("profile").as_bool();
  if (v.contains("parked_fraction")) {
    cfg->mobility.parked_fraction = v.at("parked_fraction").as_double();
  }
  if (v.contains("use_rsus")) cfg->hlsrg.use_rsus = v.at("use_rsus").as_bool();
  if (v.contains("suppress_artery_updates")) {
    cfg->hlsrg.suppress_artery_updates =
        v.at("suppress_artery_updates").as_bool();
  }
  if (v.contains("naive_every_crossing")) {
    cfg->hlsrg.naive_every_crossing = v.at("naive_every_crossing").as_bool();
  }
  if (v.contains("l1_expiry_sec")) {
    cfg->hlsrg.l1_expiry = SimTime::from_sec(v.at("l1_expiry_sec").as_double());
  }
  if (v.contains("l2_expiry_sec")) {
    cfg->hlsrg.l2_expiry = SimTime::from_sec(v.at("l2_expiry_sec").as_double());
  }
  if (v.contains("l3_expiry_sec")) {
    cfg->hlsrg.l3_expiry = SimTime::from_sec(v.at("l3_expiry_sec").as_double());
  }
  if (v.contains("beacons_enabled")) {
    cfg->beacons.enabled = v.at("beacons_enabled").as_bool();
  }
  if (v.contains("beacon_interval_sec")) {
    cfg->beacons.interval_sec = v.at("beacon_interval_sec").as_double();
  }
  if (v.contains("fault_plan_file")) {
    cfg->fault_plan_file = v.at("fault_plan_file").as_string();
  }
  if (v.contains("fault_seed")) {
    cfg->fault_seed = v.at("fault_seed").as_uint64();
  }
  if (v.contains("parked_rsu_hosting")) {
    cfg->hlsrg.parked_rsu_hosting = v.at("parked_rsu_hosting").as_bool();
    if (v.contains("host_radius_m")) {
      cfg->hlsrg.host_radius_m = v.at("host_radius_m").as_double();
    }
    if (v.contains("enable_handoff")) {
      cfg->hlsrg.enable_handoff = v.at("enable_handoff").as_bool();
    }
    if (v.contains("role_fill_delay_sec")) {
      cfg->hlsrg.role_fill_delay =
          SimTime::from_sec(v.at("role_fill_delay_sec").as_double());
    }
    if (v.contains("churn_detect_delay_sec")) {
      cfg->hlsrg.churn_detect_delay =
          SimTime::from_sec(v.at("churn_detect_delay_sec").as_double());
    }
  }
  if (v.contains("churn_enabled")) {
    cfg->mobility.churn.enabled = v.at("churn_enabled").as_bool();
    if (v.contains("park_rate_per_sec")) {
      cfg->mobility.churn.park_rate_per_sec =
          v.at("park_rate_per_sec").as_double();
    }
    if (v.contains("dwell_mean_sec")) {
      cfg->mobility.churn.dwell_mean_sec = v.at("dwell_mean_sec").as_double();
    }
    if (v.contains("min_dwell_sec")) {
      cfg->mobility.churn.min_dwell_sec = v.at("min_dwell_sec").as_double();
    }
  }
  if (v.contains("service_enabled")) {
    cfg->service.enabled = v.at("service_enabled").as_bool();
    if (v.contains("open_loop_rate_per_sec")) {
      cfg->service.open_loop_rate_per_sec =
          v.at("open_loop_rate_per_sec").as_double();
    }
    if (v.contains("open_loop_ramp_per_sec2")) {
      cfg->service.open_loop_ramp_per_sec2 =
          v.at("open_loop_ramp_per_sec2").as_double();
    }
    if (v.contains("hotspot_fraction")) {
      cfg->service.hotspot_fraction = v.at("hotspot_fraction").as_double();
    }
    if (v.contains("rsu_lookup_sec")) {
      cfg->service.rsu_lookup_time =
          SimTime::from_sec(v.at("rsu_lookup_sec").as_double());
    }
    if (v.contains("max_outstanding")) {
      cfg->service.max_outstanding = v.at("max_outstanding").as_int();
    }
    if (v.contains("shed_retries")) {
      cfg->service.shed_retries = v.at("shed_retries").as_bool();
    }
    if (v.contains("batching")) {
      cfg->service.batching = v.at("batching").as_bool();
    }
    if (v.contains("batch_window_sec")) {
      cfg->service.batch_window =
          SimTime::from_sec(v.at("batch_window_sec").as_double());
    }
    if (v.contains("max_batch")) {
      cfg->service.max_batch = v.at("max_batch").as_int();
    }
    if (v.contains("caching")) {
      cfg->service.caching = v.at("caching").as_bool();
    }
    if (v.contains("cache_ttl_sec")) {
      cfg->service.cache_ttl =
          SimTime::from_sec(v.at("cache_ttl_sec").as_double());
    }
    if (v.contains("cache_capacity")) {
      cfg->service.cache_capacity = v.at("cache_capacity").as_int();
    }
  }
}

JsonValue metrics_to_json(const RunMetrics& m) {
  JsonValue o = JsonValue::object();
  for (const RunMetricsField& f : kRunMetricsFields) o.set(f.name, m.*f.member);
  return o;
}

void metrics_from_json(const JsonValue& v, RunMetrics* m) {
  // Counters added after v1 reports shipped (fault, service tier, churn) are
  // absent in older files: at() yields null and as_uint64() falls back to 0.
  for (const RunMetricsField& f : kRunMetricsFields) {
    m->*f.member = v.at(f.name).as_uint64();
  }
}

JsonValue latency_to_json(const LatencySummary& l) {
  JsonValue o = JsonValue::object();
  o.set("count", l.count);
  o.set("mean_ms", l.mean_ms);
  o.set("min_ms", l.min_ms);
  o.set("max_ms", l.max_ms);
  o.set("p50_ms", l.p50_ms);
  o.set("p90_ms", l.p90_ms);
  o.set("p95_ms", l.p95_ms);
  o.set("p99_ms", l.p99_ms);
  return o;
}

void latency_from_json(const JsonValue& v, LatencySummary* l) {
  l->count = v.at("count").as_uint64();
  l->mean_ms = v.at("mean_ms").as_double();
  l->min_ms = v.at("min_ms").as_double();
  l->max_ms = v.at("max_ms").as_double();
  l->p50_ms = v.at("p50_ms").as_double();
  // Added after v1 reports shipped; absent in older files.
  if (v.contains("p90_ms")) l->p90_ms = v.at("p90_ms").as_double();
  l->p95_ms = v.at("p95_ms").as_double();
  l->p99_ms = v.at("p99_ms").as_double();
}

JsonValue engine_to_json(const EngineStats& e, const RunMetrics* run) {
  JsonValue o = JsonValue::object();
  o.set("events_processed", e.events_processed);
  o.set("events_scheduled", e.events_scheduled);
  o.set("peak_queue_depth", e.peak_queue_depth);
  o.set("sim_time_sec", e.sim_time_sec);
  o.set("wall_clock_sec", e.wall_clock_sec);
  o.set("events_per_sec", e.events_per_sec());
  if (run != nullptr) {
    o.set("broadcasts", run->radio_broadcasts);
    o.set("broadcasts_per_sec",
          e.wall_clock_sec > 0.0
              ? static_cast<double>(run->radio_broadcasts) / e.wall_clock_sec
              : 0.0);
  }
  o.set("peak_rss_bytes", e.peak_rss_bytes);
  o.set("table_bytes", e.table_bytes);
  o.set("trace_spans_dropped", e.trace_spans_dropped);
  if (run != nullptr) {
    o.set("peak_outstanding_queries", run->peak_outstanding);
  }
  return o;
}

void engine_from_json(const JsonValue& v, EngineStats* e) {
  e->events_processed = v.at("events_processed").as_uint64();
  e->events_scheduled = v.at("events_scheduled").as_uint64();
  e->peak_queue_depth = v.at("peak_queue_depth").as_uint64();
  e->sim_time_sec = v.at("sim_time_sec").as_double();
  e->wall_clock_sec = v.at("wall_clock_sec").as_double();
  if (v.contains("trace_spans_dropped")) {
    e->trace_spans_dropped = v.at("trace_spans_dropped").as_uint64();
  }
  // Added after v1 reports shipped; absent in older files.
  if (v.contains("peak_rss_bytes")) {
    e->peak_rss_bytes = v.at("peak_rss_bytes").as_uint64();
  }
  if (v.contains("table_bytes")) {
    e->table_bytes = v.at("table_bytes").as_uint64();
  }
}

JsonValue derived_metrics_json(const RunMetrics& merged, bool service_tier,
                               std::size_t replicas) {
  const double n = replicas == 0 ? 1.0 : static_cast<double>(replicas);
  JsonValue o = JsonValue::object();
  o.set("update_overhead",
        static_cast<double>(merged.total_update_overhead()) / n);
  o.set("query_overhead",
        static_cast<double>(merged.total_query_overhead()) / n);
  o.set("success_rate", merged.success_rate());
  o.set("mean_query_latency_ms", merged.query_latency.mean_ms());
  o.set("query_delay_p50_ms", merged.query_latency.p50_ms());
  o.set("query_delay_p90_ms", merged.query_latency.p90_ms());
  o.set("query_delay_p95_ms", merged.query_latency.p95_ms());
  o.set("query_delay_p99_ms", merged.query_latency.p99_ms());
  if (merged.fault_plan_digest != 0) {
    // Fault-run derived block: only present when a fault plan ran, so
    // fault-free reports are byte-identical to pre-fault builds.
    o.set("availability", merged.availability());
    o.set("recovery_ms", merged.recovery_ms());
    o.set("queries_stranded", static_cast<double>(merged.queries_stranded) / n);
  }
  if (merged.churn_active != 0) {
    // Churn derived block: only present when parked hosting ran, so
    // churn-free reports are byte-identical to pre-churn builds.
    o.set("handoff_record_delivery_rate",
          merged.handoff_record_delivery_rate());
    o.set("role_departures", static_cast<double>(merged.role_departures) / n);
    o.set("role_continuity",
          merged.role_departures == 0
              ? 1.0
              : static_cast<double>(merged.role_elections) /
                    static_cast<double>(merged.role_departures));
  }
  if (service_tier && merged.queries_offered > 0) {
    // Service-tier derived block: only present when the tier ran, so
    // tier-free reports stay byte-identical to pre-tier builds.
    o.set("served_rate", merged.served_rate());
    o.set("shed_rate", static_cast<double>(merged.queries_shed) /
                           static_cast<double>(merged.queries_offered));
    o.set("cache_hit_rate",
          merged.cache_hits + merged.cache_misses == 0
              ? 0.0
              : static_cast<double>(merged.cache_hits) /
                    static_cast<double>(merged.cache_hits +
                                        merged.cache_misses));
  }
  return o;
}

JsonValue RunReport::to_json() const {
  JsonValue o = JsonValue::object();
  o.set("protocol", protocol);
  o.set("config", scenario_to_json(config));
  o.set("metrics", metrics_to_json(metrics));
  o.set("latency", latency_to_json(latency));
  o.set("engine", engine_to_json(engine, &metrics));
  if (!observability.is_null()) o.set("observability", observability);
  if (!profile.is_null()) o.set("profile", profile);
  return o;
}

bool RunReport::from_json(const JsonValue& v, RunReport* out,
                          std::string* error) {
  if (!v.is_object()) {
    if (error != nullptr) *error = "run report is not a JSON object";
    return false;
  }
  for (const char* key : {"protocol", "config", "metrics", "latency", "engine"}) {
    if (!v.contains(key)) {
      if (error != nullptr) {
        *error = std::string("run report missing field '") + key + "'";
      }
      return false;
    }
  }
  if (!v.at("config").is_object() || !v.at("metrics").is_object() ||
      !v.at("latency").is_object() || !v.at("engine").is_object()) {
    if (error != nullptr) *error = "run report field has wrong type";
    return false;
  }
  *out = RunReport{};
  out->protocol = v.at("protocol").as_string();
  scenario_from_json(v.at("config"), &out->config);
  metrics_from_json(v.at("metrics"), &out->metrics);
  latency_from_json(v.at("latency"), &out->latency);
  engine_from_json(v.at("engine"), &out->engine);
  if (v.contains("observability")) out->observability = v.at("observability");
  if (v.contains("profile")) out->profile = v.at("profile");
  return true;
}

RunReport make_run_report(Protocol protocol, const ScenarioConfig& cfg,
                          const RunMetrics& metrics, const EngineStats& engine) {
  RunReport r;
  r.protocol = protocol_name(protocol);
  r.config = cfg;
  r.metrics = metrics;
  r.latency = LatencySummary::from(metrics.query_latency);
  r.engine = engine;
  return r;
}

}  // namespace hlsrg
