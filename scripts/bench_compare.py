#!/usr/bin/env python3
"""Diff two bench report JSON files and gate on metric regressions.

Usage:
    bench_compare.py OLD.json NEW.json [--threshold FRAC] [--abs-slack N]
                     [--include-engine] [--include-timing] [--verbose]
                     [--groups LIST]

Reads two files produced by the bench binaries (schema "hlsrg-bench/v1",
see docs/PROTOCOL.md) or by scenario_cli --out ("hlsrg-run/v1"), pairs up
every (section, row, protocol) result, and compares the numeric fields:

  * "derived"  -- headline figures (update/query overhead, success rate,
                  mean query delay and its percentiles); always compared.
  * "metrics"  -- raw protocol counters; always compared.
  * "latency"  -- delay summary (mean/min/max and p50/p90/p95/p99);
                  always compared, lower is better.
  * "engine"   -- events_processed / peak_queue_depth, only with
                  --include-engine (deterministic given identical code and
                  seeds, but expected to move whenever the engine changes);
                  wall_clock_sec / events_per_sec only with
                  --include-timing (machine-dependent).
  * "memory"   -- engine.peak_rss_bytes (process high-water mark; noisy
                  across allocators/kernels, so give it a generous
                  --threshold) and engine.table_bytes (protocol-table +
                  registry heap, deterministic); both lower-is-better.
                  Compared whenever "memory" is in --groups, independent of
                  --include-engine/--include-timing.

--groups restricts the comparison to a comma-separated subset of the five
groups above (default "derived,metrics,latency,engine"). The CI perf-smoke
job uses "--groups engine --include-engine --include-timing" to gate
throughput alone: functional counters can drift across compilers/libm
(Poisson workload timing goes through std::log) without being perf
regressions, and they are already gated deterministically elsewhere. The
memory gate runs as a separate invocation ("--groups memory") against the
scale_map deep rows.

A field regresses when it moves against its preferred direction by more
than threshold (relative) AND more than abs-slack (absolute) -- the
absolute slack keeps tiny counters (3 -> 4 packets) from tripping the
relative gate. Improvements and sub-threshold drifts are reported in
--verbose mode only. Exit status: 0 = no regression, 1 = regression(s),
2 = usage/schema error.

The nested "observability" object (hop-count histograms and time series
from trace/metrics.h) is carried through reports untouched and never
compared: it holds diagnostics with no stable baseline. Every counter and
the query latency live in "metrics"/"latency", which are gated.
"""

import argparse
import json
import sys

# Direction a metric should move: +1 = higher is better, -1 = lower is
# better. Unlisted numeric fields are compared symmetrically (any move
# beyond threshold counts).
PREFERRED_DIRECTION = {
    "success_rate": +1,
    "queries_succeeded": +1,
    "update_overhead": -1,
    "query_overhead": -1,
    "mean_query_latency_ms": -1,
    "query_delay_p50_ms": -1,
    "query_delay_p90_ms": -1,
    "query_delay_p95_ms": -1,
    "query_delay_p99_ms": -1,
    "mean_ms": -1,
    "max_ms": -1,
    "p50_ms": -1,
    "p90_ms": -1,
    "p95_ms": -1,
    "p99_ms": -1,
    "queries_failed": -1,
    "gpsr_failures": -1,
    "radio_drops": -1,
    "availability": +1,
    "served_rate": +1,
    "shed_rate": -1,
    "cache_hit_rate": +1,
    "queries_shed": -1,
    "retries_shed": -1,
    "peak_outstanding": -1,
    "recovery_ms": -1,
    "queries_stranded": -1,
    "wired_drops": -1,
    "trace_spans_dropped": -1,
    "wall_clock_sec": -1,
    "events_per_sec": +1,
    "broadcasts_per_sec": +1,
    "peak_rss_bytes": -1,
    "table_bytes": -1,
    # Region observatory (src/obs): hotter-than-mean regions and a wider
    # spread of per-region load are both regressions.
    "region_load_max_over_mean": -1,
    "region_imbalance_cv": -1,
    # Infrastructure churn (parked-cars-as-RSUs): losing handoffs, expiring
    # records, or leaving roles vacant are regressions; delivering more of
    # the shipped records and electing successors in place are improvements.
    "handoffs_lost": -1,
    "handoff_records_expired": -1,
    "role_vacancies": -1,
    "handoff_record_delivery_rate": +1,
    "role_continuity": +1,
}

TIMING_FIELDS = {"wall_clock_sec", "events_per_sec", "broadcasts_per_sec",
                 "sim_time_sec"}

# Engine fields owned by the "memory" group; excluded from the "engine"
# group so enabling both never double-compares them.
MEMORY_FIELDS = {"peak_rss_bytes", "table_bytes"}


def fail(msg):
    print(f"bench_compare: {msg}", file=sys.stderr)
    sys.exit(2)


def load(path):
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    schema = doc.get("schema", "")
    if not schema.startswith(("hlsrg-bench/", "hlsrg-run/")):
        fail(f"{path}: unrecognized schema {schema!r}")
    return doc


def iter_results(doc):
    """Yields ((section, row, protocol), result_dict) for both schemas."""
    if doc.get("schema", "").startswith("hlsrg-run/"):
        yield (("run", "run", doc.get("protocol", "?")), doc)
        return
    for section in doc.get("sections", []):
        for row in section.get("rows", []):
            for result in row.get("results", []):
                key = (section.get("title", "?"), row.get("label", "?"),
                       result.get("protocol", "?"))
                yield key, result


def numeric_fields(result, include_engine, include_timing, groups):
    """Yields (field_path, value) pairs subject to comparison."""
    for group in ["derived", "metrics", "latency"]:
        if group not in groups:
            continue
        for name, value in result.get(group, {}).items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                yield f"{group}.{name}", float(value)
    engine = result.get("engine", {})
    for name, value in engine.items():
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            continue
        if name in MEMORY_FIELDS:
            if "memory" in groups:
                yield f"engine.{name}", float(value)
            continue
        if "engine" not in groups:
            continue
        timing = name in TIMING_FIELDS
        if timing and not include_timing:
            continue
        if not timing and not include_engine:
            continue
        yield f"engine.{name}", float(value)


def main():
    ap = argparse.ArgumentParser(
        description="diff two bench JSON reports; nonzero exit on regression")
    ap.add_argument("old", help="baseline report")
    ap.add_argument("new", help="candidate report")
    ap.add_argument("--threshold", type=float, default=0.05,
                    help="relative change that counts as a regression "
                         "(default 0.05 = 5%%)")
    ap.add_argument("--abs-slack", type=float, default=2.0,
                    help="ignore absolute moves smaller than this "
                         "(default 2.0; shields tiny counters)")
    ap.add_argument("--include-engine", action="store_true",
                    help="also gate on events_processed / peak_queue_depth")
    ap.add_argument("--include-timing", action="store_true",
                    help="also gate on wall-clock and events/sec")
    ap.add_argument("--verbose", action="store_true",
                    help="print every compared field, not just regressions")
    ap.add_argument("--groups", default="derived,metrics,latency,engine",
                    help="comma-separated field groups to compare, from "
                         "derived,metrics,latency,engine,memory "
                         "(default: derived,metrics,latency,engine)")
    args = ap.parse_args()
    groups = {g.strip() for g in args.groups.split(",") if g.strip()}
    known = {"derived", "metrics", "latency", "engine", "memory"}
    if not groups or not groups <= known:
        fail(f"--groups must name a subset of {sorted(known)}")

    old_doc, new_doc = load(args.old), load(args.new)
    old_results = dict(iter_results(old_doc))
    new_results = dict(iter_results(new_doc))

    shared = sorted(set(old_results) & set(new_results))
    if not shared:
        fail("the two reports share no (section, row, protocol) results")
    for missing in sorted(set(old_results) - set(new_results)):
        print(f"note: result only in {args.old}: {missing}")
    for extra in sorted(set(new_results) - set(old_results)):
        print(f"note: result only in {args.new}: {extra}")

    regressions = []
    compared = 0
    for key in shared:
        old_fields = dict(numeric_fields(old_results[key], args.include_engine,
                                         args.include_timing, groups))
        new_fields = dict(numeric_fields(new_results[key], args.include_engine,
                                         args.include_timing, groups))
        for field in sorted(set(old_fields) & set(new_fields)):
            old_v, new_v = old_fields[field], new_fields[field]
            compared += 1
            delta = new_v - old_v
            rel = abs(delta) / abs(old_v) if old_v != 0 else (
                0.0 if delta == 0 else float("inf"))
            direction = PREFERRED_DIRECTION.get(field.split(".")[-1], 0)
            # A move is only a regression when it goes against the metric's
            # preferred direction (or any direction for neutral fields).
            against = (direction == 0 and delta != 0) or \
                      (direction > 0 and delta < 0) or \
                      (direction < 0 and delta > 0)
            is_regression = (against and rel > args.threshold
                             and abs(delta) > args.abs_slack)
            label = " / ".join(key)
            if is_regression:
                regressions.append(
                    f"{label}: {field} {old_v:g} -> {new_v:g} "
                    f"({delta:+g}, {rel:.1%}, against preferred direction)")
            elif args.verbose and delta != 0:
                print(f"ok: {label}: {field} {old_v:g} -> {new_v:g} "
                      f"({rel:.1%})")

    print(f"compared {compared} fields across {len(shared)} results "
          f"(threshold {args.threshold:.1%}, abs slack {args.abs_slack:g})")
    if regressions:
        print(f"REGRESSIONS ({len(regressions)}):")
        for r in regressions:
            print(f"  {r}")
        sys.exit(1)
    print("no regressions")
    sys.exit(0)


if __name__ == "__main__":
    main()
