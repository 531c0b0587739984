#!/usr/bin/env python3
"""Validate sama_cli observability output (the CI obs smoke steps).

Usage:
    check_obs_output.py OUTPUT_FILE
    check_obs_output.py --perfetto TRACE_JSON
    check_obs_output.py --metrics METRICS_TXT
    check_obs_output.py --queries QUERIES_JSON
    check_obs_output.py --trace TRACE_JSON
    check_obs_output.py --timeseries SERIES_JSON
    check_obs_output.py --slo SLO_JSON

Default mode reads a capture of `sama_cli --trace --stats --metrics
--slow-query-ms ...` and checks the three inline observability
surfaces:

  1. `-- trace:` — well-formed span JSON: unique 1-based ids, parents
     that reference earlier spans (or 0 for the root), exactly one root
     named "query", every phase span parented under it, durations
     finite and non-negative.
  2. `-- slow:` — each slow-query JSONL record parses, carries the
     required keys, and every numeric value is finite.
  3. `-- metrics:` — the Prometheus exposition parses line by line,
     sama_queries_total counted at least one query, every
     histogram's cumulative buckets are monotonically non-decreasing
     and consistent with its _count, and the scrape-time quantile
     gauges are present once the latency histogram has observations
     (the same rule as --metrics).

The flag modes validate the profiler/HTTP surfaces:

  --perfetto  A Chrome trace-event file (sama_cli --profile-out or
              GET /debug/profile): loadable JSON with the trace-event
              envelope, thread_name metadata covering every tid, unique
              span ids, resolvable parents, one root "query" span
              carrying the query-level args, finite microsecond
              timestamps.
  --metrics   A GET /metrics capture (bare exposition, no "-- metrics:"
              header), plus the scrape-time quantile gauges when the
              latency histogram has observations.
  --queries   A GET /debug/queries capture: {"total","returned",
              "queries": [...]} with returned == len(queries) <= total
              and every record passing the slow-query key/finiteness
              checks.
  --trace     A GET /debug/trace?id= capture (the distributed trace
              tree): the same Perfetto envelope checks, but rooted at
              one or more "request" spans (a client can stitch several
              requests into one trace) with no query-summary args
              required on the roots.
  --timeseries  A GET /debug/timeseries capture — either the index
              shape ({"interval_seconds",...,"metrics":[...]}) or one
              series ({"metric","kind","points":[{"t","v"},...]}) with
              kind-specific keys: counters carry non-negative
              rate_per_sec/increase, gauges carry "last", histograms
              carry rate_per_sec/count and p50/p90/p99 (null allowed
              when the window has no observations).
  --slo       A GET /healthz?verbose=1 capture (the SLO tracker's
              JSON): status ok|degraded consistent with the violations
              list, three objectives each carrying a finite
              non-negative burn_rate.

Structure only, never timings: the checker must pass on any machine.
"""

import argparse
import json
import math
import re
import sys

SERIES_RE = re.compile(
    r'^([A-Za-z_:][A-Za-z0-9_:]*)(\{[^}]*\})?\s+(-?[0-9.eE+]+|NaN|[+-]Inf)$')

SLOW_RECORD_KEYS = ("unix_ms", "label", "total_ms", "preprocess_ms",
                    "clustering_ms", "search_ms", "query_paths",
                    "candidate_paths", "answers", "expansions", "truncated",
                    "corrupt_skipped", "io_retries", "threads")


def fail(message):
    print(f"obs check FAILED: {message}", file=sys.stderr)
    sys.exit(1)


def check_trace(line):
    payload = line.split("-- trace:", 1)[1].strip()
    try:
        doc = json.loads(payload)
    except ValueError as e:
        fail(f"trace line is not valid JSON: {e}\n  {payload[:200]}")
    spans = doc.get("spans")
    if not isinstance(spans, list) or not spans:
        fail("trace JSON has no spans array")
    seen = set()
    roots = []
    by_id = {}
    for s in spans:
        for key in ("id", "parent", "name", "thread", "start_ms", "dur_ms"):
            if key not in s:
                fail(f"span missing key '{key}': {s}")
        if s["id"] in seen:
            fail(f"duplicate span id {s['id']}")
        if s["id"] < 1:
            fail(f"span id {s['id']} is not 1-based")
        seen.add(s["id"])
        by_id[s["id"]] = s
        if s["parent"] == 0:
            roots.append(s)
        for num_key in ("start_ms", "dur_ms"):
            v = s[num_key]
            if not isinstance(v, (int, float)) or not math.isfinite(v):
                fail(f"span {s['id']} {num_key} is not finite: {v!r}")
        if s["dur_ms"] < 0:
            fail(f"span {s['id']} ({s['name']}) was never closed")
    for s in spans:
        if s["parent"] != 0 and s["parent"] not in seen:
            fail(f"span {s['id']} has dangling parent {s['parent']}")
    if len(roots) != 1 or roots[0]["name"] != "query":
        fail(f"expected exactly one root span named 'query', got "
             f"{[r['name'] for r in roots]}")
    root_id = roots[0]["id"]
    names = {s["name"] for s in spans}
    for phase in ("preprocess", "clustering", "search"):
        if phase not in names:
            fail(f"trace is missing the '{phase}' phase span")
        for s in spans:
            if s["name"] == phase and s["parent"] != root_id:
                fail(f"phase span '{phase}' is not parented under the "
                     f"root query span")
    return len(spans)


def check_slow_record(record, source):
    for key in SLOW_RECORD_KEYS:
        if key not in record:
            fail(f"{source} record missing key '{key}': "
                 f"{json.dumps(record)[:200]}")
    for key, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            fail(f"{source} key '{key}' is non-finite: {value!r}")
    if record["total_ms"] < 0:
        fail(f"{source} total_ms is negative: {record['total_ms']}")


def check_slow(line):
    payload = line.split("-- slow:", 1)[1].strip()
    try:
        record = json.loads(payload)
    except ValueError as e:
        fail(f"slow-query record is not valid JSON: {e}\n  {payload[:200]}")
    check_slow_record(record, "slow-query")


def check_metrics(lines):
    values = {}
    histogram_buckets = {}
    for line in lines:
        if not line or line.startswith("# HELP") or line.startswith("# TYPE"):
            continue
        m = SERIES_RE.match(line)
        if m is None:
            fail(f"unparseable exposition line: {line!r}")
        name, labels, raw = m.group(1), m.group(2) or "", m.group(3)
        if raw in ("NaN", "+Inf", "-Inf"):
            fail(f"non-finite exposition value on: {line!r}")
        value = float(raw)
        values[name + labels] = value
        if name.endswith("_bucket"):
            base = name[: -len("_bucket")]
            le = re.search(r'le="([^"]*)"', labels)
            if le is None:
                fail(f"histogram bucket without le label: {line!r}")
            # Group by base name + the labels other than le, so
            # sama_query_phase_millis{phase="search"} and
            # {phase="clustering"} stay separate series.
            rest = re.sub(r'le="[^"]*",?', "", labels).replace(
                "{,", "{").replace(",}", "}").replace("{}", "")
            histogram_buckets.setdefault((base, rest), []).append(
                (le.group(1), value))
    if not values:
        fail("no metrics series found")

    queries = values.get("sama_queries_total", 0)
    if queries < 1:
        fail(f"sama_queries_total is {queries}; the smoke run executed "
             f"at least one query")

    for (base, rest), buckets in histogram_buckets.items():
        # Exposition order is the registration order of the bounds:
        # ascending with +Inf last, so cumulative counts must be
        # non-decreasing and end at _count.
        series = base + rest
        counts = [v for _, v in buckets]
        if counts != sorted(counts):
            fail(f"{series} cumulative buckets are not monotonic: "
                 f"{counts}")
        if buckets[-1][0] != "+Inf":
            fail(f"{series} is missing its +Inf bucket")
        count_key = base + "_count" + rest
        if count_key not in values:
            fail(f"{series} has buckets but no _count series")
        if counts[-1] != values[count_key]:
            fail(f"{series} +Inf bucket {counts[-1]} != _count "
                 f"{values[count_key]}")
    return values


def check_quantiles(values):
    # /metrics and the --metrics dump both go through
    # RenderMetricsScrape, which runs RefreshLatencyQuantiles, so once
    # the latency histogram has observations the interpolated quantile
    # gauges must be published alongside it.
    if values.get("sama_query_latency_millis_count", 0) >= 1:
        for q in ("0.5", "0.95", "0.99"):
            key = f'sama_query_latency_seconds{{quantile="{q}"}}'
            if key not in values:
                fail(f"latency histogram has observations but {key} "
                     f"is missing (RefreshLatencyQuantiles not run?)")
            if values[key] < 0:
                fail(f"{key} is negative: {values[key]}")


def check_metrics_file(path):
    with open(path) as f:
        values = check_metrics(f.read().splitlines())
    check_quantiles(values)
    return len(values)


def load_json(path):
    with open(path) as f:
        try:
            return json.load(f)
        except ValueError as e:
            fail(f"{path} is not valid JSON: {e}")


def check_trace_events(path, root_name, allow_multiple_roots,
                       require_summary_args):
    """Shared Perfetto/trace-event walker.

    The profiler export (--perfetto) has exactly one root "query" event
    carrying the query-level summary args; the distributed-trace export
    (--trace) is rooted at one or more "request" events — a client that
    reuses a trace id across requests stitches several roots into one
    tree.
    """
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail("trace-event file is not a JSON object")
    if doc.get("displayTimeUnit") != "ms":
        fail(f"displayTimeUnit is {doc.get('displayTimeUnit')!r}, not 'ms'")
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("traceEvents is missing or empty")

    span_ids = set()
    named_tids = set()
    used_tids = set()
    roots = []
    complete = []
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") not in ("process_name", "thread_name"):
                fail(f"unexpected metadata event: {e}")
            if not isinstance(e.get("args", {}).get("name"), str):
                fail(f"metadata event without args.name: {e}")
            if e["name"] == "thread_name":
                named_tids.add(e.get("tid"))
        elif ph == "X":
            for key in ("name", "cat", "ts", "dur", "pid", "tid", "args"):
                if key not in e:
                    fail(f"complete event missing '{key}': {e}")
            for num_key in ("ts", "dur"):
                v = e[num_key]
                if not isinstance(v, (int, float)) or not math.isfinite(v):
                    fail(f"event {e['name']} {num_key} not finite: {v!r}")
            if e["dur"] < 0:
                fail(f"event {e['name']} has negative dur {e['dur']}")
            span_id = e["args"].get("span_id")
            if not isinstance(span_id, int) or span_id < 1:
                fail(f"event {e['name']} without a 1-based span_id: {e}")
            if span_id in span_ids:
                fail(f"duplicate span_id {span_id}")
            span_ids.add(span_id)
            used_tids.add(e["tid"])
            if "parent" not in e["args"]:
                roots.append(e)
            complete.append(e)
        else:
            fail(f"unexpected event phase {ph!r}: {e}")

    for e in complete:
        parent = e["args"].get("parent")
        if parent is not None and parent not in span_ids:
            fail(f"event {e['name']} has dangling parent {parent}")
    if not roots:
        fail(f"no root event (every event has a parent)")
    if not allow_multiple_roots and len(roots) != 1:
        fail(f"expected one root '{root_name}' event, got "
             f"{[r['name'] for r in roots]}")
    for r in roots:
        if r["name"] != root_name:
            fail(f"expected root event(s) named '{root_name}', got "
                 f"{[x['name'] for x in roots]}")
    if require_summary_args:
        for key in ("answers", "query_paths", "candidate_paths",
                    "truncated"):
            if key not in roots[0]["args"]:
                fail(f"root {root_name} event missing summary arg "
                     f"'{key}'")
    missing = used_tids - named_tids
    if missing:
        fail(f"tids without thread_name metadata: {sorted(missing)}")
    return len(complete), len(roots)


def check_perfetto(path):
    events, _ = check_trace_events(path, "query",
                                   allow_multiple_roots=False,
                                   require_summary_args=True)
    return events


def finite_number(doc, key, source, allow_null=False):
    if key not in doc:
        fail(f"{source} missing key '{key}'")
    value = doc[key]
    if value is None and allow_null:
        return None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        fail(f"{source} key '{key}' is not a number: {value!r}")
    if not math.isfinite(value):
        fail(f"{source} key '{key}' is non-finite: {value!r}")
    return value


def check_timeseries_file(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail("/debug/timeseries payload is not a JSON object")
    if "error" in doc:
        fail(f"/debug/timeseries answered an error: {doc['error']!r} "
             f"(metric {doc.get('metric')!r})")

    # The no-metric index shape.
    if "metrics" in doc and "metric" not in doc:
        for key in ("interval_seconds", "capacity", "samples"):
            finite_number(doc, key, "/debug/timeseries index")
        metrics = doc["metrics"]
        if not isinstance(metrics, list) or not metrics:
            fail("/debug/timeseries index has no metrics")
        for m in metrics:
            if not isinstance(m, str):
                fail(f"/debug/timeseries index metric is not a string: "
                     f"{m!r}")
        return f"index of {len(metrics)} metric(s)"

    kind = doc.get("kind")
    if kind not in ("counter", "gauge", "histogram"):
        fail(f"/debug/timeseries kind is {kind!r}")
    source = f"/debug/timeseries {doc.get('metric')!r}"
    finite_number(doc, "window_seconds", source)
    samples = finite_number(doc, "samples", source)
    if samples < 1:
        fail(f"{source} retained no samples")
    if kind == "counter":
        for key in ("rate_per_sec", "increase"):
            if finite_number(doc, key, source) < 0:
                fail(f"{source} {key} is negative (the reset clamp "
                     f"must floor it at 0)")
    elif kind == "gauge":
        finite_number(doc, "last", source)
    else:
        if finite_number(doc, "rate_per_sec", source) < 0:
            fail(f"{source} rate_per_sec is negative")
        if finite_number(doc, "count", source) < 0:
            fail(f"{source} count is negative")
        for key in ("p50", "p90", "p99"):
            v = finite_number(doc, key, source, allow_null=True)
            if v is not None and v < 0:
                fail(f"{source} {key} is negative: {v}")
        # Histogram series render windowed quantiles, not raw points.
        return f"histogram series over {samples:g} sample(s)"
    points = doc.get("points")
    if not isinstance(points, list) or not points:
        fail(f"{source} has no points array")
    last_t = None
    for p in points:
        t = finite_number(p, "t", f"{source} point")
        finite_number(p, "v", f"{source} point")
        if last_t is not None and t < last_t:
            fail(f"{source} points are not time-ordered")
        last_t = t
    return f"{kind} series with {len(points)} point(s)"


def check_slo_file(path):
    doc = load_json(path)
    if not isinstance(doc, dict):
        fail("/healthz?verbose=1 payload is not a JSON object")
    status = doc.get("status")
    if status not in ("ok", "degraded"):
        fail(f"/healthz?verbose=1 status is {status!r}")
    if not isinstance(doc.get("evaluated"), bool):
        fail(f"/healthz?verbose=1 evaluated is not a bool: "
             f"{doc.get('evaluated')!r}")
    finite_number(doc, "window_seconds", "/healthz?verbose=1")
    finite_number(doc, "burn_threshold", "/healthz?verbose=1")
    objectives = doc.get("objectives")
    if not isinstance(objectives, dict):
        fail("/healthz?verbose=1 has no objectives object")
    for name in ("latency", "errors", "shed"):
        obj = objectives.get(name)
        if not isinstance(obj, dict):
            fail(f"/healthz?verbose=1 objective '{name}' is missing")
        if finite_number(obj, "burn_rate", f"/healthz?verbose=1 {name}") < 0:
            fail(f"/healthz?verbose=1 {name} burn_rate is negative")
        finite_number(obj, "allowed_bad_ratio", f"/healthz?verbose=1 {name}")
    violations = doc.get("violations")
    if not isinstance(violations, list):
        fail("/healthz?verbose=1 has no violations array")
    for v in violations:
        if v not in ("latency", "errors", "shed"):
            fail(f"/healthz?verbose=1 unknown violation {v!r}")
    if status == "degraded" and not violations:
        fail("/healthz?verbose=1 is degraded with an empty violations list")
    if status == "ok" and violations:
        fail(f"/healthz?verbose=1 is ok but lists violations: {violations}")
    return status, violations


def check_queries_file(path):
    with open(path) as f:
        try:
            doc = json.load(f)
        except ValueError as e:
            fail(f"{path} is not valid JSON: {e}")
    records = doc.get("queries") if isinstance(doc, dict) else None
    if not isinstance(records, list):
        fail("/debug/queries payload has no 'queries' array")
    total, returned = doc.get("total"), doc.get("returned")
    if type(total) is not int or type(returned) is not int:
        fail(f"/debug/queries total={total!r} and returned={returned!r} "
             "must be integers")
    if not returned == len(records) <= total:
        fail(f"/debug/queries needs returned == len(queries) <= total; got "
             f"returned={returned}, {len(records)} record(s), total={total}")
    for record in records:
        check_slow_record(record, "/debug/queries")
    return len(records)


def check_default(path):
    with open(path) as f:
        lines = f.read().splitlines()

    trace_lines = [l for l in lines if l.startswith("-- trace:")]
    if not trace_lines:
        fail("no '-- trace:' line in the output (was --trace passed?)")
    spans = sum(check_trace(l) for l in trace_lines)

    slow_lines = [l for l in lines if l.startswith("-- slow:")]
    for l in slow_lines:
        check_slow(l)

    try:
        metrics_at = lines.index("-- metrics:")
    except ValueError:
        fail("no '-- metrics:' section in the output (was --metrics "
             "passed?)")
    series = check_metrics(lines[metrics_at + 1:])
    check_quantiles(series)

    print(f"obs ok: {len(trace_lines)} trace(s) with {spans} span(s), "
          f"{len(slow_lines)} slow-query record(s), {len(series)} metric "
          f"series")


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--perfetto", metavar="TRACE_JSON",
                      help="validate a Chrome trace-event file")
    mode.add_argument("--metrics", metavar="METRICS_TXT",
                      help="validate a bare /metrics exposition capture")
    mode.add_argument("--queries", metavar="QUERIES_JSON",
                      help="validate a /debug/queries capture")
    mode.add_argument("--trace", metavar="TRACE_JSON",
                      help="validate a /debug/trace?id= distributed "
                           "trace capture")
    mode.add_argument("--timeseries", metavar="SERIES_JSON",
                      help="validate a /debug/timeseries capture")
    mode.add_argument("--slo", metavar="SLO_JSON",
                      help="validate a /healthz?verbose=1 capture")
    parser.add_argument("output", nargs="?",
                        help="combined CLI capture (default mode)")
    args = parser.parse_args()

    if args.perfetto:
        events = check_perfetto(args.perfetto)
        print(f"obs ok: perfetto trace with {events} span event(s)")
    elif args.metrics:
        series = check_metrics_file(args.metrics)
        print(f"obs ok: /metrics exposition with {series} series")
    elif args.queries:
        records = check_queries_file(args.queries)
        print(f"obs ok: /debug/queries with {records} record(s)")
    elif args.trace:
        events, roots = check_trace_events(args.trace, "request",
                                           allow_multiple_roots=True,
                                           require_summary_args=False)
        print(f"obs ok: distributed trace with {events} span event(s) "
              f"under {roots} request root(s)")
    elif args.timeseries:
        what = check_timeseries_file(args.timeseries)
        print(f"obs ok: /debug/timeseries {what}")
    elif args.slo:
        status, violations = check_slo_file(args.slo)
        print(f"obs ok: /healthz?verbose=1 status={status} "
              f"violations={violations}")
    elif args.output:
        check_default(args.output)
    else:
        parser.print_usage(sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
