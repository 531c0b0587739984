#!/usr/bin/env python3
"""Gate bench results against the committed baseline.

Usage:
    check_bench_regression.py NEW.json BASELINE.json \
        [--mode=fig6|serve|wal|read|shard]

--mode=fig6 (default) gates bench_fig6 artifacts:
  1. Warm-path latency: summary.warm_mean_ms must not exceed the
     baseline by more than --tolerance (default 20%).
  2. Algorithmic speedup: summary.warm_speedup (exhaustive warm mean /
     optimized warm mean over the exact queries) must not fall below
     the baseline by more than --tolerance, and never below
     --min-speedup.
  3. Warm cache health: per-query warm hit rates of the alignment
     memo, record cache and lookup cache must not drop more than
     --hit-rate-slack (absolute) under the baseline. A cold-start or
     invalidation bug shows up here before it shows up as latency.

--mode=serve gates bench_serve artifacts:
  1. Correctness (unconditional, never skipped): protocol_errors and
     mismatches must both be exactly zero — a serving stack that
     returns wrong bytes or malformed frames fails whatever the
     latency numbers say.
  2. Throughput: summary.qps must not fall below the baseline by more
     than --tolerance, and never below --min-qps.
  3. Tail latency: summary.p99_ms must not exceed the baseline by more
     than --tolerance.

--mode=wal gates bench_wal artifacts:
  1. Correctness (unconditional, never skipped): summary.replay_errors
     must be exactly zero — a lost acked LSN or a dirty post-recovery
     verify fails whatever the throughput numbers say.
  2. Append throughput: summary.appends_per_sec (deferred fsync) and
     summary.durable_appends_per_sec (fsync per ack) must not fall
     below the baseline by more than --tolerance; appends_per_sec
     never below --min-appends.
  3. Recovery: summary.recovery_ms must not exceed the baseline by
     more than --tolerance.

--mode=read gates bench_readers artifacts (the lock-free read paths):
  1. Correctness (unconditional, never skipped): summary.mismatches
     must be exactly zero — every lock-free read must have returned
     the exact value its key was published with.
  2. Reader scaling: summary.hit_scaling (combined warm dictionary +
     cache hit throughput, 16 threads vs 1) must not fall below
     --min-read-scaling. A lock on the hot read path flattens this to
     ~1.0 immediately. Enforced only when the NEW artifact's
     summary.hardware_threads >= 8 (scaling cannot physically show on
     fewer cores) and --no-absolute is not set.
  3. Single-thread throughput: the per-path 1-thread ops/s in the
     summary must not fall below the baseline by more than
     --tolerance — lock-freedom must not tax the uncontended case.

--mode=shard gates bench_shard artifacts (sharded search):
  1. Correctness (unconditional, never skipped): summary.mismatches
     must be exactly zero — every query, truncated or not, must be
     byte-identical (scores AND tie-break order) to the single-index
     run at every shard count.
  2. Coverage: summary.queries_compared must not fall below the
     baseline — the identity check must not silently become vacuous.
  3. Latency: per-shard-count mean_ms must not exceed the baseline by
     more than --tolerance (machine-dependent).

--mode=obs gates bench_obs artifacts (tracing/telemetry overhead):
  1. Correctness (unconditional, never skipped): summary.mismatches
     must be exactly zero — a traced query must return byte-identical
     answers to its untraced twin; tracing is observation, never
     behaviour.
  2. Span liveness (unconditional): summary.spans_per_query must be
     positive — a traced run that recorded no spans measured nothing.
  3. Tracing overhead (unconditional — it is a same-machine ratio):
     summary.traced_over_untraced must not exceed
     1 + --max-trace-overhead (default 5%). This is the PR's headline
     observability contract: always-on tracing must be nearly free.
  4. Sampler cost: summary.sample_mean_us must not exceed the baseline
     by more than --tolerance (machine-dependent).

Latency/throughput are machine-dependent; the correctness and ratio
checks are not. Pass --no-absolute to skip the machine-dependent
checks (fig6 check 1; serve checks 2 and 3, except the --min-qps hard
floor; wal checks 2 and 3, except the --min-appends hard floor; read
checks 2 and 3; shard check 3) on hardware that does not match the
baseline machine.
"""

import argparse
import json
import math
import sys


def die(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def load(path):
    """Parse a bench JSON artifact, rejecting non-finite values.

    The C++ writers clamp every ratio to a finite value; a NaN/Infinity
    in the artifact therefore means a writer bug, and silently letting
    json.load() accept Python's non-standard literals would turn every
    later comparison into a vacuous truth (NaN compares false).
    """
    def reject_nonfinite(literal):
        raise ValueError(f"non-finite JSON value {literal!r}")

    try:
        with open(path) as f:
            return json.load(f, parse_constant=reject_nonfinite)
    except OSError as e:
        die(f"cannot read {path}: {e}")
    except ValueError as e:
        die(f"{path} is not valid bench JSON: {e}")


def get_number(obj, key, where):
    """A required numeric field; exits with the offending key named."""
    if not isinstance(obj, dict) or key not in obj:
        die(f"missing key '{key}' in {where}")
    value = obj[key]
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        die(f"key '{key}' in {where} is not a number (got {value!r})")
    if not math.isfinite(value):
        die(f"key '{key}' in {where} is non-finite ({value!r})")
    return value


def check_serve(new, base, args):
    """The bench_serve gate; returns the list of failure strings."""
    failures = []
    new_sum, base_sum = new["summary"], base["summary"]

    # Correctness first, and never skippable: these two counters are
    # machine-independent by construction.
    for key in ("protocol_errors", "mismatches"):
        value = get_number(new_sum, key, f"{args.new_json} summary")
        if value != 0:
            failures.append(f"{key} is {value:g}; a serving bench must "
                            f"be byte-exact and protocol-clean")

    new_qps = get_number(new_sum, "qps", f"{args.new_json} summary")
    base_qps = get_number(base_sum, "qps", f"{args.baseline_json} summary")
    new_p99 = get_number(new_sum, "p99_ms", f"{args.new_json} summary")
    base_p99 = get_number(base_sum, "p99_ms",
                          f"{args.baseline_json} summary")
    if base_qps <= 0:
        die(f"key 'qps' in {args.baseline_json} summary is {base_qps}; "
            f"a zero/negative baseline cannot gate anything "
            f"(re-record the baseline)")

    if new_qps < args.min_qps:
        failures.append(f"qps {new_qps:.1f} below the hard floor "
                        f"{args.min_qps:.1f}")
    if not args.no_absolute:
        floor = base_qps * (1.0 - args.tolerance)
        if new_qps < floor:
            failures.append(
                f"qps {new_qps:.1f} fell below baseline {base_qps:.1f} "
                f"-{args.tolerance:.0%} (floor {floor:.1f})")
        if base_p99 > 0:
            limit = base_p99 * (1.0 + args.tolerance)
            if new_p99 > limit:
                failures.append(
                    f"p99_ms {new_p99:.3f} exceeds baseline "
                    f"{base_p99:.3f} +{args.tolerance:.0%} "
                    f"(limit {limit:.3f})")

    if not failures:
        print(f"serve bench ok: qps={new_qps:.1f} "
              f"(baseline {base_qps:.1f}), p99={new_p99:.3f}ms "
              f"(baseline {base_p99:.3f}ms), 0 protocol errors, "
              f"0 mismatches")
    return failures


def check_wal(new, base, args):
    """The bench_wal gate; returns the list of failure strings."""
    failures = []
    new_sum, base_sum = new["summary"], base["summary"]

    # Correctness first, and never skippable: a recovery that loses an
    # acked LSN is machine-independently broken.
    errors = get_number(new_sum, "replay_errors",
                        f"{args.new_json} summary")
    if errors != 0:
        failures.append(f"replay_errors is {errors:g}; recovery must "
                        f"replay every acked update and verify clean")

    new_app = get_number(new_sum, "appends_per_sec",
                         f"{args.new_json} summary")
    base_app = get_number(base_sum, "appends_per_sec",
                          f"{args.baseline_json} summary")
    new_dur = get_number(new_sum, "durable_appends_per_sec",
                         f"{args.new_json} summary")
    base_dur = get_number(base_sum, "durable_appends_per_sec",
                          f"{args.baseline_json} summary")
    new_rec = get_number(new_sum, "recovery_ms",
                         f"{args.new_json} summary")
    base_rec = get_number(base_sum, "recovery_ms",
                          f"{args.baseline_json} summary")
    if base_app <= 0 or base_dur <= 0:
        die(f"append throughput in {args.baseline_json} summary is "
            f"zero/negative; a broken baseline cannot gate anything "
            f"(re-record the baseline)")

    if new_app < args.min_appends:
        failures.append(f"appends_per_sec {new_app:.1f} below the hard "
                        f"floor {args.min_appends:.1f}")
    if not args.no_absolute:
        for key, value, baseline in (
                ("appends_per_sec", new_app, base_app),
                ("durable_appends_per_sec", new_dur, base_dur)):
            floor = baseline * (1.0 - args.tolerance)
            if value < floor:
                failures.append(
                    f"{key} {value:.1f} fell below baseline "
                    f"{baseline:.1f} -{args.tolerance:.0%} "
                    f"(floor {floor:.1f})")
        if base_rec > 0:
            limit = base_rec * (1.0 + args.tolerance)
            if new_rec > limit:
                failures.append(
                    f"recovery_ms {new_rec:.3f} exceeds baseline "
                    f"{base_rec:.3f} +{args.tolerance:.0%} "
                    f"(limit {limit:.3f})")

    if not failures:
        print(f"wal bench ok: appends/s={new_app:.1f} "
              f"(baseline {base_app:.1f}), durable appends/s="
              f"{new_dur:.1f} (baseline {base_dur:.1f}), "
              f"recovery={new_rec:.1f}ms (baseline {base_rec:.1f}ms), "
              f"0 replay errors")
    return failures


def check_read(new, base, args):
    """The bench_readers gate; returns the list of failure strings."""
    failures = []
    new_sum, base_sum = new["summary"], base["summary"]

    # Correctness first, and never skippable: a lock-free read that
    # returns the wrong value is machine-independently broken.
    mismatches = get_number(new_sum, "mismatches",
                            f"{args.new_json} summary")
    if mismatches != 0:
        failures.append(f"mismatches is {mismatches:g}; every lock-free "
                        f"read must return exactly the published value")

    scaling = get_number(new_sum, "hit_scaling", f"{args.new_json} summary")
    hw = get_number(new_sum, "hardware_threads", f"{args.new_json} summary")
    scaling_enforced = hw >= 8 and not args.no_absolute
    if scaling_enforced and scaling < args.min_read_scaling:
        failures.append(
            f"hit_scaling {scaling:.2f} below the floor "
            f"{args.min_read_scaling:.2f} on a {hw:g}-thread machine; "
            f"a lock snuck back onto the hot read path")

    one_thread_keys = ("dict_hit_1t_ops", "dict_miss_1t_ops",
                       "cache_hit_1t_ops", "cache_miss_1t_ops",
                       "pool_hit_1t_ops")
    if not args.no_absolute:
        for key in one_thread_keys:
            value = get_number(new_sum, key, f"{args.new_json} summary")
            baseline = get_number(base_sum, key,
                                  f"{args.baseline_json} summary")
            if baseline <= 0:
                die(f"key '{key}' in {args.baseline_json} summary is "
                    f"{baseline}; a zero/negative baseline cannot gate "
                    f"anything (re-record the baseline)")
            floor = baseline * (1.0 - args.tolerance)
            if value < floor:
                failures.append(
                    f"{key} {value:.0f} fell below baseline "
                    f"{baseline:.0f} -{args.tolerance:.0%} "
                    f"(floor {floor:.0f})")

    if not failures:
        scaling_note = (f"hit_scaling={scaling:.2f} "
                        f"(floor {args.min_read_scaling:.2f})"
                        if scaling_enforced else
                        f"hit_scaling={scaling:.2f} (not enforced: "
                        f"{hw:g} hardware thread(s))")
        print(f"read bench ok: 0 mismatches, {scaling_note}")
    return failures


def check_shard(new, base, args):
    """The bench_shard gate; returns the list of failure strings."""
    failures = []
    new_sum, base_sum = new["summary"], base["summary"]

    # Correctness first, and never skippable: identity is
    # machine-independent by construction.
    mismatches = get_number(new_sum, "mismatches",
                            f"{args.new_json} summary")
    if mismatches != 0:
        failures.append(f"mismatches is {mismatches:g}; sharded answers "
                        f"must be byte-identical to the single index")

    compared = get_number(new_sum, "queries_compared",
                          f"{args.new_json} summary")
    base_compared = get_number(base_sum, "queries_compared",
                               f"{args.baseline_json} summary")
    if base_compared <= 0:
        die(f"key 'queries_compared' in {args.baseline_json} summary is "
            f"{base_compared}; a baseline with no byte-compared queries "
            f"cannot gate anything (re-record the baseline)")
    if compared < base_compared:
        failures.append(
            f"queries_compared {compared:g} below baseline "
            f"{base_compared:g}; the identity check lost coverage")

    new_runs = {int(get_number(r, "shards", f"{args.new_json} shard_runs")):
                r for r in new.get("shard_runs", [])}
    base_runs = {int(get_number(r, "shards",
                                f"{args.baseline_json} shard_runs")):
                 r for r in base.get("shard_runs", [])}
    if not new_runs:
        die(f"missing or empty 'shard_runs' in {args.new_json}")
    if not args.no_absolute:
        for shards, b in base_runs.items():
            n = new_runs.get(shards)
            if n is None:
                failures.append(f"shard count {shards} present in the "
                                f"baseline but missing from the new run")
                continue
            new_ms = get_number(n, "mean_ms",
                                f"{args.new_json} shard_runs[{shards}]")
            base_ms = get_number(
                b, "mean_ms", f"{args.baseline_json} shard_runs[{shards}]")
            if base_ms <= 0:
                die(f"mean_ms for {shards} shard(s) in "
                    f"{args.baseline_json} is {base_ms}; a zero/negative "
                    f"baseline cannot gate anything (re-record the "
                    f"baseline)")
            limit = base_ms * (1.0 + args.tolerance)
            if new_ms > limit:
                failures.append(
                    f"{shards}-shard mean_ms {new_ms:.2f} exceeds "
                    f"baseline {base_ms:.2f} +{args.tolerance:.0%} "
                    f"(limit {limit:.2f})")

    if not failures:
        print(f"shard bench ok: 0 mismatches over {compared:g} "
              f"byte-compared queries, shard counts "
              f"{sorted(new_runs)} present")
    return failures


def check_obs(new, base, args):
    """The bench_obs gate; returns the list of failure strings."""
    failures = []
    new_sum, base_sum = new["summary"], base["summary"]

    # Correctness first, and never skippable: tracing must not change
    # answers, and a span-free "traced" run measured nothing.
    mismatches = get_number(new_sum, "mismatches",
                            f"{args.new_json} summary")
    if mismatches != 0:
        failures.append(f"mismatches is {mismatches:g}; traced answers "
                        f"must be byte-identical to untraced answers")
    spans = get_number(new_sum, "spans_per_query",
                       f"{args.new_json} summary")
    if spans <= 0:
        failures.append("spans_per_query is 0; the traced run recorded "
                        "no spans, so the overhead ratio is vacuous")

    # The headline contract: a same-machine ratio, so it is NOT skipped
    # by --no-absolute.
    ratio = get_number(new_sum, "traced_over_untraced",
                       f"{args.new_json} summary")
    limit = 1.0 + args.max_trace_overhead
    if ratio > limit:
        failures.append(
            f"traced_over_untraced {ratio:.4f} exceeds "
            f"{limit:.4f} (+{args.max_trace_overhead:.0%}); end-to-end "
            f"tracing must stay nearly free")
    if ratio <= 0:
        failures.append(f"traced_over_untraced is {ratio:g}; a "
                        f"zero/negative ratio means the bench timed "
                        f"nothing")

    new_us = get_number(new_sum, "sample_mean_us",
                        f"{args.new_json} summary")
    base_us = get_number(base_sum, "sample_mean_us",
                         f"{args.baseline_json} summary")
    if base_us <= 0:
        die(f"key 'sample_mean_us' in {args.baseline_json} summary is "
            f"{base_us}; a zero/negative baseline cannot gate anything "
            f"(re-record the baseline)")
    if not args.no_absolute:
        us_limit = base_us * (1.0 + args.tolerance)
        if new_us > us_limit:
            failures.append(
                f"sample_mean_us {new_us:.2f} exceeds baseline "
                f"{base_us:.2f} +{args.tolerance:.0%} "
                f"(limit {us_limit:.2f})")

    if not failures:
        print(f"obs bench ok: 0 mismatches, "
              f"traced/untraced={ratio:.4f} (limit {limit:.4f}), "
              f"{spans:.1f} spans/query, "
              f"sampler {new_us:.2f}us (baseline {base_us:.2f}us)")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new_json")
    parser.add_argument("baseline_json")
    parser.add_argument("--mode",
                        choices=("fig6", "serve", "wal", "read", "shard",
                                 "obs"),
                        default="fig6",
                        help="which bench artifact schema to gate")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative slack for latency/speedup (0.20 = 20%%)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="hard floor for summary.warm_speedup (fig6)")
    parser.add_argument("--min-qps", type=float, default=1000.0,
                        help="hard floor for summary.qps (serve)")
    parser.add_argument("--min-appends", type=float, default=500.0,
                        help="hard floor for summary.appends_per_sec (wal)")
    parser.add_argument("--min-read-scaling", type=float, default=3.0,
                        help="hard floor for summary.hit_scaling (read), "
                             "enforced when hardware_threads >= 8")
    parser.add_argument("--max-trace-overhead", type=float, default=0.05,
                        help="ceiling for summary.traced_over_untraced "
                             "above 1.0 (obs; 0.05 = 5%%)")
    parser.add_argument("--hit-rate-slack", type=float, default=0.05,
                        help="absolute slack for warm cache hit rates")
    parser.add_argument("--no-absolute", action="store_true",
                        help="skip the machine-dependent checks")
    args = parser.parse_args()

    new = load(args.new_json)
    base = load(args.baseline_json)
    failures = []

    for artifact, path in ((new, args.new_json), (base, args.baseline_json)):
        if "summary" not in artifact:
            die(f"missing key 'summary' in {path}")
        if "queries" not in artifact:
            die(f"missing key 'queries' in {path}")
    new_sum, base_sum = new["summary"], base["summary"]

    if args.mode in ("serve", "wal", "read", "shard", "obs"):
        check = {"serve": check_serve, "wal": check_wal,
                 "read": check_read, "shard": check_shard,
                 "obs": check_obs}[args.mode]
        failures = check(new, base, args)
        if failures:
            print("BENCH REGRESSION:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        return 0

    new_warm = get_number(new_sum, "warm_mean_ms",
                          f"{args.new_json} summary")
    base_warm = get_number(base_sum, "warm_mean_ms",
                           f"{args.baseline_json} summary")
    new_speedup = get_number(new_sum, "warm_speedup",
                             f"{args.new_json} summary")
    base_speedup = get_number(base_sum, "warm_speedup",
                              f"{args.baseline_json} summary")
    # A zero baseline makes both the relative-latency and the speedup
    # comparison vacuous — every run would "pass". That is a broken or
    # truncated baseline artifact, not a healthy bench, so refuse it.
    if base_warm <= 0:
        die(f"key 'warm_mean_ms' in {args.baseline_json} summary is "
            f"{base_warm}; a zero/negative baseline cannot gate anything "
            f"(re-record the baseline)")
    if base_speedup <= 0:
        die(f"key 'warm_speedup' in {args.baseline_json} summary is "
            f"{base_speedup}; a zero/negative baseline cannot gate "
            f"anything (re-record the baseline)")

    if not args.no_absolute:
        limit = base_warm * (1.0 + args.tolerance)
        if new_warm > limit:
            failures.append(
                f"warm_mean_ms {new_warm:.2f} exceeds "
                f"baseline {base_warm:.2f} "
                f"+{args.tolerance:.0%} (limit {limit:.2f})")

    floor = max(base_speedup * (1.0 - args.tolerance), args.min_speedup)
    if new_speedup < floor:
        failures.append(
            f"warm_speedup {new_speedup:.2f} below floor "
            f"{floor:.2f} (baseline {base_speedup:.2f}, "
            f"min {args.min_speedup:.2f})")

    base_rows = {q.get("name"): q for q in base["queries"]}
    for q in new["queries"]:
        name = q.get("name")
        if name is None:
            die(f"a row in {args.new_json} queries has no 'name' key")
        b = base_rows.get(name)
        if b is None:
            continue
        for key in ("alignment_memo_hit_rate", "record_cache_hit_rate",
                    "lookup_cache_hit_rate"):
            new_rate = get_number(q, key, f"{args.new_json} query '{name}'")
            base_rate = get_number(b, key,
                                   f"{args.baseline_json} query '{name}'")
            if new_rate < base_rate - args.hit_rate_slack:
                failures.append(
                    f"{name} {key} {new_rate:.3f} fell below baseline "
                    f"{base_rate:.3f} - {args.hit_rate_slack}")

    if failures:
        print("BENCH REGRESSION:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print(f"bench ok: warm_mean={new_warm:.2f}ms "
          f"(baseline {base_warm:.2f}ms), "
          f"warm_speedup={new_speedup:.2f}x "
          f"(baseline {base_speedup:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
