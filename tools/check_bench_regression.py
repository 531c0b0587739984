#!/usr/bin/env python3
"""Gate a bench_fig6 artifact against the committed baseline.

Usage:
    check_bench_regression.py NEW.json BASELINE.json

The one committed baseline is benchmarks/BENCH_pr5_baseline.json. The
other harnesses (bench_wal, bench_readers, bench_obs) gate themselves
through their exit status. The checks:
  1. Warm-path latency: summary.warm_mean_ms must not exceed the
     baseline by more than --tolerance (default 20%).
  2. Pruning work saving: the exhaustive search's expansions over the
     pruned search's, summed over the exact queries (those whose pruned
     search was not truncated), must not fall below the baseline's
     ratio by more than --tolerance, and never below --min-speedup.
     Expansions are deterministic, so this reads the work pruning saves
     without the host's timing noise; a faster kernel lowers the cost
     of every expansion on both sides and must not read as a loss.
  3. Warm cache health: per-query warm hit rates of the alignment
     memo, record cache and lookup cache must not drop more than
     --hit-rate-slack (absolute) under the baseline. A cold-start or
     invalidation bug shows up here before it shows up as latency.
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


def expansion_ratio(artifact, path):
    """Σ noprune_search_expansions / Σ search_expansions over the exact
    queries of an artifact; exits when there is no exact query."""
    pruned = exhaustive = 0
    for q in artifact["queries"]:
        where = f"{path} query '{q.get('name')}'"
        truncated = q.get("search_truncated")
        if not isinstance(truncated, bool):
            die(f"key 'search_truncated' in {where} is not a boolean "
                f"(got {truncated!r})")
        if truncated:
            continue
        pruned += get_number(q, "search_expansions", where)
        exhaustive += get_number(q, "noprune_search_expansions", where)
    if pruned <= 0:
        die(f"{path} has no exact query with expansions; the pruning "
            f"ratio cannot gate anything")
    return exhaustive / pruned


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("new_json")
    parser.add_argument("baseline_json")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="relative slack for latency/speedup (0.20 = 20%%)")
    parser.add_argument("--min-speedup", type=float, default=3.0,
                        help="hard floor for the exhaustive / pruned "
                        "expansion ratio over the exact queries")
    parser.add_argument("--hit-rate-slack", type=float, default=0.05,
                        help="absolute slack for warm cache hit rates")
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

    new_warm = get_number(new_sum, "warm_mean_ms",
                          f"{args.new_json} summary")
    base_warm = get_number(base_sum, "warm_mean_ms",
                           f"{args.baseline_json} summary")
    new_ratio = expansion_ratio(new, args.new_json)
    base_ratio = expansion_ratio(base, args.baseline_json)
    # A zero baseline makes both the relative-latency and the speedup
    # comparison vacuous — every run would "pass". That is a broken or
    # truncated baseline artifact, not a healthy bench, so refuse it.
    if base_warm <= 0:
        die(f"key 'warm_mean_ms' in {args.baseline_json} summary is "
            f"{base_warm}; a zero/negative baseline cannot gate anything "
            f"(re-record the baseline)")

    limit = base_warm * (1.0 + args.tolerance)
    if new_warm > limit:
        failures.append(
            f"warm_mean_ms {new_warm:.2f} exceeds "
            f"baseline {base_warm:.2f} "
            f"+{args.tolerance:.0%} (limit {limit:.2f})")

    floor = max(base_ratio * (1.0 - args.tolerance), args.min_speedup)
    if new_ratio < floor:
        failures.append(
            f"exhaustive/pruned expansion ratio {new_ratio:.2f} below "
            f"floor {floor:.2f} (baseline {base_ratio:.2f}, "
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
          f"expansion_ratio={new_ratio:.2f}x "
          f"(baseline {base_ratio:.2f}x)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
