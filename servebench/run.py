#!/usr/bin/env python3
"""Builds and runs the served-LUBM benchmark.

    python3 servebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 servebench/run.py --selftest

Run from the repository root. The harness (servebench.cc) and the
library sources under src/ are built with CMake into
.bench_build/servebench; the build is incremental, so only the first
run pays for it. Build output goes to standard error. The last line of
standard output is the harness's JSON result.

--selftest runs a short smoke length of every workload, untraced and
traced, and checks that each result names every metric BENCHMARK.json
declares, with its unit, and reports zero failures.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "servebench")
BUILD_TYPE = "RelWithDebInfo"
# One run must end within 180 s; the harness itself needs well under
# half of that at the benchmark's run length.
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_digest():
    """SHA-1 over the library and harness sources: the identity of the
    code a result was measured on, available without git."""
    h = hashlib.sha1()
    for top in ("src", "servebench"):
        base = os.path.join(ROOT, top)
        for dirpath, dirnames, filenames in os.walk(base):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def scratch_env():
    """The environment for child processes: compilers and the harness keep
    their temporary files inside the checkout."""
    tmp = os.path.join(BUILD_ROOT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return dict(os.environ, TMPDIR=tmp)


def build():
    """Configures and builds the harness; returns its path or None."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("servebench: library sources (src/) not found; nothing to build")
        return None
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE],
        ["cmake", "--build", BUILD_DIR, "--target", "servebench", "-j", jobs],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=scratch_env())
        if done.returncode != 0:
            log("servebench: build step failed: " + " ".join(cmd))
            return None
    return os.path.join(BUILD_DIR, "servebench")


def run_harness(binary, workload, seed, seconds, trace, capture=False):
    env = scratch_env()
    tmp = tempfile.mkdtemp(prefix="servebench-", dir=env["TMPDIR"])
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--tmp-dir", tmp,
           "--out-dir", os.path.join(BUILD_ROOT, "servebench-out"),
           "--source-digest", source_digest()]
    try:
        return subprocess.run(
            cmd, timeout=RUN_TIMEOUT_S, env=env,
            stdout=subprocess.PIPE if capture else None, text=True)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def selftest(binary, seconds):
    """Smoke-runs every workload for `seconds`; returns the exit code."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run_harness(binary, workload, 1, seconds, trace,
                               capture=True)
            where = "%s --trace %d" % (workload, trace)
            lines = (done.stdout or "").strip().splitlines()
            if done.returncode != 0 or not lines:
                problems.append("%s: exit %d, no result"
                                % (where, done.returncode))
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed",
                                  "metrics"]:
                problems.append("%s: result keys %s" % (where, sorted(result)))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%s"
                                % (where, result["correct"], result["failed"]))
            if result["attempted"] < 1:
                problems.append("%s: nothing attempted" % where)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {name: m.get("unit") for name, m in result["metrics"].items()}
            if got != want:
                problems.append("%s: metrics differ from BENCHMARK.json: "
                                "missing %s, extra %s, units %s" % (
                                    where, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(n for n in want if n in got
                                           and got[n] != want[n])))
            log("selftest %s: attempted=%d failed=%d"
                % (where, result["attempted"], result["failed"]))
    for p in problems:
        log("selftest FAILED " + p)
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="length of the timed phase; BENCHMARK.json "
                        "fixes it as run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and (not args.workload or args.seconds is None):
        parser.error("--workload and --seconds are required")

    binary = build()
    if binary is None:
        return 1
    if args.selftest:
        return selftest(binary, 1)
    try:
        done = run_harness(binary, args.workload, args.seed, args.seconds,
                           args.trace)
    except subprocess.TimeoutExpired:
        log("servebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
