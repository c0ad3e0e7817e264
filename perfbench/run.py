#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py                      # every workload, both passes
    python3 perfbench/run.py --workload eos-reduce-dense --seed 7 --seconds 30 --trace 0

Run from the repository root. Builds the `perfbench` crate twice (default
features, and `kobs-off` for `kobs.overhead_share`) into `$CARGO_TARGET_DIR`
(default `perfbench/target`), runs the named workload, prints every metric by
name and unit, a stamp line (host, build, revision, workload parameters,
sample counts) and, as the last line of stdout, one JSON object:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

`--trace 0` reports the end-to-end metrics, `--trace 1` the per-layer ones.
Exits non-zero when any output differs from the reference computation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["eos-reduce-dense", "eos-reduce-2w", "eos-fanout-sparse", "alos-window-ooo"]
# One invocation of the benchmark binary must end well inside the 180 s a
# run is allowed.
RUN_TIMEOUT_S = 170
# Alternating (default, kobs-off) run pairs behind kobs.overhead_share.
KOBS_PAIRS = 2


def fail(msg):
    print(f"run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or os.path.join(HERE, "target")


def build():
    """Build both binaries; return (default, kobs_off) paths."""
    manifest = os.path.join(HERE, "Cargo.toml")
    td = target_dir()
    builds = [(td, []), (os.path.join(td, "kobs-off"), ["--features", "kobs-off"])]
    paths = []
    for out_dir, extra in builds:
        cmd = ["cargo", "build", "--release", "--offline", "--quiet",
               "--manifest-path", manifest, "--target-dir", out_dir] + extra
        # Cargo's output goes to stderr so the last stdout line stays ours.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))
        paths.append(os.path.join(out_dir, "release", "perfbench"))
    return paths


def git_revision():
    """Read the revision from `.git` without running git (the checkout may
    not be a repository at all)."""
    git = os.path.join(os.path.dirname(HERE), ".git")
    try:
        with open(os.path.join(git, "HEAD")) as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = os.path.join(git, ref)
        if os.path.exists(ref_file):
            with open(ref_file) as f:
                return f.read().strip()
        with open(os.path.join(git, "packed-refs")) as f:
            for line in f:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def invoke(binary, workload, seed, seconds, trace):
    """Run the binary once; return (stamp, result)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {RUN_TIMEOUT_S} s: {' '.join(cmd)}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        fail(f"no result (exit {proc.returncode}): {' '.join(cmd)}")
    try:
        result = json.loads(lines[-1])
        stamp = next((json.loads(l)["stamp"] for l in lines if l.startswith('{"stamp"')), {})
    except (json.JSONDecodeError, KeyError) as e:
        fail(f"unreadable result ({e}): {' '.join(cmd)}")
    return stamp, result


def run_one(binaries, workload, seed, seconds, trace):
    default, kobs_off = binaries
    stamp, result = invoke(default, workload, seed, seconds, trace)
    stamps = {"bench": stamp}
    if trace:
        # kobs.overhead_share = 1 - wall(kobs-off) / wall(default) on the
        # same fixed input, i.e. 1 - throughput(default) / throughput(off).
        # Short untraced runs of the two builds take turns, so both see the
        # same host conditions.
        rps = {"on": [], "off": []}
        for _ in range(KOBS_PAIRS):
            for build, binary in (("on", default), ("off", kobs_off)):
                side_stamp, side = invoke(binary, workload, seed, max(seconds / 6, 1), False)
                stamps[f"kobs_{build}"] = side_stamp
                rps[build].append(side["metrics"]["throughput_rps"]["value"])
                result["correct"] = result["correct"] and side["correct"]
                result["attempted"] += side["attempted"]
                result["failed"] += side["failed"]
        share = 1 - statistics.median(rps["on"]) / statistics.median(rps["off"])
        result["metrics"]["kobs.overhead_share"] = {"value": share, "unit": "ratio"}
    affinity = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    stamps["host"] = {"nproc": affinity, "cpu_count": os.cpu_count(), "git_revision": git_revision(),
                      "build_profile": "release", "trace": int(trace)}
    for name, m in result["metrics"].items():
        print(f"# {workload:18s} {name:42s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"stamp": stamps}))
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=None,
                    help="0: end-to-end metrics, 1: per-layer metrics (default: 0, or both for 'all')")
    args = ap.parse_args()
    binaries = build()
    if args.workload != "all":
        result = run_one(binaries, args.workload, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result))
        sys.exit(0 if result["correct"] else 1)
    traces = [args.trace] if args.trace is not None else [0, 1]
    results = {}
    for workload in WORKLOADS:
        for trace in traces:
            results[f"{workload}/trace{trace}"] = run_one(binaries, workload, args.seed, args.seconds, bool(trace))
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "runs": results}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
