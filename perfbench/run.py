#!/usr/bin/env python3
"""Repository benchmark: builds the perfbench harness and runs one workload.

    python3 perfbench/run.py --workload <campaign|campaign-faults|serve|dock>
                             [--seed N] [--seconds S] [--trace 0|1]
                             [--held-out] [--smoke]

Run from the root of a checkout. The harness (perfbench/harness) is built
from source into .bench_build/ on first use, against the repository's own
libraries. The last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; its metrics are exactly the
`end_to_end` metrics of BENCHMARK.json (--trace 0) or its `per_layer`
metrics (--trace 1), each in its unit, and a run that would print anything
else fails instead. The lines before it are a table of every metric with
its unit and sample count, a `details` line with the workload's own
breakdown (traced runs), and a `meta` line with nproc, build type, commit,
seeds and sample counts. Every result is also appended to
.bench_build/history.jsonl, and a traced run writes its spans to
.bench_build/traces/ as a Chrome trace.

Seeds. The workload inputs are generated from --seed:
  campaign, campaign-faults  the paper's canonical campaign seed 2007 (the
                             outcome is pinned to it, and a campaign's cost
                             moves by up to a third between seeds, so --seed
                             does not change it)
  serve                      arrival times, device draws and burst devices
                             use --seed
  dock                       proteins 13/14 and the slice of starting
                             positions from 0 (a slice's cost moves by ~16%
                             with its start, so --seed does not change it)
--held-out swaps in a disjoint family (campaign seed 9001+N, serve seed
1000003+N, proteins 1013+2N/1014+2N, slice from 20(N+1)) that no change
should be tuned on, so a claimed gain can be re-checked on inputs not used
while writing it.
"""
import argparse
import fcntl
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("campaign", "campaign-faults", "serve", "dock")
ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build"
HARNESS_SRC = ROOT / "perfbench" / "harness"
BINARY = BUILD / "perfbench"
RUN_TIMEOUT_S = 175


def log(*args):
    print("run.py:", *args, file=sys.stderr, flush=True)


def nproc():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build():
    """Configures (once) and builds the harness target; output to stderr."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log("no repository sources next to perfbench/ (src/ is missing)")
        return False
    BUILD.mkdir(exist_ok=True)
    with open(BUILD / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HARNESS_SRC), "-B", str(BUILD)])
        steps.append(["cmake", "--build", str(BUILD), "--target", "perfbench",
                      "-j", str(nproc())])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              cwd=ROOT).returncode != 0:
                log("build failed:", " ".join(cmd))
                return False
    return BINARY.is_file()


def commit_id():
    """The git commit when there is one, else a digest of the sources."""
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        if r.returncode == 0:
            dirty = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--",
                 "src", "perfbench", "CMakeLists.txt"],
                capture_output=True, text=True).stdout.strip()
            return r.stdout.strip()[:12] + ("-dirty" if dirty else "")
    h = hashlib.sha256()
    for top in ("src", "perfbench", "CMakeLists.txt"):
        base = ROOT / top
        files = sorted(base.rglob("*")) if base.is_dir() else [base]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return "tree-" + h.hexdigest()[:12]


def manifest_units(trace):
    """{name: unit} of the metrics BENCHMARK.json promises for this run."""
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in manifest["per_layer" if trace else "end_to_end"]}


def seeds(seed, held_out):
    if held_out:
        return {"campaign": 9001 + seed, "serve": 1000003 + seed,
                "protein": (1013 + 2 * seed, 1014 + 2 * seed),
                "dock_first": 20 * (seed + 1)}
    return {"campaign": 2007, "serve": seed, "protein": (13, 14),
            "dock_first": 0}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="run the held-out seed family")
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs that exercise every metric and check")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    try:
        expected = manifest_units(args.trace)
    except (OSError, ValueError, KeyError) as e:
        log("cannot read BENCHMARK.json:", e)
        return 1
    if not build():
        return 1
    s = seeds(args.seed, args.held_out)
    cmd = [str(BINARY), "--workload", args.workload,
           "--seconds", repr(args.seconds), "--trace", str(args.trace),
           "--campaign-seed", str(s["campaign"]),
           "--serve-seed", str(s["serve"]),
           "--protein-seeds", "%d,%d" % s["protein"],
           "--dock-first", str(s["dock_first"]),
           "--commit", commit_id(),
           "--history", str(BUILD / "history.jsonl")]
    if args.trace:
        traces = BUILD / "traces"
        traces.mkdir(exist_ok=True)
        tag = "%s-%sseed%d" % (args.workload, "heldout-" if args.held_out
                               else "", args.seed)
        cmd += ["--trace-out", str(traces / (tag + ".json"))]
    if args.smoke:
        cmd.append("--smoke")
    try:
        r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                           timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("harness exceeded", RUN_TIMEOUT_S, "s")
        return 1
    lines = r.stdout.rstrip("\n").split("\n")
    if r.returncode != 0 or not lines:
        log("harness exited with", r.returncode)
        return 1
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        log("malformed result line")
        return 1
    got = {k: v.get("unit") for k, v in result["metrics"].items()}
    if got != expected:
        log("metrics do not match BENCHMARK.json: missing",
            sorted(set(expected) - set(got)), "extra",
            sorted(set(got) - set(expected)), "unit",
            sorted(k for k in got if k in expected and got[k] != expected[k]))
        return 1
    if not all(isinstance(v.get("value"), (int, float)) and
               math.isfinite(v["value"]) for v in result["metrics"].values()):
        log("a metric value is not a finite number")
        return 1
    print("\n".join(lines), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
