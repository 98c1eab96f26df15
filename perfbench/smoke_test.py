#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

    python3 perfbench/smoke_test.py

Runs every workload in smoke mode (tiny campaign, short serve steps, one
docking position), untraced and traced, with the standard seed family
(pinned outcome checks) and with the held-out family (envelope checks).
Each run must exit 0, pass every correctness check and print exactly the
metrics BENCHMARK.json names for it (`end_to_end` untraced, `per_layer`
traced), each finite, positive and in its unit; a traced run must also
print the workload's own breakdown on its `details` line. Last, the
benchmark must fail, without a result line, in a directory that holds only
BENCHMARK.json and perfbench/. Takes about a minute once the harness is
built.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# A few numbers of each workload's own breakdown that a traced run must
# print on its `details` line.
DETAILS = {
    "campaign": {"core.serial_wall_s", "core.wall_s.kn", "core.shard_speedup",
                 "core.endgame_s.k1", "core.week_s.p50.k1",
                 "server.redundancy"},
    "campaign-faults": {"core.wall_s.kn", "core.endgame_s.kn",
                        "faults.corruption_injected",
                        "validation.corruption_assimilated",
                        "policy.solo_issues"},
    "serve": {"client.max_rps", "client.issue_p50_ms",
              "client.issue_p99_ms.100k", "server.service_us.p50",
              "net.residual_us.p50", "client.assignments"},
    "dock": {"docking.serial_positions_per_s", "docking.positions_per_s",
             "docking.evals_per_position", "docking.parallel_efficiency"},
}


def run(workload, trace, held_out):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
           "--workload", workload, "--seed", "1", "--seconds", "2",
           "--trace", str(trace)] + (["--held-out"] if held_out else [])
    r = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                       timeout=600)
    assert r.returncode == 0, f"{cmd}: exit {r.returncode}"
    lines = r.stdout.strip().split("\n")
    details = {}
    for line in lines:
        if line.startswith("details "):
            details = json.loads(line[len("details "):])
    return json.loads(lines[-1]), details


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: no sources, so no result."""
    bare = ROOT / ".bench_build" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        r = subprocess.run(SPEC["command"] + ["--workload", "campaign",
                                              "--seed", "1", "--seconds", "1",
                                              "--trace", "0"],
                           cwd=bare, stdout=subprocess.PIPE,
                           stderr=subprocess.DEVNULL, text=True, timeout=180)
        assert r.returncode != 0, "bare directory: exit 0"
        assert '"metrics"' not in r.stdout, "bare directory printed a result"
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("ok bare directory fails without a result", flush=True)


def main():
    units = {key: {m["name"]: m["unit"] for m in SPEC[key]}
             for key in ("end_to_end", "per_layer")}
    for workload in [w["name"] for w in SPEC["workloads"]]:
        for trace in (0, 1):
            for held_out in (False, True):
                res, details = run(workload, trace, held_out)
                tag = f"{workload} trace={trace} held_out={held_out}"
                assert res["correct"] and res["failed"] == 0, (tag, res)
                assert res["attempted"] >= 1, tag
                want = units["per_layer" if trace else "end_to_end"]
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                assert got == want, (tag, sorted(set(got) ^ set(want)))
                for name, m in res["metrics"].items():
                    v = m["value"]
                    assert isinstance(v, (int, float)), (tag, name)
                    assert math.isfinite(v) and v > 0, (tag, name, v)
                if trace:
                    missing = DETAILS[workload] - set(details)
                    assert not missing, (tag, "details", sorted(missing))
                print("ok", tag, flush=True)
    check_bare_directory()
    print("smoke test passed")


if __name__ == "__main__":
    main()
