#!/usr/bin/env python3
"""Smoke test of the benchmark itself.

Usage, from the repository root:

    python3 perfbench/smoke_test.py [workload ...]

For each workload (default: every one in BENCHMARK.json) it runs the
benchmark at minimum length untraced and traced, and checks that the last
stdout line is the result object with every declared metric, in its
declared unit, as a finite number, and that every output passed its check.
It then runs each workload with one response deliberately corrupted and
checks that the parity check trips (nonzero exit, "correct": false).
Finally it runs the command in a directory holding only BENCHMARK.json and
the benchmark's own files, where it must fail without printing a result.
Exits 1 on the first failed expectation.
"""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KEYS = {"correct", "attempted", "failed", "metrics"}


def fail(msg):
    print(f"smoke: FAIL: {msg}")
    sys.exit(1)


def run(workload, trace, corrupt=False, cwd=ROOT):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace)]
    if corrupt:
        cmd += ["--corrupt", "1"]
    out = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return out.returncode, result, out


def check_metrics(workload, trace, result):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    if set(result) != KEYS:
        fail(f"{workload}: result keys {sorted(result)}")
    names = {m["name"]: m["unit"] for m in declared}
    if set(result["metrics"]) != set(names):
        fail(f"{workload} trace={trace}: metrics differ from BENCHMARK.json: "
             f"{sorted(set(names) ^ set(result['metrics']))}")
    for name, m in result["metrics"].items():
        v = m.get("value")
        if not isinstance(v, (int, float)) or not math.isfinite(v):
            fail(f"{workload}: {name} is not a finite number: {v!r}")
        if m.get("unit") != names[name]:
            fail(f"{workload}: {name} in {m.get('unit')}, declared {names[name]}")
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        fail(f"{workload} trace={trace}: correct={result['correct']} "
             f"attempted={result['attempted']} failed={result['failed']}")


def main():
    workloads = sys.argv[1:] or [w["name"] for w in SPEC["workloads"]]
    for w in workloads:
        for trace in (0, 1):
            rc, result, out = run(w, trace)
            if rc != 0 or result is None:
                fail(f"{w} trace={trace}: exit {rc}\n{out.stdout[-2000:]}{out.stderr[-2000:]}")
            check_metrics(w, trace, result)
            print(f"smoke: {w} trace={trace}: {len(result['metrics'])} metrics, "
                  f"{result['attempted']} requests checked")
        rc, result, out = run(w, 0, corrupt=True)
        if rc == 0 or result is None or result["correct"] or result["failed"] < 1:
            fail(f"{w}: a corrupted response did not trip the parity check (exit {rc})")
        print(f"smoke: {w}: corrupted response caught (failed={result['failed']})")

    bare = ROOT / ".bench_build" / "smoke-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, bare / p, ignore=shutil.ignore_patterns("__pycache__"))
    rc, result, _ = run(workloads[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if rc == 0 or result is not None:
        fail("the benchmark ran without the library sources")
    print("smoke: without the library sources the command fails and prints no result")
    print("smoke: OK")


if __name__ == "__main__":
    main()
