#!/usr/bin/env python3
"""Self-test of the benchmark at tiny scale.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json on shrunken graphs, once untraced
and once traced, and checks that each run is correct, that no operation
failed, and that every metric BENCHMARK.json names for that mode is
present, finite and carries its declared unit. Then it checks that the
correctness gate can fail: with one reference answer altered (an epoch
checksum on an epoch workload, a served answer on a serving workload)
the run must report correct=false and exit non-zero. Exits non-zero on
the first problem.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "2"


def run(workload, trace, *extra):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "7", "--seconds", SECONDS, "--trace", str(trace),
           "--tiny", *extra]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return proc, result


def fail(message, proc=None):
    print(f"FAIL: {message}")
    if proc is not None:
        print(proc.stderr[-3000:])
    sys.exit(1)


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {0: bench["end_to_end"], 1: bench["per_layer"]}
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in (0, 1):
            proc, result = run(workload, trace)
            label = f"{workload} --trace {trace}"
            if proc.returncode != 0 or result is None:
                fail(f"{label} exited {proc.returncode}", proc)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail(f"{label}: unexpected result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0:
                fail(f"{label}: correct={result['correct']} "
                     f"failed={result['failed']}", proc)
            if result["attempted"] < 1:
                fail(f"{label}: nothing attempted")
            metrics = result["metrics"]
            names = {m["name"] for m in expected[trace]}
            if set(metrics) != names:
                fail(f"{label}: metrics differ from BENCHMARK.json: "
                     f"missing {sorted(names - set(metrics))}, "
                     f"extra {sorted(set(metrics) - names)}")
            for spec in expected[trace]:
                got = metrics[spec["name"]]
                value = got["value"]
                if (not isinstance(value, (int, float))
                        or not math.isfinite(value)):
                    fail(f"{label}: {spec['name']} = {value!r}")
                if got["unit"] != spec["unit"]:
                    fail(f"{label}: {spec['name']} unit {got['unit']!r}, "
                         f"declared {spec['unit']!r}")
            print(f"ok   {label}: {len(metrics)} metrics")

    for workload in (w["name"] for w in bench["workloads"]):
        proc, result = run(workload, 0, "--corrupt-reference")
        if proc.returncode == 0 or result is None or result["correct"]:
            fail(f"{workload} passed with a corrupted reference", proc)
        print(f"ok   {workload} --corrupt-reference fails the run")
    print("selftest passed")


if __name__ == "__main__":
    main()
