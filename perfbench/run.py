#!/usr/bin/env python3
"""Runs one RingSampler benchmark workload and prints its result line.

    python3 perfbench/run.py --workload epoch_buffered --seed 1 \
        --seconds 40 --trace 0

Run from the root of a source checkout. The first run configures and
builds perfbench/ (which compiles ../src) into .bench_build/ and
materializes the workload's dataset there; later runs reuse both.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics. --trace 0 reports the end-to-end metrics
of an untraced run; --trace 1 reports the per-layer metrics, which come
from the registry, EpochResult and a traced phase whose span self times
are computed here from the trace file. BENCHMARK.json names the metrics
of each mode. See perfbench/README.md.
"""

import argparse
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
DRIVER = BUILD / "cmake" / "perfbench_driver"

DRIVER_TIMEOUT_S = 170

# One complete ("X") event as src/obs/trace.cpp writes it.
X_EVENT = re.compile(
    rb'\{"name":"([^"]*)","cat":"([^"]*)","ph":"X","pid":1,"tid":(\d+),'
    rb'"ts":([0-9.]+),"dur":([0-9.]+)(?:,"args":\{"[^"]*":(-?\d+)\})?\}')
OVERFLOW = re.compile(r"trace ring overflow: (\d+) events dropped")


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        log(f"no source tree at {ROOT / 'src'}; run from a full checkout")
        sys.exit(2)
    cmake_dir = BUILD / "cmake"
    if not (cmake_dir / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(cmake_dir),
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(cmake_dir), "--target",
                    "perfbench_driver", "-j", jobs],
                   stdout=sys.stderr, check=True)


def percentile(values, p):
    """Linear-interpolated percentile, as the driver computes it."""
    if not values:
        return 0.0
    values = sorted(values)
    rank = p / 100.0 * (len(values) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (rank - lo)


def span_times(trace_path):
    """Per span name: inclusive and self time (ms) and every inclusive
    duration; self time is the duration minus the part of it the span's
    direct children on the same thread cover."""
    by_tid = {}
    with open(trace_path, "rb") as f:
        data = f.read()
    for m in X_EVENT.finditer(data):
        name = (m.group(2) + b"/" + m.group(1)).decode()
        arg = m.group(6)
        if name == "sampler/layer" and arg is not None:
            name = f"sampler/layer{int(arg)}"
        by_tid.setdefault(m.group(3), []).append(
            (float(m.group(4)), float(m.group(5)), name))

    total = {}
    eps = 0.002  # timestamps carry 1 ns of rounding
    events = 0
    for spans in by_tid.values():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []  # [end_us, name, dur_us, child_us]
        def close(entry):
            t = total.setdefault(entry[1], {"incl": 0.0, "self": 0.0,
                                            "durs": []})
            t["incl"] += entry[2] / 1e3
            t["self"] += (entry[2] - entry[3]) / 1e3
            t["durs"].append(entry[2] / 1e3)
        for ts, dur, name in spans:
            events += 1
            while stack and stack[-1][0] <= ts + eps:
                close(stack.pop())
            if stack and ts + dur <= stack[-1][0] + eps:
                stack[-1][3] += dur
            stack.append([ts + dur, name, dur, 0.0])
        while stack:
            close(stack.pop())
    return total, events


def trace_layers(result, stderr_text):
    """Per-layer metrics from the traced phase."""
    dropped = sum(int(n) for n in OVERFLOW.findall(stderr_text))
    if dropped:
        log(f"trace dropped {dropped} events; refusing per-layer numbers")
        sys.exit(1)
    info = result["trace"]
    spans, events = span_times(info["path"])
    units = info["units"]
    if units <= 0 or events == 0:
        log("traced phase recorded nothing")
        sys.exit(1)

    def self_ms(name):
        return spans.get(name, {}).get("self", 0.0) / units

    metrics = {
        "uring.submit_ms": (self_ms("io/uring_submit"), "ms"),
        "uring.wait_ms": (self_ms("io/uring_wait"), "ms"),
        "pipeline.submit_s": (self_ms("pipeline/submit") / 1e3, "s"),
        "trace.dropped_events": (dropped, "count"),
        "trace.events": (events, "count"),
        "trace.work_units": (units, "count"),
    }
    if info["unit"] == "request":
        # Serving has no EpochResult: prepare/drain come from the spans.
        for phase in ("prepare", "drain"):
            metrics[f"pipeline.{phase}_s"] = (
                self_ms(f"pipeline/{phase}") / 1e3, "s")
    for layer in range(3):
        hop = spans.get(f"sampler/layer{layer}", {}).get("incl", 0.0)
        metrics[f"sampler.hop{layer}_ms"] = (hop / units, "ms")
    batches = spans.get("sampler/batch", {}).get("durs", [])
    metrics["sampler.batch_ms_p50"] = (percentile(batches, 50), "ms")
    metrics["sampler.batch_ms_p99"] = (percentile(batches, 99), "ms")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the graphs (self-test)")
    parser.add_argument("--corrupt-reference", action="store_true",
                        help="alter one reference answer; the run must fail")
    args = parser.parse_args()

    try:
        build()
    except (OSError, subprocess.CalledProcessError) as err:
        log(f"build failed: {err}")
        sys.exit(2)

    work = BUILD / ("run-" + args.workload + ("-tiny" if args.tiny else ""))
    cmd = [str(DRIVER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--data-dir", str(BUILD / "data"), "--work-dir", str(work)]
    if args.tiny:
        cmd.append("--tiny")
    if args.corrupt_reference:
        cmd.append("--corrupt-reference")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {DRIVER_TIMEOUT_S}s")
        sys.exit(1)
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        log(f"driver exited with {proc.returncode} and no result")
        sys.exit(1)

    metrics = {name: (m["value"], m["unit"])
               for name, m in result["metrics"].items()}
    if args.trace:
        metrics.update(trace_layers(result, proc.stderr))
    # BENCHMARK.json names the metrics each mode reports.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    mode = "per_layer" if args.trace else "end_to_end"
    names = [m["name"] for m in spec[mode]]
    missing = [name for name in names if name not in metrics]
    if missing:
        log(f"driver did not report {missing}")
        sys.exit(1)
    metrics = {name: metrics[name] for name in names}

    correct = bool(result["correct"]) and proc.returncode == 0
    out = {}
    for name, (value, unit) in metrics.items():
        if value is None or not math.isfinite(value):
            log(f"metric {name} is not a finite number")
            correct = False
            value = None
        out[name] = {"value": value, "unit": unit}
    print(json.dumps({"env": result["env"], "workload": args.workload,
                      "seed": args.seed}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": out}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
