#!/usr/bin/env python3
"""Run-to-run spread and held-out-seed check for the benchmark.

Runs the benchmark command of BENCHMARK.json once per seed and workload,
then prints, for every end-to-end metric, the median of the runs and the
distance between the first and third quartiles as a share of the median
(statistics.quantiles(values, n=4)). With --heldout it runs a second set
of seeds and reports how far each held-out median moved from the first
set's median, in the metric's worse direction, against its bound.

Run from the root of the tree:

    python3 perfbench/spread.py --seeds 1-10 --heldout 101-105
    python3 perfbench/spread.py --workloads serve-oltp --seeds 1-5

A summary is written to .bench_out/spread.json.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time


def seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    start = time.time()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    took = time.time() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
    result = json.loads(lines[-1])
    print(f"  {workload} seed {seed}: {took:.1f} s, correct={result['correct']} "
          f"attempted={result['attempted']} failed={result['failed']}", flush=True)
    return result, took


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(metric, first, second):
    """Share by which second is worse than first (negative: better)."""
    if first == 0:
        return 0.0
    if metric["better"] == "lower":
        return (second - first) / first
    return (first - second) / first


def stamp_of(workload, seed, trace):
    """The stamp of the result file the run just wrote, if any."""
    path = os.path.join(".bench_out", f"{workload}.seed{seed}.trace{trace}.json")
    try:
        with open(path) as f:
            return json.load(f).get("stamp")
    except (OSError, ValueError):
        return None


def collect(bench, workloads, seeds, trace):
    runs = {}
    for w in workloads:
        runs[w] = []
        for s in seeds:
            result, took = run_once(bench["command"], w, s, bench["run_seconds"], trace)
            runs[w].append({"seed": s, "seconds": took, "result": result,
                            "stamp": stamp_of(w, s, trace)})
    return runs


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--benchmark", default="BENCHMARK.json")
    ap.add_argument("--workloads", help="comma-separated; default: all of BENCHMARK.json")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--heldout", help="second seed range, compared against the first")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default=os.path.join(".bench_out", "spread.json"))
    args = ap.parse_args()

    with open(args.benchmark) as f:
        bench = json.load(f)
    workloads = (args.workloads.split(",") if args.workloads
                 else [w["name"] for w in bench["workloads"]])
    metrics = bench["end_to_end"] if args.trace == 0 else bench["per_layer"]

    first = collect(bench, workloads, seed_range(args.seeds), args.trace)
    second = collect(bench, workloads, seed_range(args.heldout), args.trace) if args.heldout else None

    summary = {"seeds": args.seeds, "heldout": args.heldout, "workloads": {}}
    ok = True
    for w in workloads:
        print(f"\n{w}: seeds {args.seeds}"
              + (f", held-out {args.heldout}" if args.heldout else ""))
        print(f"  {'metric':<22}{'median':>13}{'q1':>13}{'q3':>13}{'spread':>9}{'bound':>8}"
              + (f"{'held-out':>13}{'moved':>8}" if second else ""))
        rows = {}
        for m in metrics:
            vals = [r["result"]["metrics"][m["name"]]["value"] for r in first[w]]
            med, q1, q3, spr = spread(vals)
            row = {"median": med, "q1": q1, "q3": q3, "spread": spr, "values": vals}
            bound = m.get("bound")
            line = f"  {m['name']:<22}{med:>13.6g}{q1:>13.6g}{q3:>13.6g}{spr:>9.4f}"
            line += f"{bound:>8}" if bound is not None else f"{'-':>8}"
            if bound is not None and m["name"] != "setup_s" and spr > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            if second:
                hvals = [r["result"]["metrics"][m["name"]]["value"] for r in second[w]]
                hmed = statistics.median(hvals)
                moved = worse_by(m, med, hmed)
                row.update({"heldout_median": hmed, "heldout_values": hvals, "moved": moved})
                line += f"{hmed:>13.6g}{moved:>8.4f}"
                if bound is not None and moved > bound:
                    ok = False
                    line += "  HELD-OUT OVER BOUND"
            rows[m["name"]] = row
            print(line)
        secs = [r["seconds"] for r in first[w]]
        print(f"  run wall time: median {statistics.median(secs):.1f} s, max {max(secs):.1f} s")
        summary["workloads"][w] = {"metrics": rows, "run_seconds": secs,
                                   "stamps": [r["stamp"] for r in first[w]]}
    os.makedirs(os.path.dirname(args.out) or ".", exist_ok=True)
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=1)
    print("\nall spreads within bounds" if ok else "\nsome spreads exceed their bounds")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
