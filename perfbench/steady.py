#!/usr/bin/env python3
"""Run the benchmark repeatedly and report how steady each metric is.

Usage (from the repository root):

    python3 perfbench/steady.py --workloads cold_recursion,serve_warm \
        --seeds 1-10 [--trace 0] [--markdown out.md] [--label "..."]

Each run is the command from BENCHMARK.json with
`--workload <w> --seed <n> --seconds <run_seconds> --trace <t>`.  For every
metric the script prints the median, quartiles (Python's
`statistics.quantiles(values, n=4)`), min, max and the spread: the
interquartile distance as a share of the median, next to the metric's
bound.  A spread must stay within the bound; the benchmark aims for a
third of it.
"""

import argparse
import json
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]),
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    if proc.returncode != 0 or not result["correct"]:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}, result {last}")
    return result


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "spread": (q3 - q1) / statistics.median(values),
    }


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--markdown")
    ap.add_argument("--label", default="")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    lines = []
    for workload in args.workloads.split(","):
        values = {}
        for seed in seeds(args.seeds):
            result = run_once(bench, workload, seed, args.trace)
            for name, m in result["metrics"].items():
                values.setdefault(name, (m["unit"], []))[1].append(m["value"])
            print(f"  {workload} seed {seed}: "
                  f"{result['attempted']} checked, {result['failed']} failed",
                  file=sys.stderr)
        head = (f"| {workload} | unit | median | q1 | q3 | min | max | "
                f"spread | bound |")
        lines += ["", head, "|---|---|---|---|---|---|---|---|---|"]
        for name, (unit, vals) in values.items():
            s = summarize(vals)
            bound = bounds.get(name)
            lines.append(
                f"| {name} | {unit} | {s['median']:.6g} | {s['q1']:.6g} | "
                f"{s['q3']:.6g} | {s['min']:.6g} | {s['max']:.6g} | "
                f"{s['spread']:.3f} | {bound if bound is not None else '-'} |")
    text = "\n".join(lines)
    print(text)
    if args.markdown:
        with open(args.markdown, "a") as f:
            f.write(f"\n### {args.label}\n{text}\n")


if __name__ == "__main__":
    main()
