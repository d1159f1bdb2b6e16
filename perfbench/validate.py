#!/usr/bin/env python3
"""Steadiness and time-scale checks for the benchmark, run from the checkout
root. Each check runs `python3 perfbench/run.py` repeatedly and reports.

  # Ten runs per workload, each with its own seed; prints, per end-to-end
  # metric, the median, the quartiles and the spread (q3 - q1) / median next
  # to the metric's bound from BENCHMARK.json.
  python3 perfbench/validate.py steadiness --runs 10 --seed0 1000 \
      --out perfbench/results/steadiness-a.json

  # Median of a second set against the first, per metric and workload.
  python3 perfbench/validate.py compare A.json B.json

  # A steadiness result as markdown tables.
  python3 perfbench/validate.py table perfbench/results/steadiness-a.json

  # Modelled metrics at the chosen time scale and at twice it.
  python3 perfbench/validate.py timescale --runs 3 --workloads metadata,sharing \
      --out perfbench/results/timescale.json
"""

import argparse
import json
import statistics
import subprocess
import sys

MODELLED_SUFFIX = "_vms"


def bench_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(workload, seed, seconds, trace=0, scale_factor=1.0):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--scale-factor", str(scale_factor)]
    out = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=True)
    lines = out.stdout.strip().split("\n")
    result = json.loads(lines[-1])
    # The report's per-pass failure lines ("failure <class>:<CODE> xN").
    result["failures"] = [l.strip() for l in lines if l.startswith("  failure ")]
    return result


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / med if med else 0.0


def steadiness(args):
    spec = bench_spec()
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for i in range(args.runs):
            seed = args.seed0 + i
            result = run_once(workload, seed, seconds)
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs[workload].append({"seed": seed, "correct": result["correct"],
                                   "attempted": result["attempted"],
                                   "failed": result["failed"],
                                   "failures": result["failures"],
                                   "metrics": values})
            print(f"{workload} seed={seed} correct={result['correct']} "
                  f"attempted={result['attempted']} failed={result['failed']} "
                  f"{' '.join(result['failures'])}", flush=True)
    summary = summarize(spec, runs)
    if args.out:
        with open(args.out, "w") as f:
            json.dump({"runs": runs, "summary": summary}, f, indent=1)


def summarize(spec, runs):
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    summary = {}
    for workload, results in runs.items():
        summary[workload] = {}
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':28} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}  verdict")
        for name, bound in bounds.items():
            values = [r["metrics"][name] for r in results]
            med, q1, q3, s = spread(values)
            if s < bound / 3:
                verdict = "ok"
            elif s <= bound:
                verdict = "within bound, above a third"
            else:
                verdict = "TOO NOISY"
            summary[workload][name] = {"median": med, "q1": q1, "q3": q3,
                                       "spread": s, "bound": bound}
            print(f"  {name:28} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{s:7.3f} {bound:6.2f}  {verdict}")
    return summary


def compare(args):
    spec = bench_spec()
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    with open(args.first) as f:
        first = json.load(f)["summary"]
    with open(args.second) as f:
        second = json.load(f)["summary"]
    for workload in first:
        print(f"\n{workload}")
        for name, a in first[workload].items():
            b = second[workload][name]
            change = b["median"] / a["median"] - 1.0 if a["median"] else 0.0
            worse = change if better[name] == "lower" else -change
            verdict = "ok" if worse <= a["bound"] else "WORSE THAN BOUND"
            print(f"  {name:28} {a['median']:12.6g} -> {b['median']:12.6g} "
                  f"({change:+.3f}) bound {a['bound']:.2f}  {verdict}")


def table(args):
    """Markdown tables of a steadiness result, as NOTES.md records them."""
    with open(args.result) as f:
        summary = json.load(f)["summary"]
    for workload, metrics in summary.items():
        print(f"\n{workload}\n")
        print("| metric | median | q1 | q3 | spread | bound |")
        print("|---|---:|---:|---:|---:|---:|")
        for name, m in metrics.items():
            print(f"| {name} | {m['median']:.6g} | {m['q1']:.6g} | "
                  f"{m['q3']:.6g} | {m['spread']:.3f} | {m['bound']:.2f} |")


def timescale(args):
    spec = bench_spec()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = args.seconds or spec["run_seconds"]
    out = {}
    for workload in args.workloads.split(","):
        medians = {}
        for factor in (1.0, 2.0):
            per_run = [run_once(workload, args.seed0 + i, seconds,
                                scale_factor=factor)["metrics"]
                       for i in range(args.runs)]
            medians[factor] = {
                name: statistics.median(r[name]["value"] for r in per_run)
                for name in bounds if name.endswith(MODELLED_SUFFIX)}
        print(f"\n{workload}: modelled metrics at 2x the time scale vs 1x "
              f"(median of {args.runs} runs each)")
        out[workload] = {}
        for name, one in medians[1.0].items():
            two = medians[2.0][name]
            ratio = two / one if one else 0.0
            ok = abs(ratio - 1.0) <= bounds[name]
            out[workload][name] = {"x1": one, "x2": two, "ratio": ratio,
                                   "bound": bounds[name]}
            print(f"  {name:18} x1 {one:12.6g}  x2 {two:12.6g}  "
                  f"ratio {ratio:6.3f}  bound {bounds[name]:.2f}  "
                  f"{'ok' if ok else 'OUTSIDE BOUND'}", flush=True)
    if args.out:
        with open(args.out, "w") as f:
            json.dump(out, f, indent=1)


def main():
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("steadiness")
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seed0", type=int, default=1000)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--workloads", default="")
    p.add_argument("--out", default="")
    p = sub.add_parser("compare")
    p.add_argument("first")
    p.add_argument("second")
    p = sub.add_parser("table")
    p.add_argument("result")
    p = sub.add_parser("timescale")
    p.add_argument("--runs", type=int, default=3)
    p.add_argument("--seed0", type=int, default=2000)
    p.add_argument("--seconds", type=int, default=0)
    p.add_argument("--workloads", default="metadata,sharing")
    p.add_argument("--out", default="")
    args = parser.parse_args()
    {"steadiness": steadiness, "compare": compare, "table": table,
     "timescale": timescale}[args.command](args)


if __name__ == "__main__":
    main()
