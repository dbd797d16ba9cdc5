"""Check that the benchmark is steady: run it on several seeds for every
workload in BENCHMARK.json, at its run_seconds, and report, per end-to-end
metric, the median and the spread (distance between the first and third
quartile, as a share of the median) next to the metric's bound.

    python3 bench/steady.py --seeds 10 --save bench/_runs/set-a.json
    python3 bench/steady.py --compare bench/_runs/set-a.json bench/_runs/set-b.json

A metric is steady when its spread is below a third of its bound; rows
that miss this are flagged. setup_s is exempt, since set-up time is not
bounded by its spread. Two sets agree when no median of the second is
worse than the first by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def collect(seeds) -> dict:
    """{workload: [result of one run per seed]}"""
    spec = _spec()
    seconds = spec["run_seconds"]
    runs = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs[workload] = []
        for seed in seeds:
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[workload].append({"seed": seed, **result})
            print(workload, seed, json.dumps(result["metrics"]),
                  file=sys.stderr)
    return runs


def summary(runs: dict) -> dict:
    """{workload: {metric: {"median", "q1", "q3", "spread", "failed_share"}}}"""
    out = {}
    for workload, results in runs.items():
        out[workload] = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4)
            out[workload][name] = {"median": statistics.median(values),
                                   "q1": q1, "q3": q3,
                                   "spread": (q3 - q1) / statistics.median(values)}
        out[workload]["failed_share"] = (
            sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results))
    return out


def print_summary(stats: dict):
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    print("| workload | metric | median | q1 | q3 | spread | bound |")
    print("|---|---|---|---|---|---|---|")
    for workload, metrics in stats.items():
        for name, s in metrics.items():
            if name == "failed_share":
                continue
            flag = "" if name == "setup_s" or s["spread"] < bounds[name] / 3 \
                else " (not steady)"
            print(f"| {workload} | {name} | {s['median']:.4g} | {s['q1']:.4g} "
                  f"| {s['q3']:.4g} | {s['spread']:.3f}{flag} "
                  f"| {bounds[name]} |")
        print(f"| {workload} | failed share | {metrics['failed_share']} "
              "| | | | |")


def compare(first: dict, second: dict):
    bounds = {m["name"]: m["bound"] for m in _spec()["end_to_end"]}
    print("| workload | metric | first median | second median | change "
          "| bound |")
    print("|---|---|---|---|---|---|")
    for workload, metrics in first.items():
        for name, s in metrics.items():
            if name == "failed_share":
                continue
            b = second[workload][name]["median"]
            change = b / s["median"] - 1.0
            flag = " (worse than bound)" if change > bounds[name] else ""
            print(f"| {workload} | {name} | {s['median']:.4g} | {b:.4g} "
                  f"| {change:+.3f}{flag} | {bounds[name]} |")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--save", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (summary(json.loads(p.read_text())["runs"])
                         for p in args.compare)
        compare(first, second)
        return 0
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs = collect(seeds)
    if args.save:
        args.save.parent.mkdir(parents=True, exist_ok=True)
        args.save.write_text(json.dumps({"runs": runs}, indent=1))
    print_summary(summary(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
