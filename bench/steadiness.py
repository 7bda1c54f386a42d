"""Run the benchmark on several seeds per workload and report how steady it is.

    python3 bench/steadiness.py --runs 10 --first-seed 1 [--workloads reproduce sweep40]
        [--out bench/baseline/steadiness.json]

Runs sequentially, one benchmark process at a time, from the repository root.
For each end-to-end metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread, the
distance between the quartiles as a share of the median, next to the
metric's bound from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS


def summarize(values: list) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        values, failures = {}, 0
        started = time.perf_counter()
        for seed in range(args.first_seed, args.first_seed + args.runs):
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failures += proc.returncode != 0 or not result["correct"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {"runs": args.runs, "first_seed": args.first_seed,
                            "failed_runs": failures,
                            "seconds": time.perf_counter() - started,
                            "metrics": {n: summarize(v) for n, v in values.items()}}
        print(f"{workload}: {args.runs} runs, {failures} failed, "
              f"{report[workload]['seconds']:.0f} s")
        for name, s in report[workload]["metrics"].items():
            flag = "" if s["spread"] < bounds[name] / 3 else "  <- above a third of the bound"
            print(f"  {name:16s} median {s['median']:<12.6g} q1 {s['q1']:<12.6g} "
                  f"q3 {s['q3']:<12.6g} spread {s['spread']:.4f} (bound {bounds[name]}){flag}",
                  flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
