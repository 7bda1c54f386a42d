"""Record a baseline: every metric per workload, with terms_used per request.

    python3 bench/record_baseline.py --seed 1 --out bench/baseline/<commit>.json

Runs each of the four workloads once untraced (end-to-end metrics) and once traced
(per-layer metrics), sequentially, from the repository root, and stores both
tables, each request's outcome, terms_used and latency, and the environment:
Python and mpmath versions, the mpmath backend, CPU count and model, the load
average before each run, the seed and the commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

OUT_DIR = Path("bench/out")


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    proc = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() or "unknown"


def _request_label(req: dict) -> str:
    if req.get("argv"):
        return " ".join(req["argv"])
    if req.get("row"):
        return f"row {req['row']}"
    return f"api {req['family']} {json.dumps(req['params'])}"


def main(argv=None) -> int:
    spec = json.loads(Path("BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    record = {"commit": _commit(), "seed": args.seed, "run_seconds": spec["run_seconds"],
              "environment": {"cpu_model": _cpu_model(), "cpu_count": os.cpu_count()},
              "workloads": {}}
    for workload in WORKLOADS:
        entry = {}
        for trace in (0, 1):
            load = os.getloadavg()
            proc = subprocess.run(
                [*spec["command"], "--workload", workload, "--seed", str(args.seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", str(trace)],
                capture_output=True, text=True, timeout=600)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            run = json.loads((OUT_DIR / f"{workload}-seed{args.seed}-trace{trace}.json").read_text())
            record["environment"].update(run["environment"])
            key = "per_layer" if trace else "end_to_end"
            entry[key] = run["metrics"]
            entry[f"{key}_run"] = {"loadavg_before": load, "exit_code": proc.returncode,
                                   "correct": result["correct"], "attempted": result["attempted"],
                                   "failed": result["failed"]}
            if not trace:
                entry["requests"] = [
                    {"request": _request_label(req), "expect": req["expect"],
                     "status": req["outcome"]["status"], "terms_used": req["outcome"]["terms"],
                     "latency_ms": req["latency_ms"]}
                    for req in run["requests"]]
        record["workloads"][workload] = entry
        print(f"{workload}: recorded", flush=True)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
