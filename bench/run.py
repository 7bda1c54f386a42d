"""cbcseries benchmark: time to a certified value, end to end and per layer.

Run from the root of a checkout:

    python3 bench/run.py --workload sweep40 --seed 1 --seconds 20 --trace 0

One closed-loop client in this process sends each request when the previous
one returns, through the package's public surface (``cli.main`` with
``--format json``, ``registry.run_example``, ``engine.sum_adaptive`` with
``closedforms.closed_value``).  A pass runs the workload's whole request
list; passes repeat while another fits in ``--seconds``.  Every result is
checked afterwards (verify.py), outside the timed region.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` runs one untraced
and one traced pass and prints the per-layer metrics (metrics.py).  A table
with units and sample counts comes first; the last line of stdout is one
JSON object.  A record of the run, with every span of a traced pass, is
written to ``bench/out/``.  The exit code is 0 when every result was
accepted, 1 when one was wrong or failed its expectation, 2 when the
package could not be loaded.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import metrics
import workloads
from spans import Tracer

BENCH_DIR = Path(__file__).resolve().parent
# between the requests of untimed passes, a set-up launch once this many
# seconds have gone by, and at least MIN_LAUNCHES in a run
LAUNCH_EVERY_S = 2.0
MIN_LAUNCHES = 7
_SETUP_CODE = """\
import json, time
t0 = time.perf_counter()
import cbcseries, cbcseries.cli
t1 = time.perf_counter()
cbcseries.registry.list_examples()
t2 = time.perf_counter()
print(json.dumps([t1 - t0, t2 - t1]))
"""


def _load_package(root: Path) -> None:
    """Import cbcseries from the checkout's ``src``, and from nowhere else."""
    src = root / "src"
    if not (src / "cbcseries" / "__init__.py").is_file():
        print(f"error: no cbcseries package under {src}; run from a checkout root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    import cbcseries

    if Path(cbcseries.__file__).resolve().parent != (src / "cbcseries").resolve():
        print(f"error: cbcseries was imported from {cbcseries.__file__}, not {src}",
              file=sys.stderr)
        raise SystemExit(2)


def setup_env(root: Path) -> dict:
    """Environment of a set-up launch: the checkout's ``src`` first on the path.

    Launches may write the bytecode cache even where the environment says not
    to, because a user pays that once per install, not per call.
    """
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(root / "src") + os.pathsep + env.get("PYTHONPATH", "")
    return env


def launch(root: Path, env: dict) -> tuple:
    """One fresh interpreter importing the package and loading the registry.

    Returns (wall, import, registry load) in seconds.
    """
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", _SETUP_CODE], cwd=root, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    wall = time.perf_counter() - t0
    return (wall, *json.loads(proc.stdout))


def summarize_setup(launches: list) -> dict:
    walls, imports, loads = zip(*launches)
    return {"setup_s": statistics.median(walls), "import_s": statistics.median(imports),
            "registry_load_s": statistics.median(loads), "launches": len(launches)}


def execute(req: dict):
    """Send one request; returns (exit code, payload, stderr text)."""
    from cbcseries import cli, closedforms, engine, registry
    from cbcseries.precision import make_context

    if req["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(req["argv"] + ["--format", "json"])
        return code, out.getvalue(), err.getvalue()
    ctx = make_context(req["digits"])
    if req["kind"] == "row":
        return 0, registry.run_example(req["row"], ctx), ""
    from verify import make_spec

    spec = make_spec(req["family"], req["params"])
    try:
        with ctx.workprec():
            target = ctx.real(10) ** (-(req["digits"] + 2))
        result = engine.sum_adaptive(spec, target, ctx)
        return 0, (result, closedforms.closed_value(spec, ctx)), ""
    except (engine.UncertifiedError, engine.ConvergenceError, closedforms.NumericFailure) as exc:
        return 3, None, str(exc)


def run_pass(reqs: list, tracer=None, between=None) -> dict:
    """Send every request once and time each one.

    ``between`` is called before each request, outside its time; the pass's
    wall time is the sum of its requests' latencies.
    """
    latencies, raws = [], []
    for i, req in enumerate(reqs):
        if between is not None:
            between()
        t0 = time.perf_counter_ns()
        try:
            if tracer is None:
                raw = execute(req)
            else:
                tracer.request_id = i
                with tracer.span("request", index=i):
                    raw = execute(req)
        except Exception as exc:  # one crashing request must not end the run
            raw = (-1, None, repr(exc))
        latencies.append(time.perf_counter_ns() - t0)
        raws.append(raw)
    return {"wall_ns": sum(latencies), "latencies_ns": latencies, "raws": raws}


def check_pass(reqs: list, run: dict, checker) -> None:
    """Attach each request's outcome to the pass record."""
    from verify import accepted

    outcomes = []
    for req, raw in zip(reqs, run.pop("raws")):
        outcome = checker.status(req, raw)
        outcome["accepted"] = accepted(req, outcome["status"])
        outcomes.append(outcome)
    run["outcomes"] = outcomes


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in MB.

    Linux folds the launching process's high-water mark into ``ru_maxrss``
    at exec, so the kernel's per-process VmHWM is read where it exists.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    import platform

    import mpmath

    return {
        "python": platform.python_version(),
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "cpu_count": os.cpu_count(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    _load_package(root)
    from verify import Checker

    start = time.perf_counter()
    env = setup_env(root)
    launch(root, env)  # untimed: writes the bytecode cache
    reqs = workloads.requests(args.workload, args.seed)
    checker = Checker()
    passes, launches, traced, tracer = [], [], None, None
    next_launch = 0.0

    def sample_setup():
        # spread over the run, so that the median sees the machine at each of
        # its speeds; one burst of launches would catch only one
        nonlocal next_launch
        if time.perf_counter() >= next_launch:
            launches.append(launch(root, env))
            next_launch = time.perf_counter() + LAUNCH_EVERY_S

    while True:
        t_iter = time.perf_counter()
        passes.append(run_pass(reqs, between=sample_setup))
        check_pass(reqs, passes[-1], checker)
        now = time.perf_counter()
        if args.trace or (now - start) + (now - t_iter) > args.seconds:
            break
    launches += [launch(root, env) for _ in range(MIN_LAUNCHES - len(launches))]
    setup = summarize_setup(launches)
    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced = run_pass(reqs, tracer)
        check_pass(reqs, traced, checker)
    peak_rss = peak_rss_mb()

    runs = passes + ([traced] if traced else [])
    attempted = sum(len(r["outcomes"]) for r in runs)
    failed = sum(not o["accepted"] for r in runs for o in r["outcomes"])
    if args.trace:
        table = metrics.per_layer(reqs, passes[0], traced, tracer.spans, setup)
    else:
        table = metrics.end_to_end(passes, setup, peak_rss)
    metrics.print_table(args.workload, table, passes, failed, attempted)
    metrics.print_failures(reqs, runs)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(), "setup": setup,
        "metrics": table,
        "requests": [dict(req, outcome=o, latency_ms=lat) for req, o, lat in
                     zip(reqs, passes[0]["outcomes"], metrics.request_means_ms(passes))],
    }
    if tracer is not None:
        record["spans"] = tracer.spans
    out_dir = BENCH_DIR / "out"
    out_dir.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record, default=str) + "\n")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": m["value"], "unit": m["unit"]} for name, m in table.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
