"""End-to-end metrics of the untraced passes and per-layer metrics of the traced pass.

Each metric is ``{"value", "unit", "n", "note"}``; ``n`` is its sample count.
The names, units and directions below are the ones BENCHMARK.json lists.

A request's latency in a run is its mean over the run's passes, and both
latency percentiles are taken over these per-request means.  A request of a
few milliseconds catches the machine at one speed, and the machine's speed
drifts over seconds; a percentile of pooled samples jumps between those
speeds as their mix changes from run to run, while a mean over passes moves
in proportion to the mix.

The percentiles are Harrell-Davis estimates: a Beta-weighted mean of all
order statistics.  A workload's requests differ in cost by orders of
magnitude, so a single order statistic jumps between request kinds from run
to run; the weighted mean does not.
"""

from __future__ import annotations

import math
import statistics

from mpmath import betainc

from spans import IDENTITY_IDS, children_index, duration_ns, self_ns

# name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "wall_s": ("s", "lower"),
    "goodput_per_s": ("1/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "certified_ratio": ("1", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
FAMILY_GROUPS = ("F", "T", "C", "G", "H", "I")
PER_LAYER = {
    "engine.terms": ("count", "lower"),
    "engine.sum_self_ms": ("ms", "lower"),
    "engine.ns_per_term": ("ns", "lower"),
    **{f"engine.ns_per_term.{g}.d{d}": ("ns", "lower") for d in (40, 1000) for g in FAMILY_GROUPS},
    "engine.fixed_point_ns_per_term": ("ns", "lower"),
    "engine.tail_bound_calls": ("count", "lower"),
    "engine.tail_bound_us": ("us", "lower"),
    "engine.tail_bound_share": ("ratio", "lower"),
    "engine.stop_checks_per_sum": ("ratio", "lower"),
    "engine.refused": ("count", "lower"),
    "engine.capped": ("count", "lower"),
    "engine.capped_ms": ("ms", "lower"),
    "closedforms.calls": ("count", "lower"),
    "closedforms.closed_us": ("us", "lower"),
    "closedforms.share": ("ratio", "lower"),
    "expressions.evaluate_us": ("us", "lower"),
    "registry.rows": ("count", "higher"),
    "registry.row_ms_p50": ("ms", "lower"),
    "registry.row_ms_max": ("ms", "lower"),
    "identities.ms": ("ms", "lower"),
    **{f"identities.ms.{ident}": ("ms", "lower") for ident in IDENTITY_IDS},
    "cli.self_us_per_req": ("us", "lower"),
    "setup.import_s": ("s", "lower"),
    "setup.registry_load_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}
FIXED_POINT_MIN_TERMS = 50_000
# statuses that count as a failed request in fail_ratio
FAILED_STATUSES = ("numeric-failure", "wrong", "error")


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-th percentile of a non-empty sample."""
    ordered = sorted(values)
    n = len(ordered)
    a, b = p / 100 * (n + 1), (1 - p / 100) * (n + 1)
    cdf = [float(betainc(a, b, 0, i / n, regularized=True)) for i in range(n + 1)]
    return sum((cdf[i + 1] - cdf[i]) * x for i, x in enumerate(ordered))


def request_means_ms(passes: list) -> list:
    """Each request's mean latency over the passes, in ms; passes run one list."""
    return [statistics.fmean(col) / 1e6 for col in zip(*(p["latencies_ns"] for p in passes))]


def _metric(table, name, value, n, note=""):
    unit = (END_TO_END.get(name) or PER_LAYER[name])[0]
    table[name] = {"value": value, "unit": unit, "n": n, "note": note}


def _count(run, statuses) -> int:
    return sum(o["status"] in statuses for o in run["outcomes"])


def end_to_end(passes: list, setup: dict, peak_rss_mb: float) -> dict:
    table = {}
    walls = [p["wall_ns"] / 1e9 for p in passes]
    samples = sum(len(p["latencies_ns"]) for p in passes)
    attempted = sum(len(p["outcomes"]) for p in passes)
    certified = sum(_count(p, ("certified",)) for p in passes)
    _metric(table, "setup_s", setup["setup_s"], setup["launches"], "median of fresh launches")
    _metric(table, "wall_s", statistics.median(walls), len(walls), "median pass")
    _metric(table, "goodput_per_s",
            statistics.median(_count(p, ("certified",)) / w for p, w in zip(passes, walls)),
            len(walls), "certified and verified results per second, median pass")
    means = request_means_ms(passes)
    over = f"{len(means)} requests' means over {len(passes)} passes"
    beyond = len(means) - math.ceil(0.9 * len(means))
    _metric(table, "latency_p50_ms", percentile(means, 50), samples, over)
    _metric(table, "latency_p90_ms", percentile(means, 90), samples,
            f"{over}, {beyond} requests beyond")
    _metric(table, "certified_ratio", certified / attempted, attempted,
            "1 - fail_ratio - share of uncertified partial sums")
    _metric(table, "peak_rss_mb", peak_rss_mb, 1)
    return table


def _ratio(num, den):
    return num / den if den else 0.0


def per_layer(reqs: list, untraced: dict, traced: dict, spans: list, setup: dict) -> dict:
    table = {}
    children = children_index(spans)
    by_name = {}
    for span in spans:
        by_name.setdefault(span[1], []).append(span)
    roots = {s[5]: s for s in by_name.get("request", ())}
    adaptive = by_name.get("engine.sum_adaptive", [])
    fixed = by_name.get("engine.sum_fixed", [])
    tails = by_name.get("engine.tail_bound", [])
    sums = adaptive + fixed

    def terms(group):
        return sum(s[6].get("terms") or 0 for s in group)

    def ns_per_term(group):
        return _ratio(sum(self_ns(s, children) for s in group), terms(group))

    _metric(table, "engine.terms", terms(sums), len(sums), "sum of terms_used")
    _metric(table, "engine.sum_self_ms", sum(self_ns(s, children) for s in sums) / 1e6,
            len(sums), "sum spans minus tail_bound")
    _metric(table, "engine.ns_per_term", ns_per_term(sums), len(sums))
    for d in (40, 1000):
        for g in FAMILY_GROUPS:
            group = [s for s in adaptive if s[6]["family"][0] == g and s[6]["digits"] == d]
            _metric(table, f"engine.ns_per_term.{g}.d{d}", ns_per_term(group), len(group))
    fp = [s for s in fixed if s[6]["family"] in ("C1", "C2", "J1")
          and (s[6].get("terms") or 0) > FIXED_POINT_MIN_TERMS]
    _metric(table, "engine.fixed_point_ns_per_term", ns_per_term(fp), len(fp))

    adaptive_ids = {s[0] for s in adaptive}
    stop_checks = [t for t in tails if t[4] in adaptive_ids]
    _metric(table, "engine.tail_bound_calls", len(tails), len(tails))
    _metric(table, "engine.tail_bound_us",
            _ratio(sum(map(duration_ns, tails)), len(tails)) / 1e3, len(tails), "mean per call")
    _metric(table, "engine.tail_bound_share",
            _ratio(sum(map(duration_ns, stop_checks)), sum(map(duration_ns, adaptive))),
            len(adaptive), "of sum_adaptive time")
    _metric(table, "engine.stop_checks_per_sum", _ratio(len(stop_checks), len(adaptive)),
            len(adaptive))
    refused = [s for s in adaptive if s[6].get("error") == "UncertifiedError"]
    capped = [s for s in adaptive if s[6].get("error") == "ConvergenceError"]
    _metric(table, "engine.refused", len(refused), len(adaptive))
    _metric(table, "engine.capped", len(capped), len(adaptive))
    _metric(table, "engine.capped_ms",
            sum(duration_ns(roots[s[5]]) for s in capped) / 1e6, len(capped),
            "whole requests that hit the cap")

    closed = by_name.get("closedforms.closed_value", [])
    _metric(table, "closedforms.calls", len(closed), len(closed))
    _metric(table, "closedforms.closed_us",
            _ratio(sum(map(duration_ns, closed)), len(closed)) / 1e3, len(closed), "mean per call")
    _metric(table, "closedforms.share",
            _ratio(sum(map(duration_ns, closed)), sum(map(duration_ns, roots.values()))),
            len(roots), "of request time")
    evals = by_name.get("expressions.evaluate", [])
    _metric(table, "expressions.evaluate_us",
            _ratio(sum(map(duration_ns, evals)), len(evals)) / 1e3, len(evals), "mean per call")

    rows = [(roots[i][3] - roots[i][2], req["row"]) for i, req in enumerate(reqs)
            if req["kind"] == "row"]
    slowest = max(rows, default=(0, ""))
    _metric(table, "registry.rows", len(rows), len(rows))
    _metric(table, "registry.row_ms_p50",
            statistics.median(ns for ns, _ in rows) / 1e6 if rows else 0.0, len(rows))
    _metric(table, "registry.row_ms_max", slowest[0] / 1e6, len(rows), slowest[1])

    checks = [s for s in spans if s[1].startswith("identities.")]
    _metric(table, "identities.ms", sum(map(duration_ns, checks)) / 1e6, len(checks))
    for ident in IDENTITY_IDS:
        group = by_name.get(f"identities.{ident}", [])
        _metric(table, f"identities.ms.{ident}", sum(map(duration_ns, group)) / 1e6, len(group))

    mains = by_name.get("cli.main", [])
    _metric(table, "cli.self_us_per_req",
            _ratio(sum(self_ns(s, children) for s in mains), len(mains)) / 1e3, len(mains),
            "parsing, spec building, JSON output")
    _metric(table, "setup.import_s", setup["import_s"], setup["launches"])
    _metric(table, "setup.registry_load_s", setup["registry_load_s"], setup["launches"])
    _metric(table, "trace.overhead_ratio", traced["wall_ns"] / untraced["wall_ns"] - 1, 1,
            "traced pass / untraced pass - 1")
    return table


def print_table(workload: str, table: dict, passes: list, failed: int, attempted: int) -> None:
    counts = {}
    for p in passes:
        for o in p["outcomes"]:
            counts[o["status"]] = counts.get(o["status"], 0) + 1
    n = sum(counts.values())
    fail_ratio = sum(counts.get(s, 0) for s in FAILED_STATUSES) / n
    print(f"# workload {workload}: {len(passes)} untraced pass(es), outcomes "
          + ", ".join(f"{k}={v}" for k, v in sorted(counts.items())))
    width = max(len(name) for name in table)
    for name, m in table.items():
        note = f"  ({m['note']})" if m["note"] else ""
        print(f"{name.ljust(width)}  {m['value']:.6g} {m['unit']}  n={m['n']}{note}")
    print(f"{'fail_ratio'.ljust(width)}  {fail_ratio:.6g} 1  n={n}  "
          "(refused, capped, errored or wrong, of attempted)")
    print(f"{'unexpected'.ljust(width)}  {failed} of {attempted} requests")


def print_failures(reqs: list, runs: list) -> None:
    """One line per request whose outcome its expectation does not allow."""
    for run in runs:
        for req, o in zip(reqs, run["outcomes"]):
            if not o["accepted"]:
                what = " ".join(req.get("argv") or [str(req.get("row") or req["family"])])
                print(f"UNEXPECTED {o['status']} (expected {req['expect']}): {what}: "
                      f"{o['detail']}")
