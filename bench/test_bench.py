"""Tests of the benchmark itself: request lists, checks, spans and metric names.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import metrics  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402
from verify import Checker, make_spec  # noqa: E402

SEEDS = range(8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_fixes_the_request_list(workload):
    assert workloads.requests(workload, 7) == workloads.requests(workload, 7)
    assert workloads.requests(workload, 7) != workloads.requests(workload, 8)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_every_request_names_a_valid_series(workload):
    for seed in SEEDS:
        for req in workloads.requests(workload, seed):
            assert req["expect"] in ("certify", "partial", "may-fail", "refuse")
            if req["family"] is None:
                continue
            make_spec(req["family"], req["params"])  # raises UsageError when invalid
            if req["kind"] == "cli":
                assert req["argv"][1:3] == ["--family", req["family"]]
                assert all(a.startswith("--") for a in req["argv"][1:] if a != req["family"])


def test_sweep40_covers_every_family_it_names():
    for seed in SEEDS:
        reqs = workloads.sweep40(seed)
        assert {r["family"] for r in reqs} == set(workloads.SWEEP_FAMILIES)
        assert "J1" not in workloads.SWEEP_FAMILIES
        assert all(r["digits"] == 40 and r["expect"] == "certify" for r in reqs)
        assert any(r["kind"] == "api" and isinstance(r["params"]["x"], dict) for r in reqs)


def test_deep1000_covers_every_family_group_it_names():
    for seed in SEEDS:
        reqs = workloads.deep1000(seed)
        assert {r["family"][0] for r in reqs} == {"F", "T", "C", "G", "H", "I"}
        assert {"I2", "I1"} <= {r["family"] for r in reqs}
        assert {"r": 0} in [r["params"] for r in reqs if r["family"] == "I1"]
        assert all(r["digits"] == 1000 for r in reqs)


def test_reproduce_runs_every_registry_row_and_identity():
    from cbcseries.registry import list_examples

    reqs = workloads.reproduce(3)
    assert sorted(r["row"] for r in reqs if r["kind"] == "row") == sorted(
        row.id for row in list_examples())
    assert len([r for r in reqs if r["kind"] == "cli"]) == len(workloads.IDENTITY_N_MAX)


def test_endpoint_adaptive_requests_share_one_cap():
    for req in workloads.endpoints(5):
        if req["argv"][0] == "compare":
            assert f"--max-terms={workloads.ENDPOINT_CAP}" in req["argv"]


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)
    for key, table in (("end_to_end", metrics.END_TO_END), ("per_layer", metrics.PER_LAYER)):
        listed = {m["name"]: (m["unit"], m["better"]) for m in spec[key]}
        assert listed == table


def _compare(family, params, digits=20):
    return {"kind": "cli", "family": family, "params": params, "digits": digits,
            "expect": "certify",
            "argv": ["compare"] + workloads.spec_argv(family, params) + [f"--digits={digits}"]}


def test_checker_accepts_a_true_value_and_rejects_a_wrong_one():
    req = _compare("F3", {"x": "1/2"})
    code, out, err = run.execute(req)
    checker = Checker()
    assert checker.status(req, (code, out, err))["status"] == "certified"
    record = json.loads(out)
    value = record["results"][0]["series_value"]
    digit = "1" if value[8] != "1" else "2"  # off by about 1e-7, far above bound + 1e-15
    record["results"][0]["series_value"] = value[:8] + digit + value[9:]
    assert checker.status(req, (0, json.dumps(record), ""))["status"] == "wrong"


def test_checker_compares_first_terms_with_term_fraction():
    checker = Checker()
    assert checker.first_terms_match(make_spec("G5", {"m": 2, "s": 1, "p": "17"}), 30)
    assert checker.first_terms_match(make_spec("H3", {"x": "-3/8"}), 30)


def test_boundary_partial_sum_is_checked_term_by_term():
    checker = Checker()
    req = {"kind": "cli", "family": "T3", "params": {"phi": "-pi/4"}, "digits": 30,
           "expect": "partial",
           "argv": ["eval", "--family", "T3", "--phi=-pi/4", "--digits=30", "--force-terms=40"]}
    status = checker.status(req, run.execute(req))
    assert status == {"status": "partial", "terms": 41, "detail": ""}


def test_traced_pass_reports_every_per_layer_metric():
    reqs = [_compare("F3", {"x": "1/2"}),
            {"kind": "row", "row": "ex6-F3-x1o2", "family": None, "params": None,
             "digits": 30, "expect": "certify"},
            {"kind": "api", "family": "F1", "params": {"x": {"coeff": "1/2", "radicand": "2"}},
             "digits": 30, "expect": "certify"}]
    checker = Checker()
    untraced = run.run_pass(reqs)
    run.check_pass(reqs, untraced, checker)
    tracer = Tracer()
    with tracer.installed():
        traced = run.run_pass(reqs, tracer)
    run.check_pass(reqs, traced, checker)
    assert all(o["accepted"] for o in traced["outcomes"])
    setup = {"import_s": 0.1, "registry_load_s": 0.01, "launches": 1}
    table = metrics.per_layer(reqs, untraced, traced, tracer.spans, setup)
    assert list(table) == list(metrics.PER_LAYER)
    assert table["registry.rows"]["value"] == 1
    assert table["engine.terms"]["value"] == sum(o["terms"] for o in traced["outcomes"])
    by_id = {s[0]: s for s in tracer.spans}
    for span in tracer.spans:
        if span[1] == "engine.tail_bound":
            assert by_id[span[4]][1] in ("engine.sum_adaptive", "engine.sum_fixed")
        if span[1] == "request":
            assert span[4] is None
        else:
            assert by_id[span[4]][5] == span[5]  # one request id per tree
    from cbcseries import cli, engine

    assert cli.main.__name__ == "main" and not hasattr(cli.main, "__wrapped__")
    assert not hasattr(engine.tail_bound, "__wrapped__")


def test_end_to_end_metrics_are_the_listed_ones():
    reqs = [_compare("F4", {"x": "-1/3"})]
    passes = [run.run_pass(reqs), run.run_pass(reqs)]
    for p in passes:
        run.check_pass(reqs, p, Checker())
    table = metrics.end_to_end(passes, {"setup_s": 0.2, "launches": 1}, 20.0)
    assert list(table) == list(metrics.END_TO_END)
    assert all(m["value"] > 0 for m in table.values())


def test_latency_percentiles_average_each_request_over_passes():
    passes = [{"wall_ns": 10**9, "latencies_ns": [1_000_000, 10_000_000],
               "outcomes": [{"status": "certified"}] * 2},
              {"wall_ns": 10**9, "latencies_ns": [3_000_000, 30_000_000],
               "outcomes": [{"status": "certified"}] * 2}]
    assert metrics.request_means_ms(passes) == [2.0, 20.0]
    table = metrics.end_to_end(passes, {"setup_s": 0.2, "launches": 1}, 20.0)
    for name, p in (("latency_p50_ms", 50), ("latency_p90_ms", 90)):
        assert table[name]["value"] == pytest.approx(metrics.percentile([2.0, 20.0], p))
        assert table[name]["n"] == 4


@pytest.mark.parametrize("x", [
    "1/2",
    pytest.param("-1/2", marks=pytest.mark.xfail(
        strict=True, reason="known defect: past 50,000 terms sum_fixed for C1/C2 "
                            "drops the sign of a negative x (README.md)")),
])
@pytest.mark.parametrize("family", ["C1", "C2"])
def test_bound_mode_past_the_fixed_point_cutoff_is_checked(family, x):
    req = {"kind": "cli", "family": family, "params": {"x": x}, "digits": 20, "expect": "certify",
           "argv": ["eval", "--family", family, f"--x={x}", "--digits=20", "--force-terms=60000"]}
    assert Checker().status(req, run.execute(req))["status"] == "certified"
