"""Checks of the benchmark itself.  Kept out of the package's test suite
(the file name does not match ``test_*.py``); run them with

    python3 -m pytest -q benchmarks/check_bench.py

They take about a minute.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import mpmath
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _inputs(case):
    return case.label, case.a, case.b, case.tau, case.ref


def _failed_cases(cases, ledger):
    return {cases[idx].label for (idx, alg), out in ledger.first.items()
            if out[0] == "raised"
            or not W.passes(cases[idx], out[0], out[1], out[3])}


def _one_round(cases, tracer=None):
    ledger = run.Ledger()
    run.run_round(run.Plan(cases), ledger, W.passes, tracer)
    return ledger


def _traced_round(cases):
    tracer = Tracer(run.INTEGRATORS)
    restore = tracer.install()
    try:
        ledger = _one_round(cases, tracer)
    finally:
        restore()
    return ledger, tracer


@pytest.mark.parametrize("workload,step", [("lk", 7), ("staircase", 5),
                                           ("singular", 9)])
def test_same_seed_same_counts(workload, step):
    cases = W.WORKLOADS[workload](3)[::step]
    again = W.WORKLOADS[workload](3)[::step]
    assert [_inputs(c) for c in cases] == [_inputs(c) for c in again]
    first, second = _one_round(cases), _one_round(cases)
    assert first.first == second.first
    assert (first.neval, first.failed) == (second.neval, second.failed)
    (l1, t1), (l2, t2) = _traced_round(cases), _traced_round(cases)
    assert l1.first == first.first and l2.first == first.first
    assert t1.per_alg == t2.per_alg
    assert t1.per_alg["naive"]["sample.calls"] > 0


def test_seed_changes_seeded_draws_only():
    for build in W.WORKLOADS.values():
        for c1, c2 in zip(build(1), build(2)):
            assert (c1.params == c2.params) == c1.fixed
    assert [c.label for c in W.singular_cases(1) if c.fixed] == [
        f"alpha={-k / 10:.1f}/{i}" for k in range(6, 13)
        for i in range(W.SINGULAR_DRAWS)]


def _quad(f, points):
    with mpmath.workdps(W.MP_DPS):
        return mpmath.quad(f, points, maxdegree=10)


def _mp_lk_integrand(fid, lam, alpha):
    """The lk integrand of family ``fid`` in mpmath arithmetic."""
    ls = [mpmath.mpf(float(v)) for v in lam]
    al = mpmath.mpf(alpha)
    p = mpmath.mpf(10.0 ** alpha)
    if fid == 1:
        return lambda x: abs(x - ls[0]) ** al
    if fid == 2:
        return lambda x: mpmath.exp(al * x) if x > ls[0] else mpmath.mpf(0)
    if fid == 3:
        return lambda x: mpmath.exp(-al * abs(x - ls[0]))
    if fid in (4, 5):
        return lambda x: mpmath.fsum(p / ((x - v) ** 2 + p) for v in ls)
    l0 = float(lam[0])
    beta = mpmath.mpf(10.0 ** alpha / max(l0 ** 2, (1.0 - l0) ** 2))
    return lambda x: (2 * beta * (x - ls[0])
                      * mpmath.cos(beta * (x - ls[0]) ** 2))


@pytest.mark.parametrize("fid", range(1, 7))
def test_lk_references_match_mpmath_quad(fid):
    _, _, (a, b), _, _, _, build = W.LK_FAMILIES[fid - 1]
    for i in range(2):
        lam, alpha = W.lk_params(fid, 0, i)
        with mpmath.workdps(W.MP_DPS):
            _, ref = build(lam, alpha)
            splits = sorted({a, b} | {float(v) for v in lam if a < v < b})
            got = _quad(_mp_lk_integrand(fid, lam, alpha),
                        [mpmath.mpf(x) for x in splits])
        assert abs(got - ref) <= 1e-12 * abs(ref), (fid, i, got, ref)


def test_staircase_reference_matches_mpmath_quad():
    for i in range(2):
        lam = W.staircase_lambda(0, i)
        with mpmath.workdps(W.MP_DPS):
            ml = mpmath.mpf(lam)
            top = int(mpmath.floor(mpmath.exp(ml)))
            pts = [mpmath.mpf(0)] + [mpmath.log(k) for k in range(2, top + 1)]
            got = _quad(lambda x: mpmath.floor(mpmath.exp(x)), pts + [ml])
            ref = W.staircase_ref(lam)
        assert abs(got - ref) <= 1e-15 * abs(ref)


def test_singular_reference_matches_mpmath_quad():
    for k in (2, 5, 7):
        lam = W.singular_lambda(0, k, 0)
        alpha = W.singular_alpha(k)
        with mpmath.workdps(W.MP_DPS):
            ml, al = mpmath.mpf(lam), mpmath.mpf(alpha)
            got = _quad(lambda x: abs(x - ml) ** al, [0, ml, 1])
            ref = W.singular_ref(lam, alpha)
        # tanh-sinh loses digits next to the algebraic singularity
        assert abs(got - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("workload", ["lk", "staircase", "singular"])
def test_short_pass_fails_only_fixed_cases(workload):
    cases = W.WORKLOADS[workload](0)
    ledger = _one_round(cases)
    failed = _failed_cases(cases, ledger)
    if workload == "singular":
        fixed = {c.label for c in cases if c.fixed}
        assert ledger.failed > 0 and failed <= fixed
    else:
        assert ledger.failed == 0


def _last_json(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


def test_run_reports_every_metric(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "TRACE_DIR", tmp_path)
    assert run.main(["--workload", "lk", "--seed", "0", "--seconds", "0.01",
                     "--trace", "0"]) == 0
    res = _last_json(capsys)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0
    assert res["attempted"] == 2 * len(W.lk_cases(0))
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())

    assert run.main(["--workload", "lk", "--seed", "0", "--seconds", "0.01",
                     "--trace", "1"]) == 0
    res = _last_json(capsys)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["correct"] and res["failed"] == 0
    assert list(tmp_path.glob("lk-seed0.npz"))


def test_layer_self_times_add_up_to_the_call():
    cases = W.WORKLOADS["singular"](0)[::25]
    _, tracer = _traced_round(cases)
    nid, self_s, parent = tracer.self_times()
    _, t0, t1 = tracer.arrays()
    calls = [tracer.call_id[a] for a in run.INTEGRATORS]
    roots = [i for i in range(len(nid)) if parent[i] < 0]
    assert all(nid[i] in calls for i in roots)
    assert math.isclose(self_s.sum(), (t1 - t0)[roots].sum(), rel_tol=1e-9)
    assert tracer.per_alg["refined"]["fit.downdates"] > 0
