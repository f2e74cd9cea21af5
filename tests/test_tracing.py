"""The contract between the library and the benchmark's tracer.

``benchmarks/tracing.py`` swaps timing and counting wrappers into
``relquad.algorithms`` by name, with fixed call shapes (``enforce_heap_cap``
takes two positional arguments, ``divergence_update`` any).  A signature the
tracer cannot absorb would otherwise show only in a traced benchmark run,
and a wrapped name the library stops calling only as a ZeroDivisionError in
``benchmarks/run.py``'s ``per_layer``.
The tracer is imported from ``benchmarks/`` as it is and not changed, and
the wrapped names are read from its ``LAYER``: no test lists them again.
``layer_calls`` is the one wrapper of those names.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from relquad import algorithms, engine
from relquad.algorithms import int_naive, int_refined
from relquad.engine import HEAP_CAP, Status

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"

INTEGRATORS = {"naive": int_naive, "refined": int_refined}

# label: integrand, a, b, tau, status.  The staircase holds the heap at its
# cap and evicts; x ** -1.5 ends in a divergence verdict.
CASES = {
    "staircase": (lambda x: np.floor(np.exp(x)), 0.0, 3.0, 1e-5,
                  Status.CONVERGED),
    "divergent": (lambda x: x ** -1.5 if x > 0.0 else math.inf, 0.0, 1.0,
                  1e-3, Status.DIVERGENT),
}


def _import_tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("tracing")


@pytest.fixture
def tracing(monkeypatch):
    return _import_tracing(monkeypatch)


def _outcome(r):
    return r.q.hex(), r.eps.hex(), r.neval, r.status


def test_traced_runs_match_untraced_runs(tracing):
    want = {(alg, label): _outcome(integrate(f, a, b, tau))
            for alg, integrate in INTEGRATORS.items()
            for label, (f, a, b, tau, _) in CASES.items()}

    tracer = tracing.Tracer(tuple(INTEGRATORS))
    restore = tracer.install()
    try:
        got = {}
        for alg, integrate in INTEGRATORS.items():
            for label, (f, a, b, tau, _) in CASES.items():
                got[alg, label] = _outcome(
                    integrate(tracer.begin_call(alg, f), a, b, tau))
    finally:
        restore()

    assert got == want
    for (alg, label), outcome in want.items():
        assert outcome[3] is CASES[label][4], (alg, label)
    for alg in INTEGRATORS:
        counts = tracer.per_alg[alg]
        assert counts["heap_len.max"] == HEAP_CAP, alg
        assert counts["evictions"] > 0, alg
        assert counts["divergent_verdicts"] > 0, alg
        # the denominators of benchmarks/run.py's per_layer metrics
        for name in ("sample", "fit", "select_worst"):
            assert counts[f"{name}.calls"] > 0, (alg, name)
    assert tracer.per_alg["refined"]["refined_error.calls"] > 0
    # every wrapped name is still called through relquad.algorithms
    spanned = {tracer.names[i] for i in set(tracer.arrays()[0].tolist())}
    assert set(tracing.LAYER) <= spanned, set(tracing.LAYER) - spanned
    assert algorithms.enforce_heap_cap is engine.enforce_heap_cap
    assert algorithms.divergence_update is engine.divergence_update


def layer_calls(monkeypatch, integrate, f, a, b, tau):
    """(args, kwargs) of every call the run makes to each name the tracer
    wraps, looked up, as the tracer looks it up, in relquad.algorithms."""
    calls = {name: [] for name in _import_tracing(monkeypatch).LAYER}
    for name, log in calls.items():
        def wrapper(*args, _real=getattr(algorithms, name), _log=log, **kw):
            _log.append((args, kw))
            return _real(*args, **kw)

        monkeypatch.setattr(algorithms, name, wrapper)
    integrate(f, a, b, tau)
    return calls


def test_one_bisection_calls_each_traced_layer_once_per_half(monkeypatch):
    # e^x: the start-up, a fit of [0, 1] and its split into two halves
    calls = layer_calls(monkeypatch, int_refined, np.exp, 0.0, 1.0, 1e-10)
    reuse = [len(kw.get("reuse") or ()) for _, kw in calls["sample"]]
    assert reuse == [0, 2, 2]
    for name in ("refined_error", "divergence_update", "transfer_to_child"):
        assert len(calls[name]) == 2
    assert len(calls["fit"]) == len(calls["integral"]) == 3


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_every_bisection_goes_through_the_traced_names(monkeypatch, alg):
    # one traced run on a 1e-4-wide peak.  The tracer counts a sample call
    # with 2 reused values as a bisection half and one with more as a
    # ladder raise, by len(reuse) and the truth of reuse (which an ndarray
    # would not give); a start-up fit reuses none.  Each half also passes
    # divergence_update and transfer_to_child, and a refined half
    # refined_error.
    calls = layer_calls(monkeypatch, alg,
                        lambda x: 1e-4 / ((x - 0.5) ** 2 + 1e-4), 0.0, 1.0,
                        1e-8)
    halves = raises = 0
    for args, kw in calls["sample"]:
        reuse = kw.get("reuse")
        if reuse is None:
            continue
        assert type(reuse) in (list, tuple)
        assert all(type(v) is float for v in reuse)
        if len(reuse) == 2:
            halves += 1
        else:
            assert len(reuse) == args[3].n // 2 + 1 > 4
            raises += 1
    assert halves > 0 and halves % 2 == 0
    assert (raises > 0) == (alg is int_naive)
    assert len(calls["divergence_update"]) == halves
    assert len(calls["transfer_to_child"]) == halves
    refined = halves if alg is int_refined else 0
    assert len(calls["refined_error"]) == refined
    assert all(log for name, log in calls.items() if name != "refined_error")
