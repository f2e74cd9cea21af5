"""The contract between the library and the benchmark's tracer.

``benchmarks/tracing.py`` swaps timing and counting wrappers into
``relquad.algorithms`` by name, with fixed call shapes (``enforce_heap_cap``
takes two positional arguments, ``divergence_update`` any).  A signature the
tracer cannot absorb would otherwise show only in a traced benchmark run,
and a wrapped name the library stops calling only as a ZeroDivisionError in
``benchmarks/run.py``'s ``per_layer``.
The tracer is imported from ``benchmarks/`` as it is and not changed.
"""

import importlib
import math
from pathlib import Path

import numpy as np

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


def _outcome(r):
    return r.q.hex(), r.eps.hex(), r.neval, r.status


def test_traced_runs_match_untraced_runs(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    tracing = importlib.import_module("tracing")
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
