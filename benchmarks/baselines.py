#!/usr/bin/env python3
"""Reference figures for README.md: every integrator on one round of inputs.

    python3 benchmarks/baselines.py [--seed 0]

Runs ``int_naive``, ``int_refined``, ``int_simpson_baseline`` and, when it
can be imported, ``scipy.integrate.quad`` once on every case of each
workload, and prints a markdown table of correct results (by the pass rules
of ``workloads.py``), mean evaluations and microseconds per evaluation.
These figures are not benchmark metrics: Simpson and QUADPACK are foils
with no divergence verdict, run here only to place the two integrators.
scipy's result counts as Converged when ``ier == 0``.
"""

from __future__ import annotations

import argparse
import sys
import time
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from relquad.algorithms import int_simpson_baseline  # noqa: E402

import workloads as W  # noqa: E402
from run import Plan  # noqa: E402


def _ours(alg):
    def integrate(c):
        _, _, fn, config = next(call for call in Plan([c]).calls
                                if call[1] == alg)
        r = fn(c.integrand, c.a, c.b, c.tau, config)
        return r.q, r.eps, r.neval, r.status.value
    return integrate


def _simpson(c):
    r = int_simpson_baseline(c.integrand, c.a, c.b, c.tau,
                             max_neval=c.budget or 100_000)
    return r.q, r.eps, r.neval, r.status.value


def _scipy(c):
    from scipy.integrate import quad
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        q, err, info, *rest = quad(c.integrand, c.a, c.b, epsabs=c.tau,
                                   epsrel=0.0, full_output=1)
    status = "ToleranceNotMet" if rest else "Converged"
    return q, err, info["neval"], status


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    methods = {"naive": _ours("naive"), "refined": _ours("refined"),
               "simpson": _simpson}
    try:
        import scipy.integrate  # noqa: F401
        methods["scipy.quad"] = _scipy
    except ImportError:
        print("scipy not importable: scipy.quad rows skipped")
    print("| workload | cell | method | correct | mean neval | us/eval |")
    print("|---|---|---|---|---|---|")
    for name, build in W.WORKLOADS.items():
        cases = build(args.seed)
        cells = {}
        for c in cases:
            cell = c.label.split("/")[1] if name == "lk" else "all"
            cells.setdefault(cell, []).append(c)
        for cell, group in cells.items():
            for method, fn in methods.items():
                ok = nev = 0
                t0 = time.perf_counter()
                for c in group:
                    q, eps, neval, status = fn(c)
                    ok += W.passes(c, q, eps, status)
                    nev += neval
                busy = time.perf_counter() - t0
                print(f"| {name} | {cell} | {method} | {ok}/{len(group)} | "
                      f"{nev / len(group):.1f} | {1e6 * busy / nev:.2f} |")


if __name__ == "__main__":
    main()
