"""Acceptance gate: one test per release criterion, one printed verdict line each.

Each test prints "[ACCEPTANCE k] PASS - <label>" (or FAIL) on the real stdout
so the verdict survives pytest's capture.  Reference targets frozen here are
the published benchmark figures the implementation is measured against; the
seeded protocol (100 realizations, seed 0) matches the CLI defaults.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import sys
import time

import numpy as np
import pytest

from relquad.algorithms import (
    Status,
    divergence_ratio_probe,
    int_naive,
    int_refined,
    int_simpson_baseline,
)
from relquad.basis import get_stencil, legendre_values
from relquad.cli import CSV_HEADER, main
from relquad.interp import CountedFunction, fit, sample
from relquad.testlib import (
    BATTERY,
    LK_FAMILIES,
    divergence_draw,
    lk_draw,
)
from budget import budget
from staircase import waldvogel_family_draw

DEGREES = (4, 8, 10, 16, 32)


def eval_series(c, x):
    return legendre_values(len(c) - 1, x) @ c  # sum_k c[k] p_k at x


# Mean-evaluation reference cells for the seeded family benchmark
# (family id, algorithm, tolerance) -> reported mean; window is +/-35%.
REFERENCE_MEAN_NEVAL = {
    (1, "naive", 1e-3): 281.75, (1, "refined", 1e-3): 361.63,
    (2, "naive", 1e-3): 175.30, (2, "refined", 1e-3): 306.80,
    (3, "naive", 1e-3): 113.36, (3, "refined", 1e-3): 99.39,
    (4, "naive", 1e-3): 342.02, (4, "refined", 1e-3): 498.56,
    (5, "naive", 1e-3): 990.57, (5, "refined", 1e-3): 1457.63,
    (6, "naive", 1e-3): 879.37, (6, "refined", 1e-3): 688.98,
    (1, "naive", 1e-6): 870.30, (1, "refined", 1e-6): 993.84,
    (2, "naive", 1e-6): 316.15, (2, "refined", 1e-6): 626.96,
    (3, "naive", 1e-6): 313.78, (3, "refined", 1e-6): 255.25,
    (4, "naive", 1e-6): 616.96, (4, "refined", 1e-6): 766.88,
    (5, "naive", 1e-6): 1840.57, (5, "refined", 1e-6): 2292.21,
    (6, "naive", 1e-6): 1200.88, (6, "refined", 1e-6): 1193.97,
}

INTEGRATORS = {"naive": int_naive, "refined": int_refined}


@pytest.fixture
def verdict(request):
    """Context manager printing one PASS/FAIL line per criterion.

    Writes through pytest's capture manager so the line reaches the terminal
    even for passing tests, where captured output is never replayed.
    """
    capman = request.config.pluginmanager.getplugin("capturemanager")

    def emit(line):
        if capman is None:
            print(line, flush=True)
        else:
            with capman.global_and_fixture_disabled():
                print(line, flush=True)

    @contextlib.contextmanager
    def scope(num: int, label: str):
        try:
            yield
        except BaseException:
            emit(f"\n[ACCEPTANCE {num}] FAIL - {label}")
            raise
        emit(f"\n[ACCEPTANCE {num}] PASS - {label}")

    return scope


def test_criterion_1_basis_quality(verdict):
    with verdict(1, "orthonormal basis, inverse residual, conditioning"):
        t0 = time.perf_counter()
        gl_x, gl_w = np.polynomial.legendre.leggauss(64)
        for n in DEGREES:
            st = get_stencil(n)
            vals = legendre_values(n, gl_x)
            gram = vals.T @ (gl_w[:, None] * vals)
            assert np.max(np.abs(gram - np.eye(n + 1))) <= 1e-12
            resid = st.P @ st.P_inv - np.eye(n + 1)
            assert np.linalg.norm(resid, np.inf) <= 1e-10
            assert st.cond < 1000.0
        assert time.perf_counter() - t0 < 5.0


def test_criterion_2_interpolation_exactness(verdict):
    with verdict(2, "polynomial reproduction, bisection transform, Parseval"):
        ox, ow = np.polynomial.legendre.leggauss(200)
        xs = np.linspace(-1.0, 1.0, 41)
        for n in DEGREES:
            st = get_stencil(n)
            rng = np.random.default_rng(1000 + n)
            scale = np.sqrt(2.0 / (2.0 * np.arange(n + 1) + 1.0))
            for _ in range(100):
                mono = rng.uniform(-1.0, 1.0, n + 1)
                c_true = np.polynomial.legendre.poly2leg(mono) * scale
                vals = np.polynomial.polynomial.polyval(st.nodes, mono)
                c_fit = st.P_inv @ vals
                err = np.linalg.norm(c_fit - c_true, np.inf)
                assert err <= 1e-12 * max(1.0, np.linalg.norm(c_true, np.inf))

            c = rng.standard_normal(n + 1)
            ref = max(1.0, np.max(np.abs(eval_series(c, xs))))
            for tmat, shift in zip(st.t, (-1.0, 1.0)):
                on_child = eval_series(tmat @ c, xs)
                on_parent = eval_series(c, (xs + shift) / 2.0)
                assert np.max(np.abs(on_child - on_parent)) <= 1e-12 * ref

            f_sq = eval_series(c, ox) ** 2
            assert abs(c @ c - ow @ f_sq) <= 1e-10 * max(1.0, c @ c)


def test_criterion_3_node_removal_interpolation(verdict):
    with verdict(3, "single-node removal keeps interpolation at remaining nodes"):
        st = get_stencil(10)
        nodes = np.array(st.nodes)
        rng = np.random.default_rng(31)

        def check(fn, j):
            def masked(x):
                return float("nan") if x == nodes[j] else fn(x)

            sv = sample(CountedFunction(masked), -1.0, 1.0, st)
            assert sorted(sv.nan_mask) == [j]
            cv = fit(sv, st)
            keep = [i for i in range(11) if i != j]
            got = eval_series(cv.c, nodes[keep])
            want = np.array([fn(x) for x in nodes[keep]])
            tol = 1e-10 * max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) <= tol

        for _ in range(20):
            a0, a1, a2 = rng.uniform(-1.0, 1.0, 3)
            b = rng.uniform(-2.0, 2.0)
            w = rng.uniform(0.5, 6.0)
            phase = rng.uniform(0.0, 2.0 * math.pi)

            def smooth(x, a0=a0, a1=a1, a2=a2, b=b, w=w, phase=phase):
                return a0 + a1 * math.exp(b * x) + a2 * math.sin(w * x + phase)

            check(smooth, int(rng.integers(0, 11)))

        check(lambda x: math.sin(x) / x if x != 0.0 else float("nan"), 5)


def test_criterion_4_divergence_probe_ratios(verdict):
    with verdict(4, "interval-halving ratio probe"):
        t0 = time.perf_counter()
        eps_ratio, _ = divergence_ratio_probe(-1.0)
        assert 0.95 <= eps_ratio <= 1.05
        for alpha in (-1.2, -1.5, -2.0):
            eps_ratio, _ = divergence_ratio_probe(alpha)
            assert eps_ratio > 1.0
        for alpha in (-0.3, -0.5):
            _, q_ratio = divergence_ratio_probe(alpha)
            assert q_ratio < 1.0
        assert time.perf_counter() - t0 < 1.0


@pytest.fixture(scope="module")
def lk_table():
    """The seeded family benchmark, run once for the two tests below:
    (family id, algorithm, tolerance) -> (runs Converged within tau out of
    100, mean neval), and the seconds it took."""
    t0 = time.perf_counter()
    table = {}
    for famid in (1, 2, 3, 4, 5, 6):
        fam = LK_FAMILIES[famid - 1]
        a, b = fam.domain
        for tol in (1e-3, 1e-6):
            draws = [lk_draw(fam, 0, i) for i in range(100)]
            for alg, integrate in INTEGRATORS.items():
                n_ok = 0
                total = 0
                for fn, exact in draws:
                    tau = tol * abs(exact)
                    res = integrate(fn, a, b, tau)
                    total += res.neval
                    if res.status is Status.CONVERGED and abs(res.q - exact) <= tau:
                        n_ok += 1
                table[(famid, alg, tol)] = (n_ok, total / 100.0)
    return table, time.perf_counter() - t0


def _cell(famid, alg, tol):
    return f"family {famid} {alg} tol={tol:g}"


def test_criterion_5_family_benchmark_table(verdict, lk_table):
    with verdict(5, "six-family benchmark: correctness floors and mean-cost windows"):
        table, seconds = lk_table
        failures = []
        for key, (n_ok, mean) in table.items():
            ref = REFERENCE_MEAN_NEVAL[key]
            cell = _cell(*key)
            if n_ok < 99:
                failures.append(f"{cell}: {n_ok}/100 correct (floor 99)")
            if not 0.65 * ref <= mean <= 1.35 * ref:
                failures.append(
                    f"{cell}: mean neval {mean:.2f} outside "
                    f"[{0.65 * ref:.2f}, {1.35 * ref:.2f}] (ref {ref})"
                )
        assert seconds < 180.0
        assert not failures, "cells outside targets:\n" + "\n".join(failures)


def test_lk_correctness_floor(lk_table):
    # criterion 5's floor apart from its cost windows: in each cell at
    # least 99 of the 100 runs are Converged within tau
    table, _ = lk_table
    low = [f"{_cell(*key)}: {n_ok}/100 correct"
           for key, (n_ok, _) in table.items() if n_ok < 99]
    assert not low, "cells below the floor:\n" + "\n".join(low)


def test_criterion_6_battery_spot_rows(verdict):
    with verdict(
        6,
        "battery spot rows: cheap f1, staircase f24, non-numeric,"
        " tight-tolerance accuracy f16",
    ):
        t0 = time.perf_counter()

        f1 = BATTERY[1 - 1]
        for integrate in INTEGRATORS.values():
            tau = 1e-3 * abs(f1.reference_value)
            res = integrate(f1.integrand, *f1.domain, tau)
            assert res.status is Status.CONVERGED
            assert abs(res.q - f1.reference_value) <= tau
            assert res.neval <= 40

        f24 = BATTERY[24 - 1]
        tau = 1e-6 * abs(f24.reference_value)
        for integrate in INTEGRATORS.values():
            res = integrate(f24.integrand, *f24.domain, tau)
            assert res.status is Status.CONVERGED
            assert abs(res.q - f24.reference_value) <= tau
        simp = int_simpson_baseline(f24.integrand, *f24.domain, tau)
        assert (
            simp.status is not Status.CONVERGED
            or abs(simp.q - f24.reference_value) > tau
        )

        for fid in (12, 13, 17, 19):
            entry = BATTERY[fid - 1]
            tau = max(1e-6 * abs(entry.reference_value), 1e-6)
            for integrate in INTEGRATORS.values():
                res = integrate(entry.integrand, *entry.domain, tau)
                assert math.isfinite(res.q) and math.isfinite(res.eps)

        assert time.perf_counter() - t0 < 120.0

        # f16, 50/(pi (2500 x^2 + 1)) on [0, 10], is a tight-tolerance
        # accuracy row with no cost bound.  No rule that fits polynomials on
        # bisected intervals can meet 1e-12 in about 35 evaluations: 35-point
        # Gauss-Legendre on [0, 10] is 4.1e-2 off (relative), one interval
        # needs some 250 Gauss points, and a 33-point rule reaches 1e-12 only
        # on [0, w] with w <= 0.2, six bisections of [0, 10], each adding a
        # sibling fit.  The cheapest battery run is already 33 (naive) or 29
        # (refined) evaluations on one interval.
        f16 = BATTERY[16 - 1]
        tau = 1e-12 * abs(f16.reference_value)
        for integrate in INTEGRATORS.values():
            res = integrate(f16.integrand, *f16.domain, tau)
            assert res.status is Status.CONVERGED
            assert abs(res.q - f16.reference_value) <= tau


def test_criterion_7_divergence_detection(verdict):
    with verdict(7, "divergence family: converge, then flag past the boundary"):
        t0 = time.perf_counter()
        counts = {}
        for alpha in (-0.5, -1.0, -1.5, -2.0):
            draws = [divergence_draw(alpha, 0, i) for i in range(100)]
            for alg, integrate in INTEGRATORS.items():
                n_ok = n_div = n_conv = 0
                for fn, exact in draws:
                    tau = 1e-3 * abs(exact) if exact is not None else 1e-3
                    res = integrate(fn, 0.0, 1.0, tau, **budget(integrate, 10_000))
                    if res.status is Status.DIVERGENT:
                        n_div += 1
                    elif res.status is Status.CONVERGED:
                        n_conv += 1
                        if exact is not None and abs(res.q - exact) <= tau:
                            n_ok += 1
                counts[(alpha, alg)] = (n_ok, n_div, n_conv)

        assert counts[(-0.5, "naive")][0] >= 97
        assert counts[(-0.5, "refined")][0] >= 97
        for alpha in (-1.5, -2.0):
            for alg, floor in (("refined", 95), ("naive", 90)):
                n_ok, n_div, n_conv = counts[(alpha, alg)]
                assert n_conv == 0
                assert n_div >= floor
        assert time.perf_counter() - t0 < 120.0


def test_criterion_8_endpoint_spike_family(verdict):
    with verdict(8, "endpoint spike family: both succeed, baseline collapses"):
        t0 = time.perf_counter()
        n_ok = {"naive": 0, "refined": 0}
        n_baseline_fail = 0
        for i in range(100):
            fn, (a, b), exact = waldvogel_family_draw(0, i)
            tau = 1e-6 * abs(exact)
            for alg, integrate in INTEGRATORS.items():
                res = integrate(fn, a, b, tau)
                if res.status is Status.CONVERGED and abs(res.q - exact) <= tau:
                    n_ok[alg] += 1
            simp = int_simpson_baseline(fn, a, b, tau)
            if simp.status is not Status.CONVERGED or abs(simp.q - exact) > tau:
                n_baseline_fail += 1
        assert n_ok["naive"] == 100
        assert n_ok["refined"] == 100
        assert n_baseline_fail >= 60
        assert time.perf_counter() - t0 < 120.0


def test_criterion_9_cli_determinism(verdict, tmp_path):
    with verdict(9, "benchmark CLI is byte-identical under a fixed seed"):
        suites = {
            "lk": ["--mode", "lk", "--runs", "3", "--seed", "11"],
            "battery": ["--mode", "battery", "--alg", "naive,refined", "--tol", "1e-3"],
            "divergence": ["--mode", "divergence", "--runs", "2", "--seed", "11",
                           "--budget", "2000"],
            "probe": ["--mode", "probe"],
        }
        for mode, args in suites.items():
            blobs = []
            for rep in range(2):
                out = tmp_path / f"{mode}_{rep}.csv"
                assert main([*args, "--out", str(out)]) == 0
                blobs.append(out.read_bytes())
            assert blobs[0] == blobs[1]
            rows = list(csv.reader(io.StringIO(blobs[0].decode("utf-8"))))
            assert len(rows) > 1
            if mode != "probe":
                assert rows[0] == list(CSV_HEADER)


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-v"]))
