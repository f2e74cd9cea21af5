"""Property tests of the integrators on random inputs (hypothesis)."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, seed, settings
from hypothesis import strategies as hs

from relquad import algorithms
from relquad.algorithms import int_naive, int_refined, int_simpson_baseline
from relquad.engine import Status
from relquad.testlib import LK_FAMILIES, divergence_draw, lk_draw
from budget import budget, most_evaluations

INTEGRATORS = (int_naive, int_refined)

lk_cases = hs.tuples(hs.integers(1, 6), hs.integers(0, 10 ** 6),
                     hs.sampled_from((1e-3, 1e-6)))


def _lk(fid, seed, tol):
    fam = LK_FAMILIES[fid - 1]
    fn, exact = lk_draw(fam, seed)
    assume(exact != 0.0)
    return (fn, *fam.domain, tol * abs(exact))


def _assert_mirrored(alg, fn, a, b, tau, s=1.0, reverse=False, **cap):
    """Assert that alg's run on s * fn at |s| * tau, over [b, a] if reverse,
    mirrors its run on fn over [a, b] exactly, and return the latter: q
    times s (and -1 if reverse), eps times |s|, the same neval and status.

    s is +-2^k: every step is linear in the integrand or compares two
    quantities that scale alike, scaling by 2^k rounds nothing, and
    negation is exact and rounds symmetrically in sign.  A run over [b, a]
    is the run over [a, b], negated.
    """
    base = alg(fn, a, b, tau, **cap)
    lo, hi = (b, a) if reverse else (a, b)
    r = alg(lambda x: s * fn(x), lo, hi, abs(s) * tau, **cap)
    assert r.q == (-s if reverse else s) * base.q
    assert (r.eps, r.neval, r.status) == (
        abs(s) * base.eps, base.neval, base.status)
    return base


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases, k=hs.integers(-20, 20))
@example(case=(3, 0, 1e-6), k=6)
def test_power_of_two_scaling_is_exact(alg, case, k):
    _assert_mirrored(alg, *_lk(*case), s=2.0 ** k)


@pytest.mark.parametrize("alg", INTEGRATORS)
def test_power_of_two_scaling_is_exact_far_from_one(alg):
    # at |k| >= 560 the squares of the scaled coefficients overflow or
    # underflow, and a plain norm turns eps into inf or 0; the budget makes
    # a run that never converges fail quickly
    cap = budget(alg, 100_000)
    for fid in range(1, 7):
        fam = LK_FAMILIES[fid - 1]
        for seed in range(3):
            fn, exact = lk_draw(fam, seed)
            for tol in (1e-3, 1e-6):
                for k in (-700, -600, -560, 560, 600, 700):
                    _assert_mirrored(alg, fn, *fam.domain, tol * abs(exact),
                                     s=2.0 ** k, **cap)


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases)
def test_reversed_limits_negate_q(alg, case):
    _assert_mirrored(alg, *_lk(*case), reverse=True)


# a bound p / q, or its integer part, in each accepted real type; Decimal
# bounds are accepted too, as their float() values
BOUND_TYPES = {
    "float16": lambda p, q: np.float16(p / q),
    "float32": lambda p, q: np.float32(p / q),
    "float64": lambda p, q: np.float64(p / q),
    "longdouble": lambda p, q: np.longdouble(p) / np.longdouble(q),
    "int": lambda p, q: p // q,
    "int64": lambda p, q: np.int64(p // q),
    "Fraction": Fraction,
    "Decimal": lambda p, q: Decimal(p) / Decimal(q),
}
bounds = hs.tuples(hs.sampled_from(sorted(BOUND_TYPES)), hs.integers(-48, 48),
                   hs.integers(1, 16)).map(lambda t: BOUND_TYPES[t[0]](*t[1:]))


@pytest.mark.parametrize("alg", INTEGRATORS + (int_simpson_baseline,))
@settings(max_examples=60, deadline=None)
@given(a=bounds, b=bounds)
def test_bounds_of_any_real_type_give_the_result_of_their_floats(alg, a, b):
    # float32 bounds used to make the whole run compute in float32: a
    # Converged q 3.0e-8 off from int_naive, a spent budget from Simpson
    def fn(x):
        return np.exp(np.sin(3.0 * x))

    got = alg(fn, a, b, 1e-10)
    want = alg(fn, float(a), float(b), 1e-10)
    assert type(got.q) is float and type(got.eps) is float
    assert (got.q.hex(), got.eps.hex(), got.neval, got.status) == (
        want.q.hex(), want.eps.hex(), want.neval, want.status)


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases)
def test_negated_integrand_negates_q(alg, case):
    _assert_mirrored(alg, *_lk(*case), s=-1.0)


def _sparse_nan(fn, salt, rate=1 / 64):
    """fn, but NaN wherever a multiplicative hash of x, mixed with salt,
    falls in the lowest `rate` share of its range: deterministic points,
    spread pseudo-randomly and sparsely over the domain."""
    cut = int(rate * 2 ** 64)

    def g(x):
        h = ((hash(float(x)) ^ salt) * 0x9E3779B97F4A7C15) % 2 ** 64
        return math.nan if h < cut else fn(x)

    return g


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases, salt=hs.integers(0, 2 ** 64 - 1))
def test_sparse_nan_nodes_leave_q_and_eps_finite(alg, case, salt):
    # NaN values are masked and downdated away, never summed.  At one point
    # in 64, nearly every run meets some (1,171 of 1,200 in a scan of lk
    # draws), and none loses n of a fit's n + 1 nodes: that is the case
    # of the tests below
    fn, a, b, tau = _lk(*case)
    r = alg(_sparse_nan(fn, salt), a, b, tau)
    assert math.isfinite(r.q) and math.isfinite(r.eps) and r.eps >= 0.0


def _final_intervals(monkeypatch, alg, fn, a, b, tau):
    """alg's result, with the intervals the run ends with: those left on
    the heap and those retired into excess, sorted."""
    states, retired = [], []

    class State(algorithms.AdaptiveState):
        def __init__(self):
            super().__init__()
            states.append(self)

    def accumulate(state, rec, _real=algorithms.accumulate_excess):
        retired.append((rec.a, rec.b))
        _real(state, rec)

    monkeypatch.setattr(algorithms, "AdaptiveState", State)
    monkeypatch.setattr(algorithms, "accumulate_excess", accumulate)
    r = alg(fn, a, b, tau)
    (state,) = states
    return r, sorted(retired + [(rec.a, rec.b) for rec in state.heap])


def _assert_retired_exactly(r, intervals, a, b,
                            status=Status.TOLERANCE_NOT_MET):
    # a split that cannot fit a half, or that gives a divergence verdict,
    # pushes neither half, and its parent is retired whole: the final
    # intervals tile [a, b], each counted once
    ends = [a]
    for lo, hi in intervals:
        assert lo == ends[-1]
        ends.append(hi)
    assert ends[-1] == b
    assert math.isfinite(r.q) and math.isfinite(r.eps) and r.eps >= 0.0
    assert r.status is status


@pytest.mark.parametrize("alg", INTEGRATORS)
def test_nan_on_a_subinterval_is_retired_not_raised(monkeypatch, alg):
    # every node right of 0.5 is NaN: a half there cannot be fitted, which
    # used to raise TooManyNonNumeric out of both integrators
    r, intervals = _final_intervals(
        monkeypatch, alg, lambda x: math.nan if x > 0.5 else x, 0.0, 1.0,
        1e-6)
    _assert_retired_exactly(r, intervals, 0.0, 1.0)


@pytest.mark.parametrize("tol", (1e-3, 1e-6))
def test_dense_scattered_nan_is_retired_not_raised(monkeypatch, tol):
    # NaN at one point in 16 on lk oscillatory draw 3 (salt 3): int_naive
    # meets a degree-4 half with 4 of its 5 nodes NaN, which used to raise;
    # the interval it retires is charged its own eps, which covers the error
    fam = LK_FAMILIES[6 - 1]
    fn, exact = lk_draw(fam, 3)
    (a, b), tau = fam.domain, tol * abs(exact)
    r, intervals = _final_intervals(monkeypatch, int_naive,
                                    _sparse_nan(fn, 3, rate=1 / 16), a, b, tau)
    _assert_retired_exactly(r, intervals, a, b)
    assert abs(r.q - exact) <= r.eps


@pytest.mark.parametrize("alg", INTEGRATORS)
@pytest.mark.parametrize("alpha", (None, -1.2, -1.5, -2.0))
def test_divergent_totals_cover_the_domain(monkeypatch, alg, alpha):
    # the interval whose bisection gives the verdict is retired whole: a
    # verdict on its left half used to drop it from q and eps, and one on
    # its right half to keep only its left half.  x ** -1.5 is inf at the
    # np.float64 node 0, where a Python float would raise
    fn = (lambda x: x ** -1.5) if alpha is None else \
        divergence_draw(alpha, 0, 0)[0]
    r, intervals = _final_intervals(monkeypatch, alg, fn, 0.0, 1.0, 1e-6)
    _assert_retired_exactly(r, intervals, 0.0, 1.0, Status.DIVERGENT)


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases, s=hs.floats(-4.0, 4.0))
def test_shift_moves_q_within_the_reported_errors(alg, case, s):
    # f(. + s) on [a - s, b - s] has the same integral, but every node moves
    # and rounds differently, so only the two error claims bound the change
    fn, a, b, tau = _lk(*case)
    base = alg(fn, a, b, tau)
    moved = alg(lambda x: fn(x + s), a - s, b - s, tau)
    assert abs(moved.q - base.q) <= base.eps + moved.eps


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=25, deadline=None)
@given(k=hs.integers(1, 20), seed=hs.integers(0, 10 ** 6))
@example(k=15, seed=0)  # both integrators end Divergent
def test_negated_singular_integrand_negates_q(alg, k, seed):
    # |x - lam|^alpha, alpha = -0.1 ... -2.0: masked nodes, floors, budget
    # stops and Divergent verdicts mirror too
    fn, exact = divergence_draw(-k / 10.0, seed)
    tau = 1e-6 * abs(exact) if exact is not None else 1e-6
    _assert_mirrored(alg, fn, 0.0, 1.0, tau, s=-1.0, **budget(alg, 10_000))


@pytest.mark.parametrize("alg, max_degree, neval", [
    (int_naive, 16, 33),   # the degree-32 and degree-16 startup fits agree
    (int_refined, 10, 29),  # 11 startup nodes, one forced split (2 x 9 new)
])
@settings(max_examples=100, deadline=None)
@given(data=hs.data(), a=hs.floats(-5.0, 5.0), width=hs.floats(0.125, 8.0))
def test_polynomials_up_to_the_rule_degree_are_exact(alg, max_degree, neval,
                                                     data, a, width):
    coeffs = data.draw(hs.lists(hs.floats(-1.0, 1.0), min_size=1,
                                max_size=max_degree + 1))
    b = a + width

    def poly(x):
        # Horner in the interval's reference variable t in [-1, 1]
        t = (2.0 * x - a - b) / (b - a)
        v = 0.0
        for c in reversed(coeffs):
            v = v * t + c
        return v

    exact = 0.5 * (b - a) * math.fsum(
        2.0 * c / (k + 1) for k, c in enumerate(coeffs) if k % 2 == 0)
    r = alg(poly, a, b, 1e-10)
    assert r.status is Status.CONVERGED
    assert abs(r.q - exact) <= 1e-10
    assert r.neval == neval


# ROADMAP item 8's contract on sums of 1-3 parts, each (kind, scale s,
# centre c, parameter p) over the bounds [lo, hi]: |x - c|^p with p in
# (-1.5, 1), a peak of width 10^p down to 1e-8, a step at c, sin(p x) up
# to p = 1e4, NaN on |x - c| < 10^p, inf at x = c (a bound or the
# midpoint, which a start-up samples), and exp growth to e^p at hi, up to
# the largest float; |s| runs from 1e-300 to 1.7e308, so values and fits
# reach overflow
def _part(kind, s, c, p, lo, hi, x):
    if kind == "power":
        return s * abs(x - c) ** p
    if kind == "peak":
        w = 10.0 ** p
        return s * w / ((x - c) ** 2 + w * w)
    if kind == "step":
        return s if x > c else 0.0
    if kind == "sine":
        return s * np.sin(p * x)
    if kind == "hole":
        return math.nan if abs(x - c) < 10.0 ** p else 0.0
    if kind == "inf":
        return s * math.inf if x == c else 0.0
    return s * np.exp(p * (x - lo) / (hi - lo))  # "exp"


@hs.composite
def contract_cases(draw):
    lo = draw(hs.floats(-10.0, 10.0))
    hi = lo + 10.0 ** draw(hs.floats(-6.0, 1.3))
    centre = hs.floats(lo, hi)
    part = hs.one_of(
        hs.tuples(hs.just("power"), centre,
                  hs.floats(-1.5, 1.0, exclude_min=True, exclude_max=True)),
        hs.tuples(hs.just("peak"), centre, hs.floats(-8.0, 0.0)),
        hs.tuples(hs.just("step"), centre, hs.just(0.0)),
        hs.tuples(hs.just("sine"), hs.just(0.0), hs.floats(0.0, 1e4)),
        hs.tuples(hs.just("hole"), centre, hs.floats(-8.0, -1.0)),
        hs.tuples(hs.just("inf"), hs.sampled_from((lo, hi, 0.5 * (lo + hi))),
                  hs.just(0.0)),
        hs.tuples(hs.just("exp"), hs.just(lo), hs.floats(0.0, 709.7)),
    )
    # log10 |s|, half the time within a factor 1e13 of the largest float
    top = math.log10(1.7e308)
    exponent = hs.one_of(hs.floats(-300.0, top), hs.floats(295.0, top))
    parts = draw(hs.lists(hs.tuples(part, hs.sampled_from((1.0, -1.0)),
                                    exponent), min_size=1, max_size=3))
    tol = 10.0 ** draw(hs.floats(-14.0, 0.0))
    n = draw(hs.sampled_from((None, 50, 500, 5_000)))
    return ([(kind, sign * 10.0 ** e, c, p)
             for (kind, c, p), sign, e in parts], lo, hi, tol, n)


@pytest.mark.parametrize("alg", INTEGRATORS)
@seed(8)
@settings(max_examples=200, deadline=None, database=None)
@given(case=contract_cases())
def test_the_contract_holds_on_random_sums_of_hard_parts(alg, case):
    # a finite q, eps >= 0, Converged only within tau, the budget's bound
    # and exact negation under reversed bounds; tau is relative to the
    # largest scale
    parts, lo, hi, tol, n = case

    def f(x):
        x = np.float64(x)
        return sum(_part(*part, lo, hi, x) for part in parts)

    tau = tol * max(abs(s) for _, s, _, _ in parts)
    cap = {} if n is None else budget(alg, n)
    fwd = _assert_mirrored(alg, f, lo, hi, tau, reverse=True, **cap)
    assert math.isfinite(fwd.q) and fwd.eps >= 0.0
    assert fwd.status is not Status.CONVERGED or fwd.eps <= tau
    if n is not None:
        assert fwd.neval <= most_evaluations(alg, n)
