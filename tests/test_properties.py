"""Property tests of the two integrators on random inputs (hypothesis)."""

import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as hs

from relquad.algorithms import NaiveConfig, RefinedConfig, int_naive, int_refined
from relquad.engine import EngineConfig, Status
from relquad.testlib import divergence_draw, lk_draw, lk_family

INTEGRATORS = (int_naive, int_refined)

lk_cases = hs.tuples(hs.integers(1, 6), hs.integers(0, 10 ** 6),
                     hs.sampled_from((1e-3, 1e-6)))


def _lk(fid, seed, tol):
    fam = lk_family(fid)
    fn, exact = lk_draw(fam, seed)
    assume(exact != 0.0)
    return fn, fam.domain, tol * abs(exact)


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases, k=hs.integers(-20, 20))
def test_power_of_two_scaling_is_exact(alg, case, k):
    # every step is linear in the integrand or compares two quantities that
    # scale alike, and scaling by 2^k rounds nothing
    fn, (a, b), tau = _lk(*case)
    s = 2.0 ** k
    base = alg(fn, a, b, tau)
    scaled = alg(lambda x: s * fn(x), a, b, s * tau)
    assert (scaled.q, scaled.eps) == (s * base.q, s * base.eps)
    assert (scaled.neval, scaled.status) == (base.neval, base.status)


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases)
def test_reversed_limits_negate_q(alg, case):
    fn, (a, b), tau = _lk(*case)
    fwd = alg(fn, a, b, tau)
    rev = alg(fn, b, a, tau)
    assert rev.q == -fwd.q
    assert (rev.eps, rev.neval, rev.status) == (fwd.eps, fwd.neval, fwd.status)


def _assert_sign_equivariant(alg, fn, a, b, tau, config=None):
    # negation is exact and rounding is symmetric in sign, so every step
    # on -f mirrors the one on f: q flips, the norms behind eps do not
    pos = alg(fn, a, b, tau, config)
    neg = alg(lambda x: -fn(x), a, b, tau, config)
    assert neg.q == -pos.q
    assert (neg.eps, neg.neval, neg.status) == (pos.eps, pos.neval, pos.status)


@pytest.mark.parametrize("alg", INTEGRATORS)
@settings(max_examples=100, deadline=None)
@given(case=lk_cases)
def test_negated_integrand_negates_q(alg, case):
    fn, (a, b), tau = _lk(*case)
    _assert_sign_equivariant(alg, fn, a, b, tau)


@pytest.mark.parametrize("alg, config", [
    (int_naive, NaiveConfig(engine=EngineConfig(tau=1.0, max_neval=10_000))),
    (int_refined, RefinedConfig(engine=EngineConfig(tau=1.0, max_neval=10_000))),
])
@settings(max_examples=25, deadline=None)
@given(k=hs.integers(1, 20), seed=hs.integers(0, 10 ** 6))
def test_negated_singular_integrand_negates_q(alg, config, k, seed):
    # |x - lam|^alpha, alpha = -0.1 ... -2.0: masked nodes, floors, budget
    # stops and Divergent verdicts mirror too
    fn, exact = divergence_draw(-k / 10.0, seed)
    tau = 1e-6 * abs(exact) if exact is not None else 1e-6
    _assert_sign_equivariant(alg, fn, 0.0, 1.0, tau, config)


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
