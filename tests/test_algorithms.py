import math

import numpy as np
import pytest

from relquad.algorithms import (
    NaiveConfig,
    RefinedConfig,
    divergence_ratio_probe,
    int_naive,
    int_refined,
    int_simpson_baseline,
)
from relquad.engine import EngineConfig, Status
from relquad.interp import CountedFunction
from relquad.testlib import battery_get, lk_family, waldvogel_family_draw


def test_exp_costs_match_the_rule_sizes():
    # e^x converges straight from the initial fits: the doubly adaptive
    # integrator spends exactly its 33 startup samples, the bisecting one
    # its 11 startup samples plus one precautionary split (2 x 9 fresh)
    r = int_naive(np.exp, 0.0, 1.0, 1e-10)
    assert r.status is Status.CONVERGED
    assert r.neval == 33
    np.testing.assert_allclose(r.q, math.e - 1.0, rtol=1e-14)

    r = int_refined(np.exp, 0.0, 1.0, 1e-10)
    assert r.status is Status.CONVERGED
    assert r.neval == 29
    np.testing.assert_allclose(r.q, math.e - 1.0, rtol=1e-13)


def test_low_degree_polynomial_no_subdivision():
    r = int_naive(lambda x: x ** 3 - 2.0 * x + 0.25, -1.0, 2.0, 1e-12)
    assert r.neval == 33
    np.testing.assert_allclose(r.q, 0.25 * 15.0 - 2.0 * 1.5 + 0.25 * 3.0,
                               rtol=1e-14)


def test_simpson_exact_on_quadratic():
    r = int_simpson_baseline(lambda x: x * x, 0.0, 2.0, 1e-9)
    assert r.status is Status.CONVERGED
    assert r.neval == 5
    np.testing.assert_allclose(r.q, 8.0 / 3.0, rtol=1e-15)


def test_integrand_scaling_equivariance():
    fam = lk_family(3)
    fn = fam.make_integrand(0.3, 2.0)
    exact = fam.exact(0.3, 2.0)
    base = int_refined(fn, 0.0, 1.0, 1e-8)
    scaled = int_refined(lambda x: 64.0 * fn(x), 0.0, 1.0, 64.0 * 1e-8)
    assert scaled.neval == base.neval
    np.testing.assert_allclose(scaled.q, 64.0 * base.q, rtol=1e-15)
    np.testing.assert_allclose(base.q, exact, rtol=1e-7)


def test_divergent_integrand_is_flagged():
    fn = lambda x: x ** -1.5 if x > 0.0 else float("inf")
    for alg in (int_naive, int_refined):
        r = alg(fn, 0.0, 1.0, 1e-3)
        assert r.status is Status.DIVERGENT
        assert r.neval < 10_000


def test_divergence_flag_sign_equivariant():
    fn = lambda x: x ** -1.5 if x > 0.0 else float("inf")
    neg = lambda x: -fn(x)
    for alg in (int_naive, int_refined):
        rp, rm = alg(fn, 0.0, 1.0, 1e-3), alg(neg, 0.0, 1.0, 1e-3)
        assert rp.status is Status.DIVERGENT
        assert rm.status is Status.DIVERGENT
        assert rp.neval == rm.neval
        np.testing.assert_allclose(rm.q, -rp.q, rtol=1e-15)


def test_heap_cap_keeps_estimates_honest():
    # with a 2-interval heap almost everything is evicted into the excess;
    # the result may honestly miss the tolerance but must not lie about it
    fam = lk_family(3)
    fn = fam.make_integrand(1.0 / 3.0, 4.0)
    exact = fam.exact(1.0 / 3.0, 4.0)
    tau = 1e-6 * exact
    for alg, mk in ((int_refined, RefinedConfig), (int_naive, NaiveConfig)):
        free = alg(fn, 0.0, 1.0, tau)
        capped = alg(fn, 0.0, 1.0, tau,
                     config=mk(engine=EngineConfig(tau=1.0, heap_cap=2)))
        assert free.status is Status.CONVERGED
        assert abs(free.q - exact) <= tau
        assert abs(capped.q - exact) <= capped.eps + tau
        assert abs(capped.q - free.q) <= capped.eps + free.eps


def test_budget_stops_promptly_with_honest_status():
    f13 = battery_get(13)
    for alg, mk in ((int_refined, RefinedConfig), (int_naive, NaiveConfig)):
        for budget in (200, 500):
            cfg = mk(engine=EngineConfig(tau=1.0, max_neval=budget))
            r = alg(f13.integrand, 0.0, 1.0, 1e-9, config=cfg)
            assert r.status is Status.TOLERANCE_NOT_MET
            # the check sits at the loop head, so overshoot is at most one
            # refinement step's worth of samples
            assert budget < r.neval <= budget + 40


@pytest.mark.parametrize("fid", [1, 3, 6, 7, 10, 19])
def test_no_silent_wrong_answers(fid):
    # the defining reliability property: Converged implies within tolerance
    # (and on this subset both integrators do converge at every tolerance)
    bf = battery_get(fid)
    a, b = bf.domain
    for tol in (1e-3, 1e-6, 1e-9):
        tau = tol * abs(bf.reference_value)
        for alg in (int_naive, int_refined):
            r = alg(bf.integrand, a, b, tau)
            assert r.status is Status.CONVERGED
            assert abs(r.q - bf.reference_value) <= tau


@pytest.mark.parametrize("fid", [12, 13, 17, 19])
def test_nonnumeric_values_are_handled(fid):
    bf = battery_get(fid)
    a, b = bf.domain
    tau = 1e-6 * abs(bf.reference_value)
    for alg in (int_naive, int_refined):
        r = alg(bf.integrand, a, b, tau)
        assert math.isfinite(r.q) and math.isfinite(r.eps)
        assert r.status is Status.CONVERGED
        assert abs(r.q - bf.reference_value) <= tau


def test_simpson_fails_silently_on_staircase():
    # the baseline's weakness the two integrators are built to avoid:
    # floor(exp(x)) makes |S2 - S1| vanish by accident and simpson reports
    # convergence with a wrong value
    bf = battery_get(24)
    tau = 1e-6 * bf.reference_value
    r = int_simpson_baseline(bf.integrand, 0.0, 3.0, tau)
    assert r.status is Status.CONVERGED
    assert abs(r.q - bf.reference_value) > tau
    for alg in (int_naive, int_refined):
        rn = alg(bf.integrand, 0.0, 3.0, tau)
        assert rn.status is Status.CONVERGED
        assert abs(rn.q - bf.reference_value) <= tau


def test_staircase_family_draw_end_to_end():
    fn, (a, b), exact = waldvogel_family_draw(99, 1)
    tau = 1e-6 * exact
    for alg in (int_naive, int_refined):
        r = alg(fn, a, b, tau)
        assert r.status is Status.CONVERGED
        assert abs(r.q - exact) <= tau


def test_probe_ratio_follows_scaling_law():
    # halving the interval scales the left-child error estimate by
    # 2^(-1-alpha) and the integral estimate by 2^(-1-alpha) as well
    for alpha in (-0.3, -0.5, -1.0, -1.2, -1.5, -2.0):
        eps_ratio, q_ratio = divergence_ratio_probe(alpha)
        np.testing.assert_allclose(eps_ratio, 2.0 ** (-1.0 - alpha),
                                   rtol=1e-12)
        np.testing.assert_allclose(q_ratio, 2.0 ** (-1.0 - alpha), rtol=1e-12)
    eps_ratio, q_ratio = divergence_ratio_probe(-1.0)
    np.testing.assert_allclose(eps_ratio, 1.0, rtol=1e-12)


def test_probe_input_validation():
    with pytest.raises(ValueError):
        divergence_ratio_probe(0.5)
    with pytest.raises(ValueError):
        divergence_ratio_probe(-2.5)
    with pytest.raises(ValueError):
        divergence_ratio_probe(-0.5, h=0.0)


def test_config_validation():
    with pytest.raises(ValueError):
        NaiveConfig(n0=1)
    with pytest.raises(ValueError):
        NaiveConfig(d_max=0)
    with pytest.raises(ValueError):
        NaiveConfig(hint=0.0)
    with pytest.raises(ValueError):
        NaiveConfig(hint=1.0)
    with pytest.raises(ValueError):
        RefinedConfig(n=3)
    with pytest.raises(ValueError):
        RefinedConfig(theta1=0.99)
    with pytest.raises(ValueError):
        EngineConfig(tau=-1.0)
    with pytest.raises(ValueError):
        EngineConfig(tau=1.0, heap_cap=0)


def test_result_fields_and_status_values():
    r = int_naive(np.exp, 0.0, 1.0, 1e-6)
    assert set(("q", "eps", "neval", "status")) <= set(r.__dataclass_fields__)
    assert r.eps >= 0.0
    assert Status.CONVERGED.value == "Converged"
    assert Status.TOLERANCE_NOT_MET.value == "ToleranceNotMet"
    assert Status.DIVERGENT.value == "Divergent"


def _peak(x):
    return 1e-4 / ((x - 0.5) ** 2 + 1e-4)


PEAK_REF = 0.02 * math.atan(50.0)  # integral of _peak over [0, 1]


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_reversed_interval_negates(alg):
    # over [1, 0] both used to stop after the first fit with a negative eps
    # and a wrong Converged (naive -0.05522, refined -0.03011)
    fwd = alg(_peak, 0.0, 1.0, 1e-8)
    rev = alg(_peak, 1.0, 0.0, 1e-8)
    assert rev.q == -fwd.q
    assert (rev.eps, rev.neval, rev.status) == (fwd.eps, fwd.neval, fwd.status)
    assert rev.status is Status.CONVERGED
    assert 0.0 <= rev.eps <= 1e-8
    assert abs(rev.q + PEAK_REF) <= 1e-8


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_empty_interval_is_exactly_zero(alg):
    # refined used to return eps = 1.8e308 and ToleranceNotMet here
    calls = []
    res = alg(lambda x: calls.append(x) or _peak(x), 0.5, 0.5, 1e-8)
    assert (res.q, res.eps, res.neval, res.status) == (0.0, 0.0, 0,
                                                        Status.CONVERGED)
    assert calls == []


@pytest.mark.parametrize("alg", (int_naive, int_refined))
@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (math.inf, 0.0), (math.nan, 1.0),
                                  (0.0, math.nan), (math.inf, math.inf)])
def test_nonfinite_bounds_rejected_before_any_evaluation(alg, a, b):
    calls = []
    with pytest.raises(ValueError, match="finite"):
        alg(lambda x: calls.append(x) or 1.0, a, b, 1e-6)
    assert calls == []


@pytest.mark.parametrize("alg", (int_naive, int_refined))
@pytest.mark.parametrize("integrand, error", [
    (lambda x: 1.0 / float(x), ZeroDivisionError),
    (math.log, ValueError),
], ids=("float_division", "math_log"))
def test_integrand_exceptions_propagate(alg, integrand, error):
    # nodes arrive as np.float64, whose arithmetic gives a masked inf at a
    # pole; an integrand that computes in Python floats raises there
    # instead, and the exception reaches the caller unchanged, after the
    # evaluations before it
    calls = []
    with pytest.raises(error):
        alg(lambda x: calls.append(x) or integrand(x), 0.0, 1.0, 1e-6)
    assert len(calls) > 1 and calls[-1] == 0.0


@pytest.mark.parametrize("alg, budget", [
    (int_naive,
     lambda n: {"config": NaiveConfig(engine=EngineConfig(1.0, max_neval=n))}),
    (int_refined,
     lambda n: {"config": RefinedConfig(engine=EngineConfig(1.0, max_neval=n))}),
    (int_simpson_baseline, lambda n: {"max_neval": n}),
], ids=("int_naive", "int_refined", "int_simpson_baseline"))
def test_neval_counts_only_this_call(alg, budget):
    # a CountedFunction passed in keeps counting across calls; each result
    # used to report that running count and be charged for it by the budget
    fresh = alg(_peak, 0.0, 1.0, 1e-8)
    fn = CountedFunction(_peak)
    first = alg(fn, 0.0, 1.0, 1e-8)
    second = alg(fn, 0.0, 1.0, 1e-8)
    assert first.neval == second.neval == fresh.neval
    assert fn.count == 2 * fresh.neval
    # a budget the call fits in is not spent by the counter's earlier calls
    capped = alg(fn, 0.0, 1.0, 1e-8, **budget(fresh.neval))
    assert (capped.q, capped.eps, capped.neval, capped.status) == (
        fresh.q, fresh.eps, fresh.neval, fresh.status)
