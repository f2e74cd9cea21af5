import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from relquad import algorithms
from relquad.algorithms import (
    NaiveConfig,
    RefinedConfig,
    _split,
    divergence_ratio_probe,
    int_naive,
    int_refined,
    int_simpson_baseline,
)
from relquad.basis import get_stencil
from relquad.engine import (
    NR_DIVMAX,
    AdaptiveState,
    DivergentIntegral,
    EngineConfig,
    IntervalRecord,
    Status,
)
from relquad.interp import (
    CountedFunction,
    SampleVector,
    TooManyNonNumeric,
    fit,
    integral,
    sample,
)
from relquad.testlib import BATTERY, LK_FAMILIES, lk_draw
from budget import budget, most_evaluations
from staircase import waldvogel_family_draw


def test_exp_costs_match_the_rule_sizes():
    # e^x converges straight from the start-up: the doubly adaptive
    # integrator spends exactly its 33 startup samples, the bisecting one
    # its 11 startup samples plus its first split's (2 x 9 fresh)
    for alg, neval, rtol in ((int_naive, 33, 1e-14), (int_refined, 29, 1e-13)):
        r = alg(np.exp, 0.0, 1.0, 1e-10)
        assert r.status is Status.CONVERGED
        assert r.neval == neval
        np.testing.assert_allclose(r.q, math.e - 1.0, rtol=rtol)
        # an eps exactly at tau converges: the same run at its own eps
        assert alg(np.exp, 0.0, 1.0, r.eps) == r


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
    # a jump is chased to the depth limit, 50 levels of four new nodes each
    r = int_simpson_baseline(lambda x: 1.0 * (x > 0.3), 0.0, 1.0, 1e-300)
    assert r.status is Status.TOLERANCE_NOT_MET
    assert r.neval == 205
    # the halves of |x| are exact, err = 0, at a tol halved to 0.0
    assert int_simpson_baseline(abs, -1.0, 1.0, 5e-324).neval == 9
    # an eps exactly at tau converges: e^x after one step, at its own eps
    r = int_simpson_baseline(np.exp, 0.0, 1.0, 1e-3)
    assert (r.status, r.neval) == (Status.CONVERGED, 5)
    assert int_simpson_baseline(np.exp, 0.0, 1.0, r.eps) == r


def test_divergent_integrand_is_flagged():
    fn = lambda x: x ** -1.5 if x > 0.0 else float("inf")
    for alg in (int_naive, int_refined):
        r = alg(fn, 0.0, 1.0, 1e-3)
        assert r.status is Status.DIVERGENT
        assert r.neval < 10_000


def test_heap_cap_keeps_estimates_honest(monkeypatch):
    # with a 2-interval heap almost everything is evicted into the excess;
    # the result may honestly miss the tolerance but must not lie about it
    fam = LK_FAMILIES[3 - 1]
    fn, exact = fam.draw(1.0 / 3.0, 4.0)
    tau = 1e-6 * exact
    for alg in (int_refined, int_naive):
        free = alg(fn, 0.0, 1.0, tau)
        with monkeypatch.context() as m:
            m.setattr(algorithms, "HEAP_CAP", 2)
            capped = alg(fn, 0.0, 1.0, tau)
        assert free.status is Status.CONVERGED
        assert abs(free.q - exact) <= tau
        assert abs(capped.q - exact) <= capped.eps + tau
        assert abs(capped.q - free.q) <= capped.eps + free.eps


# values near the largest float overflow the fit: the step's at the
# start-up (for int_refined, a half of its first split); the spike's in the
# middle of a run at cap 200, and not at all at caps 2 and 3
OVERFLOWING = {
    "step": lambda x: 1.7e308 if x > 0.5 else -1.7e308,
    "spike": lambda x: (1.7e308 if 0.3 < x < 0.31
                        else math.floor(math.exp(3 * x))),
}


@pytest.mark.parametrize("cap", (2, 3, 200))
@pytest.mark.parametrize("alg", (int_naive, int_refined))
@pytest.mark.parametrize("label", OVERFLOWING)
def test_a_nan_estimate_is_never_popped_and_ends_the_run(monkeypatch, label,
                                                          alg, cap):
    # a fit that overflows is retired as it stands, like one with too few
    # numeric values: no record whose q or eps is not finite is pushed, so
    # none is popped, and the run ends ToleranceNotMet with a finite q
    pushed = []

    def push(state, rec, _real=AdaptiveState.push):
        pushed.append((rec.q, rec.eps))
        _real(state, rec)

    monkeypatch.setattr(AdaptiveState, "push", push)
    monkeypatch.setattr(algorithms, "HEAP_CAP", cap)
    res = alg(OVERFLOWING[label], 0.0, 1.0, 1e-6)
    assert all(math.isfinite(q) and math.isfinite(e) for q, e in pushed)
    assert math.isfinite(res.q) and res.eps >= 0.0
    assert res.status is Status.TOLERANCE_NOT_MET


def test_an_overflowing_start_up_fit_ends_the_run():
    # on the step, int_naive's degree-32 start-up fit overflows (its eps is
    # NaN), and so does the left half of int_refined's first split, whose
    # right half is never sampled (11 + 9 evaluations): the run ends as for
    # a start-up fit with too few numeric values.  1e306 on [0, 300] has an
    # integral of 3e308 while each half's is finite: int_refined's fit of
    # [a, b] overflows before its first split (11 evaluations), where
    # pushing both halves would return q = inf
    for alg, f, b, neval in ((int_naive, OVERFLOWING["step"], 1.0, 33),
                             (int_refined, OVERFLOWING["step"], 1.0, 20),
                             (int_naive, lambda x: 1e306, 300.0, 33),
                             (int_refined, lambda x: 1e306, 300.0, 11)):
        r = alg(f, 0.0, b, 1e-6)
        assert (r.q, r.eps, r.neval, r.status) == (
            0.0, math.inf, neval, Status.TOLERANCE_NOT_MET)


def test_an_overflowing_half_retires_the_interval_being_split(monkeypatch):
    # int_refined meets the spike after its start-up: a half of the interval
    # being split overflows, neither half is pushed, and that interval is
    # retired once with its own finite q and eps, which put the excess past
    # tau and end the run
    retired = []

    def accumulate(state, rec, _real=algorithms.accumulate_excess):
        retired.append(rec)
        _real(state, rec)

    monkeypatch.setattr(algorithms, "accumulate_excess", accumulate)
    r = int_refined(OVERFLOWING["spike"], 0.0, 1.0, 1e-6)
    (rec,) = retired
    assert rec.a < 0.31 and rec.b > 0.3
    assert math.isfinite(rec.q) and 1e-6 < rec.eps < math.inf
    assert math.isfinite(r.q) and rec.eps <= r.eps < math.inf
    assert (r.neval, r.status) == (119, Status.TOLERANCE_NOT_MET)


def test_an_interval_a_few_ulps_wide_converges():
    # e^x on [1, 1 + k ulps]: int_refined used to push its fit of the whole
    # interval with no estimate of its own, which should_drop retired (its
    # nodes collide), and end ToleranceNotMet after 11 evaluations; the
    # halves its start-up pushes carry their own, far within tau
    tau = 1e-12
    for k in (1, 2, 4, 8, 16):
        b = 1.0 + k * 2.0 ** -52
        for alg, neval in ((int_naive, 33), (int_refined, 29)):
            r = alg(np.exp, 1.0, b, tau)
            assert (r.neval, r.status) == (neval, Status.CONVERGED)
            assert abs(r.q - math.e * math.expm1(b - 1.0)) <= tau


def test_an_overflowing_ladder_raise_leaves_the_interval_as_it_was():
    # 1/(1 + 25 x^2) on [-1, 1], but +-1.7e308 at exactly the four nodes a
    # degree-8 raise of [-1, 0] adds: the start-up fit and the first split's
    # degree-4 fits are finite, and the raise of [-1, 0], the worst half,
    # overflows (its eps is inf).  [-1, 0] is retired with its degree-4 q
    # and eps, which put the excess past tau, after 33 + 6 + 4 evaluations
    fresh = [-0.5 + 0.5 * float(x) for x in get_stencil(8).nodes[1::2]]

    def f(x):
        if x in fresh:
            return math.copysign(1.7e308, x + 0.5)
        return 1.0 / (1.0 + 25.0 * x * x)

    r = int_naive(f, -1.0, 1.0, 1e-6)
    assert math.isfinite(r.q) and 1e-6 < r.eps < math.inf
    assert abs(r.q - 0.4 * math.atan(5.0)) <= r.eps
    assert (r.neval, r.status) == (43, Status.TOLERANCE_NOT_MET)


def test_budget_stops_promptly_with_honest_status():
    f13 = BATTERY[13 - 1]
    for alg in (int_refined, int_naive):
        for n in (200, 500):
            r = alg(f13.integrand, 0.0, 1.0, 1e-9, **budget(alg, n))
            assert r.status is Status.TOLERANCE_NOT_MET
            assert n < r.neval <= most_evaluations(alg, n)


# |x - 0.88974|^-0.22143 on [0, 1] at 1e-14: unbudgeted, a run ends
# ToleranceNotMet after 2,645 (naive) or 3,431 (refined) evaluations, so any
# smaller budget stops it
ABS_POWER = lk_draw(LK_FAMILIES[0], 0, 0)[0]


# budgets at which a step, or int_refined's start-up at 12, takes the
# draw's run to the bound: evaluations
AT_BOUND = {int_naive: {70: 91}, int_refined: {12: 29, 30: 47, 48: 65}}


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_budget_overrun_is_bounded_and_reached(alg):
    for n in range(0, 121):
        r = alg(ABS_POWER, 0.0, 1.0, 1e-14, **budget(alg, n))
        assert r.status is Status.TOLERANCE_NOT_MET
        bound = most_evaluations(alg, n)
        assert max(n, 1) <= r.neval <= bound
        if n in AT_BOUND[alg]:
            assert r.neval == AT_BOUND[alg][n] == bound


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_reversed_bounds_with_a_budget_negate(alg):
    # the budget is read once, for the run over [0, 1] that [1, 0] makes
    fwd = alg(ABS_POWER, 0.0, 1.0, 1e-14, **budget(alg, 70))
    rev = alg(ABS_POWER, 1.0, 0.0, 1e-14, **budget(alg, 70))
    assert rev.q.hex() == (-fwd.q).hex()
    assert (rev.eps.hex(), rev.neval, rev.status) == (
        fwd.eps.hex(), fwd.neval, fwd.status)
    assert fwd.status is Status.TOLERANCE_NOT_MET
    assert fwd.neval == (91 if alg is int_naive else 83)


@pytest.mark.parametrize("fid", [1, 3, 6, 7, 10, 19])
def test_no_silent_wrong_answers(fid):
    # the defining reliability property: Converged implies within tolerance
    # (and on this subset both integrators do converge at every tolerance)
    bf = BATTERY[fid - 1]
    a, b = bf.domain
    for tol in (1e-3, 1e-6, 1e-9):
        tau = tol * abs(bf.reference_value)
        for alg in (int_naive, int_refined):
            r = alg(bf.integrand, a, b, tau)
            assert r.status is Status.CONVERGED
            assert abs(r.q - bf.reference_value) <= tau


@pytest.mark.parametrize("fid", [12, 13, 17, 19])
def test_nonnumeric_values_are_handled(fid):
    bf = BATTERY[fid - 1]
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
    bf = BATTERY[24 - 1]
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
    for alpha in (0.5, 0.0, -2.5):
        with pytest.raises(ValueError):
            divergence_ratio_probe(alpha)


def test_ladder_reuse_of_inf_or_nan_gives_the_same_fit():
    # a raise reuses its record's values as evaluated, so a masked node
    # comes back as the integrand's inf or NaN: f, mask, count and fit are
    # the same bit for bit whichever it was
    rng = np.random.default_rng(7)
    for n in (4, 8, 16):
        st_hi = get_stencil(2 * n)
        for mask in ((), (0,), (1, n), tuple(range(0, n + 1, 3))):
            base = rng.standard_normal(n + 1).tolist()
            fresh = rng.standard_normal(n).tolist()
            got = []
            for bad in (math.nan, math.inf, -math.inf):
                reuse = [bad if i in mask else v for i, v in enumerate(base)]
                values = iter(fresh)
                fn = CountedFunction(lambda x: next(values))
                sv = sample(fn, 0.0, 1.0, st_hi, reuse=reuse)
                cv = fit(sv, st_hi)
                assert fn.count == n
                got.append((sv.f.tobytes(), sv.nan_mask, cv.c.tobytes(),
                            cv.eff_degree, cv.newton.tobytes()))
            assert got[0] == got[1] == got[2]
            assert got[0][1] == tuple(2 * i for i in mask)


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_reusing_values_as_evaluated_matches_nan_reuse(monkeypatch, alg):
    # reused values keep the integrand's inf where a node was masked; a run
    # fed NaN there instead gives the same result bit for bit
    def integrand(x):
        return x ** -0.5 + (math.inf if abs(x - 0.625) < 1e-3 else 0.0)

    want = alg(integrand, 0.0, 1.0, 1e-8)
    infs = []

    def nan_reuse(fn, a, b, stencil, reuse=None, _real=algorithms.sample):
        if reuse:
            infs.extend(v for v in reuse if math.isinf(v))
            reuse = [v if math.isfinite(v) else math.nan for v in reuse]
        return _real(fn, a, b, stencil, reuse=reuse)

    monkeypatch.setattr(algorithms, "sample", nan_reuse)
    got = alg(integrand, 0.0, 1.0, 1e-8)
    assert infs
    assert (got.q.hex(), got.eps.hex(), got.neval, got.status) == (
        want.q.hex(), want.eps.hex(), want.neval, want.status)


@pytest.mark.parametrize("config", [
    lambda: NaiveConfig(n0=4),
    lambda: RefinedConfig(n=10),
    lambda: RefinedConfig(theta1=1.1),
    lambda: NaiveConfig(EngineConfig(tau=1.0)),
], ids=("n0", "n", "theta1", "positional"))
def test_configs_take_only_the_engine_keyword(config):
    # the rule parameters are module constants; a positional argument would
    # otherwise be read as the engine
    with pytest.raises(TypeError):
        config()


def test_package_names_are_the_submodule_objects():
    import relquad
    from relquad import engine

    for name in relquad.__all__:
        module = algorithms if name in algorithms.__all__ else engine
        assert getattr(relquad, name) is getattr(module, name), name
    with pytest.raises(AttributeError):
        relquad.no_such_name


def test_result_fields_and_status_values():
    r = int_naive(np.exp, 0.0, 1.0, 1e-6)
    assert set(("q", "eps", "neval", "status")) <= set(r.__dataclass_fields__)
    assert r.eps >= 0.0
    assert r.status is Status.CONVERGED


def _peak(x):
    return 1e-4 / ((x - 0.5) ** 2 + 1e-4)


PEAK_REF = 0.02 * math.atan(50.0)  # integral of _peak over [0, 1]


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_reversed_interval_negates(alg):
    # over [1, 0] int_naive and int_refined used to stop after the first fit
    # of the peak with a negative eps and a wrong Converged (naive -0.05522,
    # refined -0.03011); Simpson used to recurse with negative widths, and
    # on the kink_exp draw its eps differed from the forward run's in the
    # last bits
    fam = LK_FAMILIES[3 - 1]
    kink, exact = lk_draw(fam, 0, 0)
    for fn, (a, b), tau in ((kink, fam.domain, 1e-6 * abs(exact)),
                            (_peak, (0.0, 1.0), 1e-8)):
        fwd = alg(fn, a, b, tau)
        rev = alg(fn, b, a, tau)
        assert rev.q == -fwd.q
        assert (rev.eps, rev.neval, rev.status) == (
            fwd.eps, fwd.neval, fwd.status)
    assert rev.status is Status.CONVERGED
    assert 0.0 <= rev.eps <= 1e-8
    assert abs(rev.q + PEAK_REF) <= 1e-8


@pytest.mark.parametrize("budget", (0, 4, 100))
def test_simpson_stopped_by_its_budget_has_no_error_bound(budget):
    # a piece the budget leaves unrefined used to be charged eps = 0.0, so
    # at budget 4 the run returned eps 0 with its error near 1e-3
    res = int_simpson_baseline(math.exp, 0.0, 1.0, 1e-12, max_neval=budget)
    assert res.eps == math.inf
    assert res.status is Status.TOLERANCE_NOT_MET
    assert res.neval <= most_evaluations(int_simpson_baseline, budget)


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_empty_interval_is_exactly_zero(alg):
    # refined used to return eps = 1.8e308 and ToleranceNotMet here, and
    # Simpson to evaluate 5 nodes
    calls = []
    res = alg(lambda x: calls.append(x) or _peak(x), 0.5, 0.5, 1e-8)
    assert (res.q, res.eps, res.neval, res.status) == (0.0, 0.0, 0,
                                                        Status.CONVERGED)
    assert calls == []


TAU = (ValueError, "tau must be positive")


def _assert_rejected(alg, a, b, tau, error, match, n=None):
    """alg(f, a, b, tau), with a budget of n unless n is None, raises error,
    matching match, before it evaluates f."""
    calls = []
    with pytest.raises(error, match=match):
        alg(lambda x: calls.append(x) or 1.0, a, b, tau,
            **({} if n is None else budget(alg, n)))
    assert calls == []


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (math.inf, 0.0), (math.nan, 1.0),
                                  (0.0, math.nan), (math.inf, math.inf),
                                  (-1e308, 1e308), (1e308, -1e308),
                                  pytest.param(10 ** 400, 0.0,
                                               id="10**400-0.0"),
                                  pytest.param(0, -10 ** 400,
                                               id="0--10**400"),
                                  pytest.param(Fraction(10 ** 400), 1,
                                               id="Fraction(10**400)-1")])
def test_nonfinite_bounds_rejected_before_any_evaluation(alg, a, b):
    # a bound too large for a float used to raise OverflowError
    _assert_rejected(alg, a, b, 1e-6, ValueError, "finite")


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
@pytest.mark.parametrize("a, b", [("0", "1"), (0.0, "1"), (b"0", b"1"),
                                  (bytearray(b"0"), 1.0),
                                  (np.complex128(1j), 1.0),
                                  (0.0, np.complex64(1.0)), (0.0, 1 + 0j)],
                         ids=repr)
def test_string_bounds_rejected_before_any_evaluation(alg, a, b):
    # float() parses a string, but a bound is a number; it drops the
    # imaginary part of an np.complex128 with only a warning, but a bound
    # is a real number
    _assert_rejected(alg, a, b, 1e-6, TypeError, "real number")


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
@pytest.mark.parametrize("tau", (-1.0, 0.0, math.nan, Decimal("NaN")))
def test_tau_not_positive_rejected_before_any_evaluation(alg, tau):
    # int_simpson_baseline used to run: to its budget at -1.0 and NaN, and
    # to Converged after 22,053 evaluations at 0.0; a Decimal NaN used to
    # raise decimal.InvalidOperation from the comparison with 0.0
    _assert_rejected(alg, 0.0, 1.0, tau, *TAU)


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_tau_is_checked_before_the_bounds(alg):
    # both are wrong: the tau error is raised
    _assert_rejected(alg, math.nan, math.nan, math.nan, *TAU)


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_tau_is_converted_then_checked(alg):
    # a string or complex tau is not converted, whatever its value, so a
    # complex one whose real part is not above 0 raises TypeError too; a
    # tau of another real type gives the result of its float value, and
    # one too large for a float that of inf
    for tau in ("1e-6", np.complex128(1e-6 + 5j), np.complex128(-1.0)):
        _assert_rejected(alg, 0.0, 1.0, tau, TypeError, "real number")
    tau = np.float32(1e-6)
    assert alg(np.exp, 0.0, 1.0, tau) == alg(np.exp, 0.0, 1.0, float(tau))
    assert alg(np.exp, 0.0, 1.0, 10 ** 400) == alg(np.exp, 0.0, 1.0, math.inf)


@pytest.mark.parametrize("n", (math.nan, math.inf, -5, 2.5, 100.0, True,
                               False, np.True_), ids=repr)
@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_bad_budget_raises_before_any_evaluation(alg, n):
    # NaN, negative, non-integer and bool budgets: a NaN one used to turn
    # Simpson's budget off (on 1/x: 103,741 evaluations and q = nan), and
    # True was a budget of 1
    _assert_rejected(alg, 0.0, 1.0, 1e-6, ValueError, "max_neval", n)


@pytest.mark.parametrize("alg, neval", [(int_naive, 17), (int_refined, 11)])
@pytest.mark.parametrize("integrand", [
    lambda x: math.nan,
    lambda x: 0.0 if x == 0 else math.nan,
], ids=("nan", "nan_unless_zero"))
def test_startup_fit_that_cannot_be_made_returns(alg, neval, integrand):
    # with at most one numeric start-up node both used to raise
    # TooManyNonNumeric; each stops after its first fit's evaluations, and
    # int_naive never samples the 16 nodes its degree-32 raise would add
    res = alg(integrand, 0.0, 1.0, 1e-6)
    assert (res.q, res.eps, res.neval, res.status) == (
        0.0, math.inf, neval, Status.TOLERANCE_NOT_MET)


def test_startup_half_that_cannot_be_fitted_returns():
    # int_refined's start-up ends with its first split: every node right of
    # 0.5 is NaN, the right half cannot be fitted, and the run ends as for
    # a start-up fit that cannot be made, after 11 + 2 x 9 evaluations
    res = int_refined(lambda x: math.nan if x > 0.5 else x, 0.0, 1.0, 1e-6)
    assert (res.q, res.eps, res.neval, res.status) == (
        0.0, math.inf, 29, Status.TOLERANCE_NOT_MET)


def test_startup_lower_fit_that_cannot_be_made_returns():
    # numeric at odd nodes of the 33-point rule only: the degree-32 fit could
    # be made, the degree-16 fit on the even nodes cannot, and the run ends
    # after its 17 values, before the raise to degree 32 samples
    odd = set(sample(CountedFunction(lambda x: x), 0.0, 1.0,
                     get_stencil(32)).values[1::2])
    res = int_naive(lambda x: x if x in odd else math.nan, 0.0, 1.0, 1e-6)
    assert (res.q, res.eps, res.neval, res.status) == (
        0.0, math.inf, 17, Status.TOLERANCE_NOT_MET)


def _fit_lower_by_slicing(sv, st_lo):
    """The start-up's degree-16 fit as once made from the degree-32
    samples: their even-indexed nodes, with the masked indices halved."""
    return fit(SampleVector(sv.f[::2].copy(), tuple(
        i // 2 for i in sv.nan_mask if i % 2 == 0), sv.values[::2]), st_lo)


def _fit_bytes(cv):
    return cv.c.tobytes(), cv.eff_degree, cv.newton.tobytes()


@pytest.mark.parametrize("nan_at", [(), (0, 6, 32), (1, 15, 31),
                                    (0, 3, 16, 17, 29, 32)],
                         ids=("none", "even", "odd", "both"))
def test_nested_startup_samples_fit_as_the_sliced_ones(nan_at):
    # sampling the degree-16 rule, then the degree-32 rule reusing its
    # values, gives both fits byte for byte as slicing the degree-32 samples
    st_lo, st_top = get_stencil(16), get_stencil(32)
    xs = sample(CountedFunction(lambda x: x), 0.0, 1.0, st_top).values
    ys = np.random.default_rng(len(nan_at)).standard_normal(33)
    ys[list(nan_at)] = math.nan
    table = dict(zip(xs, ys.tolist()))

    def g(x):
        return table[float(x)]

    sv = sample(CountedFunction(g), 0.0, 1.0, st_top)
    fn = CountedFunction(g)
    sv_lo = sample(fn, 0.0, 1.0, st_lo)
    sv_top = sample(fn, 0.0, 1.0, st_top, reuse=sv_lo.values)
    assert fn.count == 33
    assert sv_top.nan_mask == sv.nan_mask == nan_at
    assert _fit_bytes(fit(sv_top, st_top)) == _fit_bytes(fit(sv, st_top))
    assert (_fit_bytes(fit(sv_lo, st_lo))
            == _fit_bytes(_fit_lower_by_slicing(sv, st_lo)))


def test_startup_samples_the_lower_rule_then_reuses_it(monkeypatch):
    # int_naive's first two sample calls: the degree-16 rule afresh, then
    # the degree-32 rule with those 17 values; 33 evaluations in all
    seen = []

    def wrapper(fn, a, b, stencil, reuse=None, _real=algorithms.sample):
        sv = _real(fn, a, b, stencil, reuse=reuse)
        seen.append((stencil.n, reuse, sv.values, fn.count))
        return sv

    monkeypatch.setattr(algorithms, "sample", wrapper)
    int_naive(np.exp, 0.0, 1.0, 1e-10)
    (n_lo, reuse_lo, values_lo, count_lo), (n_top, reuse_top, _, count) = seen
    assert (n_lo, reuse_lo, count_lo) == (16, None, 17)
    assert (n_top, len(reuse_top), count) == (32, 17, 33)
    assert reuse_top == values_lo


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
@pytest.mark.parametrize("integrand, error, bad", [
    (lambda x: 1.0 / float(x), ZeroDivisionError, lambda x: x == 0.0),
    (math.log, ValueError, lambda x: x == 0.0),
    (lambda x: 10**400 if x > 0.5 else 1, OverflowError, lambda x: x > 0.5),
], ids=("float_division", "math_log", "int_beyond_float"))
def test_integrand_exceptions_propagate(alg, integrand, error, bad):
    # nodes arrive as np.float64, whose arithmetic gives a masked inf at a
    # pole; an integrand that computes in Python floats raises there
    # instead, and the exception reaches the caller unchanged, from the
    # first node where the integrand is bad.  An int too large for a float
    # raises OverflowError where the integrators convert it with float():
    # it is not read as inf and masked
    calls = []
    with pytest.raises(error):
        alg(lambda x: calls.append(x) or integrand(x), 0.0, 1.0, 1e-6)
    assert [bad(x) for x in calls] == [False] * (len(calls) - 1) + [True]


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_every_integrator_passes_its_nodes_as_float64(alg):
    # on Python floats x ** -0.5 raises ZeroDivisionError at 0.0, and the
    # Simpson baseline used to evaluate its nodes as Python floats; on
    # np.float64 it is inf there, which int_naive and int_refined mask and
    # which makes Simpson, masking nothing, end ToleranceNotMet with q = nan
    types = set()
    r = alg(lambda x: types.add(type(x)) or x ** -0.5, 0.0, 1.0, 1e-3)
    assert types == {np.float64}
    if alg is int_simpson_baseline:
        assert r.status is Status.TOLERANCE_NOT_MET
        assert not math.isfinite(r.q)
    else:
        assert r.status is Status.CONVERGED
        assert abs(r.q - 2.0) <= 1e-3


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_neval_counts_only_this_call(alg):
    # a CountedFunction passed in keeps counting across calls; each result
    # used to report that running count and be charged for it by the budget
    fresh = alg(_peak, 0.0, 1.0, 1e-8)
    fn = CountedFunction(_peak)
    first = alg(fn, 0.0, 1.0, 1e-8)
    second = alg(fn, 0.0, 1.0, 1e-8)
    assert first.neval == second.neval == fresh.neval
    assert fn.count == 2 * fresh.neval
    # a budget the call fits in is not spent by the counter's earlier calls
    capped = alg(fn, 0.0, 1.0, 1e-8, **budget(alg, fresh.neval))
    assert (capped.q, capped.eps, capped.neval, capped.status) == (
        fresh.q, fresh.eps, fresh.neval, fresh.status)


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
def test_integer_budgets_are_accepted(alg):
    # a numpy integer budget stops the run as the same int does
    want = alg(_peak, 0.0, 1.0, 1e-6, **budget(alg, 40))
    assert alg(_peak, 0.0, 1.0, 1e-6, **budget(alg, np.int64(40))) == want
    assert want.status is Status.TOLERANCE_NOT_MET


@pytest.mark.parametrize("side, neval, refined, n_par, n", [
    (0, 9, True, 10, 10), (1, 18, True, 10, 10),
    (0, 3, False, 4, 4), (1, 6, False, 4, 4),
    (0, 3, False, 32, 4), (1, 6, False, 32, 4),
], ids=("0-9", "1-18", "naive4-0-3", "naive4-1-6", "naive32-0-3",
        "naive32-1-6"))
def test_split_pushes_both_halves_or_neither(side, neval, refined, n_par, n):
    # a half with all but one of its nodes NaN cannot be fitted, and a half
    # whose integral does not shrink below q_base on a chain at its
    # divergence limit gives a verdict: either way _split raises before
    # pushing either half, so the driver can retire the parent as it
    # stands; a left half that fails stops the split before the right half
    # is sampled.  A half of degree n evaluates its n - 1 inner nodes.
    def nan_on_side(x):
        inside = x < 0.5 if side == 0 else x > 0.5
        return math.nan if inside else x

    def ramp(x):
        # the half on `side` integrates to 0.375, the other to 0.125
        return x if side else 1.0 - x

    st_par, st = get_stencil(n_par), get_stencil(n)
    for g, nr_div, error in ((nan_on_side, 0, TooManyNonNumeric),
                             (ramp, NR_DIVMAX, DivergentIntegral)):
        sv = sample(CountedFunction(g), 0.0, 1.0, st_par)
        cv = fit(sv, st_par)
        rec = IntervalRecord(a=0.0, b=1.0, samples=sv, coeffs=cv,
                             q=integral(cv, 0.0, 1.0), eps=1.0, q_base=0.25,
                             nr_div=nr_div)
        fn = CountedFunction(g)
        state = AdaptiveState()
        with pytest.raises(error):
            _split(state, fn, rec, st, refined)
        assert len(state.heap) == 0 and len(state.eps) == 0
        assert fn.count == neval


# the pole of |x - LAM|^alpha (lk family abs_power) in a draw of the
# benchmark's singular workload
LAM = 0.48302788072533803


@pytest.mark.parametrize("alg", (int_naive, int_refined))
@pytest.mark.parametrize("alpha", (-0.9, -0.7, -0.3))
def test_refinement_stops_once_the_excess_rules_out_convergence(
        monkeypatch, alg, alpha):
    # eps = excess + heap, so once the excess alone is above tau no step can
    # make the run Converged: an interval is popped only while the excess is
    # within tau and the heap's error above it, and a run that ends
    # ToleranceNotMet below its budget stops at the retirement that carried
    # the excess past tau
    f, ref = LK_FAMILIES[0].draw(LAM, alpha)
    tau, n = 1e-6 * ref, 10_000
    pops = []

    def wrapper(state, _real=algorithms.select_worst):
        pops.append((state, state.heap_eps(), state.excess_eps))
        return _real(state)

    monkeypatch.setattr(algorithms, "select_worst", wrapper)
    r = alg(f, 0.0, 1.0, tau, **budget(alg, n))
    assert pops
    assert all(excess <= tau < heap for _, heap, excess in pops)
    if r.status is Status.TOLERANCE_NOT_MET and r.neval < n:
        assert pops[-1][0].excess_eps > tau
    assert (r.status is Status.CONVERGED) == (alpha == -0.3)


def test_a_run_that_cannot_converge_stops_well_under_its_budget():
    # at alpha = -0.9 the error retired around the pole passes tau long
    # before the budget: int_refined used to spend all 10,000 evaluations
    # (10,001) refining elsewhere, and ended ToleranceNotMet all the same
    f, ref = LK_FAMILIES[0].draw(LAM, -0.9)
    r = int_refined(f, 0.0, 1.0, 1e-6 * ref, **budget(int_refined, 10_000))
    assert r.status is Status.TOLERANCE_NOT_MET
    assert r.neval < 5_000
    assert r.eps > 1e-6 * ref and math.isfinite(r.q)


def test_eps_covers_the_error_once_the_excess_passes_tau():
    # a seed-0 draw of the singular workload at alpha = -0.8: the run must
    # stop at the step where the excess passes tau, since refining on only
    # shrinks the open error while the true one, the mass retired around
    # the pole, stays: refining on to 1,187 evaluations left eps 2.61e-3
    # against an error of 3.82e-3
    f, ref = LK_FAMILIES[0].draw(0.220031817875281, -0.8)
    r = int_naive(f, 0.0, 1.0, 1e-6 * ref)
    assert r.status is Status.TOLERANCE_NOT_MET
    assert r.eps >= abs(r.q - ref)
    assert r.neval < 1_187


def test_the_open_error_is_tested_against_tau_not_tau_minus_the_excess():
    # a seed-1 draw of the singular workload at alpha = -0.7: the run stops
    # once the heap's error is within tau, with the excess within tau too,
    # and ends ToleranceNotMet after 2,333 evaluations, eps 1.52 tau and
    # error 17.6 tau.  Refining on until heap + excess is within tau would
    # return Converged after 2,945 evaluations with the same error: the
    # excess misses the mass retired around the pole
    f, ref = LK_FAMILIES[0].draw(0.8403273027848961, -0.7)
    tau = 1e-6 * ref
    r = int_refined(f, 0.0, 1.0, tau, **budget(int_refined, 10_000))
    assert r.status is not Status.CONVERGED or abs(r.q - ref) <= tau


@pytest.mark.parametrize("alg", (int_naive, int_refined))
@pytest.mark.parametrize("lam", (0.3, 0.61803))
@pytest.mark.parametrize("p", (1e-10, 1e-12, 1e-14))
def test_a_narrow_peak_converges(alg, lam, p):
    # p / ((x - lam)^2 + p) samples like |x - lam|^-2 until the bisection
    # reaches the scale of sqrt(p), about 20 levels down, yet is integrable:
    # a divergence verdict taken from the first levels' growth would be wrong
    s = math.sqrt(p)
    ref = s * (math.atan((1.0 - lam) / s) + math.atan(lam / s))
    r = alg(lambda x: p / ((x - lam) ** 2 + p), 0.0, 1.0, 1e-6 * ref)
    assert r.status is Status.CONVERGED
    assert abs(r.q - ref) <= 1e-6 * ref
