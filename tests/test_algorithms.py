import math

import numpy as np
import pytest

from relquad import algorithms
from relquad.algorithms import (
    NaiveConfig,
    RefinedConfig,
    _refined_estimate,
    _split,
    divergence_ratio_probe,
    int_naive,
    int_refined,
    int_simpson_baseline,
)
from relquad.basis import get_stencil
from relquad.engine import (
    AdaptiveState,
    DivergentIntegral,
    EngineConfig,
    IntervalRecord,
    Status,
)
from relquad.interp import (
    CountedFunction,
    TooManyNonNumeric,
    fit,
    integral,
    sample,
)
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


@pytest.mark.parametrize("n", (5, 7, 9))
def test_refined_rejects_odd_degree(n):
    # a child reuses parent node n // 2 as the parent's midpoint, which it
    # is only for even n; odd n used to end ToleranceNotMet ~1e-4 off
    with pytest.raises(ValueError, match="even"):
        RefinedConfig(n=n)


@pytest.mark.parametrize("n", (10, 12))
def test_refined_even_degrees_converge(n):
    r = int_refined(math.exp, 0.0, 1.0, 1e-10, RefinedConfig(n=n))
    assert r.status is Status.CONVERGED
    assert abs(r.q - (math.e - 1.0)) <= 1e-10


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


def test_refined_rejects_nan_theta1():
    # theta1 < 1.0 is False for NaN; a NaN slack then never falls back, and
    # abs(x - 0.3) on [0, 1] at 1e-8 returned Converged 9.5e-8 off
    with pytest.raises(ValueError, match="theta1"):
        RefinedConfig(theta1=math.nan)


@pytest.mark.parametrize("config, field", [
    (lambda: NaiveConfig(n0=4.5), "n0"),
    (lambda: NaiveConfig(n0=4.0), "n0"),
    (lambda: NaiveConfig(d_max=2.0), "d_max"),
    (lambda: RefinedConfig(n=10.0), "n"),
])
def test_configs_reject_non_integer_degrees(config, field):
    # these used to be accepted and raise TypeError inside the first call
    with pytest.raises(ValueError, match=f"{field} must be an integer"):
        config()


@pytest.mark.parametrize("config", [
    lambda: NaiveConfig(d_max=4),            # degree 64
    lambda: NaiveConfig(n0=5, d_max=3),      # degree 40
    lambda: NaiveConfig(n0=20, d_max=1),     # degree 40
    lambda: NaiveConfig(d_max=10 ** 9),
    lambda: RefinedConfig(n=40),
    lambda: RefinedConfig(n=10 ** 9),
])
def test_configs_reject_degrees_beyond_the_basis(config):
    # these used to be accepted and raise "degree ... outside 1..39" only
    # when an integrator was called
    with pytest.raises(ValueError, match="39"):
        config()


@pytest.mark.parametrize("alg, config", [
    (int_naive, NaiveConfig(n0=19, d_max=1)),
    (int_naive, NaiveConfig(n0=9, d_max=2)),
    (int_naive, NaiveConfig(np.int64(4), np.int64(3))),
    (int_refined, RefinedConfig(n=38)),
])
def test_configs_at_the_largest_degrees_run(alg, config):
    r = alg(math.exp, 0.0, 1.0, 1e-10, config)
    assert r.status is Status.CONVERGED
    assert abs(r.q - (math.e - 1.0)) <= 1e-10


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


@pytest.mark.parametrize("alg", (int_naive, int_refined, int_simpson_baseline))
@pytest.mark.parametrize("a, b", [(0.0, math.inf), (-math.inf, 0.0),
                                  (math.inf, 0.0), (math.nan, 1.0),
                                  (0.0, math.nan), (math.inf, math.inf),
                                  (-1e308, 1e308), (1e308, -1e308)])
def test_nonfinite_bounds_rejected_before_any_evaluation(alg, a, b):
    calls = []
    with pytest.raises(ValueError, match="finite"):
        alg(lambda x: calls.append(x) or 1.0, a, b, 1e-6)
    assert calls == []


@pytest.mark.parametrize("alg, neval", [(int_naive, 33), (int_refined, 11)])
@pytest.mark.parametrize("integrand", [
    lambda x: math.nan,
    lambda x: 0.0 if x == 0 else math.nan,
], ids=("nan", "nan_unless_zero"))
def test_startup_fit_that_cannot_be_made_returns(alg, neval, integrand):
    # with at most one numeric start-up node both used to raise
    # TooManyNonNumeric after their start-up evaluations
    res = alg(integrand, 0.0, 1.0, 1e-6)
    assert (res.q, res.eps, res.neval, res.status) == (
        0.0, math.inf, neval, Status.TOLERANCE_NOT_MET)


def test_startup_lower_fit_that_cannot_be_made_returns():
    # numeric at odd nodes of the 33-point rule only: the degree-32 fit can
    # be made, the degree-16 fit on the even nodes cannot
    odd = set(sample(CountedFunction(lambda x: x), 0.0, 1.0,
                     get_stencil(32)).values[1::2])
    res = int_naive(lambda x: x if x in odd else math.nan, 0.0, 1.0, 1e-6)
    assert (res.q, res.eps, res.neval, res.status) == (
        0.0, math.inf, 33, Status.TOLERANCE_NOT_MET)


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


@pytest.mark.parametrize("side, neval", [(0, 9), (1, 18)])
def test_split_pushes_both_halves_or_neither(side, neval):
    # a half with 10 of its 11 nodes NaN cannot be fitted, and a half whose
    # integral does not shrink below q_base on a chain at its divergence
    # limit gives a verdict: either way _split raises before pushing either
    # half, so the driver can retire the parent as it stands; a left half
    # that fails stops the split before the right half is sampled
    def nan_on_side(x):
        inside = x < 0.5 if side == 0 else x > 0.5
        return math.nan if inside else x

    def ramp(x):
        # the half on `side` integrates to 0.375, the other to 0.125
        return x if side else 1.0 - x

    st = get_stencil(10)
    cfg = EngineConfig(tau=1.0)
    for g, nr_div, error in ((nan_on_side, 0, TooManyNonNumeric),
                             (ramp, cfg.nr_divmax, DivergentIntegral)):
        sv = sample(CountedFunction(g), 0.0, 1.0, st)
        cv = fit(sv, st)
        rec = IntervalRecord(a=0.0, b=1.0, coeffs=cv,
                             q=integral(cv, 0.0, 1.0), eps=1.0, q_base=0.25,
                             nr_div=nr_div, samples=sv)
        fn = CountedFunction(g)
        state = AdaptiveState()
        with pytest.raises(error):
            _split(state, fn, rec, st, cfg, _refined_estimate(st, 1.1))
        assert len(state.heap) == 0 and len(state.eps) == 0
        assert fn.count == neval


# The names benchmarks/tracing.py swaps timing wrappers in for: it relies on
# relquad.algorithms looking each one up by name at every call.
TRACED = ("sample", "fit", "integral", "transfer_to_child", "refined_error",
          "select_worst", "should_drop", "enforce_heap_cap",
          "divergence_update")


def _count_traced_calls(monkeypatch, alg, *args):
    calls = {name: [] for name in TRACED}
    for name in TRACED:
        def wrapper(*a, _real=getattr(algorithms, name), _log=calls[name],
                    **kw):
            _log.append(kw)
            return _real(*a, **kw)

        monkeypatch.setattr(algorithms, name, wrapper)
    alg(*args)
    return calls


def test_one_bisection_calls_each_traced_layer_once_per_half(monkeypatch):
    # e^x: the root fit and one forced split into two halves
    calls = _count_traced_calls(monkeypatch, int_refined, np.exp, 0.0, 1.0,
                                1e-10)
    reuse = [len(kw.get("reuse") or ()) for kw in calls["sample"]]
    assert reuse == [0, 2, 2]
    for name in ("refined_error", "divergence_update", "transfer_to_child"):
        assert len(calls[name]) == 2
    assert len(calls["fit"]) == len(calls["integral"]) == 3


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_every_bisection_goes_through_the_traced_names(monkeypatch, alg):
    # a sample call with two reused values is one half of a bisection; each
    # half also passes divergence_update and transfer_to_child, and a
    # refined half refined_error.  Other sample calls are the start-up fit
    # (no reuse) and int_naive's degree raises (more than two reused).
    calls = _count_traced_calls(monkeypatch, alg, _peak, 0.0, 1.0, 1e-8)
    reuse = [len(kw.get("reuse") or ()) for kw in calls["sample"]]
    halves = reuse.count(2)
    assert halves > 0 and halves % 2 == 0
    assert all(n == 0 or n == 2 or n > 4 for n in reuse)
    assert len(calls["divergence_update"]) == halves
    assert len(calls["transfer_to_child"]) == halves
    refined = halves if alg is int_refined else 0
    assert len(calls["refined_error"]) == refined
    for name in ("fit", "integral", "select_worst", "should_drop",
                 "enforce_heap_cap"):
        assert calls[name], name


@pytest.mark.parametrize("alg", (int_naive, int_refined))
def test_sample_reuse_shapes_are_what_the_tracer_counts(monkeypatch, alg):
    # benchmarks/tracing.py counts a sample call with 2 reused values as a
    # bisection half and one with more as a ladder raise, by len(reuse) and
    # the truth of reuse (which an ndarray would not give)
    seen = []

    def wrapper(fn, a, b, stencil, reuse=None, _real=algorithms.sample):
        seen.append((stencil.n, reuse))
        return _real(fn, a, b, stencil, reuse=reuse)

    monkeypatch.setattr(algorithms, "sample", wrapper)
    alg(_peak, 0.0, 1.0, 1e-8)
    halves = raises = 0
    for n, reuse in seen:
        if reuse is None:
            continue
        assert type(reuse) in (list, tuple)
        assert all(type(v) is float for v in reuse)
        if len(reuse) == 2:
            halves += 1
        else:
            assert len(reuse) == n // 2 + 1 > 2
            raises += 1
    assert halves > 0 and halves % 2 == 0
    assert (raises > 0) == (alg is int_naive)
