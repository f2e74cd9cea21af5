import math

import numpy as np
import pytest

from relquad.basis import get_stencil, legendre_values
from relquad.errest import naive_error, norm, refined_error
from relquad.interp import (CountedFunction, SampleVector, fit, sample,
                            transfer_to_child)

ST = get_stencil(10)
THETA1 = 1.1


def _split_estimate(fn, a, b, side, st=ST, theta1=THETA1):
    # One parent fit + one child fit on side 0 (left) or 1 (right)
    cv_par = fit(sample(CountedFunction(fn), a, b, st), st)
    mid = 0.5 * (a + b)
    ca, cb = (a, mid) if side == 0 else (mid, b)
    sv_ch = sample(CountedFunction(fn), ca, cb, st)
    return refined_error(fit(sv_ch, st), transfer_to_child(cv_par, side),
                         sv_ch, cv_par, side, theta1, 0.5 * (b - a))


def test_naive_identical_vectors():
    c = np.arange(5.0)
    assert naive_error(c, c, 0.5) == 0.0


def test_naive_zero_pads_shorter_vector():
    hi = np.array([1.0, 2.0, 0.0, 0.0])
    lo = np.array([1.0, 2.0])
    assert naive_error(hi, lo, 1.0) == 0.0


def test_naive_cuts_off_longer_vector():
    # a higher-degree parent moved onto a lowest-degree child is compared
    # over the child's length only
    lo = np.array([1.0, 2.0])
    hi = np.array([1.0, 5.0, 7.0, 9.0])
    assert naive_error(lo, hi, 0.5) == 1.5


def _naive_error_by_concatenation(hi, lo, halfwidth):
    """naive_error as it was written with np.concatenate and np.linalg.norm:
    the reference for its fast path."""
    lo = lo[: len(hi)]
    if len(lo) < len(hi):
        lo = np.concatenate([lo, np.zeros(len(hi) - len(lo))])
    return float(halfwidth * np.linalg.norm(hi - lo))


@pytest.mark.parametrize("n_hi", (4, 8, 10, 16, 32))
def test_naive_error_matches_concatenation_path(n_hi):
    # c_lo shorter (padded), equal and longer (cut off), with signed zeros,
    # exact cancellations and magnitudes far apart: same float bit for bit
    rng = np.random.default_rng(400 + n_hi)
    for n_lo in sorted({2, n_hi // 2, n_hi, 2 * n_hi, 32}):
        for _ in range(40):
            scale = 10.0 ** float(rng.integers(-150, 150))
            c_hi = rng.standard_normal(n_hi + 1) * scale
            c_lo = rng.standard_normal(n_lo + 1) * scale
            c_hi[rng.random(n_hi + 1) < 0.2] = -0.0
            m = min(n_hi, n_lo) + 1
            same = rng.random(m) < 0.3   # exact zeros in the difference
            c_lo[:m][same] = c_hi[:m][same]
            h = float(rng.uniform(1e-9, 4.0))
            got = naive_error(c_hi, c_lo, h)
            assert type(got) is float
            assert (got.hex()
                    == _naive_error_by_concatenation(c_hi, c_lo, h).hex())


def test_naive_degree4_polynomial_exact_at_both_degrees():
    st4, st8 = get_stencil(4), get_stencil(8)
    rng = np.random.default_rng(1)
    c_true = rng.standard_normal(5)
    fn = lambda x: float(legendre_values(4, np.array([x]))[0] @ c_true)
    c4 = fit(sample(CountedFunction(fn), -1.0, 1.0, st4), st4)
    c8 = fit(sample(CountedFunction(fn), -1.0, 1.0, st8), st8)
    assert naive_error(c8.c, c4.c, 1.0) < 1e-13


def test_naive_nonsmooth_positive():
    st4, st8 = get_stencil(4), get_stencil(8)
    c4 = fit(sample(CountedFunction(abs), -1.0, 1.0, st4), st4)
    c8 = fit(sample(CountedFunction(abs), -1.0, 1.0, st8), st8)
    assert naive_error(c8.c, c4.c, 1.0) > 0.0


def test_refined_zero_for_low_degree_polynomial():
    # degree <= n: parent and child interpolants are the same polynomial
    rng = np.random.default_rng(2)
    c_true = rng.standard_normal(8)
    fn = lambda x: float(legendre_values(7, np.array([x]))[0] @ c_true)
    est = _split_estimate(fn, -1.0, 1.0, 0)
    # on the model path eps = h * deriv * ||b||: the extracted derivative
    assert est.eps / (1.0 * np.linalg.norm(ST.b)) < 1e-11
    assert est.eps < 1e-12


def test_refined_constant_high_derivative_both_children():
    # f = x^11 has constant 11th derivative: the extracted proxy, which on
    # the model path is eps / (h * ||b||), must agree between children to
    # high relative accuracy and the test must pass
    left = _split_estimate(lambda x: x ** 11, -1.0, 1.0, 0)
    right = _split_estimate(lambda x: x ** 11, -1.0, 1.0, 1)
    assert not left.used_fallback and not right.used_fallback
    np.testing.assert_allclose(left.eps, right.eps, rtol=1e-10)
    # the proxy measures the derivative in child reference coordinates:
    # d^11/dt^11 of ((t-1)/2)^11 / 11! = 2^-11
    np.testing.assert_allclose(left.eps / (1.0 * np.linalg.norm(ST.b)),
                               2.0 ** -11, rtol=1e-9)


def test_refined_step_triggers_fallback():
    fn = lambda x: 1.0 if x > 0.3 else 0.0
    est = _split_estimate(fn, 0.0, 1.0, 0)  # jump inside [0, 0.5]
    assert est.used_fallback


def test_refined_fallback_over_random_jumps():
    # a jump strictly inside the parent must be flagged on >= 1 child
    rng = np.random.default_rng(9)
    for _ in range(100):
        lam = float(rng.uniform(0.05, 0.95))
        fn = lambda x: 1.0 if x > lam else 0.0
        flagged = (_split_estimate(fn, 0.0, 1.0, 0).used_fallback
                   or _split_estimate(fn, 0.0, 1.0, 1).used_fallback)
        assert flagged, f"jump at {lam} not flagged"


def test_scale_equivariance_exact_for_power_of_two():
    # s = 2^k scales every intermediate by an exact power of two, so both
    # estimators scale bitwise; at |k| >= 560 the squares of the scaled
    # coefficients leave the float range, and only the norm's own scaling
    # keeps this
    fn = np.sin
    st4, st8 = get_stencil(4), get_stencil(8)
    base = _split_estimate(fn, 0.1, 1.7, 1)
    n4 = naive_error(fit(sample(CountedFunction(fn), 0.1, 1.7, st8), st8).c,
                     fit(sample(CountedFunction(fn), 0.1, 1.7, st4), st4).c,
                     0.8)
    for k in (3, -560, 560, -600, 600, -700, 700):
        s = 2.0 ** k
        fns = lambda x: s * np.sin(x)
        with np.errstate(all="ignore"):  # as the integrators run
            scaled = _split_estimate(fns, 0.1, 1.7, 1)
            n4s = naive_error(
                fit(sample(CountedFunction(fns), 0.1, 1.7, st8), st8).c,
                fit(sample(CountedFunction(fns), 0.1, 1.7, st4), st4).c, 0.8)
        assert scaled.used_fallback == base.used_fallback
        assert scaled.eps == s * base.eps
        assert n4s == s * n4


def test_norm_is_the_plain_expression_in_range():
    # wherever the dot of squares is a normal float, bit for bit
    rng = np.random.default_rng(31)
    for size in (5, 9, 11, 17, 33):
        for _ in range(200):
            v = rng.standard_normal(size) * 10.0 ** rng.uniform(-140, 140)
            v[rng.random(size) < 0.2] = 0.0
            got = norm(v)
            assert type(got) is float
            assert got.hex() == math.sqrt(v.dot(v)).hex()


def test_norm_scales_exactly_by_powers_of_two():
    # entries in [0.5, 2] or zero stay normal when scaled by 2^k for
    # |k| <= 1000, so 2^k v is exact and so must its norm be
    rng = np.random.default_rng(32)
    for size in (5, 11, 33):
        v = rng.uniform(0.5, 2.0, size) * rng.choice((-1.0, 1.0), size)
        v[rng.integers(size)] = 0.0
        base = norm(v)
        with np.errstate(over="ignore"):
            for k in range(-1000, 1001):
                assert norm(np.ldexp(v, k)) == base * 2.0 ** k


def test_norm_keeps_plain_results_at_the_edges():
    assert norm(np.zeros(11)) == 0.0
    assert norm(np.array([0.0, -0.0])) == 0.0
    assert norm(np.array([1.0, np.inf, 2.0])) == math.inf
    assert math.isnan(norm(np.array([1.0, np.nan])))
    assert math.isnan(norm(np.array([np.inf, np.nan])))
    # a norm that is itself out of range overflows to inf, and the smallest
    # subnormal keeps its value
    with np.errstate(over="ignore"):
        assert norm(np.full(11, 1.5e308)) == math.inf
    assert norm(np.array([0.0, 5e-324])) == 5e-324
    assert norm(np.array([3e-300, 4e-300])) == pytest.approx(5e-300,
                                                            rel=1e-15)


def test_monotone_decay_on_smooth_function():
    # repeated bisection of e^x: the estimate after 5 levels is far below
    # the first level's (monotone overall, not claimed per step);
    # a wide start keeps level 0 well above the rounding floor
    a, b = 0.0, 8.0
    eps_levels = []
    for _ in range(5):
        est = _split_estimate(np.exp, a, b, 0)
        eps_levels.append(est.eps)
        b = 0.5 * (a + b)
    assert all(e >= 0 and np.isfinite(e) for e in eps_levels)
    assert eps_levels[-1] < 1e-6 * eps_levels[0]


def test_refined_no_negative_or_nan_eps():
    cases = [
        (lambda x: np.sign(np.sin(17.0 * x)), 0.0, 1.0),
        (lambda x: abs(x - 0.37) ** -0.4 if x != 0.37 else float("inf"), 0.0, 1.0),
        (lambda x: 0.0, -2.0, 3.0),
    ]
    for fn, a, b in cases:
        for side in (0, 1):
            est = _split_estimate(fn, a, b, side)
            assert np.isfinite(est.eps) and est.eps >= 0.0


def _zero_fit():
    """The fit of the zero function: zero coefficients and the stencil's
    own Newton vector."""
    return fit(sample(CountedFunction(lambda x: 0.0), 0.0, 1.0, ST), ST)


def test_degenerate_denominator_falls_back():
    # no fit gets here: the child's Newton vector is set to the parent's
    # moved onto it
    parent = _zero_fit()
    child = parent._replace(newton=2.0 ** 11 * (ST.t_full[0] @ ST.b))
    c_xfer = np.r_[1.0, np.zeros(10)]
    sv = sample(CountedFunction(lambda x: 1.0), 0.0, 1.0, ST)
    est = refined_error(child, c_xfer, sv, parent, 0, THETA1, 0.5)
    assert est.used_fallback
    # the difference norm, without the extracted derivative
    assert est.eps == 0.5 * norm(child.c - c_xfer) == 0.5


def test_masked_nodes_excluded_from_pointwise_test():
    # a value at a masked node is not a function value: a residual of 5.0
    # there must not trip the fallback when every real node is fine
    c_child = parent = _zero_fit()
    c_xfer = transfer_to_child(parent, 0)
    f = np.zeros(11)
    f[3] = 5.0  # disagrees wildly with the parent, but only at the masked node
    sv = SampleVector(f=f, nan_mask=(3,), values=f.tolist())
    est = refined_error(c_child, c_xfer, sv, parent, 0, THETA1, 0.5)
    assert not est.used_fallback
    # unmasked version of the same inputs does trip it
    sv2 = SampleVector(f=f, nan_mask=(), values=f.tolist())
    est2 = refined_error(c_child, c_xfer, sv2, parent, 0, THETA1, 0.5)
    assert est2.used_fallback
    # and so does an unmasked NaN, whose residual is not within its slack
    f[3] = math.nan
    sv3 = SampleVector(f=f, nan_mask=(), values=f.tolist())
    est3 = refined_error(c_child, c_xfer, sv3, parent, 0, THETA1, 0.5)
    assert est3.used_fallback


def _refined_error_without_stencil_norms(c_child, c_parent_xfer, samples,
                                         parent, side, stencil, theta1,
                                         halfwidth):
    """refined_error as it was written before the stencil held |pi_xfer|,
    the Newton distance and ||b||, with one vector comparison as the
    pointwise test: the reference for its fast path.  Returns (eps,
    fallback)."""
    if parent.eff_degree < stencil.n:
        b_xfer = 2.0 ** (parent.eff_degree + 1) * (
            stencil.t_full[side] @ parent.newton)
        pi_xfer = stencil.p_newton @ b_xfer
    else:
        b_xfer = 2.0 ** (stencil.n + 1) * (stencil.t_full[side] @ stencil.b)
        pi_xfer = stencil.p_newton @ b_xfer
    b_child = c_child.newton
    diff_norm = norm(c_child.c - c_parent_xfer)
    d = b_child - b_xfer
    denom = math.sqrt(d.dot(d))
    if denom < 1e-300:
        return (halfwidth * diff_norm, True)
    deriv = diff_norm / denom
    resid = np.abs(stencil.P @ c_parent_xfer - samples.f)
    slack = theta1 * deriv * np.abs(pi_xfer)
    skip = sorted({0, resid.size - 1, *samples.nan_mask})
    if not (np.delete(resid, skip) <= np.delete(slack, skip)).all():
        return (halfwidth * diff_norm, True)
    eps = halfwidth * deriv * math.sqrt(b_child.dot(b_child))
    return (eps, False)


def _masked(sv, rng, n_max):
    """sv with up to n_max random nodes masked, as sample would mask them."""
    k = int(rng.integers(0, n_max + 1))
    mask = tuple(sorted(rng.choice(len(sv.f), size=k, replace=False).tolist()))
    f = sv.f.copy()
    f[list(mask)] = 0.0
    values = list(sv.values)
    for i in mask:
        values[i] = math.nan
    return SampleVector(f=f, nan_mask=mask, values=values)


def _refined_errors_as_the_reference(draws, st):
    """refined_error of each (child fit, its samples, parent fit, side,
    theta1, h) in draws, asserted equal to the reference's bit for bit."""
    ests = []
    with np.errstate(all="ignore"):
        for cv, sv, parent, side, theta1, h in draws:
            c_xfer = transfer_to_child(parent, side)
            got = refined_error(cv, c_xfer, sv, parent, side, theta1, h)
            want = _refined_error_without_stencil_norms(
                cv, c_xfer, sv, parent, side, st, theta1, h)
            assert (got.eps.hex(), got.used_fallback) \
                == (want[0].hex(), want[1])
            ests.append(got)
    return ests


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_refined_error_matches_path_without_stencil_norms(n):
    # random smooth and rough draws, masked parents and children (the
    # stencil-free path), and margins holding NaN or inf (an injected
    # value, or an overflowing scale): same floats and verdict bit for bit
    st = get_stencil(n)
    rng = np.random.default_rng(700 + n)
    fns = (np.exp, lambda x: np.sin(9.0 * x), lambda x: abs(x - 0.3),
           lambda x: float(rng.standard_normal()))
    draws = []  # child fit, its samples, parent fit, side, theta1, h
    with np.errstate(all="ignore"):  # as the integrators run sample
        for draw in range(300):
            fn = fns[draw % len(fns)]
            scale = 10.0 ** float(rng.choice((0, rng.integers(-300, 309))))
            g = lambda x: scale * fn(x)
            side = int(rng.integers(0, 2))
            sv_par = sample(CountedFunction(g), 0.0, 1.0, st)
            sv = sample(CountedFunction(g), 0.5 * side, 0.5 + 0.5 * side, st)
            if draw % 3:
                sv_par = _masked(sv_par, rng, min(3, n - 1))
                sv = _masked(sv, rng, min(3, n - 1))
            parent, cv = fit(sv_par, st), fit(sv, st)
            free = [i for i in range(1, n) if i not in sv.nan_mask]
            if draw % 5 == 0 and free:
                f = sv.f.copy()
                f[rng.choice(free)] = rng.choice((np.nan, np.inf, -np.inf))
                sv = SampleVector(f=f, nan_mask=sv.nan_mask,
                                  values=f.tolist())
            draws.append((cv, sv, parent, side, float(rng.uniform(1.0, 3.0)),
                          float(rng.uniform(1e-6, 4.0))))
    seen = set()
    for (cv, sv, parent, side, *_), est in zip(
            draws, _refined_errors_as_the_reference(draws, st)):
        with np.errstate(all="ignore"):
            margin = np.abs(st.P @ transfer_to_child(parent, side) - sv.f)
        seen.add(("fast" if cv.newton is st.b
                  and parent.eff_degree == n else "masked",
                  est.used_fallback))
        seen.add("nonfinite margin" if not np.isfinite(margin).all()
                 else "finite margin")
    assert {("fast", True), ("fast", False), ("masked", True),
            ("masked", False), "nonfinite margin"} <= seen


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_refined_error_matches_deletion_path(n):
    # both halves of a fixed grid: unmasked children take the interior
    # slice, masked ones (the poles at 0 and 0.37) the deletion path; both
    # give the reference's floats and verdict bit for bit
    st = get_stencil(n)
    draws = []
    with np.errstate(all="ignore"):  # as the integrators run sample
        for fn in (np.exp, lambda x: np.sin(40.0 * x), lambda x: abs(x - 0.3),
                   lambda x: 1.0 if x > 0.3 else 0.0, lambda x: x ** 11,
                   lambda x: 1.0 / x, lambda x: abs(x - 0.37) ** -0.4):
            for a, b in ((0.0, 1.0), (0.0, 0.74), (-1.0, 3.0), (0.3, 0.31)):
                parent = fit(sample(CountedFunction(fn), a, b, st), st)
                mid = 0.5 * (a + b)
                for side, ca, cb in ((0, a, mid), (1, mid, b)):
                    sv = sample(CountedFunction(fn), ca, cb, st)
                    draws.append((fit(sv, st), sv, parent, side, THETA1,
                                  0.5 * (b - a)))
    ests = _refined_errors_as_the_reference(draws, st)
    assert any(sv.nan_mask for _, sv, *_ in draws)
    assert {est.used_fallback for est in ests} == {True, False}
