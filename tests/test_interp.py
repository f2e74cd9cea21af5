import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from relquad.basis import downdate_newton, get_stencil, legendre_values
from relquad.interp import (
    CountedFunction,
    SampleVector,
    TooManyNonNumeric,
    fit,
    integral,
    sample,
    transfer_to_child,
)

GL_X, GL_W = npleg.leggauss(200)


def test_sample_constant_no_mask():
    st = get_stencil(4)
    fn = CountedFunction(lambda x: 1.0)
    sv = sample(fn, 0.0, 1.0, st)
    np.testing.assert_array_equal(sv.f, np.ones(5))
    assert sv.nan_mask == ()
    assert fn.count == 5


def test_sample_masks_nonnumeric_at_left_endpoint():
    # sin(x)/x is 0/0 at x=0, which maps to the last (descending) node
    st = get_stencil(4)
    fn = CountedFunction(lambda x: np.sin(x) / x)
    with np.errstate(all="ignore"):  # sample's caller owns the errstate
        sv = sample(fn, 0.0, 1.0, st)
    assert sv.nan_mask == (4,)
    assert sv.f[4] == 0.0
    # values keeps the NaN as evaluated, and f's bytes elsewhere
    assert type(sv.values) is list and np.isnan(sv.values[4])
    assert np.array(sv.values[:4]).tobytes() == sv.f[:4].tobytes()
    assert sv.values[0] == pytest.approx(np.sin(1.0))
    assert fn.count == 5  # the bad node still costs one evaluation


def test_sample_reuse_skips_counter():
    # degree doubling 4 -> 8: even-indexed degree-8 nodes coincide with the
    # degree-4 nodes, so exactly 4 fresh evaluations are needed
    st4, st8 = get_stencil(4), get_stencil(8)
    fn = CountedFunction(np.exp)
    sv4 = sample(fn, 0.25, 0.75, st4)
    assert fn.count == 5
    sv8 = sample(fn, 0.25, 0.75, st8, reuse=sv4.values)
    assert fn.count == 9
    # reused entries are bitwise identical to the originals
    assert sv8.f[::2].tobytes() == sv4.f.tobytes()
    assert sv8.values[::2] == sv4.values
    # a bisection half reuses its two ends: 3 fresh evaluations at n = 4
    sv_half = sample(fn, 0.25, 0.5, st4, reuse=(sv4.values[2], sv4.values[4]))
    assert fn.count == 12
    assert (sv_half.f[0], sv_half.f[4]) == (sv4.f[2], sv4.f[4])


def test_sample_reuse_propagates_nan_without_eval():
    st = get_stencil(4)
    fn = CountedFunction(lambda x: 1.0 / x)
    with np.errstate(all="ignore"):
        sv = sample(fn, 0.0, 1.0, st)
    assert sv.nan_mask == (4,)
    assert sv.values[4] == math.inf  # 1/0 as evaluated, not a NaN
    # a child reusing the masked endpoint inherits the mask for free
    fn2 = CountedFunction(lambda x: 1.0 / x)
    sv2 = sample(fn2, 0.0, 0.5, st, reuse=(sv.values[2], sv.values[4]))
    assert fn2.count == 3
    assert 4 in sv2.nan_mask
    # so does the raised rule on the same interval, at its node 8
    st8 = get_stencil(8)
    sv8 = sample(fn2, 0.0, 1.0, st8, reuse=sv.values)
    assert fn2.count == 7
    assert 8 in sv8.nan_mask


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
def test_sample_remasks_reused_nonnumeric_values_without_eval(bad):
    # a reused NaN and a reused inf of either sign are masked again like a
    # fresh one, are not evaluated and do not move the count; f holds 0.0
    # there and values the value as reused
    st4, st8 = get_stencil(4), get_stencil(8)
    for st, reuse, masked in (
            (st4, (bad, 1.0), (0,)),
            (st4, [2.0, bad], (4,)),
            (st8, [bad, 1.0, bad, 3.0, 4.0], (0, 4)),
            (st8, (0.0, 1.0, 2.0, 3.0, bad), (8,))):
        seen = []
        fn = CountedFunction(lambda x: seen.append(x) or 7.0)
        sv = sample(fn, 0.0, 1.0, st, reuse=reuse)
        assert sv.nan_mask == masked
        assert fn.count == len(seen) == st.n + 1 - len(reuse)
        assert all(sv.f[i] == 0.0 for i in masked)
        want = np.array(reuse, dtype=float).tobytes()
        got = (sv.values[::st.n] if len(reuse) == 2 else sv.values[::2])
        assert np.array(got).tobytes() == want


def test_fit_reproduces_basis_function():
    st = get_stencil(10)
    vals = legendre_values(2, st.nodes)[:, 2]
    cv = fit(type("SV", (), {"f": vals, "nan_mask": ()})(), st)
    expected = np.zeros(11)
    expected[2] = 1.0
    np.testing.assert_allclose(cv.c, expected, rtol=0, atol=1e-13)
    assert cv.eff_degree == 10


@pytest.mark.parametrize("n", (4, 8, 10))
def test_fit_sample_roundtrip_on_random_polynomials(n):
    # fit(sample(poly)) recovers the exact coefficients to 1e-12 relative
    st = get_stencil(n)
    rng = np.random.default_rng(100 + n)
    for _ in range(20):
        c_true = rng.standard_normal(n + 1)
        fn = lambda x: float(legendre_values(n, np.array([x]))[0] @ c_true)
        cv = fit(sample(CountedFunction(fn), -1.0, 1.0, st), st)
        np.testing.assert_allclose(cv.c, c_true, rtol=1e-12, atol=1e-12)


def test_fit_single_downdate_matches_direct_subfit():
    # with one masked node the result must interpolate f at the n remaining
    # nodes; oracle = direct square solve of the degree-(n-1) system there
    st = get_stencil(10)
    rng = np.random.default_rng(42)
    for j in range(11):
        f = rng.standard_normal(11)
        fv = f.copy()
        fv[j] = 0.0
        sv = type("SV", (), {"f": fv, "nan_mask": (j,)})()
        cv = fit(sv, st)
        assert cv.eff_degree == 9
        assert cv.c[10] == 0.0
        keep = [i for i in range(11) if i != j]
        direct = np.linalg.solve(
            legendre_values(9, np.array(st.nodes)[keep]), f[keep])
        np.testing.assert_allclose(cv.c[:10], direct, rtol=0, atol=1e-10)


def test_fit_double_downdate_interpolates_remaining_nodes():
    st = get_stencil(10)
    rng = np.random.default_rng(43)
    f = rng.standard_normal(11)
    for mask in ((0, 5), (3, 7), (9, 10)):
        fv = f.copy()
        fv[list(mask)] = 0.0
        cv = fit(type("SV", (), {"f": fv, "nan_mask": mask})(), st)
        assert cv.eff_degree == 8
        np.testing.assert_array_equal(cv.c[9:], [0.0, 0.0])
        keep = [i for i in range(11) if i not in mask]
        resid = st.P[keep] @ cv.c - f[keep]
        assert np.abs(resid).max() < 1e-10


def test_fit_all_zero_samples():
    st = get_stencil(4)
    cv = fit(type("SV", (), {"f": np.zeros(5), "nan_mask": (1, 2)})(), st)
    np.testing.assert_array_equal(cv.c, np.zeros(5))


def test_fit_rejects_too_many_nonnumeric():
    st = get_stencil(4)
    sv = type("SV", (), {"f": np.zeros(5), "nan_mask": (0, 1, 2, 3)})()
    with pytest.raises(TooManyNonNumeric):
        fit(sv, st)


def test_fit_attaches_downdated_newton():
    st = get_stencil(10)
    cv = fit(type("SV", (), {"f": np.ones(11), "nan_mask": ()})(), st)
    np.testing.assert_array_equal(cv.newton, st.b)
    fv = np.ones(11)
    fv[5] = 0.0
    cv2 = fit(type("SV", (), {"f": fv, "nan_mask": (5,)})(), st)
    # degree dropped by one: the top two padded entries are zero
    assert cv2.newton[11] == 0.0 and cv2.newton[10] != 0.0


def test_integral_examples():
    st = get_stencil(4)
    cv = fit(sample(CountedFunction(lambda x: 1.0), 0.0, 2.0, st), st)
    assert integral(cv, 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    cv = fit(sample(CountedFunction(lambda x: x), -1.0, 1.0, st), st)
    assert integral(cv, -1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    st10 = get_stencil(10)
    cv = fit(sample(CountedFunction(np.exp), 0.0, 1.0, st10), st10)
    assert integral(cv, 0.0, 1.0) == pytest.approx(np.e - 1.0, abs=1e-12)


def test_l2_norm_examples_and_oracle():
    # Parseval: in the orthonormal basis the Euclidean norm of a coefficient
    # vector is the L2 norm of its polynomial over [-1, 1], which is what
    # the error estimates charge
    assert np.linalg.norm(np.eye(5)[0]) == 1.0
    assert np.linalg.norm(np.zeros(5)) == 0.0
    st = get_stencil(10)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(11)
    g = legendre_values(10, GL_X) @ c
    np.testing.assert_allclose(np.linalg.norm(c), np.sqrt(g @ (GL_W * g)),
                               rtol=1e-10)


def test_transfer_constant_invariant():
    st = get_stencil(8)
    cv = fit(sample(CountedFunction(lambda x: 3.7), 0.0, 1.0, st), st)
    for side in (0, 1):
        np.testing.assert_allclose(transfer_to_child(cv, side), cv.c,
                                   rtol=0, atol=1e-15)


def test_transfer_linear_function():
    # x on [-1,1] restricted to the left half is (t-1)/2 in child coordinates
    st = get_stencil(10)
    cv = fit(sample(CountedFunction(lambda x: x), -1.0, 1.0, st), st)
    left = transfer_to_child(cv, 0)
    t = np.linspace(-1.0, 1.0, 21)
    got = legendre_values(10, t) @ left
    np.testing.assert_allclose(got, (t - 1.0) / 2.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", (4, 10))
def test_transfer_pointwise_oracle(n):
    # the fit of random values at the nodes: a polynomial with random
    # coefficients
    st = get_stencil(n)
    rng = np.random.default_rng(n)
    f = rng.standard_normal(n + 1)
    cv = fit(SampleVector(f, (), f.tolist()), st)
    t = np.linspace(-1.0, 1.0, 20)
    for side, mapped in ((0, (t - 1) / 2), (1, (t + 1) / 2)):
        child = transfer_to_child(cv, side)
        assert type(child) is np.ndarray
        np.testing.assert_allclose(
            legendre_values(n, t) @ child,
            legendre_values(n, mapped) @ cv.c,
            rtol=0, atol=1e-12)


def test_transfer_preserves_padding_and_degree():
    # three masked nodes: a fit of degree 7, exact zeros above it, which
    # the moved coefficients keep
    st = get_stencil(10)
    f = np.random.default_rng(5).standard_normal(11)
    f[[2, 5, 9]] = np.nan
    with np.errstate(all="ignore"):  # as the integrators run sample
        sv = sample(CountedFunction(dict(zip(st.nodes, f)).get),
                    -1.0, 1.0, st)
    cv = fit(sv, st)
    assert cv.eff_degree == 7
    for side in (0, 1):
        child = transfer_to_child(cv, side)
        np.testing.assert_array_equal(child[8:], np.zeros(3))


def test_bisection_integral_additivity():
    # integral over the parent equals the sum over the two children, exactly
    # in the polynomial algebra and to 1e-12 relative in floating point; a
    # moved fit is not a fit, so each child's integral is taken by
    # Gauss-Legendre quadrature of its polynomial
    st = get_stencil(10)
    a, b = 0.3, 2.1
    cv = fit(sample(CountedFunction(np.sin), a, b, st), st)
    m = 0.5 * (a + b)
    total = integral(cv, a, b)
    parts = sum(0.5 * (cb - ca) * GL_W.dot(legendre_values(10, GL_X)
                                           .dot(transfer_to_child(cv, side)))
                for side, ca, cb in ((0, a, m), (1, m, b)))
    np.testing.assert_allclose(parts, total, rtol=1e-12)


def _sample_per_node(integrand, a, b, stencil, reuse=None):
    """The per-node loop that sample() vectorizes: the reference for it.
    reuse maps node indices to values."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f = np.zeros(stencil.n + 1)
    mask = []
    values = []
    with np.errstate(all="ignore"):
        for i, x in enumerate(stencil.nodes):
            if reuse is not None and i in reuse:
                v = reuse[i]
            else:
                v = integrand(mid + half * x)
            values.append(v)
            if np.isfinite(v):
                f[i] = v
            else:
                mask.append(i)
    return SampleVector(f=f, nan_mask=tuple(mask), values=values)


def _reuse_by_index(reuse, n):
    """sample()'s reuse values as the index map of _sample_per_node: an end
    pair at nodes 0 and n, otherwise the even-indexed nodes."""
    if reuse is None:
        return None
    if len(reuse) == 2:
        return {0: reuse[0], n: reuse[1]}
    return {2 * i: v for i, v in enumerate(reuse)}


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_sample_matches_per_node_loop(n):
    # random intervals, reuse shapes (none, an end pair, the even nodes; as
    # a list or a tuple) and NaN/Inf values, at nodes and in the reused
    # values: same bytes, mask, count and evaluation points, in order
    st = get_stencil(n)
    rng = np.random.default_rng(n)
    specials = (np.nan, np.inf, -np.inf)
    for trial in range(90):
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.choice((1e-9, 1e-3, 0.5, 3.0)))
        xs = [0.5 * (a + b) + 0.5 * (b - a) * x for x in st.nodes]
        table = {xs[i]: specials[i % 3]
                 for i in rng.choice(n + 1, size=rng.integers(0, 4))}

        def g(x):
            return table.get(x, np.exp(x) - 1.0)

        reuse = None
        if trial % 3:
            size = 2 if trial % 3 == 1 else n // 2 + 1
            reuse = [float(rng.choice((*specials, rng.standard_normal())))
                     for _ in range(size)]
            if trial % 2:
                reuse = tuple(reuse)
        seen, seen_ref = [], []
        fn = CountedFunction(lambda x: seen.append(x) or g(x))
        fn_ref = CountedFunction(lambda x: seen_ref.append(x) or g(x))
        got = sample(fn, a, b, st, reuse=reuse)
        want = _sample_per_node(fn_ref, a, b, st,
                                reuse=_reuse_by_index(reuse, n))
        assert got.f.tobytes() == want.f.tobytes()
        assert got.nan_mask == want.nan_mask
        assert type(got.values) is list
        assert all(type(v) is float for v in got.values)
        assert (np.array(got.values).tobytes()
                == np.array(want.values).tobytes())
        assert fn.count == fn_ref.count == n + 1 - len(reuse or ())
        assert np.array(seen).tobytes() == np.array(seen_ref).tobytes()
        assert all(type(x) is np.float64 for x in seen)


# (a, b) pairs for the node contract: 1e-9 wide, |a| near 1e300, subnormal
# widths, and bounds given as numpy scalars
_CONTRACT_INTERVALS = (
    (0.0, 1.0), (-1.0, 1.0), (0.3, 0.3 + 1e-9), (-1.7, -1.7 + 1e-9),
    (1e300, 1.5e300), (-1.2e300, -1e300), (-1e300, 1e300),
    (1e300, 1e300 + 2.0 ** 960), (0.0, 7 * 5e-324), (1e-310, 1e-310 + 2e-322),
    (-3e-320, 2e-320), (np.float64(0.1), np.float64(0.7)),
    (np.float32(0.1), np.float32(0.7)),
)


@pytest.mark.parametrize("n", (2, 4, 8, 10, 16, 32))
def test_sample_node_contract(n):
    # for each reuse shape (none, an end pair, the even nodes) the integrand
    # gets a new np.float64 per fresh node, in ascending index order, equal
    # bit for bit to that element of the float64 array
    # mid + half * np.array(stencil.nodes)
    st = get_stencil(n)
    shapes = ((None, range(n + 1)), ((1.0, 2.0), range(1, n)),
              ([1.0] * (n // 2 + 1), range(1, n, 2)))
    for a, b in _CONTRACT_INTERVALS:
        xs = (0.5 * (a + b) + 0.5 * (b - a) * np.array(st.nodes))
        assert xs.dtype == np.float64
        for reuse, fresh in shapes:
            seen = []
            sample(CountedFunction(lambda x: seen.append(x) or 1.0), a, b, st,
                   reuse=reuse)
            assert [type(x) for x in seen] == [np.float64] * len(fresh)
            assert len({id(x) for x in seen}) == len(seen)
            assert np.array(seen).tobytes() == xs[list(fresh)].tobytes()


@pytest.mark.parametrize("n", (2, 4, 10, 16))
def test_sample_pole_at_a_fresh_node_is_masked(n):
    # 1.0 / x at the node x = 0 gives inf on an np.float64 and is masked,
    # for every reuse shape that evaluates that node
    st = get_stencil(n)
    mid = n // 2
    shapes = [None, (1.0, 1.0)]
    if mid % 2:
        shapes.append([1.0] * (n // 2 + 1))
    for reuse in shapes:
        with np.errstate(all="ignore"):
            sv = sample(CountedFunction(lambda x: 1.0 / x), -1.0, 1.0, st,
                        reuse=reuse)
        assert sv.nan_mask == (mid,)
        assert sv.values[mid] == math.inf and sv.f[mid] == 0.0


def test_sample_end_pair_is_the_even_nodes_at_degree_two():
    # at n = 2 the two reuse shapes name the same nodes, 0 and 2
    st = get_stencil(2)
    assert st.nodes[1:-1] == st.nodes[1::2]
    seen = []
    fn = CountedFunction(lambda x: seen.append(x) or 3.0)
    sv = sample(fn, 0.0, 1.0, st, reuse=[1.0, math.nan])
    assert sv.f.tolist() == [1.0, 3.0, 0.0]
    assert sv.nan_mask == (2,)
    assert fn.count == 1 and seen == [0.5]


def test_sample_passes_numpy_scalars_so_poles_mask():
    # with np.float64 nodes, 0.0 ** -1.5 and 1/0 give inf (masked) instead
    # of raising ZeroDivisionError as Python floats would
    st = get_stencil(4)
    with np.errstate(all="ignore"):
        sv = sample(CountedFunction(lambda x: x ** -1.5 + 1.0 / x), 0.0, 1.0,
                    st)
    assert sv.nan_mask == (4,)


def test_sample_finite_values_whose_sum_overflows_stay_unmasked():
    # 1e308 + 1e308 overflows to inf although both terms are finite: the
    # exact per-node test must clear the mask again
    st = get_stencil(4)
    xs = (0.5 + 0.5 * np.array(st.nodes)).tolist()
    big = {xs[1]: 1e308, xs[3]: 1e308}
    fn = CountedFunction(lambda x: big.get(x, 1.0))
    sv = sample(fn, 0.0, 1.0, st)
    assert sv.nan_mask == ()
    assert sv.f.tolist() == [1.0, 1e308, 1.0, 1e308, 1.0]
    assert math.isinf(sum(sv.f.tolist()))
    assert fn.count == 5


def test_sample_masks_both_infinities():
    # inf + (-inf) sums to nan, not inf: both nodes are still masked
    st = get_stencil(4)
    xs = (0.5 + 0.5 * np.array(st.nodes)).tolist()
    inf = {xs[0]: math.inf, xs[2]: -math.inf}
    sv = sample(CountedFunction(lambda x: inf.get(x, 1.0)), 0.0, 1.0, st)
    assert sv.nan_mask == (0, 2)
    assert sv.f.tolist() == [0.0, 1.0, 0.0, 1.0, 1.0]


def _fit_by_downdate(samples, stencil):
    """fit() as it was written before its unmasked fast path: every fit,
    masked or not, ran the downdate loop and copied the Newton vector into
    a zero-padded array.  The reference for that fast path."""
    n = stencil.n
    if len(samples.nan_mask) >= n:
        raise TooManyNonNumeric(
            f"{len(samples.nan_mask)} of {n + 1} nodes non-numeric"
        )
    c = stencil.P_inv @ samples.f
    m = n
    b = stencil.b
    for j in sorted(samples.nan_mask):
        b = downdate_newton(b, float(stencil.nodes[j]))
        c[: m + 1] -= (c[m] / b[m]) * b[: m + 1]
        c[m] = 0.0
        m -= 1
    newton = np.zeros(n + 2)
    newton[: m + 2] = b
    return c, m, newton


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_fit_matches_downdate_path(n):
    # unmasked fits skip the downdate loop and hand out the stencil's own
    # Newton vector: same bytes as the loop's zero-padded copy
    st = get_stencil(n)
    rng = np.random.default_rng(300 + n)
    for trial in range(60):
        f = rng.standard_normal(n + 1) * 10.0 ** float(rng.integers(-8, 9))
        k = 0 if trial % 2 else int(rng.integers(0, 3))
        mask = tuple(sorted(rng.choice(n + 1, size=k, replace=False).tolist()))
        f[list(mask)] = 0.0
        sv = SampleVector(f=f, nan_mask=mask, values=f.tolist())
        got = fit(sv, st)
        c, eff_degree, newton = _fit_by_downdate(sv, st)
        assert got.c.tobytes() == c.tobytes()
        assert got.eff_degree == eff_degree
        assert got.stencil is st
        assert got.newton.tobytes() == newton.tobytes()
        if not mask:
            assert got.newton is st.b


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_dot_products_equal_matmul_expressions(n):
    # the interval step multiplies by the stencil matrices with ndarray.dot,
    # which dispatches faster than @ to the same BLAS kernel; the bytes must
    # stay those of @ (a numpy or BLAS upgrade could split the two)
    st = get_stencil(n)
    rng = np.random.default_rng(700 + n)
    for trial in range(300):
        f = rng.standard_normal(n + 1) * 10.0 ** float(rng.integers(-8, 9))
        k = 0 if trial % 2 else int(rng.integers(1, 3))
        mask = tuple(sorted(rng.choice(n + 1, size=k, replace=False).tolist()))
        f[list(mask)] = 0.0
        sv = SampleVector(f=f, nan_mask=mask, values=f.tolist())
        cv = fit(sv, st)
        for side in (0, 1):
            c_xfer = transfer_to_child(cv, side)
            assert c_xfer.tobytes() == (st.t[side] @ cv.c).tobytes()
            # the refined prediction and the masked path's Newton terms
            assert st.P.dot(c_xfer).tobytes() == (st.P @ c_xfer).tobytes()
            b_xfer = st.t_full[side].dot(cv.newton)
            assert b_xfer.tobytes() == (st.t_full[side] @ cv.newton).tobytes()
            assert (st.p_newton.dot(b_xfer).tobytes()
                    == (st.p_newton @ b_xfer).tobytes())
