import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from relquad.basis import get_stencil, legendre_values
from relquad.interp import (
    CoeffVector,
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
    sv = sample(fn, 0.0, 1.0, st)
    assert sv.nan_mask == (4,)
    assert sv.f[4] == 0.0
    assert np.isnan(sv.raw(4))
    assert sv.raw(0) == pytest.approx(np.sin(1.0))
    assert fn.count == 5  # the bad node still costs one evaluation


def test_sample_reuse_skips_counter():
    # degree doubling 4 -> 8: even-indexed degree-8 nodes coincide with the
    # degree-4 nodes, so exactly 4 fresh evaluations are needed
    st4, st8 = get_stencil(4), get_stencil(8)
    fn = CountedFunction(np.exp)
    sv4 = sample(fn, 0.25, 0.75, st4)
    assert fn.count == 5
    reuse = {2 * i: sv4.raw(i) for i in range(5)}
    sv8 = sample(fn, 0.25, 0.75, st8, reuse=reuse)
    assert fn.count == 9
    # reused entries are bitwise identical to the originals
    np.testing.assert_array_equal(sv8.f[::2], sv4.f)


def test_sample_reuse_propagates_nan_without_eval():
    st = get_stencil(4)
    fn = CountedFunction(lambda x: 1.0 / x)
    sv = sample(fn, 0.0, 1.0, st)
    assert sv.nan_mask == (4,)
    # a child reusing the masked endpoint inherits the mask for free
    fn2 = CountedFunction(lambda x: 1.0 / x)
    sv2 = sample(fn2, 0.0, 0.5, st, reuse={4: sv.raw(4)})
    assert fn2.count == 4
    assert 4 in sv2.nan_mask


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
        cv = fit(sample(fn, -1.0, 1.0, st), st)
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
            legendre_values(9, st.nodes[keep]), f[keep])
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
    cv = fit(sample(lambda x: 1.0, 0.0, 2.0, st), st)
    assert integral(cv, 0.0, 2.0) == pytest.approx(2.0, abs=1e-14)
    cv = fit(sample(lambda x: x, -1.0, 1.0, st), st)
    assert integral(cv, -1.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    st10 = get_stencil(10)
    cv = fit(sample(np.exp, 0.0, 1.0, st10), st10)
    assert integral(cv, 0.0, 1.0) == pytest.approx(np.e - 1.0, abs=1e-12)


def test_l2_norm_examples_and_oracle():
    # Parseval: in the orthonormal basis the Euclidean norm of a coefficient
    # vector is the L2 norm of its polynomial over [-1, 1], which is what
    # the error estimates charge
    assert np.linalg.norm(np.eye(5)[0]) == 1.0
    assert np.linalg.norm(np.zeros(5)) == 0.0
    st = get_stencil(10)
    rng = np.random.default_rng(3)
    cv = CoeffVector(c=rng.standard_normal(11), eff_degree=10, stencil_n=10)
    g = legendre_values(10, GL_X) @ cv.c
    np.testing.assert_allclose(np.linalg.norm(cv.c), np.sqrt(g @ (GL_W * g)),
                               rtol=1e-10)


def test_transfer_constant_invariant():
    st = get_stencil(8)
    cv = CoeffVector(c=np.r_[3.7, np.zeros(8)], eff_degree=8, stencil_n=8)
    for side in (0, 1):
        np.testing.assert_allclose(transfer_to_child(cv, side, st).c, cv.c,
                                   rtol=0, atol=1e-15)


def test_transfer_linear_function():
    # x on [-1,1] restricted to the left half is (t-1)/2 in child coordinates
    st = get_stencil(10)
    cv = fit(sample(lambda x: x, -1.0, 1.0, st), st)
    left = transfer_to_child(cv, 0, st)
    t = np.linspace(-1.0, 1.0, 21)
    got = legendre_values(10, t) @ left.c
    np.testing.assert_allclose(got, (t - 1.0) / 2.0, rtol=0, atol=1e-13)


@pytest.mark.parametrize("n", (4, 10))
def test_transfer_pointwise_oracle(n):
    st = get_stencil(n)
    rng = np.random.default_rng(n)
    c = rng.standard_normal(n + 1)
    cv = CoeffVector(c=c, eff_degree=n, stencil_n=n)
    t = np.linspace(-1.0, 1.0, 20)
    for side, mapped in ((0, (t - 1) / 2), (1, (t + 1) / 2)):
        child = transfer_to_child(cv, side, st)
        np.testing.assert_allclose(
            legendre_values(n, t) @ child.c,
            legendre_values(n, mapped) @ c,
            rtol=0, atol=1e-12)


def test_transfer_preserves_padding_and_degree():
    st = get_stencil(10)
    c = np.zeros(11)
    c[:8] = np.random.default_rng(5).standard_normal(8)
    cv = CoeffVector(c=c, eff_degree=7, stencil_n=10)
    child = transfer_to_child(cv, 0, st)
    assert child.eff_degree == 7
    np.testing.assert_array_equal(child.c[8:], np.zeros(3))
    assert child.newton is None


def test_bisection_integral_additivity():
    # integral over the parent equals the sum over the two children, exactly
    # in the polynomial algebra and to 1e-12 relative in floating point
    st = get_stencil(10)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(11)
    cv = CoeffVector(c=c, eff_degree=10, stencil_n=10)
    a, b = 0.3, 2.1
    m = 0.5 * (a + b)
    total = integral(cv, a, b)
    parts = (integral(transfer_to_child(cv, 0, st), a, m)
             + integral(transfer_to_child(cv, 1, st), m, b))
    np.testing.assert_allclose(parts, total, rtol=1e-12)


def _sample_per_node(integrand, a, b, stencil, reuse=None):
    """The per-node loop that sample() vectorizes: the reference for it."""
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    f = np.zeros(stencil.n + 1)
    mask = []
    with np.errstate(all="ignore"):
        for i, x in enumerate(stencil.nodes):
            if reuse is not None and i in reuse:
                v = reuse[i]
            else:
                v = integrand(mid + half * x)
            if np.isfinite(v):
                f[i] = v
            else:
                mask.append(i)
    return SampleVector(f=f, nan_mask=tuple(mask))


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_sample_matches_per_node_loop(n):
    # random intervals, reuse maps and NaN/Inf values, at nodes and in the
    # reused values: same bytes, mask, count and evaluation points
    st = get_stencil(n)
    rng = np.random.default_rng(n)
    specials = (np.nan, np.inf, -np.inf)
    for _ in range(60):
        a = float(rng.uniform(-2.0, 2.0))
        b = a + float(rng.choice((1e-9, 1e-3, 0.5, 3.0)))
        xs = [0.5 * (a + b) + 0.5 * (b - a) * x for x in st.nodes]
        table = {xs[i]: specials[i % 3]
                 for i in rng.choice(n + 1, size=rng.integers(0, 4))}

        def g(x):
            return table.get(x, np.exp(x) - 1.0)

        reuse = None
        if rng.random() < 0.7:
            keys = rng.choice(n + 1, size=rng.integers(1, n + 1), replace=False)
            reuse = {int(k): float(rng.choice((*specials, rng.standard_normal())))
                     for k in keys}
        seen, seen_ref = [], []
        fn = CountedFunction(lambda x: seen.append(x) or g(x))
        fn_ref = CountedFunction(lambda x: seen_ref.append(x) or g(x))
        got = sample(fn, a, b, st, reuse=reuse)
        want = _sample_per_node(fn_ref, a, b, st, reuse=reuse)
        assert got.f.tobytes() == want.f.tobytes()
        assert got.nan_mask == want.nan_mask
        assert fn.count == fn_ref.count
        assert np.array(seen).tobytes() == np.array(seen_ref).tobytes()
        assert all(type(x) is np.float64 for x in seen)


def test_sample_passes_numpy_scalars_so_poles_mask():
    # with np.float64 nodes, 0.0 ** -1.5 and 1/0 give inf (masked) instead
    # of raising ZeroDivisionError as Python floats would
    st = get_stencil(4)
    sv = sample(lambda x: x ** -1.5 + 1.0 / x, 0.0, 1.0, st)
    assert sv.nan_mask == (4,)
