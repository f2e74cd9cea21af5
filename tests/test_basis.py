import math

import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from relquad.basis import (
    ALPHA,
    GAMMA,
    MAX_RULE_DEGREE,
    SQRT2,
    StencilBuildError,
    build_stencil,
    downdate_newton,
    get_stencil,
    legendre_values,
    newton_terms,
)
from relquad.interp import CountedFunction, SampleVector, fit, integral, sample

RULE_DEGREES = (4, 8, 10, 16, 32)

# 200-point Gauss-Legendre rule: exact for polynomial integrands up to
# degree 399, far beyond any product p_j * p_k used below.
GL_X, GL_W = npleg.leggauss(200)


def eval_series(c, x):
    return legendre_values(len(c) - 1, x) @ c  # sum_k c[k] p_k at x


def test_recurrence_first_coefficients():
    # alpha_0 = 1/sqrt(3), gamma_1 = 1/sqrt(3), gamma_0 = 0
    np.testing.assert_allclose(ALPHA[0], 1.0 / np.sqrt(3.0), rtol=1e-15)
    np.testing.assert_allclose(GAMMA[1], 1.0 / np.sqrt(3.0), rtol=1e-15)
    assert GAMMA[0] == 0.0
    np.testing.assert_allclose(ALPHA[1], 2.0 / np.sqrt(15.0), rtol=1e-15)
    assert np.isfinite(ALPHA).all()
    assert np.isfinite(GAMMA).all()


def test_values_match_scaled_classical_legendre():
    # p_k(x) = sqrt((2k+1)/2) * P_k(x) with P_k the classical polynomials
    x = np.linspace(-1.0, 1.0, 57)
    for degree in (1, 12):
        vals = legendre_values(degree, x)
        for k in range(degree + 1):
            ck = np.zeros(k + 1)
            ck[k] = np.sqrt((2.0 * k + 1.0) / 2.0)
            np.testing.assert_allclose(vals[:, k], npleg.legval(x, ck),
                                       rtol=0, atol=1e-13)


def test_orthonormality_under_quadrature_oracle():
    vals = legendre_values(33, GL_X)
    gram = (vals * GL_W[:, None]).T @ vals
    np.testing.assert_allclose(gram, np.eye(34), rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", RULE_DEGREES)
def test_stencil_inverse_and_conditioning(n):
    st = get_stencil(n)
    resid = np.abs(st.P @ st.P_inv - np.eye(n + 1)).max()
    assert resid <= 1e-10
    assert st.cond < 1000.0
    # kappa_inf defined as the product of the two max-absolute-row-sums
    expected = np.abs(st.P).sum(axis=1).max() * np.abs(st.P_inv).sum(axis=1).max()
    np.testing.assert_allclose(st.cond, expected, rtol=1e-15)


def test_measured_condition_numbers():
    # frozen from an independent run; loose tolerance guards regressions only
    measured = {4: 10.6, 8: 25.5, 10: 34.5, 16: 66.2, 32: 178.8}
    for n, kappa in measured.items():
        np.testing.assert_allclose(get_stencil(n).cond, kappa, rtol=5e-3)


@pytest.mark.parametrize("n", RULE_DEGREES)
def test_nodes_descending_antisymmetric(n):
    x = np.array(get_stencil(n).nodes)
    assert x[0] == 1.0 and x[-1] == -1.0
    assert (np.diff(x) < 0).all()
    # exact antisymmetry, not merely approximate
    np.testing.assert_array_equal(x, -x[::-1])
    if n % 2 == 0:
        assert x[n // 2] == 0.0


def test_nodes_nested_under_degree_doubling():
    # even-indexed degree-2n nodes are exactly the degree-n nodes
    for n in (4, 8, 16):
        np.testing.assert_array_equal(get_stencil(2 * n).nodes[::2],
                                      get_stencil(n).nodes)


def test_integration_weights_exact_for_every_basis_function():
    # integral of p_0 over [-1,1] is sqrt(2); all higher p_k integrate to
    # 0: the integral of a fit is sqrt(2) times its first coefficient, and
    # the fit of p_k's values at the nodes integrates as p_k does
    for n in RULE_DEGREES:
        oracle = legendre_values(n, GL_X).T @ GL_W
        st = get_stencil(n)
        weights = []
        for p_k in st.P.T:
            cv = fit(SampleVector(p_k.copy(), (), p_k.tolist()), st)
            weights.append(integral(cv, -1.0, 1.0))
            assert weights[-1] == SQRT2 * float(cv.c[0])
        np.testing.assert_allclose(weights, oracle, rtol=0, atol=1e-13)


def test_degree_one_stencil_by_hand():
    st = build_stencil(1)
    np.testing.assert_array_equal(st.nodes, [1.0, -1.0])
    np.testing.assert_allclose(
        st.P,
        [[1.0 / SQRT2, np.sqrt(1.5)], [1.0 / SQRT2, -np.sqrt(1.5)]],
        rtol=1e-15,
    )
    # Newton polynomial (x-1)(x+1) = x^2 - 1
    x = np.linspace(-1, 1, 11)
    np.testing.assert_allclose(eval_series(st.b, x), x * x - 1.0,
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", RULE_DEGREES)
def test_newton_vector_is_node_product(n):
    st = get_stencil(n)
    x = np.linspace(-1.0, 1.0, 101)
    direct = np.ones_like(x)
    for t in st.nodes:
        direct *= x - t
    np.testing.assert_allclose(eval_series(st.b, x), direct,
                               rtol=0, atol=1e-14)


def test_newton_vector_norm_frozen():
    np.testing.assert_allclose(np.linalg.norm(get_stencil(10).b),
                               1.595e-3, rtol=1e-3)


@pytest.mark.parametrize("n", (1, 4, 10))
def test_downdate_removes_exactly_one_root(n):
    st = get_stencil(n)
    for j in range(n + 1):
        u = downdate_newton(st.b, float(st.nodes[j]))
        assert len(u) == n + 1
        vals = st.P @ u
        others = [i for i in range(n + 1) if i != j]
        # still vanishes at every remaining node ...
        assert np.abs(vals[others]).max() < 1e-13
        # ... but not at the removed one; value matches the direct product
        direct = np.prod([st.nodes[j] - st.nodes[i] for i in others])
        np.testing.assert_allclose(vals[j], direct, rtol=1e-12)


def test_downdate_multiply_back_identity():
    # (x - x_j) * downdate(b, x_j) reproduces b exactly
    st = get_stencil(10)
    x = np.linspace(-1.0, 1.0, 67)
    for j in (0, 3, 5, 10):
        u = downdate_newton(st.b, float(st.nodes[j]))
        lhs = (x - st.nodes[j]) * eval_series(u, x)
        np.testing.assert_allclose(lhs, eval_series(st.b, x),
                                   rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", RULE_DEGREES)
def test_bisection_transforms_pointwise(n):
    st = get_stencil(n)
    rng = np.random.default_rng(n)
    xs = np.linspace(-1.0, 1.0, 33)
    for _ in range(5):
        c = rng.standard_normal(n + 1)
        left = eval_series(st.t[0] @ c, xs)
        right = eval_series(st.t[1] @ c, xs)
        np.testing.assert_allclose(left, eval_series(c, (xs - 1) / 2),
                                   rtol=0, atol=1e-12)
        np.testing.assert_allclose(right, eval_series(c, (xs + 1) / 2),
                                   rtol=0, atol=1e-12)


def test_bisection_transforms_upper_triangular_and_nested():
    st = get_stencil(10)
    assert np.allclose(st.t[0], np.triu(st.t[0]))
    assert np.allclose(st.t[1], np.triu(st.t[1]))
    # the (n+1)-sized transforms are the leading blocks of the full ones
    np.testing.assert_array_equal(st.t[0], st.t_full[0][:11, :11])
    np.testing.assert_array_equal(st.t[1], st.t_full[1][:11, :11])
    # left/right are mirror images: T_right = D T_left D with D = diag((-1)^k)
    d = (-1.0) ** np.arange(11)
    np.testing.assert_allclose(st.t[1], d[:, None] * st.t[0] * d[None, :],
                               rtol=0, atol=1e-15)


def test_full_transform_moves_newton_vector():
    # b transferred to a half interval equals the polynomial evaluated there
    st = get_stencil(10)
    xs = np.linspace(-1.0, 1.0, 41)
    moved = st.t_full[0] @ st.b
    np.testing.assert_allclose(eval_series(moved, xs),
                               eval_series(st.b, (xs - 1) / 2),
                               rtol=0, atol=1e-15)


@pytest.mark.parametrize("n", range(1, MAX_RULE_DEGREE + 1))
def test_refined_error_norm_fields_are_the_runtime_expressions(n):
    # bit for bit what refined_error computes for an unmasked child and
    # parent, whose Newton vectors are both exactly b, and what the
    # newton_terms it calls when a fit is masked gives on those vectors
    st = build_stencil(n)
    newton = fit(sample(CountedFunction(np.exp), 0.0, 1.0, st), st).newton
    assert newton is st.b
    for side in (0, 1):
        # the parent's Newton vector moved onto the half, as refined_error
        # moves it when a fit is masked
        b_xfer = 2.0 ** (n + 1) * st.t_full[side].dot(newton)
        want = np.abs(st.p_newton.dot(b_xfer)).tolist()
        abs_pi, denom, b_norm = st.newton_xfer[side]
        assert type(abs_pi) is tuple
        assert [x.hex() for x in abs_pi] == [x.hex() for x in want]
        d = newton - b_xfer
        assert type(denom) is float
        assert denom.hex() == math.sqrt(d.dot(d)).hex()
        assert type(b_norm) is float
        assert b_norm.hex() == math.sqrt(newton.dot(newton)).hex()
        assert st.newton_xfer[side] == newton_terms(
            st.t_full[side], st.p_newton, newton, newton, n)


@pytest.mark.parametrize("n", (2, 3, *RULE_DEGREES))
def test_fresh_node_arrays_are_contiguous_slices(n):
    # sample maps slices of these, one float at a time, and should_drop and
    # fit read them one by one: an immutable tuple of Python floats, the
    # Chebyshev points (test_sample_node_contract pins the slices)
    st = build_stencil(n)
    assert type(st.nodes) is tuple
    assert all(type(x) is float for x in st.nodes)
    np.testing.assert_allclose(st.nodes, np.cos(np.pi * np.arange(n + 1) / n),
                               rtol=0, atol=1e-15)


def test_p_newton_extends_p():
    st = get_stencil(10)
    np.testing.assert_array_equal(st.p_newton[:, :11], st.P)
    np.testing.assert_allclose(st.p_newton[:, 11],
                               legendre_values(11, st.nodes)[:, 11],
                               rtol=1e-15)


def test_parseval_identity_against_quadrature():
    # ||c||_2^2 equals the L2 inner product of the represented polynomial
    rng = np.random.default_rng(7)
    for deg in (3, 10, 25):
        c = rng.standard_normal(deg + 1)
        vals = eval_series(c, GL_X)
        np.testing.assert_allclose(vals @ (GL_W * vals), c @ c,
                                   rtol=1e-10)


def test_build_stencil_degree_bounds():
    with pytest.raises(ValueError):
        build_stencil(0)
    with pytest.raises(ValueError):
        build_stencil(len(ALPHA) - 1)  # needs coefficients up to degree n+1
    assert len(ALPHA) - 1 == MAX_RULE_DEGREE + 1
    # the largest rule builds, well inside the build's cond < 1000 check
    np.testing.assert_allclose(get_stencil(MAX_RULE_DEGREE).cond, 238.6,
                               rtol=5e-3)
    with pytest.raises(TypeError):
        get_stencil(10.0)  # a degree is an integer, not a float


def test_stencil_arrays_are_read_only():
    # every run shares a stencil, and unmasked fits hand out its b itself
    st = build_stencil(10)
    assert type(st.nodes) is tuple
    arrays = [st.P, st.P_inv, st.b, st.p_newton]
    for pair in (st.t, st.t_full):
        arrays.extend(pair)
    assert not any(arr.flags.writeable for arr in arrays)
    with pytest.raises(ValueError):
        st.b[0] = 0.0


def test_get_stencil_caches():
    assert get_stencil(8) is get_stencil(8)
    assert get_stencil(np.int64(8)) is get_stencil(8)
    # a failed build is not cached: it raises again
    for n in (0, 40, 0, 40):
        with pytest.raises(ValueError):
            get_stencil(n)
