import numpy as np
import pytest
from numpy.polynomial import legendre as npleg

from relquad.basis import (
    ALPHA,
    GAMMA,
    SQRT2,
    StencilBuildError,
    build_stencil,
    downdate_newton,
    eval_series,
    get_stencil,
    legendre_values,
)
from relquad.interp import CoeffVector, fit, integral, sample

RULE_DEGREES = (4, 8, 10, 16, 32)

# 200-point Gauss-Legendre rule: exact for polynomial integrands up to
# degree 399, far beyond any product p_j * p_k used below.
GL_X, GL_W = npleg.leggauss(200)


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
    vals = legendre_values(12, x)
    for k in range(13):
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
    x = get_stencil(n).nodes
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
    # integral of p_0 over [-1,1] is sqrt(2); all higher p_k integrate to 0
    for n in RULE_DEGREES:
        oracle = legendre_values(n, GL_X).T @ GL_W
        weights = np.array([integral(CoeffVector(c=e, eff_degree=n, stencil_n=n),
                                     -1.0, 1.0) for e in np.eye(n + 1)])
        np.testing.assert_allclose(weights, oracle, rtol=0, atol=1e-13)
        assert weights[0] == SQRT2
        assert not weights[1:].any()


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


@pytest.mark.parametrize("n", (4, 10))
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


@pytest.mark.parametrize("n", RULE_DEGREES)
def test_transferred_newton_fields_are_the_runtime_products(n):
    # bit for bit what the refined integrator would compute from an
    # unmasked parent, whose fitted Newton vector is exactly b
    st = get_stencil(n)
    newton = fit(sample(np.exp, 0.0, 1.0, st), st).newton
    assert newton.tobytes() == st.b.tobytes()
    for Tf, b_xfer, pi_xfer in zip(st.t_full, st.b_xfer, st.pi_xfer):
        want = 2.0 ** (n + 1) * (Tf @ newton)
        assert b_xfer.tobytes() == want.tobytes()
        assert pi_xfer.tobytes() == (st.p_newton @ want).tobytes()


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


def test_get_stencil_caches():
    assert get_stencil(8) is get_stencil(8)
