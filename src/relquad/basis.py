"""Orthonormal Legendre basis and interpolation-rule stencils.

All interpolants downstream are stored as coefficient vectors with respect to
the Legendre polynomials normalized on [-1, 1]:

    p_0(x) = 1/sqrt(2),    p_1(x) = sqrt(3/2) x,
    alpha_k p_{k+1}(x) = (x + beta_k) p_k(x) - gamma_k p_{k-1}(x),

with alpha_k = (k+1)/sqrt((2k+1)(2k+3)), beta_k = 0 and
gamma_k = k/sqrt((2k-1)(2k+1)).  Orthonormality makes the Euclidean norm
of a coefficient vector equal to the L2 norm of the polynomial it
represents, which is what the error estimates measure.

A ``RuleStencil`` packages everything a fixed-degree rule needs and is
precomputed once per degree: Chebyshev nodes x_i = cos(pi*i/n) (descending,
endpoints included, nested under degree doubling), the Vandermonde-like
matrix P with P_ij = p_j(x_i) and its inverse, integration weights, the
Newton polynomial pi_n(x) = prod_i (x - x_i) expressed in the basis, and the
coefficient transforms onto the two half-intervals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "LegendreRecurrence",
    "RuleStencil",
    "StencilBuildError",
    "build_recurrence",
    "build_stencil",
    "downdate_matrix",
    "downdate_newton",
    "get_stencil",
    "legendre_values",
    "eval_series",
]

SQRT2 = float(np.sqrt(2.0))

#: Largest rule degree the shared recurrence supports (rules beyond degree 33
#: are out of scope; the Newton vector of degree n needs coefficients to n+1).
_MAX_DEGREE = 40


class StencilBuildError(RuntimeError):
    """Raised when a stencil fails its build-time numerical checks."""


@dataclass(frozen=True)
class LegendreRecurrence:
    """Three-term recurrence coefficients for the orthonormal basis.

    ``alpha[k]``, ``beta[k]``, ``gamma[k]`` drive
    alpha_k p_{k+1} = (x + beta_k) p_k - gamma_k p_{k-1}.
    """

    alpha: np.ndarray
    beta: np.ndarray
    gamma: np.ndarray
    max_degree: int


def build_recurrence(max_degree: int) -> LegendreRecurrence:
    """Recurrence coefficients for p_0 .. p_max_degree."""
    if max_degree < 1:
        raise ValueError("max_degree must be >= 1")
    k = np.arange(max_degree + 1, dtype=float)
    alpha = (k + 1.0) / np.sqrt((2.0 * k + 1.0) * (2.0 * k + 3.0))
    beta = np.zeros(max_degree + 1)
    gamma = np.zeros(max_degree + 1)
    kk = k[1:]
    gamma[1:] = kk / np.sqrt((2.0 * kk - 1.0) * (2.0 * kk + 1.0))
    return LegendreRecurrence(alpha=alpha, beta=beta, gamma=gamma, max_degree=max_degree)


def legendre_values(rec: LegendreRecurrence, degree: int, x: np.ndarray) -> np.ndarray:
    """Evaluate p_0..p_degree at points x; returns shape (len(x), degree+1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, degree + 1))
    out[:, 0] = 1.0 / SQRT2
    if degree >= 1:
        out[:, 1] = x * out[:, 0] / rec.alpha[0]
    for k in range(1, degree):
        out[:, k + 1] = (x * out[:, k] - rec.gamma[k] * out[:, k - 1]) / rec.alpha[k]
    return out


def eval_series(rec: LegendreRecurrence, coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_k coeffs[k] p_k at points x."""
    coeffs = np.asarray(coeffs, dtype=float)
    return legendre_values(rec, len(coeffs) - 1, x) @ coeffs


def _multiply_by_x(rec: LegendreRecurrence, v: np.ndarray) -> np.ndarray:
    """Coefficients of x * poly(v); output one entry longer than v.

    Uses x p_k = alpha_k p_{k+1} + gamma_k p_{k-1} (beta_k = 0).
    """
    m = len(v)
    w = np.zeros(m + 1)
    w[1:] += rec.alpha[:m] * v
    w[: m - 1] += rec.gamma[1:m] * v[1:]
    return w


def _multiply_by_x_minus(rec: LegendreRecurrence, v: np.ndarray, t: float) -> np.ndarray:
    """Coefficients of (x - t) * poly(v)."""
    w = _multiply_by_x(rec, v)
    w[: len(v)] -= t * v
    return w


def _newton_vector(rec: LegendreRecurrence, nodes: np.ndarray) -> np.ndarray:
    """Coefficients of the monic Newton polynomial prod_i (x - x_i).

    Nodes are consumed outside-in (x_0, x_n, x_1, x_{n-1}, ...) so that the
    symmetric pairs combine into |x^2 - x_i^2| <= 1 factors and the partial
    products never leave O(1).  In the natural descending order the partial
    products reach ~1e3 before collapsing to the ~2^-n final scale, and the
    rounding committed at the peak dominates the result for large n.
    """
    order = []
    i, j = 0, len(nodes) - 1
    while i < j:
        order.append(nodes[i])
        order.append(nodes[j])
        i += 1
        j -= 1
    if i == j:
        order.append(nodes[i])
    v = np.array([SQRT2])  # the constant polynomial 1
    for t in order:
        v = _multiply_by_x_minus(rec, v, float(t))
    return v


def _chebyshev_nodes(n: int) -> np.ndarray:
    """cos(pi*i/n), i = 0..n, descending, with exact antisymmetry."""
    x = np.empty(n + 1)
    for i in range(n // 2 + 1):
        v = float(np.cos(np.pi * i / n))
        x[i] = v
        x[n - i] = -v
    if n % 2 == 0:
        x[n // 2] = 0.0
    return x


def _bisection_transform(rec: LegendreRecurrence, size: int, sign: float) -> np.ndarray:
    """(size x size) upper-triangular T with column j = coeffs of p_j((x + sign)/2).

    sign = -1 gives the left half (argument (x-1)/2 in [-1, 0]), sign = +1 the
    right half.  Built by running the recurrence on the substituted argument
    directly in coefficient space, so the entries are exact up to rounding.
    """
    T = np.zeros((size, size))
    u = np.zeros(size)
    u[0] = 1.0  # p_0 of an affine argument is still the constant p_0
    T[:, 0] = u
    u_prev = np.zeros(size)
    for k in range(size - 1):
        yu = 0.5 * (_multiply_by_x(rec, u[: size - 1])[:size] + sign * u)
        nxt = yu
        if k >= 1:
            nxt = nxt - rec.gamma[k] * u_prev
        nxt = nxt / rec.alpha[k]
        u_prev, u = u, nxt
        T[:, k + 1] = u
    return T


@dataclass(frozen=True)
class RuleStencil:
    """Precomputed apparatus of one fixed-degree interpolation rule.

    nodes        Chebyshev points, descending (nodes[0]=1, nodes[n]=-1).
    P, P_inv     P_ij = p_j(nodes[i]) and its inverse (values <-> coefficients).
    cond         kappa_inf(P), used in the numerical-floor drop rule.
    omega        integration weights: omega_0 = sqrt(2), rest exactly 0, so
                 that integral over [a,b] = (b-a)/2 * omega @ c.
    b            Newton polynomial coefficients, length n+2 (degree n+1).
    t_left/right (n+1)x(n+1) upper-triangular transforms mapping coefficients
                 onto the left/right half-interval's reference coordinates.
    t_*_full     Same transforms at size (n+2), needed to transfer the
                 degree-(n+1) Newton vector during error estimation.
    p_newton     (n+1)x(n+2) evaluation matrix p_j(nodes) including j = n+1,
                 for evaluating transferred Newton polynomials at the nodes.
    b_xfer_*     2^(n+1) * (t_*_full @ b): the Newton polynomial moved onto
                 the left/right half-interval and re-normalized to monic in
                 its coordinates.  This is what the refined error estimate
                 compares a child against whenever the parent has no masked
                 nodes (its Newton vector is then exactly b).
    pi_xfer_*    p_newton @ b_xfer_*: that polynomial's values at the nodes.
    """

    n: int
    nodes: np.ndarray
    P: np.ndarray
    P_inv: np.ndarray
    cond: float
    omega: np.ndarray
    b: np.ndarray
    t_left: np.ndarray
    t_right: np.ndarray
    t_left_full: np.ndarray
    t_right_full: np.ndarray
    p_newton: np.ndarray
    b_xfer_left: np.ndarray
    b_xfer_right: np.ndarray
    pi_xfer_left: np.ndarray
    pi_xfer_right: np.ndarray
    rec: LegendreRecurrence

    @property
    def T_left(self) -> np.ndarray:
        return self.t_left

    @property
    def T_right(self) -> np.ndarray:
        return self.t_right


def build_stencil(n: int, rec: LegendreRecurrence) -> RuleStencil:
    """Build the full stencil for degree n (needs rec.max_degree >= n+1)."""
    if not 1 <= n <= rec.max_degree - 1:
        raise ValueError(f"degree {n} outside 1..{rec.max_degree - 1}")
    nodes = _chebyshev_nodes(n)
    p_newton = legendre_values(rec, n + 1, nodes)
    P = np.ascontiguousarray(p_newton[:, : n + 1])
    P_inv = np.linalg.inv(P)
    resid = np.abs(P @ P_inv - np.eye(n + 1)).max()
    if resid > 1e-10:
        raise StencilBuildError(f"inverse residual {resid:.3e} > 1e-10 for n={n}")
    cond = float(np.abs(P).sum(axis=1).max() * np.abs(P_inv).sum(axis=1).max())
    if cond >= 1000.0:
        raise StencilBuildError(f"cond(P) = {cond:.1f} >= 1000 for n={n}")
    omega = np.zeros(n + 1)
    omega[0] = SQRT2  # integral of p_0 over [-1,1]; all higher p_k integrate to 0
    b = _newton_vector(rec, nodes)
    t_left_full = _bisection_transform(rec, n + 2, -1.0)
    t_right_full = _bisection_transform(rec, n + 2, +1.0)
    b_xfer_left = 2.0 ** (n + 1) * (t_left_full @ b)
    b_xfer_right = 2.0 ** (n + 1) * (t_right_full @ b)
    return RuleStencil(
        n=n,
        nodes=nodes,
        P=P,
        P_inv=P_inv,
        cond=cond,
        omega=omega,
        b=b,
        t_left=np.ascontiguousarray(t_left_full[: n + 1, : n + 1]),
        t_right=np.ascontiguousarray(t_right_full[: n + 1, : n + 1]),
        t_left_full=t_left_full,
        t_right_full=t_right_full,
        p_newton=p_newton,
        b_xfer_left=b_xfer_left,
        b_xfer_right=b_xfer_right,
        pi_xfer_left=p_newton @ b_xfer_left,
        pi_xfer_right=p_newton @ b_xfer_right,
        rec=rec,
    )


def downdate_newton(b_vec: np.ndarray, x_j: float, rec: LegendreRecurrence) -> np.ndarray:
    """Coefficients of poly(b_vec)/(x - x_j), for x_j a root of poly(b_vec).

    b_vec has length m+2 (a monic degree-(m+1) Newton-type polynomial); the
    result has length m+1.  Solves the upper-triangular 3-band system arising
    from the multiply-by-(x - x_j) recurrence by back-substitution:

        alpha_k u_k - (x_j + beta_{k+1}) u_{k+1} + gamma_{k+2} u_{k+2} = b_{k+1}
    """
    m = len(b_vec) - 2
    alpha, beta, gamma = rec.alpha, rec.beta, rec.gamma
    u = np.empty(m + 1)
    u[m] = b_vec[m + 1] / alpha[m]
    if m >= 1:
        u[m - 1] = (b_vec[m] + (x_j + beta[m]) * u[m]) / alpha[m - 1]
    for k in range(m - 2, -1, -1):
        u[k] = (
            b_vec[k + 1] + (x_j + beta[k + 1]) * u[k + 1] - gamma[k + 2] * u[k + 2]
        ) / alpha[k]
    return u


def downdate_matrix(stencil: RuleStencil, j: int) -> np.ndarray:
    """Newton vector of the stencil with node j removed (length n+1)."""
    if not 0 <= j <= stencil.n:
        raise ValueError(f"node index {j} outside 0..{stencil.n}")
    return downdate_newton(stencil.b, float(stencil.nodes[j]), stencil.rec)


_RECURRENCE: LegendreRecurrence | None = None
_STENCILS: dict[int, RuleStencil] = {}


def shared_recurrence() -> LegendreRecurrence:
    global _RECURRENCE
    if _RECURRENCE is None:
        _RECURRENCE = build_recurrence(_MAX_DEGREE)
    return _RECURRENCE


def get_stencil(n: int) -> RuleStencil:
    """Per-process cache of immutable stencils (safe to share across runs)."""
    st = _STENCILS.get(n)
    if st is None:
        st = build_stencil(n, shared_recurrence())
        _STENCILS[n] = st
    return st
