"""Orthonormal Legendre basis and interpolation-rule stencils.

All interpolants downstream are stored as coefficient vectors with respect to
the Legendre polynomials normalized on [-1, 1]:

    p_0(x) = 1/sqrt(2),    p_1(x) = sqrt(3/2) x,
    alpha_k p_{k+1}(x) = x p_k(x) - gamma_k p_{k-1}(x),

with alpha_k = (k+1)/sqrt((2k+1)(2k+3)) and gamma_k = k/sqrt((2k-1)(2k+1))
(the shift beta_k of the general three-term recurrence is zero here).
Orthonormality makes the Euclidean norm of a coefficient vector equal to the
L2 norm of the polynomial it represents, which is what the error estimates
measure.

A ``RuleStencil`` packages everything a fixed-degree rule needs and is
precomputed once per degree: Chebyshev nodes x_i = cos(pi*i/n) (descending,
endpoints included, nested under degree doubling), the Vandermonde-like
matrix P with P_ij = p_j(x_i) and its inverse, the Newton polynomial
pi_n(x) = prod_i (x - x_i) expressed in the basis, and for each of the two
half-intervals the coefficient transform onto it and the data-free terms of
the refined error estimate there.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ALPHA",
    "GAMMA",
    "RuleStencil",
    "StencilBuildError",
    "build_stencil",
    "downdate_newton",
    "get_stencil",
    "legendre_values",
    "newton_terms",
]

SQRT2 = float(np.sqrt(2.0))

#: Largest degree n a ``RuleStencil`` can be built for.  The Newton vector
#: of a degree-n rule needs basis coefficients up to degree n+1.
MAX_RULE_DEGREE = 39

# alpha_k and gamma_k of the recurrence above, k = 0..MAX_RULE_DEGREE + 1.
_K = np.arange(MAX_RULE_DEGREE + 2, dtype=float)
ALPHA = (_K + 1.0) / np.sqrt((2.0 * _K + 1.0) * (2.0 * _K + 3.0))
GAMMA = np.zeros(MAX_RULE_DEGREE + 2)
GAMMA[1:] = _K[1:] / np.sqrt((2.0 * _K[1:] - 1.0) * (2.0 * _K[1:] + 1.0))
ALPHA.setflags(write=False)
GAMMA.setflags(write=False)


class StencilBuildError(RuntimeError):
    """Raised when a stencil fails its build-time numerical checks."""


def legendre_values(degree: int, x: np.ndarray) -> np.ndarray:
    """Evaluate p_0..p_degree at points x; returns shape (len(x), degree+1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.empty((x.size, degree + 1))
    out[:, 0] = 1.0 / SQRT2
    if degree >= 1:
        out[:, 1] = x * out[:, 0] / ALPHA[0]
    for k in range(1, degree):
        out[:, k + 1] = (x * out[:, k] - GAMMA[k] * out[:, k - 1]) / ALPHA[k]
    return out


def _multiply_by_x(v: np.ndarray) -> np.ndarray:
    """Coefficients of x * poly(v); output one entry longer than v.

    Uses x p_k = alpha_k p_{k+1} + gamma_k p_{k-1}.
    """
    m = len(v)
    w = np.zeros(m + 1)
    w[1:] += ALPHA[:m] * v
    w[: m - 1] += GAMMA[1:m] * v[1:]
    return w


def _newton_vector(nodes: tuple[float, ...]) -> np.ndarray:
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
        w = _multiply_by_x(v)  # (x - t) * poly(v)
        w[: len(v)] -= t * v
        v = w
    return v


def _chebyshev_nodes(n: int) -> tuple[float, ...]:
    """cos(pi*i/n), i = 0..n, descending, with exact antisymmetry."""
    x = [0.0] * (n + 1)
    for i in range(n // 2 + 1):
        v = float(np.cos(np.pi * i / n))
        x[i] = v
        x[n - i] = -v
    if n % 2 == 0:
        x[n // 2] = 0.0
    return tuple(x)


def _bisection_transform(size: int, sign: float) -> np.ndarray:
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
        yu = 0.5 * (_multiply_by_x(u[: size - 1])[:size] + sign * u)
        nxt = yu
        if k >= 1:
            nxt = nxt - GAMMA[k] * u_prev
        nxt = nxt / ALPHA[k]
        u_prev, u = u, nxt
        T[:, k + 1] = u
    return T


@dataclass(frozen=True)
class RuleStencil:
    """Precomputed apparatus of one fixed-degree interpolation rule.

    nodes        Chebyshev points, descending (nodes[0]=1, nodes[n]=-1), as
                 a tuple of floats: the hot paths read them one by one.
    P, P_inv     P_ij = p_j(nodes[i]) and its inverse (values <-> coefficients).
    cond         kappa_inf(P), used in the numerical-floor drop rule.
    b            Newton polynomial coefficients, length n+2 (degree n+1).
    p_newton     (n+1)x(n+2) evaluation matrix p_j(nodes) including j = n+1,
                 for evaluating transferred Newton polynomials at the nodes.

    The remaining fields are pairs indexed by side, 0 for the left
    half-interval and 1 for the right:

    t            (n+1)x(n+1) upper-triangular transforms mapping coefficients
                 onto that half-interval's reference coordinates.
    t_full       The same transforms at size (n+2), needed to transfer the
                 degree-(n+1) Newton vector during error estimation.

    newton_xfer  ``newton_terms(t_full[side], p_newton, b, b, n)``: the
                 refined error estimate's (abs_pi, denom, b_norm) of a child
                 and a parent that are both unmasked, whose Newton vectors
                 are both b.
    """

    n: int
    nodes: tuple[float, ...]
    P: np.ndarray
    P_inv: np.ndarray
    cond: float
    b: np.ndarray
    p_newton: np.ndarray
    t: tuple[np.ndarray, np.ndarray]
    t_full: tuple[np.ndarray, np.ndarray]
    newton_xfer: tuple[tuple[tuple[float, ...], float, float], ...]


def build_stencil(n: int) -> RuleStencil:
    """Build the full stencil for degree n (needs coefficients to n+1)."""
    if not 1 <= n <= MAX_RULE_DEGREE:
        raise ValueError(f"degree {n} outside 1..{MAX_RULE_DEGREE}")
    nodes = _chebyshev_nodes(n)
    p_newton = legendre_values(n + 1, nodes)
    P = np.ascontiguousarray(p_newton[:, : n + 1])
    P_inv = np.linalg.inv(P)
    resid = np.abs(P @ P_inv - np.eye(n + 1)).max()
    if resid > 1e-10:
        raise StencilBuildError(f"inverse residual {resid:.3e} > 1e-10 for n={n}")
    cond = float(np.abs(P).sum(axis=1).max() * np.abs(P_inv).sum(axis=1).max())
    if cond >= 1000.0:
        raise StencilBuildError(f"cond(P) = {cond:.1f} >= 1000 for n={n}")
    b = _newton_vector(nodes)
    t_full = tuple(_bisection_transform(n + 2, sign) for sign in (-1.0, 1.0))
    t = tuple(np.ascontiguousarray(tf[: n + 1, : n + 1]) for tf in t_full)
    # stencils are shared by every run, and fits hand out b itself
    for arr in (P, P_inv, b, p_newton, *t, *t_full):
        arr.setflags(write=False)
    return RuleStencil(
        n=n, nodes=nodes, P=P, P_inv=P_inv, cond=cond, b=b, p_newton=p_newton,
        t=t, t_full=t_full,
        newton_xfer=tuple(newton_terms(tf, p_newton, b, b, n)
                          for tf in t_full))


def newton_terms(t_full: np.ndarray, p_newton: np.ndarray,
                 b_child: np.ndarray, b_parent: np.ndarray,
                 deg_parent: int) -> tuple[tuple[float, ...], float, float]:
    """The Newton terms of the refined error estimate: (abs_pi, denom,
    b_norm) of a child with Newton vector b_child, of a parent of degree
    deg_parent with Newton vector b_parent, on the side whose size-(n+2)
    transform is t_full.

    b_xfer = 2^(deg_parent+1) * t_full.dot(b_parent) is the parent's Newton
    polynomial moved onto the child, monic in child coordinates like the
    child's own.  abs_pi is the tuple of that polynomial's absolute values
    at the nodes (p_newton's rows), denom is the 2-norm of b_child - b_xfer
    and b_norm that of b_child.
    """
    b_xfer = 2.0 ** (deg_parent + 1) * t_full.dot(b_parent)
    d = b_child - b_xfer
    return (tuple(np.abs(p_newton.dot(b_xfer)).tolist()),
            math.sqrt(d.dot(d)), math.sqrt(b_child.dot(b_child)))


def downdate_newton(b_vec: np.ndarray, x_j: float) -> np.ndarray:
    """Coefficients of poly(b_vec)/(x - x_j), for x_j a root of poly(b_vec).

    b_vec has length m+2 (a monic degree-(m+1) Newton-type polynomial); the
    result has length m+1.  Solves the upper-triangular 3-band system arising
    from the multiply-by-(x - x_j) recurrence by back-substitution:

        alpha_k u_k - x_j u_{k+1} + gamma_{k+2} u_{k+2} = b_{k+1}
    """
    m = len(b_vec) - 2
    u = np.empty(m + 1)
    u[m] = b_vec[m + 1] / ALPHA[m]
    if m >= 1:
        u[m - 1] = (b_vec[m] + x_j * u[m]) / ALPHA[m - 1]
    for k in range(m - 2, -1, -1):
        u[k] = (b_vec[k + 1] + x_j * u[k + 1] - GAMMA[k + 2] * u[k + 2]) / ALPHA[k]
    return u


_build_once = functools.cache(build_stencil)


def get_stencil(n: int) -> RuleStencil:
    """The shared stencil of degree n, built once per integer n."""
    return _build_once(operator.index(n))
