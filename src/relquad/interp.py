"""Sampling, coefficient fitting, and per-interval interpolant queries.

An interval's interpolant is a ``CoeffVector``: Legendre coefficients on the
reference interval [-1, 1], always stored at full stencil length with exact
zeros above the effective degree.  Non-numeric integrand values (NaN/Inf) are
not errors: the offending node is recorded in the sample's mask and the fit
is downdated — the interpolation conditions at the bad nodes are removed one
at a time by dividing the Newton polynomial and projecting the coefficient
vector, leaving a lower-degree polynomial that still interpolates every
healthy node.

Nested nodes are never evaluated twice.  A bisection half reuses the values
at its two ends, and a degree doubling those at its even-indexed nodes:
``sample`` takes them as a list in node order and maps and evaluates only
the remaining nodes.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from relquad.basis import SQRT2, RuleStencil, downdate_newton

__all__ = [
    "CountedFunction",
    "SampleVector",
    "CoeffVector",
    "TooManyNonNumeric",
    "sample",
    "fit",
    "integral",
    "transfer_to_child",
]


class TooManyNonNumeric(ValueError):
    """Raised when there is no usable fit: so many nodes are non-numeric that
    no useful fit remains, or the fit's q or eps is not finite."""


class CountedFunction:
    """Wraps an integrand and counts evaluations.

    The counter is the budget and reporting currency of every integration
    run; reused values must never be counted.  ``sample`` adds its new
    nodes to ``count`` once per call and calls ``fn`` itself.  A call, the
    Simpson baseline's only evaluation path, passes ``fn`` its node as an
    ``np.float64``, as ``sample`` does.
    """

    __slots__ = ("fn", "count")

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x: float) -> float:
        self.count += 1
        return float(self.fn(np.float64(x)))


# SampleVector and CoeffVector are made several times per interval step:
# immutable named tuples cost half of a frozen dataclass, and the hot paths
# below build them positionally, which costs half again.

class SampleVector(NamedTuple):
    """Integrand values at stencil nodes: f with masked entries stored as 0,
    and values, the list f was made from, with inf and NaN as evaluated."""

    f: np.ndarray
    nan_mask: tuple[int, ...]
    values: list[float]


class CoeffVector(NamedTuple):
    """A fit, made only by ``fit``: Legendre coefficients in its rule
    stencil (full stencil length, zero-padded above eff_degree) and the
    matching downdated Newton vector."""

    c: np.ndarray
    eff_degree: int
    stencil: RuleStencil
    newton: np.ndarray


def sample(integrand, a: float, b: float, stencil: RuleStencil,
           reuse: list[float] | tuple[float, ...] | None = None
           ) -> SampleVector:
    """Evaluate the integrand at the mapped stencil nodes it has no value
    for.

    ``reuse`` holds values computed before, as ``SampleVector.values`` has
    them (inf or NaN at a masked node), in one of the two nestings:

    - 2 values, at nodes 0 and n: the ends of a bisection half, which are
      nodes of the interval being bisected;
    - n/2 + 1 values, at the even-indexed nodes: a degree doubling, whose
      even nodes are the lower rule's nodes (Chebyshev nesting).

    For n = 2 the two are the same nodes.  Only the other nodes,
    ``nodes[1:-1]`` or ``nodes[1::2]``, are mapped onto [a, b] and
    evaluated, in ascending index order; reused nodes do not increment the
    evaluation counter.  The integrand is a ``CountedFunction``: its count
    grows once per call, and its wrapped function is called directly.

    The integrand receives ``np.float64`` nodes, so that ``1/x`` or
    ``x ** -1.5`` at a node gives inf (masked) rather than raising.  The
    caller owns the floating-point error state: the integrators ignore
    numpy's warnings for the whole run, so sample does not set it.
    """
    # floats: mid + half * x rounds as element i of the float64 array
    # mid + half * np.array(stencil.nodes) does
    mid = float(0.5 * (a + b))
    half = float(0.5 * (b - a))
    fn = integrand.fn
    f64 = np.float64
    nodes = stencil.nodes
    if not reuse:
        fresh = values = [float(fn(f64(mid + half * x))) for x in nodes]
    elif len(reuse) == 2:
        fresh = [float(fn(f64(mid + half * x))) for x in nodes[1:-1]]
        values = [reuse[0], *fresh, reuse[1]]
    else:
        fresh = [float(fn(f64(mid + half * x))) for x in nodes[1::2]]
        values = [0.0] * (stencil.n + 1)
        values[::2] = reuse
        values[1::2] = fresh
    integrand.count += len(fresh)
    f = np.array(values)
    # a sum is finite only if every term is; a finite sum that overflows
    # takes the exact test below
    if math.isfinite(sum(values)):
        return SampleVector(f, (), values)
    mask = tuple(np.flatnonzero(~np.isfinite(f)).tolist())
    f[list(mask)] = 0.0
    return SampleVector(f, mask, values)


def fit(samples: SampleVector, stencil: RuleStencil) -> CoeffVector:
    """Solve for coefficients, then downdate away each masked node.

    Masked nodes are processed in ascending index order; each step divides
    the current Newton polynomial by (x - x_j) and subtracts the multiple of
    it that zeroes the top coefficient, dropping the effective degree by one.
    With no masked node the Newton vector is the stencil's own, read-only
    ``b``, not a copy.
    """
    n = stencil.n
    mask = samples.nan_mask
    c = stencil.P_inv.dot(samples.f)
    if not mask:
        return CoeffVector(c, n, stencil, stencil.b)
    if len(mask) >= n:
        raise TooManyNonNumeric(f"{len(mask)} of {n + 1} nodes non-numeric")
    m = n
    b = stencil.b
    for j in sorted(mask):
        b = downdate_newton(b, stencil.nodes[j])
        c[: m + 1] -= (c[m] / b[m]) * b[: m + 1]
        c[m] = 0.0
        m -= 1
    newton = np.zeros(n + 2)
    newton[: m + 2] = b
    return CoeffVector(c, m, stencil, newton)


def integral(c: CoeffVector, a: float, b: float) -> float:
    """Integral over [a, b] of the polynomial c represents there.

    Only the constant component integrates to something nonzero on the
    reference interval: p_0 = 1/sqrt(2) integrates to sqrt(2) there, every
    higher p_k to 0.
    """
    return 0.5 * (b - a) * SQRT2 * float(c.c[0])


def transfer_to_child(c: CoeffVector, side: int) -> np.ndarray:
    """The coefficients of the fit c re-expanded in the coordinates of one
    half-interval, side 0 (left) or 1 (right), by the transform of its
    rule, c.stencil.

    The transforms are upper triangular, so zero-padding above eff_degree
    survives; the result predicts the parent's interpolant on the child, in
    the same rule.  It is not a fit of the child: it has no Newton vector.
    """
    return c.stencil.t[side].dot(c.c)
