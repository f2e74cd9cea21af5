"""Sampling, coefficient fitting, and per-interval interpolant queries.

An interval's interpolant is a ``CoeffVector``: Legendre coefficients on the
reference interval [-1, 1], always stored at full stencil length with exact
zeros above the effective degree.  Non-numeric integrand values (NaN/Inf) are
not errors: the offending node is recorded in the sample's mask and the fit
is downdated — the interpolation conditions at the bad nodes are removed one
at a time by dividing the Newton polynomial and projecting the coefficient
vector, leaving a lower-degree polynomial that still interpolates every
healthy node.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    """Raised when so many nodes are non-numeric that no useful fit remains."""


class CountedFunction:
    """Wraps an integrand and counts evaluations.

    The counter is the budget and reporting currency of every integration
    run; reused values must never pass through __call__.
    """

    __slots__ = ("fn", "count")

    def __init__(self, fn):
        self.fn = fn
        self.count = 0

    def __call__(self, x: float) -> float:
        self.count += 1
        return float(self.fn(x))


@dataclass(frozen=True)
class SampleVector:
    """Integrand values at stencil nodes; masked entries are stored as 0."""

    f: np.ndarray
    nan_mask: tuple[int, ...]

    def raw(self, i: int) -> float:
        """Value for reuse at node i: NaN when masked, so that children
        inherit the non-numeric verdict without re-evaluating."""
        if i in self.nan_mask:
            return float("nan")
        return float(self.f[i])


@dataclass(frozen=True)
class CoeffVector:
    """Legendre coefficients (full stencil length, zero-padded above
    eff_degree) plus the matching downdated Newton vector when known."""

    c: np.ndarray
    eff_degree: int
    stencil_n: int
    newton: np.ndarray | None = None


def sample(integrand, a: float, b: float, stencil: RuleStencil,
           reuse: dict[int, float] | None = None) -> SampleVector:
    """Evaluate the integrand at the mapped stencil nodes.

    ``reuse`` maps node indices to previously computed raw values (NaN for
    previously non-numeric nodes); those nodes are not re-evaluated and do
    not increment the evaluation counter.

    The integrand receives ``np.float64`` nodes, so that ``1/x`` or
    ``x ** -1.5`` at a node gives inf (masked) rather than raising.
    """
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    get = reuse.get if reuse else {}.get
    values = []
    with np.errstate(all="ignore"):
        for i, x in enumerate(mid + half * stencil.nodes):
            v = get(i)
            values.append(integrand(x) if v is None else v)
    f = np.array(values, dtype=float)
    bad = ~np.isfinite(f)
    if not bad.any():
        return SampleVector(f=f, nan_mask=())
    f[bad] = 0.0
    return SampleVector(f=f, nan_mask=tuple(np.flatnonzero(bad).tolist()))


def fit(samples: SampleVector, stencil: RuleStencil) -> CoeffVector:
    """Solve for coefficients, then downdate away each masked node.

    Masked nodes are processed in ascending index order; each step divides
    the current Newton polynomial by (x - x_j) and subtracts the multiple of
    it that zeroes the top coefficient, dropping the effective degree by one.
    """
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
    return CoeffVector(c=c, eff_degree=m, stencil_n=n, newton=newton)


def integral(c: CoeffVector, a: float, b: float) -> float:
    """Integral over [a, b] of the polynomial c represents there.

    Only the constant component integrates to something nonzero on the
    reference interval: p_0 = 1/sqrt(2) integrates to sqrt(2) there, every
    higher p_k to 0.
    """
    return 0.5 * (b - a) * SQRT2 * float(c.c[0])


def transfer_to_child(c: CoeffVector, side: int, stencil: RuleStencil) -> CoeffVector:
    """Re-expand the interpolant in the coordinates of one half-interval,
    side 0 (left) or 1 (right).

    The transforms are upper triangular, so zero-padding above eff_degree
    survives; the result predicts the parent's interpolant on the child and
    carries no Newton vector of its own.
    """
    return CoeffVector(c=stencil.t[side] @ c.c, eff_degree=c.eff_degree,
                       stencil_n=c.stencil_n, newton=None)
