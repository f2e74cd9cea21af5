"""Error estimates for a fitted interval.

Two estimators are provided.  The naive one compares two interpolants of the
same function (higher vs. lower degree, or child vs. transferred parent) and
charges the interval their coefficient distance.  The refined one goes one
step further: the distance between successive interpolants is divided by the
distance between the corresponding Newton polynomials, which isolates a
proxy for |f^(n+1)(xi)/(n+1)!| — the unknown constant in the interpolation
error — and that constant times the Newton polynomial's norm is a direct
model of the actual error.  Because the extraction assumes an (n+1)-times
differentiable integrand, a pointwise test checks that the parent's
interpolant really does predict the sampled child values to within
theta1 * deriv * |pi_parent|; where it does not (kinks, jumps, noise), the
refined model is abandoned for the plain difference norm and the estimate is
flagged as a fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relquad.basis import RuleStencil
from relquad.interp import CoeffVector, SampleVector

__all__ = ["RefinedEstimate", "naive_error", "refined_error"]

# Below this, the Newton-vector difference in the denominator of the
# derivative extraction is treated as degenerate rather than divided by.
_DEGENERATE_DENOM = 1e-300


@dataclass(frozen=True)
class RefinedEstimate:
    """eps: the error estimate; deriv_scale: extracted higher-derivative
    proxy; used_fallback: true when the smoothness test failed and the
    difference norm was used instead of the derivative model."""

    eps: float
    deriv_scale: float
    used_fallback: bool


def naive_error(c_hi: CoeffVector, c_lo: CoeffVector, halfwidth: float) -> float:
    """halfwidth * ||c_hi - c_lo||_2 over c_hi's length: c_lo is zero-padded
    if shorter, and cut off if longer (a higher-degree parent moved onto a
    lowest-degree child is compared up to the child's degree only)."""
    hi = c_hi.c
    lo = c_lo.c[: len(hi)]
    if len(lo) < len(hi):
        lo = np.concatenate([lo, np.zeros(len(hi) - len(lo))])
    return float(halfwidth * np.linalg.norm(hi - lo))


def refined_error(
    c_child: CoeffVector,
    c_parent_xfer: CoeffVector,
    samples: SampleVector,
    parent: CoeffVector,
    side: int,
    stencil: RuleStencil,
    theta1: float,
    halfwidth: float,
) -> RefinedEstimate:
    """Derivative-extracting error estimate with pointwise validity test.

    c_child and samples are the child's fit and values at stencil's nodes;
    parent is the fit, at the same stencil, of the interval the child halves
    on side 0 (left) or 1 (right), and c_parent_xfer that fit moved onto the
    child.  The parent's Newton vector is moved likewise and scaled by
    2**(deg+1), monic in child coordinates like the child's own: the stencil
    holds it for an unmasked parent, and a masked parent's downdated vector
    is moved here.
    """
    if parent.eff_degree < stencil.n:
        b_xfer = 2.0 ** (parent.eff_degree + 1) * (
            stencil.t_full[side] @ parent.newton)
        pi_xfer = stencil.p_newton @ b_xfer
    else:
        b_xfer, pi_xfer = stencil.b_xfer[side], stencil.pi_xfer[side]
    b_child = c_child.newton
    # math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D real
    # vector, without its dispatch overhead
    d = c_child.c - c_parent_xfer.c
    diff_norm = math.sqrt(d.dot(d))
    d = b_child - b_xfer
    denom = math.sqrt(d.dot(d))
    if denom < _DEGENERATE_DENOM:
        return RefinedEstimate(eps=halfwidth * diff_norm,
                               deriv_scale=float("inf"), used_fallback=True)
    deriv = diff_norm / denom

    resid = np.abs(stencil.P @ c_parent_xfer.c - samples.f)
    slack = theta1 * deriv * np.abs(pi_xfer)
    margin = resid - slack
    # The child's first and last nodes coincide with parent nodes (endpoint
    # and midpoint of the parent interval), where the parent interpolant
    # reproduces the reused sample values identically and its Newton
    # polynomial vanishes: residual and slack are both exactly zero there in
    # exact arithmetic, so including them would make the > 0 comparison a
    # coin flip between rounding residues.  Skip them along with any masked
    # (non-numeric) nodes, which carry no value to disagree with.
    if samples.nan_mask:
        skip = set(samples.nan_mask)
        skip.update((0, margin.size - 1))
        margin = np.delete(margin, sorted(skip))
    else:
        margin = margin[1:-1]
    if margin.size and margin.max() > 0.0:
        return RefinedEstimate(eps=halfwidth * diff_norm,
                               deriv_scale=deriv, used_fallback=True)
    eps = halfwidth * deriv * math.sqrt(b_child.dot(b_child))
    return RefinedEstimate(eps=eps, deriv_scale=deriv, used_fallback=False)
