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
from typing import NamedTuple

import numpy as np

from relquad.basis import RuleStencil
from relquad.interp import CoeffVector, SampleVector

__all__ = ["RefinedEstimate", "naive_error", "refined_error"]

# Below this, the Newton-vector difference in the denominator of the
# derivative extraction is treated as degenerate rather than divided by.
_DEGENERATE_DENOM = 1e-300


class RefinedEstimate(NamedTuple):
    """eps: the error estimate; deriv_scale: extracted higher-derivative
    proxy; used_fallback: true when the smoothness test failed and the
    difference norm was used instead of the derivative model.  Built
    positionally: it is made once per refined child."""

    eps: float
    deriv_scale: float
    used_fallback: bool


def naive_error(c_hi: CoeffVector, c_lo: CoeffVector, halfwidth: float) -> float:
    """halfwidth * ||c_hi - c_lo||_2 over c_hi's length: c_lo is zero-padded
    if shorter, and cut off if longer (a higher-degree parent moved onto a
    lowest-degree child is compared up to the child's degree only)."""
    hi = c_hi.c
    lo = c_lo.c
    if len(lo) < len(hi):
        # hi - 0.0 is hi bit for bit, so this is hi minus zero-padded lo
        d = hi.copy()
        d[: len(lo)] -= lo
    else:
        d = hi - lo[: len(hi)]
    # math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D real
    # vector, without its dispatch overhead
    return float(halfwidth * math.sqrt(d.dot(d)))


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
    child.  When neither fit is masked, the Newton terms, which then depend
    on no data, are read from the stencil.  Otherwise the parent's Newton
    vector is moved likewise and scaled by 2**(deg+1), monic in child
    coordinates like the child's own.
    """
    b_child = c_child.newton
    # math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D real
    # vector, without its dispatch overhead
    d = c_child.c - c_parent_xfer.c
    diff_norm = math.sqrt(d.dot(d))
    if b_child is stencil.b and parent.eff_degree == stencil.n:
        # both unmasked: the Newton terms are the stencil's own
        abs_pi = stencil.abs_pi_xfer[side]
        denom = stencil.newton_dist[side]
        b_norm = stencil.b_norm
    else:
        b_xfer = 2.0 ** (parent.eff_degree + 1) * (
            stencil.t_full[side] @ parent.newton)
        abs_pi = np.abs(stencil.p_newton @ b_xfer)
        d = b_child - b_xfer
        denom = math.sqrt(d.dot(d))
        b_norm = math.sqrt(b_child.dot(b_child))
    if denom < _DEGENERATE_DENOM:
        return RefinedEstimate(halfwidth * diff_norm, float("inf"), True)
    deriv = diff_norm / denom

    resid = np.abs(stencil.P @ c_parent_xfer.c - samples.f)
    slack = theta1 * deriv * abs_pi
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
    # maximum.reduce is what .max() calls, NaN propagation included
    if margin.size and np.maximum.reduce(margin) > 0.0:
        return RefinedEstimate(halfwidth * diff_norm, deriv, True)
    return RefinedEstimate(halfwidth * deriv * b_norm, deriv, False)
