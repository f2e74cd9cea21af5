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
    """halfwidth * ||c_hi - c_lo||_2, with c_lo zero-padded to c_hi's length."""
    hi = c_hi.c
    lo = c_lo.c
    if len(lo) < len(hi):
        lo = np.concatenate([lo, np.zeros(len(hi) - len(lo))])
    return float(halfwidth * np.linalg.norm(hi - lo))


def refined_error(
    c_child: CoeffVector,
    c_parent_xfer: CoeffVector,
    b_stencil: np.ndarray,
    b_parent_xfer_scaled: np.ndarray,
    f_at_child_nodes: SampleVector,
    parent_pred_at_child_nodes: np.ndarray,
    parent_newton_pred_at_child_nodes: np.ndarray,
    theta1: float,
    halfwidth: float,
) -> RefinedEstimate:
    """Derivative-extracting error estimate with pointwise validity test.

    b_stencil is the child's own (possibly downdated) Newton vector;
    b_parent_xfer_scaled is the parent's Newton vector transferred onto the
    child and scaled by 2**deg so both describe monic-normalized polynomials
    in child coordinates.  parent_pred_at_child_nodes and
    parent_newton_pred_at_child_nodes are the transferred parent interpolant
    and Newton polynomial evaluated at the child's nodes; supplying them
    precomputed keeps this a pure vector function.  Masked (non-numeric)
    nodes are excluded from the pointwise test — they carry no function
    value to disagree with.
    """
    # math.sqrt(v.dot(v)) is what np.linalg.norm computes for a 1-D real
    # vector, without its dispatch overhead
    d = c_child.c - c_parent_xfer.c
    diff_norm = math.sqrt(d.dot(d))
    d = b_stencil - b_parent_xfer_scaled
    denom = math.sqrt(d.dot(d))
    if denom < _DEGENERATE_DENOM:
        return RefinedEstimate(eps=halfwidth * diff_norm,
                               deriv_scale=float("inf"), used_fallback=True)
    deriv = diff_norm / denom

    resid = np.abs(parent_pred_at_child_nodes - f_at_child_nodes.f)
    slack = theta1 * deriv * np.abs(parent_newton_pred_at_child_nodes)
    margin = resid - slack
    # The child's first and last nodes coincide with parent nodes (endpoint
    # and midpoint of the parent interval), where the parent interpolant
    # reproduces the reused sample values identically and its Newton
    # polynomial vanishes: residual and slack are both exactly zero there in
    # exact arithmetic, so including them would make the > 0 comparison a
    # coin flip between rounding residues.  Skip them along with any masked
    # (non-numeric) nodes, which carry no value to disagree with.
    if f_at_child_nodes.nan_mask:
        skip = set(f_at_child_nodes.nan_mask)
        skip.update((0, margin.size - 1))
        margin = np.delete(margin, sorted(skip))
    else:
        margin = margin[1:-1]
    if margin.size and margin.max() > 0.0:
        return RefinedEstimate(eps=halfwidth * diff_norm,
                               deriv_scale=deriv, used_fallback=True)
    eps = halfwidth * deriv * math.sqrt(b_stencil.dot(b_stencil))
    return RefinedEstimate(eps=eps, deriv_scale=deriv, used_fallback=False)
