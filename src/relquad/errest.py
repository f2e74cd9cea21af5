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
theta1 * deriv * |pi_parent|.  The first node where it does not (kinks,
jumps, noise, or a residual or slack that is NaN) abandons the refined model
for the plain difference norm, and the estimate is flagged as a fallback.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from relquad.basis import newton_terms
from relquad.interp import CoeffVector, SampleVector

__all__ = ["RefinedEstimate", "norm", "naive_error", "refined_error"]

# A finite sum of squares at least this large has no term that underflowed
# enough to move its rounding, and its square root is the norm as it stands.
_SQUARES_IN_RANGE = 2.0 ** -900


def norm(v: np.ndarray) -> float:
    """The 2-norm of a 1-D float vector, exact under scaling by 2**k.

    It is math.sqrt(v.dot(v)), what np.linalg.norm computes for such a
    vector without its dispatch overhead, wherever that dot neither
    overflows nor comes near underflow.  Otherwise the same is computed on
    v scaled by the power of two that brings its largest entry into
    [0.5, 1), which rounds nothing, and scaled back.  A zero vector, or one
    with an inf or NaN entry, has a largest entry whose math.frexp exponent
    is 0, so its scaled path is the plain root: 0, inf or NaN.
    """
    s = v.dot(v)
    if _SQUARES_IN_RANGE <= s < math.inf:
        return math.sqrt(s)
    e = math.frexp(float(np.abs(v).max()))[1]
    w = np.ldexp(v, -e)
    # two factors, so that neither power of two overflows: only the last
    # product can round, and only when the norm itself is out of range
    half = e // 2
    return math.sqrt(w.dot(w)) * 2.0 ** half * 2.0 ** (e - half)


class RefinedEstimate(NamedTuple):
    """eps: the error estimate; used_fallback: true when the smoothness
    test failed and the difference norm was used instead of the derivative
    model.  Built positionally: it is made once per refined child."""

    eps: float
    used_fallback: bool


def naive_error(hi: np.ndarray, lo: np.ndarray, halfwidth: float) -> float:
    """halfwidth * ||hi - lo||_2 of two coefficient arrays, over hi's
    length: lo is zero-padded if shorter, and cut off if longer (a
    higher-degree parent moved onto a lowest-degree child is compared up to
    the child's degree only)."""
    if len(lo) < len(hi):
        # hi - 0.0 is hi bit for bit, so this is hi minus zero-padded lo
        d = hi.copy()
        d[: len(lo)] -= lo
    else:
        d = hi - lo[: len(hi)]
    return halfwidth * norm(d)


def refined_error(
    c_child: CoeffVector,
    c_parent_xfer: np.ndarray,
    samples: SampleVector,
    parent: CoeffVector,
    side: int,
    theta1: float,
    halfwidth: float,
) -> RefinedEstimate:
    """Derivative-extracting error estimate with pointwise validity test.

    c_child and samples are the child's fit and values at the nodes of its
    rule, c_child.stencil; parent is the fit, in the same rule, of the
    interval the child halves on side 0 (left) or 1 (right), and
    c_parent_xfer the coefficients of that fit moved onto the child
    (``interp.transfer_to_child``).  The Newton terms are
    ``basis.newton_terms`` of the two fits' Newton vectors; when neither fit
    is masked they depend on no data, and the stencil holds them.  The first
    unmasked interior node whose residual is not within its slack, NaN
    included, makes the estimate the fallback.
    """
    stencil = c_child.stencil
    b_child = c_child.newton
    diff_norm = norm(c_child.c - c_parent_xfer)
    if b_child is stencil.b and parent.eff_degree == stencil.n:
        # both unmasked: the Newton terms are the stencil's own
        abs_pi, denom, b_norm = stencil.newton_xfer[side]
    else:
        abs_pi, denom, b_norm = newton_terms(
            stencil.t_full[side], stencil.p_newton, b_child, parent.newton,
            parent.eff_degree)
    # denom is sqrt(d.dot(d)): 0.0 or at least sqrt(5e-324), unless NaN.  No
    # run seen makes it 0.0, but the Python float division diff_norm / 0.0
    # would raise out of the run.
    if denom == 0.0:
        return RefinedEstimate(halfwidth * diff_norm, True)
    deriv = diff_norm / denom

    # |P c_xfer - f| against theta1 * deriv * |pi| node by node, in floats;
    # the matrix product stays in numpy, whose BLAS fixes its bits.
    pred = stencil.P.dot(c_parent_xfer).tolist()
    f = samples.values
    slack = theta1 * deriv
    mask = samples.nan_mask
    # The child's first and last nodes coincide with parent nodes (endpoint
    # and midpoint of the parent interval), where the parent interpolant
    # reproduces the reused sample values identically and its Newton
    # polynomial vanishes: residual and slack are both exactly zero there in
    # exact arithmetic, so including them would make the comparison a coin
    # flip between rounding residues.  Skip them along with any masked
    # (non-numeric) nodes, which carry no value to disagree with.
    for i in range(1, len(f) - 1):
        if i not in mask and not (abs(pred[i] - f[i]) <= slack * abs_pi[i]):
            return RefinedEstimate(halfwidth * diff_norm, True)
    return RefinedEstimate(halfwidth * deriv * b_norm, False)
