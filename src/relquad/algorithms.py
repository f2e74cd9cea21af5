"""The public integrators.

``int_naive`` and ``int_refined`` share one adaptive driver, ``_drive``
(heap, floors, cap, divergence count, budget); each brings only its start-up
fit and a refinement step, and both build bisection children with ``_child``.

``int_naive`` is doubly adaptive: every interval carries a rule degree from
the ladder n0, 2*n0, ..., n0*2^d_max (default 4/8/16/32) and the worst
interval first exhausts the ladder — reusing nested node values — before it
is bisected back to the lowest degree.  Its error estimate is the
coefficient distance between consecutive fits.

``int_refined`` works at a single degree (default 10) and bisects
immediately, but models the actual interpolation error: it extracts a proxy
for the (n+1)st derivative from the change in coefficients relative to the
change in Newton polynomials, validates the smoothness assumption pointwise,
and falls back to the plain difference norm where the integrand is not
smooth enough for the model.

``int_simpson_baseline`` is the classic recursive adaptive Simpson scheme
with tolerance halving; it is deliberately unguarded (no floors, no
divergence detection) and serves as the comparison baseline the two
integrators are designed to beat on reliability.

All three return a ``QuadResult`` whose eps is the total (heap + excess)
error estimate and whose status reports Converged / ToleranceNotMet /
Divergent honestly; NaN/Inf integrand values are data (masked and downdated
away), never propagated into q or eps by the two coefficient-based methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from relquad.basis import RuleStencil, get_stencil
from relquad.engine import (
    AdaptiveState,
    DivergentIntegral,
    EngineConfig,
    IntervalRecord,
    QuadResult,
    Status,
    accumulate_excess,
    divergence_update,
    enforce_heap_cap,
    select_worst,
    should_drop,
)
from relquad.errest import naive_error, refined_error
from relquad.interp import (
    CountedFunction,
    SampleVector,
    fit,
    integral,
    sample,
    transfer_to_child,
)

__all__ = [
    "NaiveConfig",
    "RefinedConfig",
    "int_naive",
    "int_refined",
    "int_simpson_baseline",
    "divergence_ratio_probe",
]


@dataclass
class NaiveConfig:
    n0: int = 4
    d_max: int = 3
    hint: float = 0.1
    engine: EngineConfig | None = None

    def __post_init__(self):
        if self.n0 < 2:
            raise ValueError("n0 must be at least 2")
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        if not 0.0 < self.hint < 1.0:
            raise ValueError("hint must be in (0, 1)")

    def degree(self, d: int) -> int:
        return self.n0 * 2 ** d


@dataclass
class RefinedConfig:
    n: int = 10
    theta1: float = 1.1
    engine: EngineConfig | None = None

    def __post_init__(self):
        if self.n < 4:
            raise ValueError("n must be at least 4")
        if self.theta1 < 1.0:
            raise ValueError("theta1 must be at least 1")


def _engine_cfg(tau: float, base: EngineConfig | None) -> EngineConfig:
    """The explicit tolerance argument wins over any tau in the config."""
    return EngineConfig(tau=tau) if base is None else replace(base, tau=tau)


def _unordered(integrator, integrand, a: float, b: float, tau: float,
               config) -> QuadResult:
    """Bounds that are not finite with a < b, which the driver never sees.

    Non-finite bounds raise before any evaluation; [a, a] integrates to 0
    exactly, at no cost; a > b integrates over [b, a] and negates q.
    """
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"bounds must be finite, got a={a!r}, b={b!r}")
    if a == b:
        return QuadResult(q=0.0, eps=0.0, neval=0, status=Status.CONVERGED)
    res = integrator(integrand, b, a, tau, config)
    return replace(res, q=-res.q)


def _drive(fn: CountedFunction, root: IntervalRecord, tau: float,
           ecfg: EngineConfig, refine) -> QuadResult:
    """Refine the worst interval until the heap's error is within tau, the
    budget is spent or a chain diverges.  ``refine(state, rec)`` pushes the
    refinement of the popped record rec: all the two integrators differ in."""
    state = AdaptiveState()
    state.push(root)
    status = None
    try:
        while state.heap and state.heap_eps() > tau:
            if ecfg.max_neval is not None and fn.count >= ecfg.max_neval:
                status = Status.TOLERANCE_NOT_MET
                break
            rec = select_worst(state)
            if should_drop(rec, get_stencil(rec.coeffs.stencil_n), ecfg):
                accumulate_excess(state, rec)
                continue
            refine(state, rec)
            enforce_heap_cap(state, ecfg)
    except DivergentIntegral:
        status = Status.DIVERGENT
    q, eps = state.totals()
    if status is None:
        status = Status.CONVERGED if eps <= tau else Status.TOLERANCE_NOT_MET
    return QuadResult(q=q, eps=eps, neval=fn.count, status=status)


def _child(fn, rec: IntervalRecord, side: int, st: RuleStencil,
           ecfg: EngineConfig, estimate) -> IntervalRecord:
    """The half of rec on side 0 (left) or 1 (right), fitted at stencil st,
    reusing the values at its two end nodes (nodes of rec).  Its eps is
    ``estimate(cv, c_xfer, sv, h)`` of its fit, rec's fit moved onto it, its
    samples and rec's half-width."""
    n_par = rec.coeffs.stencil_n
    mid = 0.5 * (rec.a + rec.b)
    h = 0.5 * (rec.b - rec.a)
    # nodes descend: the child's node 0 is its right end, node n its left;
    # j0 and jn are the parent nodes there
    if side == 0:
        ca, cb, j0, jn = rec.a, mid, n_par // 2, n_par
    else:
        ca, cb, j0, jn = mid, rec.b, 0, n_par // 2
    reuse = {0: rec.samples.raw(j0), st.n: rec.samples.raw(jn)}
    sv = sample(fn, ca, cb, st, reuse=reuse)
    cv = fit(sv, st)
    q = integral(cv, ca, cb)
    nr_div = divergence_update(q, rec.q_base, rec, ecfg)
    c_xfer = transfer_to_child(rec.coeffs, side, get_stencil(n_par))
    return IntervalRecord(a=ca, b=cb, coeffs=cv, q=q,
                          eps=estimate(cv, c_xfer, sv, h), q_base=q,
                          nr_div=nr_div, nr_rec=rec.nr_rec + 1, samples=sv)


# ---------------------------------------------------------------------------
# doubly adaptive integrator (degree ladder + bisection)
# ---------------------------------------------------------------------------

def int_naive(integrand, a: float, b: float, tau: float,
              config: NaiveConfig | None = None) -> QuadResult:
    """Doubly adaptive quadrature over [a, b] to absolute tolerance tau."""
    ncfg = config if config is not None else NaiveConfig()
    ecfg = _engine_cfg(tau, ncfg.engine)
    if not -math.inf < a < b < math.inf:
        return _unordered(int_naive, integrand, a, b, tau, config)
    fn = CountedFunction(integrand)

    st_top = get_stencil(ncfg.degree(ncfg.d_max))
    st_lo = get_stencil(ncfg.degree(ncfg.d_max - 1))
    st0 = get_stencil(ncfg.n0)
    sv = sample(fn, a, b, st_top)
    c_top = fit(sv, st_top)
    # the lower rule's nodes are the even-indexed ones (Chebyshev nesting)
    c_lo = fit(SampleVector(f=sv.f[::2].copy(), nan_mask=tuple(
        i // 2 for i in sv.nan_mask if i % 2 == 0)), st_lo)
    q0 = integral(c_top, a, b)
    root = IntervalRecord(a=a, b=b, coeffs=c_top, q=q0,
                          eps=naive_error(c_top, c_lo, 0.5 * (b - a)),
                          q_base=q0, d=ncfg.d_max, samples=sv)

    def refine(state: AdaptiveState, rec: IntervalRecord) -> None:
        if rec.d < ncfg.d_max:
            # one step up the degree ladder, reusing nested node values
            st_hi = get_stencil(ncfg.degree(rec.d + 1))
            reuse = {2 * i: rec.samples.raw(i)
                     for i in range(rec.coeffs.stencil_n + 1)}
            sv_hi = sample(fn, rec.a, rec.b, st_hi, reuse=reuse)
            cv_hi = fit(sv_hi, st_hi)
            diff = naive_error(cv_hi, rec.coeffs, 1.0)
            rec.d += 1
            rec.samples = sv_hi
            rec.coeffs = cv_hi
            rec.q = integral(cv_hi, rec.a, rec.b)
            rec.eps = 0.5 * (rec.b - rec.a) * diff
            norm_hi = float(np.linalg.norm(cv_hi.c))
            # relative coefficient change: a large jump even at the new
            # degree means the ladder is not converging here — bisect
            split = diff > ncfg.hint * norm_hi if norm_hi > 0.0 else diff > 0.0
            if not split:
                state.push(rec)
                return
        for side in (0, 1):
            state.push(_child(fn, rec, side, st0, ecfg,
                              lambda cv, xf, sv, h: naive_error(cv, xf, h)))

    return _drive(fn, root, tau, ecfg, refine)


# ---------------------------------------------------------------------------
# refined integrator (fixed degree, derivative-extracting estimate)
# ---------------------------------------------------------------------------

def _refined_child(fn, rec: IntervalRecord, side: int, st: RuleStencil,
                   theta1: float, ecfg: EngineConfig) -> IntervalRecord:
    """Fit one half of rec and estimate its error against the parent."""
    return _child(fn, rec, side, st, ecfg, lambda cv, xf, sv, h: refined_error(
        cv, xf, sv, rec.coeffs, side, st, theta1, h).eps)


def int_refined(integrand, a: float, b: float, tau: float,
                config: RefinedConfig | None = None) -> QuadResult:
    """Fixed-degree adaptive quadrature over [a, b] to absolute tolerance
    tau, with the derivative-extracting error estimate."""
    rcfg = config if config is not None else RefinedConfig()
    ecfg = _engine_cfg(tau, rcfg.engine)
    if not -math.inf < a < b < math.inf:
        return _unordered(int_refined, integrand, a, b, tau, config)
    fn = CountedFunction(integrand)

    st = get_stencil(rcfg.n)
    sv = sample(fn, a, b, st)
    cv = fit(sv, st)
    q0 = integral(cv, a, b)
    root = IntervalRecord(a=a, b=b, coeffs=cv, q=q0, q_base=q0, samples=sv,
                          eps=float(np.finfo(float).max))  # force a split

    def refine(state: AdaptiveState, rec: IntervalRecord) -> None:
        for side in (0, 1):
            state.push(_refined_child(fn, rec, side, st, rcfg.theta1, ecfg))

    return _drive(fn, root, tau, ecfg, refine)


# ---------------------------------------------------------------------------
# classic adaptive Simpson baseline
# ---------------------------------------------------------------------------

def int_simpson_baseline(integrand, a: float, b: float, tau: float,
                         max_neval: int = 100_000,
                         max_depth: int = 50) -> QuadResult:
    """Recursive adaptive Simpson with tolerance halving and the |S2-S1|/15
    accept test; no floors, no non-numeric handling, no divergence guard."""
    fn = CountedFunction(integrand)
    with np.errstate(all="ignore"):
        fa, fb = fn(a), fn(b)
        m = 0.5 * (a + b)
        fm = fn(m)
        capped = False

        def recurse(x0, x2, f0, f1, f2, s1, tol, depth):
            # s1 = Simpson estimate over [x0, x2] with midpoint f1
            nonlocal capped
            xm = 0.5 * (x0 + x2)
            if fn.count + 2 > max_neval:
                capped = True
                return s1, 0.0
            xl = 0.5 * (x0 + xm)
            xr = 0.5 * (xm + x2)
            fl, fr = fn(xl), fn(xr)
            h = x2 - x0
            s_left = h / 12.0 * (f0 + 4.0 * fl + f1)
            s_right = h / 12.0 * (f1 + 4.0 * fr + f2)
            s2 = s_left + s_right
            err = (s2 - s1) / 15.0
            if abs(err) <= tol or depth >= max_depth:
                return s2 + err, abs(err)
            ql, el = recurse(x0, xm, f0, fl, f1, s_left, 0.5 * tol, depth + 1)
            qr, er = recurse(xm, x2, f1, fr, f2, s_right, 0.5 * tol, depth + 1)
            return ql + qr, el + er

        s1 = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        q, eps = recurse(a, b, fa, fm, fb, s1, tau, 0)
    status = (Status.CONVERGED if not capped and np.isfinite(q) and eps <= tau
              else Status.TOLERANCE_NOT_MET)
    return QuadResult(q=float(q), eps=float(eps), neval=fn.count, status=status)


# ---------------------------------------------------------------------------
# divergence-ratio probe
# ---------------------------------------------------------------------------

def divergence_ratio_probe(alpha: float, h: float = 1.0) -> tuple[float, float]:
    """Ratios diagnosing non-integrable endpoint singularities.

    Computes the refined error estimate and integral estimate for x**alpha
    on [0, h] treated as the left child of [0, 2h], and again on [0, h/2] as
    the left child of [0, h], and returns (eps_ratio, q_ratio) of the inner
    to the outer.  For integrable singularities (alpha > -1) both ratios are
    below 1 — bisection makes progress; at alpha = -1 the error ratio is 1;
    beyond it the estimates grow toward the singularity.
    """
    if not -2.0 <= alpha < 0.0:
        raise ValueError("alpha must be in [-2, 0)")
    if not h > 0.0:
        raise ValueError("h must be positive")
    rcfg = RefinedConfig()
    st = get_stencil(rcfg.n)

    def integrand(x: float) -> float:
        with np.errstate(all="ignore"):
            return float(np.power(x, alpha))

    def left_child_estimate(a0: float, b0: float) -> tuple[float, float]:
        fn = CountedFunction(integrand)
        sv_par = sample(fn, a0, b0, st)
        cv_par = fit(sv_par, st)
        q_par = integral(cv_par, a0, b0)
        parent = IntervalRecord(a=a0, b=b0, coeffs=cv_par, q=q_par, eps=0.0,
                                q_base=q_par, samples=sv_par)
        child = _refined_child(fn, parent, 0, st, rcfg.theta1,
                               EngineConfig(tau=1.0, nr_divmax=10 ** 9))
        return child.eps, child.q

    eps_outer, q_outer = left_child_estimate(0.0, 2.0 * h)   # -> [0, h]
    eps_inner, q_inner = left_child_estimate(0.0, h)          # -> [0, h/2]
    return eps_inner / eps_outer, q_inner / q_outer
