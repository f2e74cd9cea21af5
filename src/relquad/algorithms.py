"""The public integrators.

``int_naive`` and ``int_refined`` share one adaptive driver, ``_drive``
(heap, floors, cap, divergence count, budget); each brings only its start-up
fit and a refinement step, and both bisect an interval with ``_split``.

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
An interval whose bisection meets a half with too few numeric values to fit,
or a divergence verdict, is retired as it stands, so q and eps cover [a, b];
the run then ends ToleranceNotMet at best, or Divergent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from relquad.basis import MAX_RULE_DEGREE, RuleStencil, get_stencil
from relquad.engine import (
    AdaptiveState,
    DivergentIntegral,
    EngineConfig,
    IntervalRecord,
    QuadResult,
    Status,
    _check_integer,
    accumulate_excess,
    divergence_update,
    enforce_heap_cap,
    select_worst,
    should_drop,
)
from relquad.errest import naive_error, norm, refined_error
from relquad.interp import (
    CountedFunction,
    SampleVector,
    TooManyNonNumeric,
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
        _check_integer(n0=self.n0, d_max=self.d_max)
        if self.n0 < 2:
            raise ValueError("n0 must be at least 2")
        if self.d_max < 1:
            raise ValueError("d_max must be at least 1")
        # n0 * 2 ** d_max <= MAX_RULE_DEGREE, without the power of a huge d_max
        if self.n0 > MAX_RULE_DEGREE >> self.d_max:
            raise ValueError(f"n0 * 2 ** d_max must be at most "
                             f"{MAX_RULE_DEGREE}")
        if not 0.0 < self.hint < 1.0:
            raise ValueError("hint must be in (0, 1)")


@dataclass
class RefinedConfig:
    n: int = 10
    theta1: float = 1.1
    engine: EngineConfig | None = None

    def __post_init__(self):
        _check_integer(n=self.n)
        if not 4 <= self.n <= MAX_RULE_DEGREE:
            raise ValueError(f"n must be in 4..{MAX_RULE_DEGREE}")
        if self.n % 2:
            # a child reuses its parent's node n // 2 as the parent's
            # midpoint, which that node is only for even n
            raise ValueError("n must be even")
        # written so that NaN fails too
        if not self.theta1 >= 1.0:
            raise ValueError("theta1 must be at least 1")


def _engine_cfg(tau: float, base: EngineConfig | None) -> EngineConfig:
    """The explicit tolerance argument wins over any tau in the config."""
    return EngineConfig(tau=tau) if base is None else replace(base, tau=tau)


def _check_finite(a: float, b: float) -> None:
    # b - a is NaN or infinite if a bound is, and infinite if it overflows
    if not math.isfinite(b - a):
        raise ValueError(f"b - a must be finite, got a={a!r}, b={b!r}")


def _unordered(integrator, integrand, a: float, b: float, tau: float,
               config) -> QuadResult:
    """Bounds not a < b with a finite width, which the driver never sees.

    A non-finite width raises before any evaluation; [a, a] integrates to 0
    exactly, at no cost; a > b integrates over [b, a] and negates q.
    """
    _check_finite(a, b)
    if a == b:
        return QuadResult(q=0.0, eps=0.0, neval=0, status=Status.CONVERGED)
    res = integrator(integrand, b, a, tau, config)
    return replace(res, q=-res.q)


def _drive(fn: CountedFunction, start, tau: float, ecfg: EngineConfig,
           refine) -> QuadResult:
    """Fit the start-up interval, ``start()`` returning its record, then
    refine the worst interval until the heap's error is within tau, the
    budget is spent or a chain diverges.  ``refine(state, rec)`` pushes the
    refinement of the popped record rec.  These two are all the two
    integrators differ in.

    A start-up fit with too few numeric values ends the run at once with
    q = 0, eps = inf and ToleranceNotMet.  A refinement that meets such a
    fit, or a divergence verdict, pushes nothing; rec is then retired into
    excess with its own q and eps.  The run then cannot return Converged,
    and on a verdict it stops at once with Divergent."""
    with np.errstate(all="ignore"):  # for the whole run: see sample
        try:
            root = start()
        except TooManyNonNumeric:
            return QuadResult(q=0.0, eps=math.inf, neval=fn.count,
                              status=Status.TOLERANCE_NOT_MET)
        state = AdaptiveState()
        state.push(root)
        status = None
        nonnumeric = False
        while state.heap_eps_exceeds(tau):
            if ecfg.max_neval is not None and fn.count >= ecfg.max_neval:
                status = Status.TOLERANCE_NOT_MET
                break
            rec = select_worst(state)
            if should_drop(rec, get_stencil(rec.coeffs.stencil_n), ecfg):
                accumulate_excess(state, rec)
                continue
            try:
                refine(state, rec)
            except TooManyNonNumeric:
                accumulate_excess(state, rec)
                nonnumeric = True
                continue
            except DivergentIntegral:
                accumulate_excess(state, rec)
                status = Status.DIVERGENT
                break
            enforce_heap_cap(state, ecfg)
        q, eps = state.totals()
    if status is None:
        status = (Status.CONVERGED if eps <= tau and not nonnumeric
                  else Status.TOLERANCE_NOT_MET)
    return QuadResult(q=q, eps=eps, neval=fn.count, status=status)


def _split(state: AdaptiveState, fn, rec: IntervalRecord, st: RuleStencil,
           ecfg: EngineConfig, estimate) -> None:
    """Bisect rec: fit its left and right halves at stencil st, then push
    both.  Each half reuses the values at its two end nodes (nodes of rec).
    Its eps is ``estimate(cv, c_xfer, sv, parent, side, h)`` of its fit,
    rec's fit moved onto it, its samples, rec's fit, its side (0 left,
    1 right) and rec's half-width.

    Both halves are pushed or neither: a fit with too few numeric values
    raises TooManyNonNumeric, and a divergence verdict DivergentIntegral,
    before either half is pushed.  The left half's divergence_update runs
    before the right half is sampled, so a verdict on the left costs no
    right-half evaluations.
    """
    a, b = rec.a, rec.b
    mid = 0.5 * (a + b)
    h = 0.5 * (b - a)
    parent = rec.coeffs
    n_par = parent.stencil_n
    st_par = get_stencil(n_par)
    vals = rec.samples.values
    f_b, f_mid, f_a = vals[0], vals[n_par // 2], vals[n_par]
    halves = []
    # nodes descend: a half's node 0 is its right end, node n its left
    for side, ca, cb, reuse in ((0, a, mid, (f_mid, f_a)),
                                (1, mid, b, (f_b, f_mid))):
        sv = sample(fn, ca, cb, st, reuse=reuse)
        cv = fit(sv, st)
        q = integral(cv, ca, cb)
        nr_div = divergence_update(q, rec.q_base, rec, ecfg)
        c_xfer = transfer_to_child(parent, side, st_par)
        # positional: a, b, coeffs, q, eps, q_base, nr_div, nr_rec, samples
        halves.append(IntervalRecord(
            ca, cb, cv, q, estimate(cv, c_xfer, sv, parent, side, h), q,
            nr_div, rec.nr_rec + 1, sv))
    for half in halves:
        state.push(half)


def _naive_estimate(cv, c_xfer, sv, parent, side, h) -> float:
    """The error estimate of a naive half, in ``_split``'s signature."""
    return naive_error(cv, c_xfer, h)


def _refined_estimate(st: RuleStencil, theta1: float):
    """The error estimate of a refined half, in ``_split``'s signature."""
    return lambda cv, c_xfer, sv, parent, side, h: refined_error(
        cv, c_xfer, sv, parent, side, st, theta1, h).eps


# ---------------------------------------------------------------------------
# doubly adaptive integrator (degree ladder + bisection)
# ---------------------------------------------------------------------------

def int_naive(integrand, a: float, b: float, tau: float,
              config: NaiveConfig | None = None) -> QuadResult:
    """Doubly adaptive quadrature over [a, b] to absolute tolerance tau."""
    ncfg = config if config is not None else NaiveConfig()
    ecfg = _engine_cfg(tau, ncfg.engine)
    if not (a < b and math.isfinite(b - a)):
        return _unordered(int_naive, integrand, a, b, tau, config)
    fn = CountedFunction(integrand)

    n_top = ncfg.n0 * 2 ** ncfg.d_max
    st_top = get_stencil(n_top)
    st_lo = get_stencil(n_top // 2)
    st0 = get_stencil(ncfg.n0)

    def refine(state: AdaptiveState, rec: IntervalRecord) -> None:
        if rec.coeffs.stencil_n < n_top:
            # one step up the degree ladder, reusing nested node values
            st_hi = get_stencil(2 * rec.coeffs.stencil_n)
            sv_hi = sample(fn, rec.a, rec.b, st_hi, reuse=rec.samples.values)
            cv_hi = fit(sv_hi, st_hi)
            diff = naive_error(cv_hi, rec.coeffs, 1.0)
            rec.samples = sv_hi
            rec.coeffs = cv_hi
            rec.q = integral(cv_hi, rec.a, rec.b)
            rec.eps = 0.5 * (rec.b - rec.a) * diff
            norm_hi = norm(cv_hi.c)
            # relative coefficient change: a large jump even at the new
            # degree means the ladder is not converging here — bisect
            split = diff > ncfg.hint * norm_hi if norm_hi > 0.0 else diff > 0.0
            if not split:
                state.push(rec)
                return
        _split(state, fn, rec, st0, ecfg, _naive_estimate)

    def start() -> IntervalRecord:
        sv = sample(fn, a, b, st_top)
        c_top = fit(sv, st_top)
        # the lower rule's nodes are the even-indexed ones (Chebyshev nesting)
        c_lo = fit(SampleVector(sv.f[::2].copy(), tuple(
            i // 2 for i in sv.nan_mask if i % 2 == 0), sv.values[::2]), st_lo)
        q0 = integral(c_top, a, b)
        return IntervalRecord(a=a, b=b, coeffs=c_top, q=q0,
                              eps=naive_error(c_top, c_lo, 0.5 * (b - a)),
                              q_base=q0, samples=sv)

    return _drive(fn, start, tau, ecfg, refine)


# ---------------------------------------------------------------------------
# refined integrator (fixed degree, derivative-extracting estimate)
# ---------------------------------------------------------------------------

def int_refined(integrand, a: float, b: float, tau: float,
                config: RefinedConfig | None = None) -> QuadResult:
    """Fixed-degree adaptive quadrature over [a, b] to absolute tolerance
    tau, with the derivative-extracting error estimate."""
    rcfg = config if config is not None else RefinedConfig()
    ecfg = _engine_cfg(tau, rcfg.engine)
    if not (a < b and math.isfinite(b - a)):
        return _unordered(int_refined, integrand, a, b, tau, config)
    fn = CountedFunction(integrand)
    st = get_stencil(rcfg.n)

    estimate = _refined_estimate(st, rcfg.theta1)

    def refine(state: AdaptiveState, rec: IntervalRecord) -> None:
        _split(state, fn, rec, st, ecfg, estimate)

    def start() -> IntervalRecord:
        sv = sample(fn, a, b, st)
        cv = fit(sv, st)
        q0 = integral(cv, a, b)
        return IntervalRecord(a=a, b=b, coeffs=cv, q=q0, q_base=q0,
                              samples=sv,
                              eps=float(np.finfo(float).max))  # force a split

    return _drive(fn, start, tau, ecfg, refine)


# ---------------------------------------------------------------------------
# classic adaptive Simpson baseline
# ---------------------------------------------------------------------------

def int_simpson_baseline(integrand, a: float, b: float, tau: float,
                         max_neval: int = 100_000,
                         max_depth: int = 50) -> QuadResult:
    """Recursive adaptive Simpson with tolerance halving and the |S2-S1|/15
    accept test; no floors, no non-numeric handling, no divergence guard.
    Non-finite bounds or widths raise ValueError before any evaluation."""
    _check_finite(a, b)
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
        state = AdaptiveState()
        _split(state, fn, parent, st, EngineConfig(tau=1.0, nr_divmax=10 ** 9),
               _refined_estimate(st, rcfg.theta1))
        left = next(iter(state.heap))
        return left.eps, left.q

    eps_outer, q_outer = left_child_estimate(0.0, 2.0 * h)   # -> [0, h]
    eps_inner, q_inner = left_child_estimate(0.0, h)          # -> [0, h/2]
    return eps_inner / eps_outer, q_inner / q_outer
