"""The public integrators.

``_call`` owns the call contract of all three (tau and bounds checks, one
number type, empty and reversed bounds, evaluation count).  ``int_naive``
and ``int_refined`` are each a start-up, which pushes the first records of
[a, b], and a step, which refines the worst interval; ``_drive`` is the
loop that runs both (heap, floors, cap, budget, divergence count).  Both
bisect with ``_split``.

``int_naive`` is doubly adaptive: its step raises the worst interval one
rung of the ladder 4/8/16/32 (``_raise``), reusing nested node values, and
bisects it back to the lowest degree once the ladder is exhausted or the
coefficients jump; its start-up is a degree-16 fit raised once.  Its error
estimate is the coefficient distance between consecutive fits.

``int_refined`` fits once at degree 10 and bisects at every step, but
models the actual interpolation error: it extracts a proxy for the (n+1)st
derivative from the change in coefficients relative to the change in Newton
polynomials, validates the smoothness assumption pointwise, and falls back
to the plain difference norm where the integrand is not smooth enough.

``int_simpson_baseline`` is the classic recursive adaptive Simpson scheme
with tolerance halving; it is deliberately unguarded (no floors, no
divergence detection) and serves as the comparison baseline the two
integrators are designed to beat on reliability.

All three return a ``QuadResult`` whose eps is the total (heap + excess)
error estimate and whose status reports Converged / ToleranceNotMet /
Divergent honestly; NaN/Inf integrand values are data (masked and downdated
away), never propagated into q or eps by the two coefficient-based methods.
A fit with no usable estimate, because too few of its values are numeric or
because finite values near the largest float overflow it, is never pushed;
``_drive`` says how the interval being refined is retired and the run ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from relquad.basis import RuleStencil, get_stencil
from relquad.engine import (
    HEAP_CAP,
    AdaptiveState,
    DivergentIntegral,
    EngineConfig,
    IntervalRecord,
    QuadResult,
    Status,
    _as_float,
    accumulate_excess,
    check_budget,
    check_tau,
    divergence_update,
    enforce_heap_cap,
    select_worst,
    should_drop,
)
from relquad.errest import naive_error, norm, refined_error
from relquad.interp import (
    CountedFunction,
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


#: The naive ladder: degrees N0, 2*N0, ... up to N_TOP, and the relative
#: coefficient change above which an interval is bisected, not raised.
N0 = 4
N_TOP = 32
HINT = 0.1

#: The refined rule's degree and the margin of its smoothness test.  N_REFINED
#: is even: a child reuses its parent's node n // 2 as the parent's midpoint.
N_REFINED = 10
THETA1 = 1.1

#: The Simpson baseline's recursion depth limit.
SIMPSON_MAX_DEPTH = 50


@dataclass(frozen=True, kw_only=True)
class NaiveConfig:
    engine: EngineConfig | None = None


@dataclass(frozen=True, kw_only=True)
class RefinedConfig:
    engine: EngineConfig | None = None


def _check_usable(q: float, eps: float) -> None:
    """Raise TooManyNonNumeric unless a fit's q and eps are both finite: a
    fit that overflows is retired like one with too few numeric values."""
    if not (math.isfinite(q) and math.isfinite(eps)):
        raise TooManyNonNumeric(f"fit overflows: q = {q!r}, eps = {eps!r}")


def _call(integrand, a, b, tau, run, *args) -> QuadResult:
    """The call contract of all three integrators around one run,
    ``run(fn, lo, hi, tau, *args) -> (q, eps, status)`` over lo < hi, with
    fn the integrand wrapped in a CountedFunction.  tau is converted to a
    Python float and checked (``check_tau``), then a and b are converted
    and checked, all before any evaluation: numbers of any real type give
    the result of their float values, and one too large for a float is not
    finite; a string or complex one raises TypeError, and a tau that is not
    positive, or a non-finite bound or width, ValueError.  [a, a]
    integrates to 0 exactly, at no cost; a > b integrates over [b, a] and
    negates q."""
    tau = check_tau(tau)
    a, b = _as_float(a), _as_float(b)
    # b - a is NaN or infinite if a bound is, and infinite if it overflows
    if not math.isfinite(b - a):
        raise ValueError(f"b - a must be finite, got a={a!r}, b={b!r}")
    if a == b:
        return QuadResult(q=0.0, eps=0.0, neval=0, status=Status.CONVERGED)
    fn = CountedFunction(integrand)
    with np.errstate(all="ignore"):  # for the whole run: see sample
        q, eps, status = run(fn, min(a, b), max(a, b), tau, *args)
    return QuadResult(q=-q if a > b else q, eps=eps, neval=fn.count,
                      status=status)


def _drive(fn: CountedFunction, a: float, b: float, tau: float,
           config: NaiveConfig | RefinedConfig | None, start,
           refine) -> tuple[float, float, Status]:
    """The adaptive loop of both integrators over a < b, returning q, eps
    and the status; the two differ only in ``start(fn, state, a, b)``,
    pushing the start-up records of [a, b], and ``refine(fn, state, rec)``,
    pushing the refinement of the popped record rec.

    The loop refines the worst interval while the heap's error is above tau
    and the error retired into excess is not, until the budget,
    ``config.engine``'s max_neval, is spent or a chain diverges.  The budget
    is checked before each step, so a run makes at most max_neval - 1 plus
    one step's fresh evaluations, or the start-up's if more: max(max_neval
    + 21, 33) for int_naive (a raise from 16 to 32, then a split at degree
    4) and max(max_neval + 17, 29) for int_refined (a split at degree 10).

    The returned eps is excess + heap, so once the excess alone is above
    tau no further step can make the run Converged: the run stops at the
    step whose retirement (a drop, an eviction, an unfittable half or a
    verdict) carried the excess past tau, and ends ToleranceNotMet with the
    heap's error as it then stood.  The excess never falls, so a run that
    returns Converged had it within tau throughout and took exactly the
    steps of the test against tau alone; any other run takes a prefix of
    those steps.

    A fit is unusable if it has too few numeric values or its q or eps is
    not finite (``_check_usable``).  An unusable start-up fit, int_refined's
    first halves included, ends the run at once with q = 0, eps = inf and
    ToleranceNotMet.  A refinement that meets one, or a divergence verdict,
    pushes nothing; rec is then retired into excess with its own q and eps,
    which are finite.  The run then cannot return Converged, and on a
    verdict it stops at once with Divergent."""
    engine = None if config is None else config.engine
    max_neval = None if engine is None else engine.max_neval
    state = AdaptiveState()
    try:
        start(fn, state, a, b)
    except TooManyNonNumeric:
        return 0.0, math.inf, Status.TOLERANCE_NOT_MET
    status = None
    while (state.excess_eps <= tau and state.heap_eps_exceeds(tau)
           and (max_neval is None or fn.count < max_neval)):
        rec = select_worst(state)
        if should_drop(rec):
            accumulate_excess(state, rec)
            continue
        try:
            refine(fn, state, rec)
        except TooManyNonNumeric:
            accumulate_excess(state, rec)
            status = Status.TOLERANCE_NOT_MET
            continue
        except DivergentIntegral:
            accumulate_excess(state, rec)
            status = Status.DIVERGENT
            break
        enforce_heap_cap(state, HEAP_CAP)
    q, eps = state.totals()
    if status is None:
        status = Status.CONVERGED if eps <= tau else Status.TOLERANCE_NOT_MET
    return q, eps, status


def _split(state: AdaptiveState, fn, rec: IntervalRecord, st: RuleStencil,
           refined: bool) -> None:
    """Bisect rec: fit its left and right halves in the rule st, then push
    both.  Each half reuses the values at its two end nodes, which are
    rec's, in the rule of rec's fit.  Each half's eps is ``naive_error`` of
    its fit's coefficients and rec's moved onto it or, if refined,
    ``refined_error`` of its fit, those moved coefficients, its samples,
    rec's fit, its side (0 left, 1 right) and THETA1; both at rec's
    half-width.

    Both halves are pushed or neither: an unusable fit raises
    TooManyNonNumeric, and a divergence verdict DivergentIntegral, before
    either half is pushed.  The left half is checked before the right half
    is sampled, so an unusable fit or a verdict on the left costs no
    right-half evaluations.
    """
    a, b = rec.a, rec.b
    mid = 0.5 * (a + b)
    h = 0.5 * (b - a)
    parent = rec.coeffs
    vals = rec.samples.values
    f_b, f_mid, f_a = vals[0], vals[len(vals) // 2], vals[-1]
    halves = []
    # nodes descend: a half's node 0 is its right end, node n its left
    for side, ca, cb, reuse in ((0, a, mid, (f_mid, f_a)),
                                (1, mid, b, (f_b, f_mid))):
        sv = sample(fn, ca, cb, st, reuse=reuse)
        cv = fit(sv, st)
        q = integral(cv, ca, cb)
        nr_div = divergence_update(q, rec)
        c_xfer = transfer_to_child(parent, side)
        # refined_error by its module name: benchmarks/tracing.py swaps it
        eps = (refined_error(cv, c_xfer, sv, parent, side, THETA1, h).eps
               if refined else naive_error(cv.c, c_xfer, h))
        _check_usable(q, eps)
        # positional: a, b, samples, coeffs, q, eps, q_base, nr_div, nr_rec
        halves.append(IntervalRecord(ca, cb, sv, cv, q, eps, q, nr_div,
                                     rec.nr_rec + 1))
    for half in halves:
        state.push(half)


# ---------------------------------------------------------------------------
# doubly adaptive integrator (degree ladder + bisection)
# ---------------------------------------------------------------------------

def _raise(fn: CountedFunction, rec: IntervalRecord) -> float:
    """Raise rec one rung of the ladder, reusing the values at its even
    nodes, and charge it its half-width times the coefficient distance of
    the two fits, which is returned.  An unusable fit raises
    TooManyNonNumeric and leaves rec as it was."""
    st = get_stencil(2 * rec.coeffs.stencil.n)
    sv = sample(fn, rec.a, rec.b, st, reuse=rec.samples.values)
    cv = fit(sv, st)
    diff = naive_error(cv.c, rec.coeffs.c, 1.0)
    q = integral(cv, rec.a, rec.b)
    eps = 0.5 * (rec.b - rec.a) * diff
    _check_usable(q, eps)
    rec.samples, rec.coeffs, rec.q, rec.eps = sv, cv, q, eps
    return diff


def _naive_start(fn: CountedFunction, state: AdaptiveState, a: float,
                 b: float) -> None:
    """Push a degree-16 fit raised once; q, eps and q_base are the raise's."""
    st = get_stencil(N_TOP // 2)
    sv = sample(fn, a, b, st)
    rec = IntervalRecord(a, b, sv, fit(sv, st), q=0.0, eps=0.0, q_base=0.0)
    _raise(fn, rec)
    rec.q_base = rec.q
    state.push(rec)


def _naive_refine(fn: CountedFunction, state: AdaptiveState,
                  rec: IntervalRecord) -> None:
    if rec.coeffs.stencil.n < N_TOP:
        # relative coefficient change: a large jump even at the new
        # degree means the ladder is not converging here — bisect
        if not _raise(fn, rec) > HINT * norm(rec.coeffs.c):
            state.push(rec)
            return
    _split(state, fn, rec, get_stencil(N0), False)


def int_naive(integrand, a: float, b: float, tau: float,
              config: NaiveConfig | None = None) -> QuadResult:
    """Doubly adaptive quadrature over [a, b] to absolute tolerance tau."""
    return _call(integrand, a, b, tau, _drive, config, _naive_start,
                 _naive_refine)


# ---------------------------------------------------------------------------
# refined integrator (fixed degree, derivative-extracting estimate)
# ---------------------------------------------------------------------------

def _refined_start(fn: CountedFunction, state: AdaptiveState, a: float,
                   b: float) -> None:
    """Fit [a, b] at degree N_REFINED, check its q, and push its two halves:
    a half's estimate is made from its parent's fit, so [a, b] has none of
    its own and is never pushed."""
    st = get_stencil(N_REFINED)
    sv = sample(fn, a, b, st)
    cv = fit(sv, st)
    q0 = integral(cv, a, b)
    _check_usable(q0, 0.0)
    _split(state, fn, IntervalRecord(a, b, sv, cv, q=q0, eps=math.nan,
                                     q_base=q0), st, True)


def _refined_refine(fn: CountedFunction, state: AdaptiveState,
                    rec: IntervalRecord) -> None:
    _split(state, fn, rec, get_stencil(N_REFINED), True)


def int_refined(integrand, a: float, b: float, tau: float,
                config: RefinedConfig | None = None) -> QuadResult:
    """Fixed-degree adaptive quadrature over [a, b] to absolute tolerance
    tau, with the derivative-extracting error estimate."""
    return _call(integrand, a, b, tau, _drive, config, _refined_start,
                 _refined_refine)


# ---------------------------------------------------------------------------
# classic adaptive Simpson baseline
# ---------------------------------------------------------------------------

def _simpson(fn: CountedFunction, a: float, b: float, tau: float,
             max_neval: int) -> tuple[float, float, Status]:
    fa, fb = fn(a), fn(b)
    m = 0.5 * (a + b)
    fm = fn(m)

    def recurse(x0, x2, f0, f1, f2, s1, tol, depth):
        # s1 = Simpson estimate over [x0, x2] with midpoint f1; a piece the
        # budget leaves unrefined has no error estimate
        xm = 0.5 * (x0 + x2)
        if fn.count + 2 > max_neval:
            return s1, math.inf
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl, fr = fn(xl), fn(xr)
        h = x2 - x0
        s_left = h / 12.0 * (f0 + 4.0 * fl + f1)
        s_right = h / 12.0 * (f1 + 4.0 * fr + f2)
        s2 = s_left + s_right
        err = (s2 - s1) / 15.0
        if abs(err) <= tol or depth >= SIMPSON_MAX_DEPTH:
            return s2 + err, abs(err)
        ql, el = recurse(x0, xm, f0, fl, f1, s_left, 0.5 * tol, depth + 1)
        qr, er = recurse(xm, x2, f1, fr, f2, s_right, 0.5 * tol, depth + 1)
        return ql + qr, el + er

    s1 = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    q, eps = recurse(a, b, fa, fm, fb, s1, tau, 0)
    status = (Status.CONVERGED if math.isfinite(q) and eps <= tau
              else Status.TOLERANCE_NOT_MET)
    return q, eps, status


def int_simpson_baseline(integrand, a: float, b: float, tau: float,
                         max_neval: int = 100_000) -> QuadResult:
    """Recursive adaptive Simpson with tolerance halving and the |S2-S1|/15
    accept test; no floors, no non-numeric handling, no divergence guard.
    A run stopped by the budget returns eps = inf.  A budget that
    ``check_budget`` rejects raises ValueError before any evaluation; tau
    and the bounds are ``_call``'s, as for int_naive."""
    check_budget(max_neval)
    return _call(integrand, a, b, tau, _simpson, max_neval)


# ---------------------------------------------------------------------------
# divergence-ratio probe
# ---------------------------------------------------------------------------

def divergence_ratio_probe(alpha: float) -> tuple[float, float]:
    """Ratios diagnosing non-integrable endpoint singularities.

    Computes the refined error estimate and integral estimate for x**alpha
    on [0, 1] treated as the left child of [0, 2], and again on [0, 1/2] as
    the left child of [0, 1], and returns (eps_ratio, q_ratio) of the inner
    to the outer.  For integrable singularities (alpha > -1) both ratios are
    below 1 — bisection makes progress; at alpha = -1 the error ratio is 1;
    beyond it the estimates grow toward the singularity.
    """
    if not -2.0 <= alpha < 0.0:
        raise ValueError("alpha must be in [-2, 0)")

    def left_child_estimate(a0: float, b0: float) -> tuple[float, float]:
        fn = CountedFunction(lambda x: np.power(x, alpha))
        state = AdaptiveState()
        _refined_start(fn, state, a0, b0)
        left = next(iter(state.heap))
        return left.eps, left.q

    with np.errstate(all="ignore"):  # as _call does: 0 ** alpha is inf
        eps_outer, q_outer = left_child_estimate(0.0, 2.0)   # -> [0, 1]
        eps_inner, q_inner = left_child_estimate(0.0, 1.0)   # -> [0, 1/2]
    return eps_inner / eps_outer, q_inner / q_outer
