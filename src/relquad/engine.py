"""State and steps of the one adaptive driver that serves both integrators
(``relquad.algorithms._drive``).

The "heap" holds the refinable records in insertion order, each under the
number of its push, with a parallel column ``eps`` of their error
estimates; the total error is ``sum(eps)`` in that order.  Selection and
eviction take from the two ends of one ascending list of (eps, -number)
of the records: its last entry is the largest eps, pushed earliest among
ties, and the earliest push among the smallest is found by bisection.  A
push is an insertion into that sorted list.  0.0 and -0.0 tie.  Every eps
is a number: the driver retires a fit whose q or eps is not finite
before anything is pushed.

Intervals whose error estimate is below the numerical noise floor
eps_mach * |q| * cond(P), or which have become so narrow that adjacent
mapped nodes collide in floating point, are retired into excess
accumulators: their q and eps still count toward the final totals but they
are no longer refinable.

Divergence is detected by counting, along each chain of bisections, how
often a child's integral estimate fails to shrink relative to its parent's
base estimate; a chain where that happens more than NR_DIVMAX times and more
often than every other level is hopeless (integrand not integrable, e.g.
x^-1.5), and the run stops Divergent with the interval being bisected
retired whole, so that its totals still cover the domain.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from numbers import Complex, Integral, Real

import numpy as np

from relquad.interp import CoeffVector, SampleVector

__all__ = [
    "Status",
    "QuadResult",
    "EngineConfig",
    "IntervalRecord",
    "DivergentIntegral",
    "AdaptiveState",
    "HEAP_CAP",
    "NR_DIVMAX",
    "select_worst",
    "should_drop",
    "accumulate_excess",
    "divergence_update",
    "enforce_heap_cap",
]


#: Unit roundoff of the float type every sample and coefficient is held in.
EPS_MACH = float(np.finfo(float).eps)

#: The most refinable records the heap keeps, and the divergence count a
#: bisection chain may reach before it is judged hopeless.
HEAP_CAP = 200
NR_DIVMAX = 20


class Status(enum.Enum):
    CONVERGED = "Converged"
    TOLERANCE_NOT_MET = "ToleranceNotMet"
    DIVERGENT = "Divergent"


@dataclass(frozen=True)
class QuadResult:
    """q/eps are the summed totals over heap and excess at return time."""

    q: float
    eps: float
    neval: int
    status: Status


@dataclass(frozen=True)
class EngineConfig:
    """The evaluation budget.  tau is converted and checked as the
    integrators' tau is, but not read: the integrators take their tolerance
    as an argument."""

    tau: float
    max_neval: int | None = None

    def __post_init__(self):
        check_tau(self.tau)
        if self.max_neval is not None:
            check_budget(self.max_neval)


def _as_float(x) -> float:
    """x as a Python float, infinite if too large for one; not a string,
    nor a complex number, whose imaginary part float() would drop."""
    if isinstance(x, (str, bytes, bytearray)) or (
            isinstance(x, Complex) and not isinstance(x, Real)):
        raise TypeError(f"expected a real number, got {x!r}")
    try:
        return float(x)
    except OverflowError:  # an int or Fraction beyond the largest float
        return math.inf if x > 0 else -math.inf


def check_tau(tau) -> float:
    """tau as a Python float (``_as_float``), which must be above 0."""
    tau = _as_float(tau)
    if not tau > 0.0:
        raise ValueError("tau must be positive")
    return tau


def check_budget(max_neval: int) -> None:
    m = max_neval
    if isinstance(m, bool) or not (isinstance(m, Integral) and m >= 0):
        raise ValueError(f"max_neval must be an integer >= 0, got {m!r}")


@dataclass(slots=True)
class IntervalRecord:
    """One heap entry.

    samples are the integrand's values at the nodes of the record's rule,
    kept so that children reuse their end values, and coeffs their fit,
    which carries the rule and the Newton vector.  q_base is the reference
    for the divergence ratio: the q of the record's first fit, which the
    doubly adaptive integrator's degree raises leave as it was.
    """

    a: float
    b: float
    samples: SampleVector
    coeffs: CoeffVector
    q: float
    eps: float
    q_base: float
    nr_div: int = 0
    nr_rec: int = 0


class DivergentIntegral(RuntimeError):
    """Terminal signal: the bisection chain keeps growing instead of
    converging; the driver retires the interval being bisected and stops."""


class AdaptiveState:
    """heap holds the refinable records in insertion order, and eps their
    error estimates in the same order (live views).  A record's eps must
    not change while it is on the heap."""

    __slots__ = ("_recs", "_eps", "_order", "_pushes", "heap", "eps",
                 "excess_q", "excess_eps")

    def __init__(self) -> None:
        # push number -> record, and -> its eps
        self._recs: dict[int, IntervalRecord] = {}
        self._eps: dict[int, float] = {}
        # (eps, -number) of the records, ascending
        self._order: list[tuple[float, int]] = []
        self._pushes = 0
        self.heap = self._recs.values()
        self.eps = self._eps.values()
        self.excess_q = 0.0
        self.excess_eps = 0.0

    def push(self, rec: IntervalRecord) -> None:
        k = self._pushes
        self._pushes = k + 1
        e = rec.eps
        self._recs[k] = rec
        self._eps[k] = e
        insort(self._order, (e, -k))

    def pop(self, smallest: bool) -> IntervalRecord:
        """Pop the earliest push among the smallest or the largest eps;
        there must be one."""
        order = self._order
        # -number < 1: the entries before (smallest eps, 1) are its ties
        i = bisect_left(order, (order[0][0], 1)) - 1 if smallest else -1
        k = -order.pop(i)[1]
        del self._eps[k]
        return self._recs.pop(k)

    def heap_eps(self) -> float:
        return sum(self.eps)

    def heap_eps_exceeds(self, tau: float) -> bool:
        """heap_eps() > tau, without the sum where the largest eps decides
        it: a float sum of terms >= 0, as every eps is, is at least its
        largest term."""
        order = self._order
        if order and order[-1][0] > tau:
            return True
        return sum(self.eps) > tau

    def totals(self) -> tuple[float, float]:
        """(q, eps) over heap plus excess — the return-line sums."""
        return (self.excess_q + sum(r.q for r in self.heap),
                self.excess_eps + self.heap_eps())


def select_worst(state: AdaptiveState) -> IntervalRecord:
    """Pop the record with maximal eps; ties go to the earliest inserted."""
    return state.pop(False)


def should_drop(rec: IntervalRecord) -> bool:
    """In the rule of rec's fit: numerical floor (eps below attainable
    accuracy), or adjacent mapped nodes that coincide in floating point."""
    stencil = rec.coeffs.stencil
    if rec.eps < abs(rec.q) * EPS_MACH * stencil.cond:
        return True
    mid = 0.5 * (rec.a + rec.b)
    half = 0.5 * (rec.b - rec.a)
    x = stencil.nodes
    first_gap = (mid + half * x[0]) - (mid + half * x[1])
    last_gap = (mid + half * x[-2]) - (mid + half * x[-1])
    return first_gap == 0.0 or last_gap == 0.0


def accumulate_excess(state: AdaptiveState, rec: IntervalRecord) -> None:
    """Retire a record: its contribution is kept, its interval is not."""
    state.excess_q += rec.q
    state.excess_eps += rec.eps


def divergence_update(q_child: float, parent: IntervalRecord) -> int:
    """Child's divergence count; raises when the chain is hopeless.

    The magnitude comparison (not signed, despite the listings) implements
    the ratio argument: what matters is whether the child's estimate failed
    to shrink against the parent's q_base.  q_child = q_base = 0 counts as
    non-shrinking.
    """
    nr_div = parent.nr_div + (1 if abs(q_child) >= abs(parent.q_base) else 0)
    nr_rec_child = parent.nr_rec + 1
    if nr_div > NR_DIVMAX and 2 * nr_div > nr_rec_child:
        raise DivergentIntegral(
            f"divergence count {nr_div} exceeds {NR_DIVMAX} "
            f"over {nr_rec_child} bisections")
    return nr_div


def enforce_heap_cap(state: AdaptiveState, cap: int) -> None:
    """Evict smallest-eps records into excess until at most cap remain."""
    while len(state.eps) > cap:
        accumulate_excess(state, state.pop(True))
