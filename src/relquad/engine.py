"""State and steps of the one adaptive driver that serves both integrators
(``relquad.algorithms._drive``).

The "heap" holds the refinable records in insertion order, each under the
number of its push, with a parallel column ``eps`` of their error
estimates; the total error is ``sum(eps)`` in that order.  Selection and
eviction take from the two ends of one ascending list of (eps, -number)
of the records whose eps is not NaN: its last entry is the largest eps,
pushed earliest among ties, and the earliest push among the smallest is
found by bisection.  A push is an insertion into that sorted list.  0.0
and -0.0 tie, and a NaN eps, which the list does not hold, is chosen only
while its record is the oldest on the heap.

Intervals whose error estimate is below the numerical noise floor
eps_mach * |q| * cond(P), or which have become so narrow that adjacent
mapped nodes collide in floating point, are retired into excess
accumulators: their q and eps still count toward the final totals but they
are no longer refinable.

Divergence is detected by counting, along each chain of bisections, how
often a child's integral estimate fails to shrink relative to its parent's
base estimate; a chain where that happens more than nr_divmax times and more
often than every other level is hopeless (integrand not integrable, e.g.
x^-1.5), and the run stops Divergent with the interval being bisected
retired whole, so that its totals still cover the domain.
"""

from __future__ import annotations

import enum
import math
from bisect import bisect_left, insort
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from relquad.basis import RuleStencil
from relquad.interp import CoeffVector, SampleVector

__all__ = [
    "Status",
    "QuadResult",
    "EngineConfig",
    "IntervalRecord",
    "DivergentIntegral",
    "AdaptiveState",
    "select_worst",
    "should_drop",
    "accumulate_excess",
    "divergence_update",
    "enforce_heap_cap",
]


#: Unit roundoff of the float type every sample and coefficient is held in.
EPS_MACH = float(np.finfo(float).eps)


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


@dataclass
class EngineConfig:
    tau: float
    heap_cap: int = 200
    nr_divmax: int = 20
    max_neval: int | None = None

    def __post_init__(self):
        if not self.tau > 0.0:
            raise ValueError("tau must be positive")
        _check_integer(heap_cap=self.heap_cap, nr_divmax=self.nr_divmax)
        if self.heap_cap < 2:
            raise ValueError("heap_cap must be at least 2")
        if self.nr_divmax < 1:
            raise ValueError("nr_divmax must be at least 1")
        if self.max_neval is not None:
            _check_integer(max_neval=self.max_neval)
            if self.max_neval < 0:
                raise ValueError("max_neval must be at least 0")


def _check_integer(**fields) -> None:
    for name, value in fields.items():
        if not isinstance(value, Integral):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(slots=True)
class IntervalRecord:
    """One heap entry.

    q_base is the reference for the divergence ratio: the doubly adaptive
    integrator keeps its lowest-degree estimate here, the fixed-degree one
    simply its current q.  The fitted Newton vector and rule degree travel
    inside coeffs; samples are kept so children can reuse endpoint values.
    """

    a: float
    b: float
    coeffs: CoeffVector
    q: float
    eps: float
    q_base: float
    nr_div: int = 0
    nr_rec: int = 0
    samples: SampleVector | None = None


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
        # (eps, -number) of the records whose eps is not NaN, ascending
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
        if not math.isnan(e):
            insort(self._order, (e, -k))

    def _take(self, smallest: bool) -> IntervalRecord:
        """Pop the oldest record if its eps is NaN, else the earliest push
        among the smallest or the largest eps."""
        eps, order = self._eps, self._order
        if len(eps) == len(order) or not math.isnan(eps[k := next(iter(eps))]):
            # -number < 1: the entries before (smallest eps, 1) are its ties
            i = bisect_left(order, (order[0][0], 1)) - 1 if smallest else -1
            k = -order.pop(i)[1]
        del eps[k]
        return self._recs.pop(k)

    def pop_largest(self) -> IntervalRecord:
        return self._take(False)

    def pop_smallest(self) -> IntervalRecord:
        return self._take(True)

    def heap_eps(self) -> float:
        return sum(self.eps)

    def heap_eps_exceeds(self, tau: float) -> bool:
        """heap_eps() > tau, without the sum where the largest eps decides
        it: a float sum of terms >= 0, as every eps is or NaN, is at least
        its largest term.  A NaN eps takes the sum, which it makes NaN."""
        order = self._order
        if order and len(order) == len(self._eps) and order[-1][0] > tau:
            return True
        return sum(self.eps) > tau

    def totals(self) -> tuple[float, float]:
        """(q, eps) over heap plus excess — the return-line sums."""
        return (self.excess_q + sum(r.q for r in self.heap),
                self.excess_eps + self.heap_eps())


def select_worst(state: AdaptiveState) -> IntervalRecord:
    """Pop the record with maximal eps; ties go to the earliest inserted."""
    return state.pop_largest()


def should_drop(rec: IntervalRecord, stencil: RuleStencil,
                cfg: EngineConfig) -> bool:
    """Numerical floor (eps below attainable accuracy) or interval so
    narrow that adjacent mapped nodes coincide in floating point."""
    if rec.eps < abs(rec.q) * EPS_MACH * stencil.cond:
        return True
    mid = 0.5 * (rec.a + rec.b)
    half = 0.5 * (rec.b - rec.a)
    x0, x1, x_2, x_1 = stencil.edge_nodes
    first_gap = (mid + half * x0) - (mid + half * x1)
    last_gap = (mid + half * x_2) - (mid + half * x_1)
    return first_gap == 0.0 or last_gap == 0.0


def accumulate_excess(state: AdaptiveState, rec: IntervalRecord) -> None:
    """Retire a record: its contribution is kept, its interval is not."""
    state.excess_q += rec.q
    state.excess_eps += rec.eps


def divergence_update(q_child: float, q_parent_base: float,
                      parent: IntervalRecord, cfg: EngineConfig) -> int:
    """Child's divergence count; raises when the chain is hopeless.

    The magnitude comparison (not signed, despite the listings) implements
    the ratio argument: what matters is whether the child's estimate failed
    to shrink.  q_child = q_parent_base = 0 counts as non-shrinking.
    """
    nr_div = parent.nr_div + (1 if abs(q_child) >= abs(q_parent_base) else 0)
    nr_rec_child = parent.nr_rec + 1
    if nr_div > cfg.nr_divmax and 2 * nr_div > nr_rec_child:
        raise DivergentIntegral(
            f"divergence count {nr_div} exceeds {cfg.nr_divmax} "
            f"over {nr_rec_child} bisections")
    return nr_div


def enforce_heap_cap(state: AdaptiveState, cfg: EngineConfig) -> None:
    """Evict smallest-eps records into excess until the cap is respected."""
    while len(state.eps) > cfg.heap_cap:
        accumulate_excess(state, state.pop_smallest())
