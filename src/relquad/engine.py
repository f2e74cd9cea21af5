"""State and steps of the one adaptive driver that serves both integrators
(``relquad.algorithms._drive``).

The "heap" is a plain list of records in insertion order, with a parallel
float list ``eps`` holding their error estimates.  Selection and eviction
scan that column with the builtin ``max``/``min`` and ``list.index``, which
return the first extremum, so ties go to the earliest-inserted record; the
total error is ``sum(eps)`` in heap order.  The scans are O(size) and not
free next to a cheap integrand: the staircase benchmark holds the heap at
its cap of 200 for thousands of steps, and reading ``eps`` off every record
there costs two to three times as much as scanning the column.

Intervals whose error estimate is below the numerical noise floor
eps_mach * |q| * cond(P), or which have become so narrow that adjacent
mapped nodes collide in floating point, are retired into excess
accumulators: their q and eps still count toward the final totals but they
are no longer refinable.

Divergence is detected by counting, along each chain of bisections, how
often a child's integral estimate fails to shrink relative to its parent's
base estimate; a chain where that happens more than nr_divmax times and more
often than every other level is hopeless (integrand not integrable, e.g.
x^-1.5), and the run is aborted with partial results.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

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
        if self.heap_cap < 2:
            raise ValueError("heap_cap must be at least 2")
        if self.nr_divmax < 1:
            raise ValueError("nr_divmax must be at least 1")


@dataclass
class IntervalRecord:
    """One heap entry.

    q_base is the reference for the divergence ratio: the doubly adaptive
    integrator keeps its lowest-degree estimate here, the fixed-degree one
    simply its current q.  b_old (the fitted Newton vector) travels inside
    coeffs; samples are kept so children can reuse endpoint values.
    """

    a: float
    b: float
    coeffs: CoeffVector
    q: float
    eps: float
    q_base: float
    nr_div: int = 0
    nr_rec: int = 0
    d: int = 0
    samples: SampleVector | None = None


class DivergentIntegral(RuntimeError):
    """Terminal signal: the bisection chain keeps growing instead of
    converging.  The driver catches it and returns partial totals."""


@dataclass
class AdaptiveState:
    """heap holds the refinable records in insertion order; eps[i] is
    heap[i].eps.  A record's eps must not change while it is on the heap."""

    heap: list[IntervalRecord] = field(default_factory=list)
    eps: list[float] = field(default_factory=list)
    excess_q: float = 0.0
    excess_eps: float = 0.0

    def push(self, rec: IntervalRecord) -> None:
        self.heap.append(rec)
        self.eps.append(rec.eps)

    def pop(self, i: int) -> IntervalRecord:
        del self.eps[i]
        return self.heap.pop(i)

    def heap_eps(self) -> float:
        return sum(self.eps)

    def totals(self) -> tuple[float, float]:
        """(q, eps) over heap plus excess — the return-line sums."""
        return (self.excess_q + sum(r.q for r in self.heap),
                self.excess_eps + self.heap_eps())


def select_worst(state: AdaptiveState) -> IntervalRecord:
    """Pop the record with maximal eps; ties go to the earliest inserted."""
    eps = state.eps
    return state.pop(eps.index(max(eps)))


def should_drop(rec: IntervalRecord, stencil: RuleStencil,
                cfg: EngineConfig) -> bool:
    """Numerical floor (eps below attainable accuracy) or interval so
    narrow that adjacent mapped nodes coincide in floating point."""
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
    eps = state.eps
    while len(eps) > cfg.heap_cap:
        accumulate_excess(state, state.pop(eps.index(min(eps))))
