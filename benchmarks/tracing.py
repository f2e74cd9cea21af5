"""Per-layer spans for the traced run, taken from outside the library.

``relquad.algorithms`` imports its layer functions by name (``from
relquad.interp import sample``), so the integrator loops look them up in the
``relquad.algorithms`` namespace; wrapping ``relquad.interp.sample`` itself
would intercept nothing.  ``Tracer.install`` therefore swaps timing wrappers
into that namespace and returns a callable that puts the originals back.

A span is (name, start, end).  Spans stay in memory in flat arrays and are
written to one ``.npz`` file at the end; a span's self time is its duration
minus the time covered by the spans nested inside it.  The harness adds one
span per integrator call, so the integrator loop's own time (norms,
concatenations, the matrix products in ``_refined_child``, ``get_stencil``,
``accumulate_excess``) is that span's self time.

Besides time, each wrapper counts the work it sees, per integrator, from
the arguments and results of the call: reused and masked nodes, downdates,
heap length, drops, evictions, fallbacks and divergent verdicts.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

import numpy as np

from relquad import algorithms
from relquad.engine import DivergentIntegral
from relquad.interp import CountedFunction

# the wrapped names, with their layer prefix as the metrics spell it
LAYER = {
    "sample": "interp.sample",
    "fit": "interp.fit",
    "integral": "interp.integral",
    "transfer_to_child": "interp.transfer_to_child",
    "refined_error": "errest.refined_error",
    "select_worst": "engine.select_worst",
    "should_drop": "engine.should_drop",
    "enforce_heap_cap": "engine.enforce_heap_cap",
    "divergence_update": "engine.divergence_update",
}


class RecordingFunction(CountedFunction):
    """A CountedFunction that also keeps every point it is asked for, so
    the integrand's own cost can be measured afterwards by re-evaluating
    the points, without a timer around each evaluation."""

    __slots__ = ("xs",)

    def __init__(self, fn):
        super().__init__(fn)
        self.xs = array("d")

    def __call__(self, x: float) -> float:
        self.xs.append(x)
        return CountedFunction.__call__(self, x)


class Tracer:
    def __init__(self, integrators):
        self.names: list[str] = []
        self.name_id = array("H")
        self.t0 = array("d")
        self.t1 = array("d")
        self.per_alg = {alg: Counter() for alg in integrators}
        self.call_id = {alg: self.span_id(f"int_{alg}") for alg in integrators}
        # (integrand, points asked for) of every traced call
        self.recorded = {alg: [] for alg in integrators}
        # counters of the integrator being called
        self.counts: Counter = Counter()

    def begin_call(self, alg: str, integrand):
        """Point the counters at ``alg``; returns the integrand to pass,
        which records the points it is evaluated at."""
        self.counts = self.per_alg[alg]
        rec = RecordingFunction(integrand)
        self.recorded[alg].append((integrand, rec.xs))
        return rec

    def end_call(self, alg: str, t0: float, t1: float) -> None:
        self.add_span(self.call_id[alg], t0, t1)

    def span_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def add_span(self, nid: int, t0: float, t1: float) -> None:
        self.name_id.append(nid)
        self.t0.append(t0)
        self.t1.append(t1)

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name, fn, count):
        nid = self.span_id(name)
        add_id, add_t0, add_t1 = (self.name_id.append, self.t0.append,
                                  self.t1.append)
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                add_id(nid)
                add_t0(t0)
                add_t1(t1)
            count(tracer.counts, args, kwargs, out)
            return out

        return wrapper

    def install(self):
        """Replace the layer names ``relquad.algorithms`` looks up with
        timing wrappers; returns a callable that restores the originals."""
        originals = {name: getattr(algorithms, name) for name in LAYER}
        for name, fn in originals.items():
            if name == "enforce_heap_cap":
                wrapped = self._wrap_cap(fn)
            elif name == "divergence_update":
                wrapped = self._wrap_divergence(fn)
            else:
                count = _COUNTERS.get(name, _count_none)
                wrapped = self._wrap(name, fn, count)
            setattr(algorithms, name, wrapped)

        def restore():
            for name, fn in originals.items():
                setattr(algorithms, name, fn)

        return restore

    def _wrap_cap(self, fn):
        nid = self.span_id("enforce_heap_cap")
        clock = time.perf_counter
        tracer = self

        def wrapper(state, cfg):
            before = len(state.heap)
            t0 = clock()
            try:
                fn(state, cfg)
            finally:
                tracer.add_span(nid, t0, clock())
            tracer.counts["evictions"] += before - len(state.heap)

        return wrapper

    def _wrap_divergence(self, fn):
        nid = self.span_id("divergence_update")
        clock = time.perf_counter
        tracer = self

        def wrapper(*args):
            t0 = clock()
            try:
                return fn(*args)
            except DivergentIntegral:
                tracer.counts["divergent_verdicts"] += 1
                raise
            finally:
                tracer.add_span(nid, t0, clock())
                tracer.counts["divergence_update.calls"] += 1

        return wrapper

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        return (np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.t0, dtype=np.float64),
                np.frombuffer(self.t1, dtype=np.float64))

    def self_times(self):
        """(name ids, self seconds, parent index) of every span; the parent
        is the innermost span that encloses it, -1 for a root."""
        nid, t0, t1 = self.arrays()
        n = len(nid)
        parent = np.full(n, -1, dtype=np.int64)
        stack: list[int] = []
        for i in np.lexsort((-t1, t0)).tolist():
            while stack and t1[stack[-1]] <= t0[i]:
                stack.pop()
            if stack:
                parent[i] = stack[-1]
            stack.append(i)
        dur = t1 - t0
        child = np.zeros(n)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        return nid, dur - child, parent

    def save(self, path) -> None:
        nid, t0, t1 = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=nid, t0=t0, t1=t1)


# Counting hooks: (counters, args, kwargs, result) -> None.  The positional
# layouts are those of the call sites in relquad.algorithms.

def _count_none(counts, args, kwargs, out):
    pass


def _count_sample(counts, args, kwargs, out):
    # sample(fn, a, b, stencil, reuse=...)
    reuse = kwargs.get("reuse", args[4] if len(args) > 4 else None)
    n_reused = len(reuse) if reuse else 0
    counts["sample.calls"] += 1
    counts["sample.filled"] += len(out.f)
    counts["sample.reused"] += n_reused
    counts["sample.masked"] += len(out.nan_mask)
    if n_reused == 2:
        counts["child_samples"] += 1      # one half of a bisection
    elif n_reused > 2:
        counts["ladder_raises"] += 1      # nested degree raise (naive)


def _count_fit(counts, args, kwargs, out):
    counts["fit.calls"] += 1
    counts["fit.downdates"] += len(args[0].nan_mask)


def _count_select(counts, args, kwargs, out):
    # counted after the pop: the heap held one more record on entry
    n = len(args[0].heap) + 1
    counts["select_worst.calls"] += 1
    counts["heap_len.sum"] += n
    if n > counts["heap_len.max"]:
        counts["heap_len.max"] = n


def _count_drop(counts, args, kwargs, out):
    counts["drops"] += bool(out)


def _count_refined_error(counts, args, kwargs, out):
    counts["refined_error.calls"] += 1
    counts["refined_error.fallbacks"] += bool(out.used_fallback)


_COUNTERS = {
    "sample": _count_sample,
    "fit": _count_fit,
    "select_worst": _count_select,
    "should_drop": _count_drop,
    "refined_error": _count_refined_error,
}
