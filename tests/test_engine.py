import math

import numpy as np
import pytest

from relquad.basis import get_stencil
from relquad.engine import (
    AdaptiveState,
    DivergentIntegral,
    EngineConfig,
    IntervalRecord,
    Status,
    accumulate_excess,
    divergence_update,
    enforce_heap_cap,
    select_worst,
    should_drop,
)
from relquad.interp import CoeffVector

ST10 = get_stencil(10)


def _rec(q=0.0, eps=0.0, a=0.0, b=1.0, nr_div=0, nr_rec=0):
    cv = CoeffVector(c=np.zeros(11), eff_degree=10, stencil_n=10)
    return IntervalRecord(a=a, b=b, coeffs=cv, q=q, eps=eps, q_base=q,
                          nr_div=nr_div, nr_rec=nr_rec)


def _cfg(tau=1e-6, **kw):
    return EngineConfig(tau=tau, **kw)


def test_select_worst_returns_max_eps():
    st = AdaptiveState()
    for eps in (1.0, 3.0, 2.0):
        st.push(_rec(eps=eps))
    got = select_worst(st)
    assert got.eps == 3.0
    assert len(st.heap) == 2


def test_select_worst_tie_breaks_by_insertion_order():
    st = AdaptiveState()
    first = _rec(eps=2.0, q=1.0)
    second = _rec(eps=2.0, q=-1.0)
    st.push(first)
    st.push(second)
    assert select_worst(st) is first
    assert select_worst(st) is second


def test_should_drop_numerical_floor():
    cfg = _cfg()
    assert should_drop(_rec(q=1.0, eps=0.0), ST10, cfg)
    # 1e-3 is far above 1 * eps_mach * cond(P) ~ 7.7e-15
    assert not should_drop(_rec(q=1.0, eps=1e-3), ST10, cfg)


def test_should_drop_collapsed_interval():
    eps_mach = np.finfo(float).eps
    rec = _rec(q=1.0, eps=1.0, a=1.0, b=1.0 + 2.0 * eps_mach)
    assert should_drop(rec, ST10, _cfg())
    # a clearly resolvable interval is kept
    assert not should_drop(_rec(q=1.0, eps=1.0, a=1.0, b=1.0 + 1e-8),
                           ST10, _cfg())


def test_accumulate_excess_sums_and_conserves():
    st = AdaptiveState()
    for _ in range(2):
        accumulate_excess(st, _rec(q=0.5, eps=1e-18))
    assert st.excess_q == 1.0
    assert st.excess_eps == 2e-18
    st.push(_rec(q=0.25, eps=1.0))
    q, eps = st.totals()
    assert q == 1.25
    assert eps == 1.0 + 2e-18


def test_totals_conserved_when_children_replace_parent():
    # replacing a parent's q with children's q is the only way totals move
    st = AdaptiveState()
    st.push(_rec(q=2.0, eps=1.0))
    st.push(_rec(q=3.0, eps=0.5))
    parent = select_worst(st)
    assert parent.q == 2.0
    st.push(_rec(q=0.9, eps=0.2))
    st.push(_rec(q=1.1, eps=0.1))
    q, _ = st.totals()
    assert q == pytest.approx(3.0 + 0.9 + 1.1, abs=0.0)


def test_divergence_update_increments_on_growth():
    cfg = _cfg()
    parent = _rec(q=1.0, nr_div=0, nr_rec=0)
    assert divergence_update(1.5, 1.0, parent, cfg) == 1
    assert divergence_update(-1.5, 1.0, parent, cfg) == 1  # magnitudes only
    assert divergence_update(0.5, 1.0, parent, cfg) == 0


def test_divergence_update_zero_boundary_counts():
    # q_child = q_parent_base = 0 is "not shrinking" by the >= predicate
    assert divergence_update(0.0, 0.0, _rec(), _cfg()) == 1


def test_divergence_update_raises_when_hopeless():
    cfg = _cfg()
    parent = _rec(nr_div=cfg.nr_divmax, nr_rec=21)
    with pytest.raises(DivergentIntegral):
        divergence_update(1.0, 0.5, parent, cfg)


def test_divergence_update_requires_both_conditions():
    cfg = _cfg()
    # count exceeded but not more than half the depth: no signal
    deep_parent = _rec(nr_div=cfg.nr_divmax, nr_rec=60)
    assert divergence_update(1.0, 0.5, deep_parent, cfg) == 21
    # more than half the depth but count below the threshold: no signal
    shallow_parent = _rec(nr_div=3, nr_rec=3)
    assert divergence_update(1.0, 0.5, shallow_parent, cfg) == 4


def test_enforce_heap_cap_evicts_smallest():
    st = AdaptiveState()
    for q, eps in ((0.1, 1.0), (0.2, 2.0), (0.3, 3.0)):
        st.push(_rec(q=q, eps=eps))
    q_before, eps_before = st.totals()
    enforce_heap_cap(st, _cfg(heap_cap=2))
    assert len(st.heap) == 2
    assert st.excess_eps == 1.0
    assert {r.eps for r in st.heap} == {2.0, 3.0}
    q_after, eps_after = st.totals()
    # conserved up to summation reassociation
    assert q_after == pytest.approx(q_before, rel=1e-15)
    assert eps_after == pytest.approx(eps_before, rel=1e-15)


def test_enforce_heap_cap_never_removes_current_max():
    st = AdaptiveState()
    for eps in (5.0, 1.0, 2.0, 3.0, 4.0):
        st.push(_rec(eps=eps))
    enforce_heap_cap(st, _cfg(heap_cap=2))
    assert max(r.eps for r in st.heap) == 5.0


def test_engine_config_validation():
    with pytest.raises(ValueError):
        EngineConfig(tau=0.0)
    with pytest.raises(ValueError):
        EngineConfig(tau=1e-6, heap_cap=1)
    with pytest.raises(ValueError):
        EngineConfig(tau=1e-6, nr_divmax=0)


@pytest.mark.parametrize("field, value", [
    ("tau", math.nan),
    ("heap_cap", math.nan), ("heap_cap", 2.5), ("heap_cap", 200.0),
    ("nr_divmax", math.nan), ("nr_divmax", 2.5), ("nr_divmax", math.inf),
    ("max_neval", math.nan), ("max_neval", -5), ("max_neval", 100.0),
    ("max_neval", math.inf),
])
def test_engine_config_rejects_nan_and_non_integer_limits(field, value):
    # a NaN nr_divmax used to turn divergence detection off (x ** -1.5 on
    # [0, 1] ran 6,801 evaluations to q = inf, eps = nan), a NaN max_neval
    # the budget, and a heap_cap of 2.5 or NaN was taken as given
    with pytest.raises(ValueError, match=field):
        EngineConfig(**{"tau": 1.0, field: value})


def test_engine_config_accepts_integer_limits():
    cfg = EngineConfig(1.0, heap_cap=np.int64(2), nr_divmax=1, max_neval=0)
    assert (cfg.heap_cap, cfg.nr_divmax, cfg.max_neval) == (2, 1, 0)
    assert EngineConfig(1.0, max_neval=None).max_neval is None


def test_status_values():
    assert Status.CONVERGED.value == "Converged"
    assert Status.TOLERANCE_NOT_MET.value == "ToleranceNotMet"
    assert Status.DIVERGENT.value == "Divergent"


def _select_scan(heap, order):
    """The record-attribute scan select_worst replaced; `order` gives each
    record's insertion number."""
    best = 0
    for i in range(1, len(heap)):
        r = heap[i]
        if r.eps > heap[best].eps or (r.eps == heap[best].eps
                                      and order[id(r)] < order[id(heap[best])]):
            best = i
    return heap.pop(best)


def _cap_scan(heap, cap):
    evicted = []
    while len(heap) > cap:
        worst = min(range(len(heap)), key=lambda i: heap[i].eps)
        evicted.append(heap.pop(worst))
    return evicted


def test_heap_upkeep_matches_list_scans():
    # eps drawn from a handful of values, so ties (0.0 against -0.0 too)
    # are the rule; pushes, selections and evictions interleave at random
    rng = np.random.default_rng(3)
    pool = (0.0, -0.0, 1.0, 1.0, 2.0, 3.0, float("nan"))
    for _ in range(200):
        st = AdaptiveState()
        ref, order = [], {}
        cfg = _cfg(heap_cap=int(rng.integers(2, 6)))
        for k in range(40):
            op = rng.random()
            if op < 0.6 or not ref:
                r = _rec(q=float(k), eps=pool[rng.integers(len(pool))])
                order[id(r)] = k
                st.push(r)
                ref.append(r)
            elif op < 0.85:
                assert select_worst(st) is _select_scan(ref, order)
            else:
                before = st.excess_eps
                evicted = _cap_scan(ref, cfg.heap_cap)
                enforce_heap_cap(st, cfg)
                want = before
                for r in evicted:
                    want += r.eps
                assert st.excess_eps == want or (np.isnan(want)
                                                 and np.isnan(st.excess_eps))
            assert [id(r) for r in st.heap] == [id(r) for r in ref]
            assert [id(e) for e in st.eps] == [id(r.eps) for r in ref]


def test_heap_eps_sums_in_heap_order():
    # the same float as summing the records' eps in heap order
    st = AdaptiveState()
    for eps in (1e16, 1.0, -1e16, 3.0, 0.1):
        st.push(_rec(eps=eps))
    select_worst(st)
    assert st.heap_eps() == sum(r.eps for r in st.heap)


def test_heap_eps_exceeds_matches_the_sum():
    # random states after pops and evictions, with NaN, inf, 0.0 and -0.0
    # among the eps; tau at, just below and just above the sum and the
    # largest eps: the verdict of heap_eps() > tau, and a twin state that
    # never asks makes the same choices
    rng = np.random.default_rng(17)
    pool = (0.0, -0.0, 1.0, 2.0, 5e-324, float("inf"), float("nan"))
    seen = set()
    for cap in (2, 7, 50, 200):
        st, twin = AdaptiveState(), AdaptiveState()
        cfg = _cfg(heap_cap=cap)
        for k in range(1500):
            op = rng.random()
            if op < 0.55 or not st.heap:
                scale = 10.0 ** int(rng.integers(-3, 4))
                eps = (pool[rng.integers(len(pool))] if rng.random() < 0.3
                       else float(rng.exponential()) * scale)
                st.push(_rec(q=float(k), eps=eps))
                twin.push(_rec(q=float(k), eps=eps))
            elif op < 0.85:
                assert select_worst(st).q == select_worst(twin).q
            else:
                enforce_heap_cap(st, cfg)
                enforce_heap_cap(twin, cfg)
            assert [r.q for r in st.heap] == [r.q for r in twin.heap]
            total = st.heap_eps()
            nan = any(math.isnan(e) for e in st.eps)
            top = max((e for e in st.eps if not math.isnan(e)), default=0.0)
            taus = [float(t) for v in (total, top) if 0.0 < v < math.inf
                    for t in (v, np.nextafter(v, 0.0), np.nextafter(v, 9.0))]
            for tau in (*taus, 1e-300, float(rng.exponential()), 1e300):
                want = total > tau
                assert st.heap_eps_exceeds(tau) is want
                seen.add("nan" if nan else "largest" if top > tau
                         else "sum" if want else "within")
    assert seen == {"nan", "largest", "sum", "within"}


def test_heap_matches_list_scans_at_full_scale():
    # caps up to the default 200 and long runs of mixed operations; eps
    # mixes continuous draws with a pool of ties, signed zeros, inf and NaN
    rng = np.random.default_rng(11)
    pool = (0.0, -0.0, 1.0, 2.0, 2.0, float("inf"), float("nan"))
    for cap in (2, 7, 50, 200):
        st = AdaptiveState()
        ref, order = [], {}
        cfg = _cfg(heap_cap=cap)
        for k in range(2000):
            op = rng.random()
            if op < 0.55 or not ref:
                eps = (pool[rng.integers(len(pool))] if rng.random() < 0.3
                       else float(rng.exponential()))
                r = _rec(q=float(k), eps=eps)
                order[id(r)] = k
                st.push(r)
                ref.append(r)
            elif op < 0.9:
                assert select_worst(st) is _select_scan(ref, order)
            else:
                want_q, want_eps = st.excess_q, st.excess_eps
                for r in _cap_scan(ref, cfg.heap_cap):
                    want_q += r.q
                    want_eps += r.eps
                enforce_heap_cap(st, cfg)
                # evicted in the same order: the same float sums
                assert st.excess_q == want_q
                assert st.excess_eps == want_eps or (
                    math.isnan(want_eps) and math.isnan(st.excess_eps))
            assert [id(r) for r in st.heap] == [id(r) for r in ref]
            assert [id(e) for e in st.eps] == [id(r.eps) for r in ref]


def test_order_holds_exactly_the_live_numeric_records_sorted():
    # after every push, selection and eviction the sorted column is
    # (eps, -push number) of the records on the heap whose eps is not NaN,
    # ascending, with the bits of each eps: nothing stale, nothing missing
    rng = np.random.default_rng(5)
    pool = (0.0, -0.0, 1.0, 2.0, 2.0, float("inf"), float("nan"))
    for cap in (2, 3, 7, 50, 200):
        st = AdaptiveState()
        pushes = 0
        cfg = _cfg(heap_cap=cap)
        for _ in range(2000):
            op = rng.random()
            if op < 0.6 or not st.heap:
                eps = (pool[rng.integers(len(pool))] if rng.random() < 0.4
                       else float(rng.exponential()))
                # each record carries its push number as its q
                st.push(_rec(q=float(pushes), eps=eps))
                pushes += 1
            elif op < 0.85:
                select_worst(st)
            else:
                enforce_heap_cap(st, cfg)
            want = sorted((r.eps, -int(r.q)) for r in st.heap
                          if not math.isnan(r.eps))
            assert ([(e.hex(), k) for e, k in st._order]
                    == [(e.hex(), k) for e, k in want])


def _drop_by_float64(rec, stencil):
    """should_drop's node-collision test on the stencil's np.float64 nodes,
    as it was written before the stencil held them as floats."""
    mid = 0.5 * (rec.a + rec.b)
    half = 0.5 * (rec.b - rec.a)
    x = stencil.nodes
    first_gap = (mid + half * x[0]) - (mid + half * x[1])
    last_gap = (mid + half * x[-2]) - (mid + half * x[-1])
    return bool(first_gap == 0.0 or last_gap == 0.0)


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_should_drop_matches_float64_nodes(n):
    # random intervals from 1 to 4000 ulps wide, where the mapped end nodes
    # collide or not, and every width within 3 ulps of where that flips
    st = get_stencil(n)
    assert st.edge_nodes == tuple(float(st.nodes[i]) for i in (0, 1, -2, -1))
    rng = np.random.default_rng(900 + n)
    cfg = _cfg()
    seen = set()
    for draw in range(2000):
        a = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0))
        ulp = float(np.spacing(a))
        ks = [int(np.exp(rng.uniform(0.0, np.log(4000.0))))]
        if draw % 10 == 0:
            flip = next(k for k in range(1, 5000) if not _drop_by_float64(
                _rec(eps=1.0, a=a, b=a + k * ulp), st))
            ks += range(max(1, flip - 3), flip + 4)
        for k in ks:
            rec = _rec(eps=1.0, a=a, b=a + k * ulp)
            want = _drop_by_float64(rec, st)
            assert should_drop(rec, st, cfg) is want
            seen.add(want)
    assert seen == {True, False}
