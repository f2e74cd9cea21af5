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
