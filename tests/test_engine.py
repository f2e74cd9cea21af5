import dataclasses
import functools
import math
from decimal import Decimal

import numpy as np
import pytest

from relquad.basis import get_stencil
from relquad.algorithms import NaiveConfig, RefinedConfig
from relquad.engine import (
    NR_DIVMAX,
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
from relquad.interp import CountedFunction, fit, integral, sample


@functools.cache
def _zero_samples_and_fit(n):
    # the same on every interval: the records below share them
    st = get_stencil(n)
    sv = sample(CountedFunction(lambda x: 0.0), 0.0, 1.0, st)
    return sv, fit(sv, st)


def _rec(q=0.0, eps=0.0, a=0.0, b=1.0, nr_div=0, nr_rec=0, n=10):
    """A record of the zero function on [a, b] at degree n, with the q,
    eps and divergence counts given."""
    sv, cv = _zero_samples_and_fit(n)
    return IntervalRecord(a=a, b=b, samples=sv, coeffs=cv, q=q, eps=eps,
                          q_base=q, nr_div=nr_div, nr_rec=nr_rec)


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
    assert should_drop(_rec(q=1.0, eps=0.0))
    # 1e-3 is far above 1 * eps_mach * cond(P) ~ 7.7e-15
    assert not should_drop(_rec(q=1.0, eps=1e-3))
    # the floor itself is kept, and so is 1.5 times it; just below it drops
    floor = 1.0 * np.finfo(float).eps * get_stencil(10).cond
    assert not should_drop(_rec(q=1.0, eps=floor))
    assert not should_drop(_rec(q=1.0, eps=1.5 * floor))
    assert should_drop(_rec(q=1.0, eps=math.nextafter(floor, 0.0)))


def test_should_drop_collapsed_interval():
    eps_mach = np.finfo(float).eps
    rec = _rec(q=1.0, eps=1.0, a=1.0, b=1.0 + 2.0 * eps_mach)
    assert should_drop(rec)
    # a clearly resolvable interval is kept
    assert not should_drop(_rec(q=1.0, eps=1.0, a=1.0, b=1.0 + 1e-8))


def test_the_rule_travels_with_the_fit():
    # fit sets the rule its coefficients are in, and should_drop reads it
    # from the record
    with np.errstate(all="ignore"):  # as the integrators run sample
        for n, fn in ((4, np.exp), (10, np.exp), (10, lambda x: 1.0 / x),
                      (32, lambda x: abs(x - 0.3) ** -0.5)):
            st = get_stencil(n)
            cv = fit(sample(CountedFunction(fn), 0.0, 1.0, st), st)
            assert cv.stencil is st
    # 1e-14 wide at 1.0: degree 32's adjacent end nodes collide, degree 4's
    # do not, and eps = 1.0 is far above either noise floor
    a, b = 1.0, 1.0 + 1e-14
    drops = {}
    for n in (4, 32):
        st = get_stencil(n)
        sv = sample(CountedFunction(np.exp), a, b, st)
        cv = fit(sv, st)
        q = integral(cv, a, b)
        drops[n] = should_drop(IntervalRecord(a=a, b=b, samples=sv, coeffs=cv,
                                              q=q, eps=1.0, q_base=q))
    assert drops == {4: False, 32: True}


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
    parent = _rec(q=1.0, nr_div=0, nr_rec=0)
    assert divergence_update(1.5, parent) == 1
    assert divergence_update(-1.5, parent) == 1  # magnitudes only
    assert divergence_update(0.5, parent) == 0


def test_divergence_update_zero_boundary_counts():
    # q_child = q_base = 0 is "not shrinking" by the >= predicate
    assert divergence_update(0.0, _rec()) == 1


def test_divergence_update_raises_when_hopeless():
    parent = _rec(q=0.5, nr_div=NR_DIVMAX, nr_rec=21)
    with pytest.raises(DivergentIntegral):
        divergence_update(1.0, parent)


def test_divergence_update_requires_both_conditions():
    # count exceeded but not more than half the depth: no signal
    deep_parent = _rec(q=0.5, nr_div=NR_DIVMAX, nr_rec=60)
    assert divergence_update(1.0, deep_parent) == 21
    # more than half the depth but count below the threshold: no signal
    shallow_parent = _rec(q=0.5, nr_div=3, nr_rec=3)
    assert divergence_update(1.0, shallow_parent) == 4
    # count exceeded at exactly half the depth: no signal
    half_parent = _rec(q=0.5, nr_div=NR_DIVMAX, nr_rec=2 * NR_DIVMAX + 1)
    assert divergence_update(1.0, half_parent) == NR_DIVMAX + 1


def test_enforce_heap_cap_evicts_smallest():
    st = AdaptiveState()
    for q, eps in ((0.1, 1.0), (0.2, 2.0), (0.3, 3.0)):
        st.push(_rec(q=q, eps=eps))
    q_before, eps_before = st.totals()
    enforce_heap_cap(st, 2)
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
    enforce_heap_cap(st, 2)
    assert max(r.eps for r in st.heap) == 5.0


@pytest.mark.parametrize("field, value", [
    ("tau", 0.0), ("tau", -1.0), ("tau", math.nan),
    # used to raise decimal.InvalidOperation: tau was checked unconverted
    pytest.param("tau", Decimal("NaN"), id="tau-Decimal('NaN')"),
    # a NaN max_neval used to turn the budget off
    ("max_neval", math.nan), ("max_neval", -5), ("max_neval", 100.0),
    ("max_neval", math.inf),
])
def test_engine_config_rejects_nan_and_non_integer_limits(field, value):
    with pytest.raises(ValueError, match=field):
        EngineConfig(**{"tau": 1.0, field: value})


def test_engine_config_accepts_integer_limits():
    assert EngineConfig(1.0, max_neval=np.int64(0)).max_neval == 0
    assert EngineConfig(1.0, max_neval=None).max_neval is None


@pytest.mark.parametrize("field, value", [("heap_cap", 200),
                                          ("nr_divmax", 20)])
def test_engine_config_has_no_heap_cap_or_nr_divmax(field, value):
    # the heap cap and the divergence limit are the engine constants
    # HEAP_CAP and NR_DIVMAX
    with pytest.raises(TypeError):
        EngineConfig(**{"tau": 1.0, field: value})


@pytest.mark.parametrize("make, field", [
    (lambda: EngineConfig(tau=1.0), "max_neval"),
    (lambda: NaiveConfig(engine=EngineConfig(tau=1.0)), "engine"),
    (lambda: RefinedConfig(engine=None), "engine"),
], ids=("EngineConfig", "NaiveConfig", "RefinedConfig"))
def test_configs_are_frozen(make, field):
    # validated once, at construction: a later assignment such as
    # max_neval = nan cannot turn the budget off
    cfg = make()
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(cfg, field, math.nan)


def test_status_values():
    assert Status.CONVERGED.value == "Converged"
    assert Status.TOLERANCE_NOT_MET.value == "ToleranceNotMet"
    assert Status.DIVERGENT.value == "Divergent"


def _select_scan(heap):
    """The record-attribute scan select_worst replaced, on records whose q
    is their insertion number."""
    best = 0
    for i in range(1, len(heap)):
        r = heap[i]
        if r.eps > heap[best].eps or (r.eps == heap[best].eps
                                      and r.q < heap[best].q):
            best = i
    return heap.pop(best)


def _cap_scan(heap, cap):
    evicted = []
    while len(heap) > cap:
        worst = min(range(len(heap)), key=lambda i: heap[i].eps)
        evicted.append(heap.pop(worst))
    return evicted


@pytest.mark.parametrize("seed, pool, share, caps, steps, push, select", [
    # short runs at caps 2-5 with eps drawn from a handful of values, so
    # that ties (0.0 against -0.0 too) are the rule
    (3, (0.0, -0.0, 1.0, 1.0, 2.0, 3.0), 1.0, (2, 3, 4, 5) * 50, 40, 0.6,
     0.85),
    # caps up to the default 200 and long runs; eps mixes continuous draws
    # with a pool of ties, signed zeros and inf
    (11, (0.0, -0.0, 1.0, 2.0, 2.0, math.inf), 0.3, (2, 7, 50, 200), 2000,
     0.55, 0.9),
], ids=("small", "full"))
def test_heap_oracle_matches_list_scans(seed, pool, share, caps, steps, push,
                                        select):
    # pushes, selections and evictions interleave at random, and a
    # selection, as in _drive, needs a record
    rng = np.random.default_rng(seed)
    for cap in caps:
        st = AdaptiveState()
        ref = []
        for k in range(steps):
            op = rng.random()
            if op < push or not ref:
                eps = (pool[rng.integers(len(pool))] if rng.random() < share
                       else float(rng.exponential()))
                r = _rec(q=float(k), eps=eps)
                st.push(r)
                ref.append(r)
            elif op < select:
                assert select_worst(st) is _select_scan(ref)
            else:
                want_q, want_eps = st.excess_q, st.excess_eps
                for r in _cap_scan(ref, cap):
                    want_q += r.q
                    want_eps += r.eps
                enforce_heap_cap(st, cap)
                # evicted in the same order: the same float sums
                assert st.excess_q == want_q
                assert st.excess_eps == want_eps
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
    # random states after pops and evictions, with inf, 0.0 and -0.0 among
    # the eps; tau at, just below and just above the sum and the largest
    # eps: the verdict of heap_eps() > tau, and a twin state that never
    # asks makes the same choices
    rng = np.random.default_rng(17)
    pool = (0.0, -0.0, 1.0, 2.0, 5e-324, float("inf"))
    seen = set()
    for cap in (2, 7, 50, 200):
        st, twin = AdaptiveState(), AdaptiveState()
        for k in range(1500):
            op = rng.random()
            if op < 0.55 or not st.eps:
                scale = 10.0 ** int(rng.integers(-3, 4))
                eps = (pool[rng.integers(len(pool))] if rng.random() < 0.3
                       else float(rng.exponential()) * scale)
                st.push(_rec(q=float(k), eps=eps))
                twin.push(_rec(q=float(k), eps=eps))
            elif op < 0.85:
                assert select_worst(st).q == select_worst(twin).q
            else:
                enforce_heap_cap(st, cap)
                enforce_heap_cap(twin, cap)
            assert [r.q for r in st.heap] == [r.q for r in twin.heap]
            total = st.heap_eps()
            top = max(st.eps, default=0.0)
            taus = [float(t) for v in (total, top) if 0.0 < v < math.inf
                    for t in (v, np.nextafter(v, 0.0), np.nextafter(v, 9.0))]
            for tau in (*taus, 1e-300, float(rng.exponential()), 1e300):
                want = total > tau
                assert st.heap_eps_exceeds(tau) is want
                seen.add("largest" if top > tau
                         else "sum" if want else "within")
    assert seen == {"largest", "sum", "within"}


def test_order_holds_exactly_the_live_numeric_records_sorted():
    # after every push, selection and eviction the sorted column is
    # (eps, -push number) of the records on the heap, ascending, with the
    # bits of each eps: nothing stale, nothing missing
    rng = np.random.default_rng(5)
    pool = (0.0, -0.0, 1.0, 2.0, 2.0, float("inf"))
    for cap in (2, 3, 7, 50, 200):
        st = AdaptiveState()
        pushes = 0
        for _ in range(2000):
            op = rng.random()
            if op < 0.6 or not st.eps:
                eps = (pool[rng.integers(len(pool))] if rng.random() < 0.4
                       else float(rng.exponential()))
                # each record carries its push number as its q
                st.push(_rec(q=float(pushes), eps=eps))
                pushes += 1
            elif op < 0.85:
                select_worst(st)
            else:
                enforce_heap_cap(st, cap)
            want = sorted((r.eps, -int(r.q)) for r in st.heap)
            assert ([(e.hex(), k) for e, k in st._order]
                    == [(e.hex(), k) for e, k in want])


def _drop_by_float64(rec, stencil):
    """should_drop's node-collision test on the stencil's np.float64 nodes,
    as it was written before the stencil held them as floats."""
    mid = 0.5 * (rec.a + rec.b)
    half = 0.5 * (rec.b - rec.a)
    x = np.array(stencil.nodes)
    first_gap = (mid + half * x[0]) - (mid + half * x[1])
    last_gap = (mid + half * x[-2]) - (mid + half * x[-1])
    return bool(first_gap == 0.0 or last_gap == 0.0)


@pytest.mark.parametrize("n", (4, 8, 10, 16, 32))
def test_should_drop_matches_float64_nodes(n):
    # random intervals from 1 to 4000 ulps wide, where the mapped end nodes
    # collide or not, and every width within 3 ulps of where that flips
    st = get_stencil(n)
    rng = np.random.default_rng(900 + n)
    seen = set()
    for draw in range(2000):
        a = float(rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-5.0, 5.0))
        ulp = float(np.spacing(a))
        ks = [int(np.exp(rng.uniform(0.0, np.log(4000.0))))]
        if draw % 10 == 0:
            flip = next(k for k in range(1, 5000) if not _drop_by_float64(
                _rec(eps=1.0, a=a, b=a + k * ulp, n=n), st))
            ks += range(max(1, flip - 3), flip + 4)
        for k in ks:
            rec = _rec(eps=1.0, a=a, b=a + k * ulp, n=n)
            want = _drop_by_float64(rec, st)
            assert should_drop(rec) is want
            seen.add(want)
    assert seen == {True, False}
