import math

import mpmath as mp
import numpy as np
import pytest

from relquad.testlib import (
    BATTERY,
    LK_FAMILIES,
    divergence_draw,
    floor_exp_exact,
    lk_draw,
    stream_rng,
)
from staircase import waldvogel_family_draw

SEED = 20260815

# panel-wise Gauss-Legendre oracle; two node counts give the two independent
# resolutions used to cross-check every exact/reference value
_GL = {n: np.polynomial.legendre.leggauss(n) for n in (24, 40)}


def _panel_quad(fn, edges, n=40):
    xg, wg = _GL[n]
    total = 0.0
    with np.errstate(all="ignore"):
        for a, b in zip(edges[:-1], edges[1:]):
            half = 0.5 * (b - a)
            x = 0.5 * (a + b) + half * xg
            total += half * float(wg @ np.asarray(fn(x), dtype=float))
    return total


def _graded_edges(a, b, s, levels=110):
    # edges accumulating geometrically toward s from both sides (for bounded
    # integrands: offsets below ulp(s) collapse onto s and are deduplicated,
    # so the panel straddling an interior s ends up a few ulp wide)
    pts = []
    if s > a:
        w = s - a
        pts.extend(s - w * 0.5 ** k for k in range(levels + 1))
    if s < b:
        w = b - s
        pts.extend(s + w * 0.5 ** k for k in range(levels + 1))
    return np.unique(pts)


def _mp_singular_quad(lam, alpha, dps=30):
    # tanh-sinh quadrature split at the algebraic singularity; the only
    # oracle here that survives |x-lam|^alpha with alpha < 0, and the digit
    # count doubles as its resolution knob
    with mp.workdps(dps):
        l, al = mp.mpf(lam), mp.mpf(alpha)
        q = mp.quad(lambda x: abs(x - l) ** al, [0, l, 1])
        return float(q)


def _union_graded_edges(a, b, centers, levels=60):
    pts = {a, b}
    for s in centers:
        pts.update(np.clip(_graded_edges(a, b, s, levels), a, b))
    return np.array(sorted(pts))


# ---------------------------------------------------------------------------
# parametric families

def test_family_table_layout():
    assert [f.id for f in LK_FAMILIES] == [1, 2, 3, 4, 5, 6]
    assert [f.name for f in LK_FAMILIES] == [
        "abs_power", "step_exp", "kink_exp",
        "single_peak", "four_peaks", "oscillatory",
    ]
    assert [f.domain for f in LK_FAMILIES] == [
        (0.0, 1.0), (0.0, 1.0), (0.0, 1.0), (1.0, 2.0), (1.0, 2.0), (0.0, 1.0)
    ]
    assert LK_FAMILIES[4 - 1].alpha_range == (-6.0, -3.0)
    assert LK_FAMILIES[5 - 1].n_lambda == 4


def test_abs_power_closed_form_example():
    # singularity dead center at half strength: 2 * sqrt(2)
    fam = LK_FAMILIES[1 - 1]
    fn, exact = fam.draw(0.5, -0.5)
    np.testing.assert_allclose(exact, 2.0 * math.sqrt(2.0), rtol=1e-15)
    np.testing.assert_allclose(fn(0.75), 2.0, rtol=1e-15)


def test_step_exp_boundary_parameter():
    # step at the right endpoint leaves nothing to integrate
    fam = LK_FAMILIES[2 - 1]
    fn, exact = fam.draw(1.0, 0.37)
    assert exact == 0.0
    assert fn(0.999) == 0.0
    # the indicator multiplies, not gates: value at 0.5 for lam=0.25 is e^(a/2)
    fn2, _ = fam.draw(0.25, 0.8)
    np.testing.assert_allclose(fn2(0.5), math.exp(0.4), rtol=1e-15)


def test_oscillatory_shape_parameter_wiring():
    fam = LK_FAMILIES[6 - 1]
    for lam, alpha in ((0.3, 1.8), (0.9, 2.0), (0.5, 1.9)):
        beta = 10.0 ** alpha / max(lam ** 2, (1.0 - lam) ** 2)
        want = math.sin(beta * (1.0 - lam) ** 2) - math.sin(beta * lam ** 2)
        fn, exact = fam.draw(lam, alpha)
        np.testing.assert_allclose(exact, want, rtol=1e-14)
        x = 0.625
        want_f = 2.0 * beta * (x - lam) * math.cos(beta * (x - lam) ** 2)
        np.testing.assert_allclose(fn(x), want_f, rtol=1e-13)


def _lk_oracle(fam, lam, alpha, n):
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    a, b = fam.domain
    if fam.id == 1:
        return _mp_singular_quad(float(lams[0]), alpha, dps=25 if n == 24 else 35)
    if fam.id in (2, 3, 4):
        return _panel_quad(fam.draw(lam, alpha)[0],
                           _graded_edges(a, b, float(lams[0])), n)
    if fam.id == 5:
        # integrate peak by peak: each term gets edges graded at its center
        p = 10.0 ** alpha
        total = 0.0
        for l in lams:
            term = lambda x, l=l: p / ((x - l) ** 2 + p)
            total += _panel_quad(term, _graded_edges(a, b, float(l)), n)
        return total
    return _panel_quad(fam.draw(lam, alpha)[0],
                       np.linspace(a, b, 601), n)


@pytest.mark.parametrize("fid", range(1, 7))
def test_lk_exact_matches_oracle(fid):
    # ten seeded draws per family: the draw protocol is pinned (lambdas first,
    # then alpha) and the closed form must match two oracle resolutions
    fam = LK_FAMILIES[fid - 1]
    for idx in range(10):
        rng = stream_rng(SEED, fid, idx)
        lam = rng.uniform(*fam.domain, size=fam.n_lambda)
        alpha = float(rng.uniform(*fam.alpha_range))
        fn, exact = lk_draw(fam, SEED, idx)
        fn_lam, exact_lam = fam.draw(lam, alpha)
        assert exact == float(exact_lam)
        with np.errstate(all="ignore"):
            np.testing.assert_allclose(fn(0.5 * sum(fam.domain) + 0.1),
                                       fn_lam(0.5 * sum(fam.domain) + 0.1))
        o24 = _lk_oracle(fam, lam, alpha, 24)
        o40 = _lk_oracle(fam, lam, alpha, 40)
        scale = max(1.0, abs(exact))
        assert abs(o24 - o40) <= 1e-12 * scale
        assert abs(exact - o40) <= 1e-12 * scale


def test_lk_draw_deterministic_and_split():
    fam = LK_FAMILIES[3 - 1]
    f1, e1 = lk_draw(fam, 123, 5)
    f2, e2 = lk_draw(fam, 123, 5)
    assert e1 == e2
    assert f1(0.37) == f2(0.37)
    assert e1 != lk_draw(fam, 123, 6)[1]
    assert e1 != lk_draw(fam, 124, 5)[1]
    # families with the same seed/index draw from independent streams
    assert (lk_draw(LK_FAMILIES[1 - 1], 123, 5)[1]
            != lk_draw(LK_FAMILIES[2 - 1], 123, 5)[1])


# ---------------------------------------------------------------------------
# battery

# oracle panel layout per battery entry: jump-aligned edges for the
# discontinuous entries, geometric grading into integrable singularities,
# plain uniform panels otherwise
def _battery_edges(fid):
    a, b = BATTERY[fid - 1].domain
    if fid in (3, 6, 7, 19):
        return _graded_edges(a, b, a)
    if fid == 2:
        return np.concatenate([np.linspace(0.0, 0.3, 41),
                               np.linspace(0.3, 1.0, 41)[1:]])
    if fid == 21:
        return _union_graded_edges(a, b, (0.2, 0.4, 0.6))
    if fid == 24:
        steps = [math.log(k) for k in range(2, 21)]
        return np.array([0.0] + steps + [3.0])
    if fid == 25:
        return np.concatenate([np.linspace(0.0, 1.0, 9),
                               np.linspace(1.0, 3.0, 9)[1:],
                               np.linspace(3.0, 5.0, 9)[1:]])
    return np.linspace(a, b, 801)


# numerically stable twin of f12 for oracle use only: x/(e^x - 1) loses
# digits near 0 the way it is (deliberately) written in the battery
_ORACLE_FN = {12: lambda x: x / np.expm1(x)}


@pytest.mark.parametrize("fid", range(1, 26))
def test_battery_reference_two_resolution(fid):
    bf = BATTERY[fid - 1]
    fn = _ORACLE_FN.get(fid, bf.integrand)
    edges = _battery_edges(fid)
    o24 = _panel_quad(fn, edges, 24)
    o40 = _panel_quad(fn, edges, 40)
    assert abs(o24 - o40) <= 1e-13 * abs(bf.reference_value)
    assert abs(o40 - bf.reference_value) <= 1e-12 * abs(bf.reference_value)


def test_battery_oracle_twin_matches_f12():
    bf = BATTERY[12 - 1]
    x = np.linspace(1e-3, 1.0, 257)
    np.testing.assert_allclose(bf.integrand(x), _ORACLE_FN[12](x), rtol=1e-10)


def test_battery_frozen_spot_values():
    assert [bf.id for bf in BATTERY] == list(range(1, 26))
    np.testing.assert_allclose(BATTERY[1 - 1].reference_value, math.e - 1.0,
                               rtol=1e-16)
    assert BATTERY[2 - 1].reference_value == 0.7
    assert BATTERY[19 - 1].reference_value == -1.0
    assert BATTERY[25 - 1].reference_value == 7.5
    assert BATTERY[24 - 1].reference_value == floor_exp_exact(3.0)
    # genuinely the same number: both reduce to Si(100 pi) / pi
    assert BATTERY[13 - 1].reference_value == BATTERY[17 - 1].reference_value


def test_battery_all_evaluable_without_raising():
    # non-numeric values are returned, never thrown, across the whole domain
    for bf in BATTERY:
        a, b = bf.domain
        x = np.linspace(a, b, 1001)
        with np.errstate(all="ignore"):
            vals = np.asarray(bf.integrand(x), dtype=float)
            scalar = float(bf.integrand(0.5 * (a + b)))
        assert vals.shape == x.shape
        assert np.isfinite(scalar)


def test_battery_nonnumeric_modifications():
    with np.errstate(all="ignore"):
        assert math.isnan(float(BATTERY[12 - 1].integrand(0.0)))
        assert math.isnan(float(BATTERY[13 - 1].integrand(0.0)))
        assert math.isnan(float(BATTERY[17 - 1].integrand(0.0)))
        assert float(BATTERY[19 - 1].integrand(0.0)) == -math.inf
    # the step in f2 evaluates to 0/1, and f24/f25 stay finite at the edges
    assert BATTERY[2 - 1].integrand(0.2) == 0.0
    assert BATTERY[2 - 1].integrand(0.4) == 1.0
    assert float(BATTERY[24 - 1].integrand(3.0)) == 20.0
    assert float(BATTERY[25 - 1].integrand(5.0)) == 2.0


# ---------------------------------------------------------------------------
# floor(exp) family

def test_floor_exp_exact_single_step():
    # up to log 2 the integrand is identically 1
    np.testing.assert_allclose(floor_exp_exact(math.log(2.0)), math.log(2.0),
                               rtol=1e-15)
    assert floor_exp_exact(0.0) == 0.0
    with pytest.raises(ValueError):
        floor_exp_exact(-0.1)


def test_floor_exp_exact_frozen_value():
    np.testing.assert_allclose(floor_exp_exact(3.0), 17.664383539246515,
                               rtol=1e-15)


def test_waldvogel_draws():
    # pinned, so that the staircase stream cannot change unnoticed
    assert waldvogel_family_draw(0, 0)[1:] == ((0.0, 2.5388610620975163),
                                               10.479118249508309)
    lams = []
    for idx in range(100):
        fn, (a, lam), exact = waldvogel_family_draw(SEED, idx)
        assert a == 0.0
        assert 2.5 <= lam <= 3.5
        assert exact == floor_exp_exact(lam)
        assert float(fn(1.0)) == 2.0
        lams.append((lam, exact))
    # integrand >= 1, so the exact value is strictly increasing in lam
    lams.sort()
    diffs = np.diff([e for _, e in lams])
    assert np.all(diffs > 0.0)
    # oracle cross-check on a few draws, with jump-aligned panels
    for idx in (0, 17, 63):
        fn, (_, lam), exact = waldvogel_family_draw(SEED, idx)
        steps = [math.log(k) for k in range(2, 40) if math.log(k) < lam]
        edges = np.array([0.0] + steps + [lam])
        assert abs(_panel_quad(fn, edges) - exact) <= 1e-12 * exact


def test_waldvogel_endpoint_identity():
    assert floor_exp_exact(3.0) == BATTERY[24 - 1].reference_value


# ---------------------------------------------------------------------------
# divergence sweep

def test_divergence_draw_convergent_side():
    for idx in range(5):
        fn, exact = divergence_draw(-0.5, SEED, idx)
        assert exact is not None
        # same singular integrand as abs_power, checked against the oracle
        lam = float(stream_rng(SEED, 100 + 5, idx).uniform(0.0, 1.0))
        o = _mp_singular_quad(lam, -0.5)
        assert abs(exact - o) <= 1e-12 * max(1.0, abs(exact))


def test_divergence_draw_divergent_side():
    for alpha in (-1.0, -1.5, -2.0):
        fn, exact = divergence_draw(alpha, SEED, 0)
        assert exact is None
        with np.errstate(all="ignore"):
            assert float(fn(2.0)) > 0.0


def test_divergence_draw_grid_and_streams():
    with pytest.raises(ValueError):
        divergence_draw(-0.55, SEED, 0)
    with pytest.raises(ValueError):
        divergence_draw(0.1, SEED, 0)
    with pytest.raises(ValueError):
        divergence_draw(-2.1, SEED, 0)
    f1, e1 = divergence_draw(-0.3, SEED, 4)
    f2, e2 = divergence_draw(-0.3, SEED, 4)
    assert e1 == e2 and f1(0.77) == f2(0.77)
    # neighbouring grid points draw from different streams
    assert e1 != divergence_draw(-0.4, SEED, 4)[1] or f1(0.77) != \
        divergence_draw(-0.4, SEED, 4)[0](0.77)


def test_stream_rng_reproducible():
    a = stream_rng(7, 3, 11).uniform(size=4)
    b = stream_rng(7, 3, 11).uniform(size=4)
    c = stream_rng(7, 4, 11).uniform(size=4)
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)
