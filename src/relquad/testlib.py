"""Benchmark corpus: random-parameter integrand families and a 25-function
battery, with exact integrals for scoring.

Six parametric families cover the classic failure modes of adaptive
quadrature: an algebraic singularity of random strength at a random
location, a jump, a kink, one narrow peak, four narrow peaks, and a chirp
whose frequency is tied to the parameter.  Each family carries a
closed-form exact integral so runs can be scored without a reference
integrator.  The battery is a fixed list of 25 integrands with frozen
high-precision reference values; four of them deliberately return NaN or
-Inf somewhere (f12, f13, f17 at 0; f19 at 0) to exercise non-numeric
handling, and f24/f25 are discontinuous.

Reproducibility protocol: every realization owns a private generator,
``PCG64(SeedSequence((seed, tag, index)))``, where ``tag`` identifies the
stream (family id 1-6, 100+k for the divergence sweep at alpha = -k/10;
the tests draw their floor(exp) staircases from stream 7) and ``index`` is
the realization number.  Any single cell of a benchmark table can
therefore be reproduced in isolation, and realizations may run in any
order or in parallel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "LKFamily",
    "BatteryFunction",
    "LK_FAMILIES",
    "BATTERY",
    "lk_draw",
    "floor_exp_exact",
    "divergence_draw",
    "stream_rng",
]

_DIVERGENCE_TAG_BASE = 100


def stream_rng(seed: int, tag: int, index: int) -> np.random.Generator:
    """Private generator for realization `index` of stream `tag`."""
    return np.random.default_rng(np.random.SeedSequence((seed, tag, index)))


# ---------------------------------------------------------------------------
# parametric families

@dataclass(frozen=True)
class LKFamily:
    """One random-parameter integrand family.

    ``draw(lam, alpha)`` returns the integrand of one parameter draw and its
    closed-form integral over ``domain``; each family's docstring gives its
    integrand.  ``lam`` holds ``n_lambda`` location parameters (one for
    every family except four_peaks, which draws four).
    """

    id: int
    name: str
    domain: tuple[float, float]
    alpha_range: tuple[float, float]
    n_lambda: int
    draw: Callable


def _lam0(lam) -> float:
    return float(np.atleast_1d(np.asarray(lam, dtype=float))[0])


def _abs_power(lam, alpha):
    """|x - l|^a; its integral is None for a <= -1, where it diverges."""
    l0 = _lam0(lam)
    f = lambda x: np.abs(x - l0) ** alpha
    if alpha <= -1.0:
        return f, None
    # antiderivative of |x - l|^a is sign(x - l) |x - l|^(a+1) / (a+1)
    a1 = alpha + 1.0
    return f, (l0 ** a1 + (1.0 - l0) ** a1) / a1


def _step_exp(lam, alpha):
    """(x > l) e^(a x)."""
    l0 = _lam0(lam)
    f = lambda x: (x > l0) * np.exp(alpha * x)
    # e^a - e^(a l) written via expm1 so the limit a -> 0 stays accurate
    return f, ((math.expm1(alpha) - math.expm1(alpha * l0)) / alpha
               if alpha else 1.0 - l0)


def _kink_exp(lam, alpha):
    """e^(-a |x - l|)."""
    l0 = _lam0(lam)
    f = lambda x: np.exp(-alpha * np.abs(x - l0))
    return f, ((-math.expm1(-alpha * l0) - math.expm1(-alpha * (1.0 - l0)))
               / alpha if alpha else 1.0)


def _single_peak(lam, alpha):
    """p / ((x - l)^2 + p) with p = 10^a."""
    l0 = _lam0(lam)
    p, s = 10.0 ** alpha, 10.0 ** (0.5 * alpha)
    return (lambda x: p / ((x - l0) ** 2 + p),
            s * (math.atan((2.0 - l0) / s) - math.atan((1.0 - l0) / s)))


def _four_peaks(lam, alpha):
    """single_peak's integrand summed over the four l."""
    lams = np.atleast_1d(np.asarray(lam, dtype=float))
    p, s = 10.0 ** alpha, 10.0 ** (0.5 * alpha)
    return lambda x: np.sum(p / ((x - lams) ** 2 + p)), s * float(
        sum(math.atan((2.0 - l) / s) - math.atan((1.0 - l) / s) for l in lams))


def _oscillatory(lam, alpha):
    """The derivative of sin(b (x - l)^2), b = 10^a / max(l^2, (1 - l)^2)."""
    l0 = _lam0(lam)
    beta = 10.0 ** alpha / max(l0 ** 2, (1.0 - l0) ** 2)
    return (lambda x: 2.0 * beta * (x - l0) * np.cos(beta * (x - l0) ** 2),
            math.sin(beta * (1.0 - l0) ** 2) - math.sin(beta * l0 ** 2))


#: In id order: family k is LK_FAMILIES[k - 1].
LK_FAMILIES: tuple[LKFamily, ...] = (
    LKFamily(1, "abs_power", (0.0, 1.0), (-0.5, 0.0), 1, _abs_power),
    LKFamily(2, "step_exp", (0.0, 1.0), (0.0, 1.0), 1, _step_exp),
    LKFamily(3, "kink_exp", (0.0, 1.0), (0.0, 4.0), 1, _kink_exp),
    LKFamily(4, "single_peak", (1.0, 2.0), (-6.0, -3.0), 1, _single_peak),
    LKFamily(5, "four_peaks", (1.0, 2.0), (-5.0, -3.0), 4, _four_peaks),
    LKFamily(6, "oscillatory", (0.0, 1.0), (1.8, 2.0), 1, _oscillatory),
)


def lk_draw(family: LKFamily, seed: int, index: int = 0):
    """Draw one realization: returns (integrand, exact_value).

    All location parameters are drawn first, uniform over ``domain``, then
    the shape parameter, uniform over ``alpha_range``.
    """
    rng = stream_rng(seed, family.id, index)
    lam = rng.uniform(*family.domain, size=family.n_lambda)
    alpha = float(rng.uniform(*family.alpha_range))
    integrand, exact = family.draw(lam, alpha)
    return integrand, float(exact)


# ---------------------------------------------------------------------------
# battery

@dataclass(frozen=True)
class BatteryFunction:
    """One battery integrand with its reference integral over `domain`."""

    id: int
    domain: tuple[float, float]
    integrand: Callable
    reference_value: float


def floor_exp_exact(lam: float) -> float:
    """Exact integral of floor(exp(x)) from 0 to lam (lam >= 0).

    floor(exp(x)) equals k on [log k, log(k+1)), so the integral is a finite
    sum of box areas; the max(0, .) guards the top step against the floor of
    exp(lam) landing one unit high through rounding.
    """
    if lam < 0.0:
        raise ValueError("lower endpoint is 0; need lam >= 0")
    top = int(math.floor(math.exp(lam)))
    total = 0.0
    for k in range(1, top + 1):
        total += k * max(0.0, min(lam, math.log(k + 1.0)) - math.log(k))
    return total


def _gd(t: float) -> float:
    # atan(sinh(t)) for t >= 0 without overflowing sinh
    return 0.5 * math.pi - 2.0 * math.atan(math.exp(-t))


def _sech_sum_exact() -> float:
    # integral of sum_i sech(c_i (x - d_i)) over [0,1];
    # antiderivative of sech(c (x - d)) is atan(sinh(c (x - d))) / c
    total = 0.0
    for c, d in ((20.0, 0.2), (400.0, 0.4), (8000.0, 0.6)):
        total += (_gd(c * (1.0 - d)) + _gd(c * d)) / c
    return total


def _f21(x):
    return (1.0 / np.cosh(20.0 * (x - 0.2))
            + 1.0 / np.cosh(400.0 * (x - 0.4))
            + 1.0 / np.cosh(8000.0 * (x - 0.6)))


def _f25(x):
    return ((x + 1.0) * (x < 1.0)
            + (3.0 - x) * ((1.0 <= x) & (x <= 3.0))
            + 2.0 * (x > 3.0))


_PI = math.pi

#: In id order: f_k is BATTERY[k - 1].
BATTERY: tuple[BatteryFunction, ...] = (
    BatteryFunction(1, (0.0, 1.0), lambda x: np.exp(x), math.e - 1.0),
    BatteryFunction(2, (0.0, 1.0), lambda x: 1.0 * (x > 0.3), 0.7),
    BatteryFunction(3, (0.0, 1.0), lambda x: np.sqrt(x), 2.0 / 3.0),
    BatteryFunction(4, (-1.0, 1.0),
                    lambda x: (23.0 / 25.0) * np.cosh(x) - np.cos(x),
                    (46.0 / 25.0) * math.sinh(1.0) - 2.0 * math.sin(1.0)),
    BatteryFunction(5, (-1.0, 1.0), lambda x: 1.0 / (x ** 4 + x ** 2 + 0.9),
                    1.5822329637296729331),
    BatteryFunction(6, (0.0, 1.0), lambda x: x * np.sqrt(x), 0.4),
    BatteryFunction(7, (0.0, 1.0), lambda x: 1.0 / np.sqrt(x), 2.0),
    BatteryFunction(8, (0.0, 1.0), lambda x: 1.0 / (1.0 + x ** 4),
                    0.86697298733991103757),
    BatteryFunction(9, (0.0, 1.0), lambda x: 2.0 / (2.0 + np.sin(10.0 * _PI * x)),
                    2.0 / math.sqrt(3.0)),
    BatteryFunction(10, (0.0, 1.0), lambda x: 1.0 / (1.0 + x), math.log(2.0)),
    BatteryFunction(11, (0.0, 1.0), lambda x: 1.0 / (1.0 + np.exp(x)),
                    1.0 - math.log(1.0 + math.e) + math.log(2.0)),
    BatteryFunction(12, (0.0, 1.0), lambda x: x / (np.exp(x) - 1.0),
                    0.77750463411224827642),
    BatteryFunction(13, (0.0, 1.0), lambda x: np.sin(100.0 * _PI * x) / (_PI * x),
                    0.4989868086930455025),
    BatteryFunction(14, (0.0, 10.0),
                    lambda x: math.sqrt(50.0) * np.exp(-50.0 * _PI * x ** 2), 0.5),
    BatteryFunction(15, (0.0, 10.0), lambda x: 25.0 * np.exp(-25.0 * x), 1.0),
    BatteryFunction(16, (0.0, 10.0),
                    lambda x: 50.0 / (_PI * (2500.0 * x ** 2 + 1.0)),
                    math.atan(500.0) / _PI),
    BatteryFunction(17, (0.0, 1.0),
                    lambda x: 50.0 * (np.sin(50.0 * _PI * x) / (50.0 * _PI * x)) ** 2,
                    0.4989868086930455025),
    BatteryFunction(18, (0.0, _PI),
                    lambda x: np.cos(np.cos(x) + 3.0 * np.sin(x)
                                     + 2.0 * np.cos(2.0 * x) + 3.0 * np.cos(3.0 * x)),
                    0.29101878286005269852),
    BatteryFunction(19, (0.0, 1.0), lambda x: np.log(x), -1.0),
    BatteryFunction(20, (-1.0, 1.0), lambda x: 1.0 / (1.005 + x ** 2),
                    2.0 / math.sqrt(1.005) * math.atan(1.0 / math.sqrt(1.005))),
    BatteryFunction(21, (0.0, 1.0), _f21, _sech_sum_exact()),
    BatteryFunction(22, (0.0, 1.0),
                    lambda x: 4.0 * _PI ** 2 * x * np.sin(20.0 * _PI * x)
                    * np.cos(2.0 * _PI * x),
                    -20.0 * _PI / 99.0),
    BatteryFunction(23, (0.0, 1.0), lambda x: 1.0 / (1.0 + (230.0 * x - 30.0) ** 2),
                    (math.atan(200.0) + math.atan(30.0)) / 230.0),
    BatteryFunction(24, (0.0, 3.0), lambda x: np.floor(np.exp(x)),
                    floor_exp_exact(3.0)),
    BatteryFunction(25, (0.0, 5.0), _f25, 7.5),
)


# ---------------------------------------------------------------------------
# divergence sweep

def divergence_draw(alpha: float, seed: int, index: int = 0):
    """Draw |x - lam|^alpha on [0, 1] with lam ~ U[0, 1] at fixed alpha.

    Returns (integrand, exact); exact is None for alpha <= -1, where the
    integral diverges.  alpha must sit on the sweep grid -k/10, k = 1..20,
    which keys the draw's random stream.
    """
    k = int(round(-alpha * 10.0))
    if not 1 <= k <= 20 or abs(alpha + k / 10.0) > 1e-9:
        raise ValueError(f"alpha must be -0.1, -0.2, ..., -2.0, got {alpha}")
    rng = stream_rng(seed, _DIVERGENCE_TAG_BASE + k, index)
    return _abs_power(rng.uniform(0.0, 1.0), alpha)
