"""The floor(exp(x)) staircase draw of the tests (criterion 8 and the
staircase end-to-end test), on stream 7 of ``relquad.testlib.stream_rng``."""

import numpy as np

from relquad.testlib import floor_exp_exact, stream_rng

_WALDVOGEL_TAG = 7


def waldvogel_family_draw(seed: int, index: int = 0):
    """Draw one staircase realization: returns (integrand, domain, exact).

    The integrand is floor(exp(x)) and the random parameter is the upper
    endpoint, lam ~ U[2.5, 3.5], so the domain is part of the draw.
    """
    rng = stream_rng(seed, _WALDVOGEL_TAG, index)
    lam = float(rng.uniform(2.5, 3.5))
    return (lambda x: np.floor(np.exp(x))), (0.0, lam), floor_exp_exact(lam)
