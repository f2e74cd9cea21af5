"""Each integrator's keyword arguments for an evaluation budget, and how
far a run stopped by the budget overruns it."""

from relquad.algorithms import (
    NaiveConfig,
    RefinedConfig,
    int_naive,
    int_refined,
    int_simpson_baseline,
)
from relquad.engine import EngineConfig

# The budget is checked before each step, so a run stopped by it makes at
# most budget - 1 evaluations plus one step's fresh ones: int_naive's raise
# from degree 16 to 32 (16) and then a split at degree 4 (6), int_refined's
# split at degree 10 (18).  int_simpson_baseline counts a step's two fresh
# evaluations in its check and never passes the budget.  The start-up
# ignores the budget; int_refined's ends with its first split.  Per
# integrator: (the largest overrun, the start-up's evaluations).
OVERRUN = {int_naive: (21, 33), int_refined: (17, 29),
           int_simpson_baseline: (0, 3)}


def budget(alg, n):
    """alg's keyword arguments for a budget of n evaluations."""
    if alg is int_simpson_baseline:
        return {"max_neval": n}
    config = NaiveConfig if alg is int_naive else RefinedConfig
    return {"config": config(engine=EngineConfig(tau=1.0, max_neval=n))}


def most_evaluations(alg, n):
    """The most evaluations a run of alg with a budget of n makes."""
    step, startup = OVERRUN[alg]
    return max(n + step, startup)
