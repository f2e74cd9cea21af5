"""Wrong and missing verdicts of both integrators on the singular workload.

    python tools/singular_scan.py CHECKOUT [SEED ...]

Runs int_naive and int_refined from CHECKOUT's ``src/``, configured as
``benchmarks/run.py`` configures them, on every case of CHECKOUT's
``benchmarks/workloads.py`` ``singular`` workload for each seed (default
0-9, so 100 draws per alpha and integrator).  The workload pins the draws
of some alphas to one fixed seed; this script empties
``workloads.SINGULAR_FIXED_KS`` within its own process, so that every alpha
is drawn from the seed given.  Nothing under ``benchmarks/`` is written.

It prints one row per integrator and alpha:
  draws      the cases run
  miss       silent misses: Converged with |q - ref| > tau (alpha > -1)
  divergent  wrong Divergent verdicts on an integrable case (alpha > -1)
  eps_low    integrable cases not Converged whose eps is below |q - ref|
  no_verdict ToleranceNotMet on a non-integrable case (alpha <= -1)
  neval      the mean number of evaluations
"""

import sys
from collections import defaultdict
from pathlib import Path


def scan(checkout, seeds):
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    import workloads
    from relquad.algorithms import (NaiveConfig, RefinedConfig, int_naive,
                                    int_refined)
    from relquad.engine import EngineConfig, Status

    workloads.SINGULAR_FIXED_KS = frozenset()
    rows = defaultdict(lambda: [0, 0, 0, 0, 0, 0])
    for seed in seeds:
        for case in workloads.singular_cases(seed):
            alpha = case.params[1]
            engine = EngineConfig(tau=1.0, max_neval=case.budget)
            for alg, integrator, config in (
                    ("naive", int_naive, NaiveConfig(engine=engine)),
                    ("refined", int_refined, RefinedConfig(engine=engine))):
                r = integrator(case.integrand, case.a, case.b, case.tau,
                               config)
                row = rows[alg, alpha]
                row[0] += 1
                if case.ref is not None:
                    row[1] += (r.status is Status.CONVERGED
                               and not abs(r.q - case.ref) <= case.tau)
                    row[2] += r.status is Status.DIVERGENT
                    row[3] += (r.status is not Status.CONVERGED
                               and r.eps < abs(r.q - case.ref))
                else:
                    row[4] += r.status is Status.TOLERANCE_NOT_MET
                row[5] += r.neval
    print("integrator", "alpha", "draws", "miss", "divergent", "eps_low",
          "no_verdict", "neval", sep="\t")
    for (alg, alpha), (n, miss, div, low, none, neval) in sorted(
            rows.items(), key=lambda item: (item[0][0], -item[0][1])):
        print(alg, f"{alpha:.1f}", n, miss, div, low, none,
              f"{neval / n:.1f}", sep="\t")


if __name__ == "__main__":
    if len(sys.argv) < 2:
        sys.exit(__doc__)
    scan(sys.argv[1], [int(s) for s in sys.argv[2:]] or range(10))
