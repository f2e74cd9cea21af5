"""Wrong and missing verdicts of both integrators on the singular workload.

    python tools/singular_scan.py CHECKOUT [SEED ...]

Runs int_naive and int_refined from CHECKOUT's ``src/``, with the configs
of CHECKOUT's ``benchmarks/run.py`` ``Plan``, on every case of CHECKOUT's
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
    from relquad.engine import Status
    from run import Plan

    workloads.SINGULAR_FIXED_KS = frozenset()
    rows = defaultdict(lambda: [0, 0, 0, 0, 0, 0])
    for seed in seeds:
        cases = workloads.singular_cases(seed)
        for i, alg, integrator, config in Plan(cases).calls:
            case = cases[i]
            r = integrator(case.integrand, case.a, case.b, case.tau, config)
            row = rows[alg, case.params[1]]
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
