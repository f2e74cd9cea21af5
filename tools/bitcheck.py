"""Bit-identity checks of the integrators and the CLI between two checkouts.

    python tools/bitcheck.py dump CHECKOUT SEED [SEED ...] > rows.tsv
    python tools/bitcheck.py cli CHECKOUT > cli.tsv
    python tools/bitcheck.py diff OLD.tsv NEW.tsv
    python tools/bitcheck.py compare OLD NEW [SEED ...]

``dump`` runs int_naive and int_refined with the configs of CHECKOUT's
``benchmarks/run.py`` ``Plan`` on every case of CHECKOUT's
``benchmarks/workloads.py`` for each seed, and prints one row per call:
seed, workload, case, integrator, q.hex(), eps.hex(), neval, status.  It
first prints the ``edges`` rows, seed ``-``, once: the cases of ``EDGES``
(non-numeric and overflowing values, a pole, reversed, empty and float32
bounds, a smooth integrand dropped at its noise floor, runs stopped by a
small budget, an lk draw at a tolerance below its noise floor, and a
singular draw whose status hangs on the loop's test),
each at its own tau and budget, which the benchmark cases never reach,
and then once more through int_simpson_baseline, at the same tau and
with ``max_neval`` the same budget (integrator ``simpson``).
``diff`` prints the rows that differ and counts them by workload,
integrator and the two statuses; it exits 1 if any row differs.

``cli`` runs ``relquad-bench --mode M`` for each of the four modes, at
default flags, with ``--alg all`` and with ``--format md`` (and ``--runs
5`` in the modes that read it), as ``python -m relquad.cli`` with
``PYTHONPATH=CHECKOUT/src``, and prints one line per run: the command and
the sha256 of its standard output.  A plain ``diff`` of two such dumps
then checks that the CLI's bytes are unchanged.

``compare`` runs ``dump`` (seeds 0, 3 and 7 unless given) and ``cli`` on
both checkouts, each in its own process, prints the ``diff`` report of the
rows and the ``cli`` lines that differ, and exits 1 if any row or hash
differs.
"""

import hashlib
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

CLI_MODES = ("lk", "battery", "divergence", "probe")

# lk family 1 (abs_power), seed 0, draw 0: lk_draw(LK_FAMILIES[0], 0, 0)[0]
ABS_POWER = lambda x: abs(x - 0.8897387912781343) ** -0.22143097489688685

# -0.5 + 0.5 * x for x in get_stencil(8).nodes[1::2]: the nodes a degree-8
# raise of [-1, 0] adds
RAISE_NODES = (-0.03806023374435663, -0.3086582838174551, -0.6913417161825449,
               -0.9619397662556434)

# 0.5 + 0.5 * x for x in get_stencil(32).nodes[1::2]: the odd nodes of
# int_naive's start-up rule on [0, 1]
ODD_NODES = (0.9975923633360985, 0.9784701678661044, 0.9409606321741775,
             0.8865052266813684, 0.8171966420818227, 0.735698368412999,
             0.6451423386272311, 0.5490085701647804, 0.4509914298352196,
             0.35485766137276886, 0.2643016315870011, 0.18280335791817726,
             0.1134947733186315, 0.059039367825822475, 0.021529832133895588,
             0.0024076366639015356)

# label, integrand, a, b, tau, budget
EDGES = (
    ("nan", lambda x: math.nan, 0.0, 1.0, 1e-6, 10_000),
    # numeric at the odd start-up nodes only: int_naive's degree-32 start-up
    # fit could be made, its degree-16 fit cannot
    ("nan_at_even_nodes", lambda x: x if x in ODD_NODES else math.nan, 0.0,
     1.0, 1e-6, 10_000),
    ("nan_right_half", lambda x: math.nan if x > 0.5 else x, 0.0, 1.0, 1e-6,
     10_000),
    ("overflow_step", lambda x: 1.7e308 if x > 0.5 else -1.7e308, 0.0, 1.0,
     1e-6, 10_000),
    ("pole", lambda x: 1.0 / x if x else math.inf, 0.0, 1.0, 1e-6, 10_000),
    ("exp_reversed", math.exp, 1.0, 0.0, 1e-6, 10_000),
    ("exp_empty", math.exp, 0.5, 0.5, 1e-6, 10_000),
    # a tau below the noise floor: should_drop's floor test retires the
    # start-up interval of int_naive at its first step, and an interval of
    # int_refined after three splits; both end ToleranceNotMet
    ("exp_floor", math.exp, 0.0, 1.0, 1e-16, 10_000),
    ("sin_inverse", lambda x: math.sin(1.0 / (x + 1e-3)), 0.0, 1.0, 1e-6,
     10_000),
    # a fit that overflows in the middle of a run
    ("overflow_spike", lambda x: (1.7e308 if 0.3 < x < 0.31
                                  else math.floor(math.exp(3 * x))), 0.0, 1.0,
     1e-6, 10_000),
    # a fit that overflows at a ladder raise: int_naive's raise of [-1, 0]
    # to degree 8 meets +-1.7e308 at each of its four fresh nodes
    ("overflow_raise", lambda x: (math.copysign(1.7e308, x + 0.5)
                                  if x in RAISE_NODES
                                  else 1.0 / (1.0 + 25.0 * x * x)), -1.0, 1.0,
     1e-6, 10_000),
    # stopped by the budget at the largest overrun a step can make: int_naive
    # at 70 (91 evaluations), int_refined at 12 (29); and over [1, 0]
    ("abs_power_budget70", ABS_POWER, 0.0, 1.0, 1e-14, 70),
    ("abs_power_budget12", ABS_POWER, 0.0, 1.0, 1e-14, 12),
    ("abs_power_reversed_budget70", ABS_POWER, 1.0, 0.0, 1e-14, 70),
    # lk abs_power, seed 0, draw 1, at relative 1e-12: both integrators stop
    # once the retired error passes tau, well under the budget
    ("abs_power_rel1e-12", lambda x: (abs(x - 0.8486500432887727)
                                      ** -0.3728710862554596), 0.0, 1.0,
     1e-12 * 1.926584893489147, 10_000),
    # the singular workload's seed-1 draw 8 at alpha = -0.7, at its tau and
    # budget: int_refined ends ToleranceNotMet with the excess within tau
    # and the error 17.6 tau; testing the heap against tau - excess would
    # make it a Converged miss
    ("pole_alpha-0.7_seed1", lambda x: abs(x - 0.8403273027848961) ** -0.7,
     0.0, 1.0, 1e-6 * 5.086249605639786, 10_000),
    # bounds that are not Python floats: the run is that of their float
    # values, and q and eps are floats
    ("exp_float32", np.exp, np.float32(0.1), np.float32(0.7), 1e-12, 10_000),
)


def dump(checkout, seeds):
    root = Path(checkout).resolve()
    sys.path[:0] = [str(root / "src"), str(root / "benchmarks")]
    from relquad.algorithms import int_simpson_baseline
    from run import Plan
    from workloads import WORKLOADS, Case

    def row(seed, workload, case, alg, r):
        # float(): a checkout may return q and eps in the bounds' type
        print(seed, workload, case, alg, float(r.q).hex(), float(r.eps).hex(),
              r.neval, r.status.value, sep="\t")

    def rows(seed, workload, cases):
        for i, alg, integrator, config in Plan(cases).calls:
            case = cases[i]
            row(seed, workload, f"{i}:{case.label}", alg,
                integrator(case.integrand, case.a, case.b, case.tau, config))

    # no reference value and no pass rule: only the bits are compared
    rows("-", "edges", [Case(label, integrand, a, b, tau, None, "",
                             budget=budget)
                        for label, integrand, a, b, tau, budget in EDGES])
    for i, (label, integrand, a, b, tau, budget) in enumerate(EDGES):
        row("-", "edges", f"{i}:{label}", "simpson",
            int_simpson_baseline(integrand, a, b, tau, max_neval=budget))
    for seed in seeds:
        for workload, cases in WORKLOADS.items():
            rows(seed, workload, cases(seed))


def cli(checkout):
    root = Path(checkout).resolve()
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    for mode in CLI_MODES:
        # battery and probe do not read --runs
        runs = ("--runs", "5") if mode in ("lk", "divergence") else ()
        for extra in ((), ("--alg", "all"), ("--format", "md", *runs)):
            args = ("--mode", mode, *extra)
            out = subprocess.run(
                [sys.executable, "-m", "relquad.cli", *args], cwd=root,
                env=env, capture_output=True, check=True).stdout
            print("relquad-bench", *args, hashlib.sha256(out).hexdigest(),
                  sep="\t", flush=True)


def diff(old_path, new_path):
    return 1 if diff_rows(*(Path(p).read_text().splitlines()
                            for p in (old_path, new_path))) else 0


def diff_rows(old, new):
    """Print the report of two dumps' rows; returns how many differ."""
    if len(old) != len(new):
        sys.exit(f"row counts differ: {len(old)} vs {len(new)}")
    groups = Counter()
    for o, n in zip(old, new):
        if o != n:
            print(f"- {o}\n+ {n}")
            ro, rn = o.split("\t"), n.split("\t")
            fields = [name for name, x, y in zip(
                ("q", "eps", "neval", "status"), ro[4:], rn[4:]) if x != y]
            groups[(ro[1], ro[3], ro[7], rn[7], ",".join(fields))] += 1
    for (workload, alg, s_old, s_new, fields), k in sorted(groups.items()):
        print(f"{k:6d}  {workload} {alg} {s_old} -> {s_new}: {fields} differ")
    print(f"{sum(groups.values())} of {len(old)} rows differ")
    return sum(groups.values())


def compare(old, new, seeds):
    def lines(mode, *args):
        # this script on each checkout, the two side by side; into files, so
        # that neither waits on a full pipe
        outs = [tempfile.TemporaryFile("w+") for _ in range(2)]
        procs = [subprocess.Popen([sys.executable, __file__, mode, c, *args],
                                  stdout=out)
                 for c, out in zip((old, new), outs)]
        if any([p.wait() for p in procs]):
            sys.exit(f"{mode} failed on {old} or {new}")
        for out in outs:
            out.seek(0)
        return [out.read().splitlines() for out in outs]

    rows = diff_rows(*lines("dump", *seeds))
    old_cli, new_cli = lines("cli")
    hashes = 0
    for o, n in zip(old_cli, new_cli, strict=True):
        if o != n:
            print(f"- {o}\n+ {n}")
            hashes += 1
    print(f"{hashes} of {len(old_cli)} cli hashes differ")
    return 1 if rows or hashes else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["dump"] and len(sys.argv) > 3:
        dump(sys.argv[2], [int(s) for s in sys.argv[3:]])
    elif sys.argv[1:2] == ["cli"] and len(sys.argv) == 3:
        cli(sys.argv[2])
    elif sys.argv[1:2] == ["diff"] and len(sys.argv) == 4:
        sys.exit(diff(sys.argv[2], sys.argv[3]))
    elif sys.argv[1:2] == ["compare"] and len(sys.argv) > 3:
        seeds = [str(int(s)) for s in sys.argv[4:]] or ["0", "3", "7"]
        sys.exit(compare(sys.argv[2], sys.argv[3], seeds))
    else:
        sys.exit(__doc__)
