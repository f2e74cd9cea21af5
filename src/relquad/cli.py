"""Benchmark runner.

Four modes, each producing one table:

* ``lk``         — the six random-parameter families: per family x algorithm
                   x tolerance, counts of correct / incorrect results, the
                   number of runs that ended with a warning status, and the
                   mean evaluation count over the realizations.
* ``battery``    — the 25 fixed test integrals: one row per function x
                   algorithm x tolerance with the evaluation count, a failure
                   flag and a warning flag ('correct' is left empty; the
                   counts degenerate to 0/1 for a single deterministic run).
* ``divergence`` — |x - lam|^alpha sweeps over alpha = -0.1 ... -2.0.  For
                   alpha <= -1 the integral does not exist, so the requested
                   tolerance is applied as an absolute tolerance, no result
                   counts as correct, and the 'warned' cell reports the two
                   flag counts as "err/div".
* ``probe``      — the bisection-ratio diagnostic for x**alpha; emits its
                   own narrow table (alpha, h, eps_ratio, q_ratio).

All tables are emitted as CSV (stable header, LF endings) or aligned
markdown with the same columns.  Output is byte-identical for identical
run specifications including the seed; integrator failures are data rows,
never exit codes.
"""

from __future__ import annotations

import argparse
import csv
import io
import sys
from dataclasses import dataclass
from itertools import product

from relquad.algorithms import (
    NaiveConfig,
    RefinedConfig,
    divergence_ratio_probe,
    int_naive,
    int_refined,
    int_simpson_baseline,
)
from relquad.engine import EngineConfig, Status
from relquad.testlib import BATTERY, LK_FAMILIES, divergence_draw, lk_draw

__all__ = [
    "RunSpec",
    "run_lk",
    "run_battery",
    "run_divergence",
    "run_probe",
    "run",
    "emit_report",
    "main",
]

CSV_HEADER = ("mode", "family", "algorithm", "tolerance", "correct",
              "incorrect", "warned", "mean_neval", "seed")

MODES = ("lk", "battery", "divergence", "probe")
ALGORITHMS = ("naive", "refined", "simpson")
FORMATS = ("csv", "md")

#: alpha sweep grid for the divergence and probe modes
ALPHA_GRID = tuple(-k / 10.0 for k in range(1, 21))

#: evaluation budget applied in divergence mode when none is requested
DIVERGENCE_BUDGET = 10_000

#: functions whose success test adds an absolute-tolerance floor because
#: the reference magnitude is small relative to the integrand scale
ABSOLUTE_FLOOR_IDS = frozenset({13, 17})


@dataclass(frozen=True)
class RunSpec:
    """One benchmark invocation, fully determining its output."""

    mode: str
    algorithms: tuple = ("naive", "refined")
    tolerances: tuple = (1e-3, 1e-6)
    realizations: int = 100
    seed: int = 0
    output_format: str = "csv"
    budget: int | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if not self.algorithms or not set(self.algorithms) <= set(ALGORITHMS):
            raise ValueError(f"algorithms must be a non-empty subset of "
                             f"{ALGORITHMS}, got {self.algorithms!r}")
        if not self.tolerances or not all(0.0 < t < 1.0
                                          for t in self.tolerances):
            raise ValueError("tolerances must lie strictly in (0, 1)")
        for name, items in (("algorithm", self.algorithms),
                            ("tolerance", self.tolerances)):
            if len(set(items)) < len(items):
                raise ValueError(f"repeated {name} in {items!r}")
        if self.realizations < 1:
            raise ValueError("realizations must be at least 1")
        if not 0 <= self.seed < 2 ** 64:
            raise ValueError("seed must fit in 64 bits")
        if self.output_format not in FORMATS:
            raise ValueError(f"unknown output format {self.output_format!r}")
        if self.budget is not None and self.budget < 1:
            raise ValueError("budget must be at least 1")


def _integrate(alg: str, fn, a: float, b: float, tau: float,
               budget: int | None):
    if alg == "simpson":
        kw = {} if budget is None else {"max_neval": budget}
        return int_simpson_baseline(fn, a, b, tau, **kw)
    engine = (EngineConfig(tau=1.0, max_neval=budget)
              if budget is not None else None)
    if alg == "naive":
        return int_naive(fn, a, b, tau, config=NaiveConfig(engine=engine))
    return int_refined(fn, a, b, tau, config=RefinedConfig(engine=engine))


def _tally(alg: str, runs, budget: int | None) -> tuple[int, int, int, int]:
    """Integrate each ``(integrand, a, b, tau, reference)`` of runs with alg
    under budget, and return four counts: the runs whose q is within tau of
    the reference (none whose reference is None), the runs that end
    ToleranceNotMet, the runs that end Divergent, and the evaluations."""
    correct = not_met = divergent = neval = 0
    for fn, a, b, tau, reference in runs:
        r = _integrate(alg, fn, a, b, tau, budget)
        correct += reference is not None and abs(r.q - reference) <= tau
        not_met += r.status is Status.TOLERANCE_NOT_MET
        divergent += r.status is Status.DIVERGENT
        neval += r.neval
    return correct, not_met, divergent, neval


def _row(spec: RunSpec, *cells) -> dict:
    """One table row keyed by CSV_HEADER: the mode, then cells (family to
    mean_neval), then the seed, each as its str()."""
    return dict(zip(CSV_HEADER, map(str, (spec.mode, *cells, spec.seed)),
                    strict=True))


def run_lk(spec: RunSpec) -> list:
    """Random-parameter family table: correct / incorrect / warned counts
    and mean evaluation count per family x algorithm x tolerance cell."""
    rows = []
    for fam, alg, tol in product(LK_FAMILIES, spec.algorithms,
                                 spec.tolerances):
        draws = (lk_draw(fam, spec.seed, i) for i in range(spec.realizations))
        ok, err, div, neval = _tally(
            alg, ((fn, *fam.domain, tol * abs(exact), exact)
                  for fn, exact in draws), spec.budget)
        rows.append(_row(spec, fam.name, alg, "%g" % tol, ok,
                         spec.realizations - ok, err + div,
                         "%.2f" % (neval / spec.realizations)))
    return rows


def run_battery(spec: RunSpec) -> list:
    """Fixed-integral table: one deterministic run per cell, so 'correct'
    stays empty and 'incorrect'/'warned' are 0/1 flags."""
    rows = []
    for bf, alg, tol in product(BATTERY, spec.algorithms, spec.tolerances):
        tau = tol * abs(bf.reference_value)
        if bf.id in ABSOLUTE_FLOOR_IDS:
            tau = max(tau, tol)
        ok, err, div, neval = _tally(
            alg, [(bf.integrand, *bf.domain, tau, bf.reference_value)],
            spec.budget)
        rows.append(_row(spec, "f%d" % bf.id, alg, "%g" % tol, "", 1 - ok,
                         err + div, neval))
    return rows


def run_divergence(spec: RunSpec) -> list:
    """Singularity sweep table over the alpha grid.  The 'warned' cell is
    "err/div": how many runs ended ToleranceNotMet and how many Divergent."""
    budget = spec.budget if spec.budget is not None else DIVERGENCE_BUDGET
    rows = []
    for alpha, alg, tol in product(ALPHA_GRID, spec.algorithms,
                                   spec.tolerances):
        draws = (divergence_draw(alpha, spec.seed, i)
                 for i in range(spec.realizations))
        ok, err, div, neval = _tally(
            alg, ((fn, 0.0, 1.0, tol if exact is None else tol * abs(exact),
                   exact) for fn, exact in draws), budget)
        rows.append(_row(spec, "%.1f" % alpha, alg, "%g" % tol, ok,
                         spec.realizations - ok, "%d/%d" % (err, div),
                         "%.2f" % (neval / spec.realizations)))
    return rows


def run_probe(spec: RunSpec) -> list:
    """Bisection-ratio diagnostic over the alpha grid at h = 1."""
    rows = []
    for alpha in ALPHA_GRID:
        eps_ratio, q_ratio = divergence_ratio_probe(alpha)
        rows.append({
            "mode": spec.mode,
            "alpha": "%.1f" % alpha,
            "h": "1",
            "eps_ratio": "%.12g" % eps_ratio,
            "q_ratio": "%.12g" % q_ratio,
        })
    return rows


_RUNNERS = {
    "lk": run_lk,
    "battery": run_battery,
    "divergence": run_divergence,
    "probe": run_probe,
}


def run(spec: RunSpec) -> list:
    """Execute the run specification and return its table rows."""
    return _RUNNERS[spec.mode](spec)


def emit_report(rows: list, output_format: str) -> str:
    """Render rows (dicts sharing one key set) as CSV or aligned markdown."""
    if not rows:
        raise ValueError("no rows to emit")
    header = list(rows[0].keys())
    if output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            writer.writerow([r[k] for k in header])
        return buf.getvalue()
    if output_format != "md":
        raise ValueError(f"unknown output format {output_format!r}")
    cells = [header] + [[r[k] for k in header] for r in rows]
    widths = [max(len(row[j]) for row in cells) for j in range(len(header))]

    def line(row):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"

    out = [line(header), line(["-" * w for w in widths])]
    out.extend(line(row) for row in cells[1:])
    return "\n".join(out) + "\n"


def _parse_algorithms(text: str) -> tuple:
    names = [t.strip() for t in text.split(",") if t.strip()]
    if "all" in names:
        return ALGORITHMS
    return tuple(names)


def _parse_tolerances(text: str) -> tuple:
    return tuple(float(t) for t in text.split(",") if t.strip())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relquad-bench",
        description="Run the quadrature benchmark tables and emit CSV or "
                    "markdown.")
    parser.add_argument("--mode", required=True, choices=MODES)
    parser.add_argument("--alg", default="naive,refined",
                        help="comma-separated subset of naive,refined,simpson"
                             " or 'all' (default: naive,refined)")
    parser.add_argument("--tol", default="1e-3,1e-6",
                        help="comma-separated relative tolerances "
                             "(default: 1e-3,1e-6)")
    parser.add_argument("--runs", type=int, default=100,
                        help="realizations per cell (default: 100)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed for all random draws (default: 0)")
    parser.add_argument("--format", default="csv", choices=FORMATS,
                        dest="output_format")
    parser.add_argument("--budget", type=int, default=None,
                        help="evaluation budget per run (divergence mode "
                             "defaults to %d)" % DIVERGENCE_BUDGET)
    parser.add_argument("--out", default=None,
                        help="write the table to this path instead of stdout")
    args = parser.parse_args(argv)
    try:
        spec = RunSpec(mode=args.mode,
                       algorithms=_parse_algorithms(args.alg),
                       tolerances=_parse_tolerances(args.tol),
                       realizations=args.runs,
                       seed=args.seed,
                       output_format=args.output_format,
                       budget=args.budget)
        text = emit_report(run(spec), spec.output_format)
        if args.out is not None:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
    except Exception as exc:
        print(f"relquad-bench: error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
