"""Alternating parent/change pairs of ``benchmarks/run.py``, as one JSON file.

    python tools/benchpair.py PARENT CHANGE --workloads lk staircase@23 \\
        --pairs 10 --seconds 20 --seed 0 --out BENCH_9.json

PARENT and CHANGE are two checkouts of the repository, each with its own
``src/`` and ``benchmarks/``; the two ``benchmarks/`` trees must be byte for
byte the same (``__pycache__`` aside), or nothing runs.  Each workload gets
``--pairs`` pairs of ``--trace 0`` runs of ``--seconds`` each, the parent
first in odd pairs and the change first in even ones, and then one
``--trace 1`` run per side.  A workload written ``W@S`` runs at seed S and
is stored as ``W_seed_S``; a bare ``W`` runs at ``--seed``.

The output keeps each run's last JSON line, and per workload and metric of
``BENCHMARK.json``'s ``end_to_end`` list the median and quartiles of each
side (``statistics.quantiles(n=4)``), the ratio of the medians, the pairs
the change wins and loses by the metric's own direction, the parent's
interquartile range and the metric's bound; per side, whether every run
was correct and the share of attempted operations that failed.  Nothing
under ``benchmarks/`` is written by this script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def tree_bytes(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*"))
            if p.is_file() and "__pycache__" not in p.parts}


def run_once(checkout: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """The last JSON line of one benchmark run in checkout."""
    cmd = [sys.executable, "benchmarks/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def summarize(runs: dict[str, list[dict]], end_to_end: list[dict]) -> dict:
    summary = {}
    for spec in end_to_end:
        name = spec["name"]
        vals = {side: [r["metrics"][name]["value"] for r in runs[side]]
                for side in SIDES}
        sign = 1.0 if spec["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(*vals.values()))
        losses = sum(sign * (c - p) < 0 for p, c in zip(*vals.values()))
        s = {side: spread(vals[side]) for side in SIDES}
        pm = s["parent"]["median"]
        summary[name] = {
            "better": spec["better"], **s,
            "ratio_of_medians": s["change"]["median"] / pm if pm else None,
            "change_wins": wins, "change_losses": losses,
            "parent_iqr": s["parent"]["q3"] - s["parent"]["q1"],
            "bound": spec["bound"]}
    for side in SIDES:
        attempted = sum(r["attempted"] for r in runs[side])
        summary[f"{side}_all_correct"] = all(r["correct"] for r in runs[side])
        summary[f"{side}_failed_share"] = (
            sum(r["failed"] for r in runs[side]) / attempted
            if attempted else None)
    return summary


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workloads", nargs="+", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2, for quartiles")
    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    if (tree_bytes(checkouts["parent"] / "benchmarks")
            != tree_bytes(checkouts["change"] / "benchmarks")):
        print("benchpair.py: the two benchmarks/ trees differ",
              file=sys.stderr)
        return 2
    end_to_end = json.loads(
        (checkouts["change"] / "BENCHMARK.json").read_text())["end_to_end"]

    result = {
        "benchmark": "python3 benchmarks/run.py --workload W --seed S "
                     f"--seconds {args.seconds:g} (--trace 0 unless noted)",
        "pairs": f"{args.pairs} per workload, alternating which side runs "
                 "first (odd pairs parent first)",
        "quartiles": "statistics.quantiles(n=4), exclusive method, over "
                     "the runs of each side",
        "workloads": {}, "trace_1": {}}
    for item in args.workloads:
        workload, _, seed = item.partition("@")
        key = f"{workload}_seed_{seed}" if seed else workload
        seed = int(seed) if seed else args.seed
        runs = {side: [] for side in SIDES}
        for pair in range(1, args.pairs + 1):
            order = SIDES if pair % 2 else SIDES[::-1]
            for side in order:
                runs[side].append(run_once(checkouts[side], workload, seed,
                                           args.seconds, 0))
            print(f"{key} pair {pair}/{args.pairs} done", file=sys.stderr)
        result["workloads"][key] = {
            "seed": seed, "runs": runs,
            "status": {side: [{k: r[k] for k in ("correct", "attempted",
                                                 "failed")}
                              for r in runs[side]] for side in SIDES},
            "summary": summarize(runs, end_to_end)}
        result["trace_1"][key] = {
            side: run_once(checkouts[side], workload, seed, args.seconds, 1)
            for side in SIDES}
        args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
