#!/usr/bin/env python3
"""Closed-loop benchmark of relquad's public integrators.

    python3 benchmarks/run.py --workload lk --seed 0 --seconds 20 --trace 0

Run from the repository root; the package is imported from ``src/`` of the
same checkout.  One caller integrates the workload's cases one after the
other, each call starting when the previous one returns, first with
``int_naive`` and then with ``int_refined`` on the same case.  A round is
one pass over every case; the run repeats whole rounds until ``--seconds``
have passed and each integrator has made at least ``MIN_CALLS`` calls, so
the share of failed operations is the same in every run.

``--trace 0`` reports the end-to-end metrics: set-up time, peak memory,
throughput, evaluations per integral and per-call latency.  ``--trace 1``
spends the first half of the time untraced and the second half with
timing wrappers installed (``tracing.py``), and reports the per-layer
split per round together with the tracing overhead.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; ``correct`` is false when a
repeated call (another round, or the traced pass) returned a different
result.  Exit status 2 means the checkout holds no ``src/relquad``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_trace"

INTEGRATORS = ("naive", "refined")
# per integrator and run, so that the p90 latency has ten calls beyond it
MIN_CALLS = 100
SETUP_RUNS = 9

# Speed reference.  The same code runs up to twice as fast or slow from one
# second to the next on a shared 2-CPU machine, and runs of one seed
# differed by 30%.  A fixed kernel of small numpy products
# and Python arithmetic, which has nothing to do with relquad, is timed
# every CAL_PERIOD seconds between calls.  Each call's time is scaled by
# KERNEL_NOMINAL_S over the median of the SMOOTH kernel times nearest to
# it, so every time is reported at the machine's nominal speed.
# KERNEL_NOMINAL_S is the kernel's median time on that machine (Python
# 3.11.7, numpy 2.4.6).
KERNEL_NOMINAL_S = 0.0135
CAL_PERIOD = 0.3
SMOOTH = 5
_KP = np.random.default_rng(1).standard_normal((11, 11))
_KV = np.random.default_rng(2).standard_normal(11)


def kernel_time() -> float:
    """Seconds one pass of the speed-reference kernel takes now."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(2000):
        w = _KP @ _KV
        s += float(np.linalg.norm(w - _KV)) + abs(float(w[i % 11]))
    return time.perf_counter() - t0


# Cold start measured in a fresh interpreter: the package import plus the
# first call of each integrator, which builds the stencils it uses.
SETUP_CODE = """\
import time
t0 = time.perf_counter()
import math
from relquad.algorithms import int_naive, int_refined
int_naive(math.exp, 0.0, 1.0, 1e-9)
int_refined(math.exp, 0.0, 1.0, 1e-9)
print(repr(time.perf_counter() - t0))
"""


def measure_setup() -> float:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SETUP_RUNS):
        k0 = kernel_time()
        out = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=120, check=True)
        scale = 2.0 * KERNEL_NOMINAL_S / (k0 + kernel_time())
        times.append(scale * float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Plan:
    """The calls of one round, with their configs built before timing."""

    def __init__(self, cases):
        from relquad.algorithms import (NaiveConfig, RefinedConfig,
                                        int_naive, int_refined)
        from relquad.engine import EngineConfig

        self.cases = cases
        self.calls = []
        for idx, case in enumerate(cases):
            engine = (EngineConfig(tau=1.0, max_neval=case.budget)
                      if case.budget is not None else None)
            self.calls.append((idx, "naive", int_naive,
                               NaiveConfig(engine=engine)))
            self.calls.append((idx, "refined", int_refined,
                               RefinedConfig(engine=engine)))


class Ledger:
    """Everything a run records about its calls, per integrator."""

    def __init__(self):
        self.latency = {alg: [] for alg in INTEGRATORS}   # as measured
        self.block = {alg: [] for alg in INTEGRATORS}     # kernel before it
        self.kernels: list[float] = []
        self.neval = Counter()
        self.attempted = 0
        self.failed = 0
        self.first: dict = {}       # (case, integrator) -> first outcome
        self.mismatches = 0

    def record(self, key, outcome, ok: bool) -> None:
        self.attempted += 1
        self.failed += not ok
        if self.first.setdefault(key, outcome) != outcome:
            self.mismatches += 1

    def scaled(self, alg: str, start: int = 0) -> list:
        """Latencies of `alg` from its `start`-th call on, at nominal
        speed."""
        k = self.kernels
        half = SMOOTH // 2
        factor = [KERNEL_NOMINAL_S
                  / statistics.median(k[max(0, j - half):j + half + 1])
                  for j in range(len(k))]
        return [factor[j] * t for j, t in zip(self.block[alg][start:],
                                               self.latency[alg][start:])]


def run_round(plan: Plan, ledger: Ledger, passes, tracer=None) -> None:
    clock = time.perf_counter
    ledger.kernels.append(kernel_time())
    since = clock()
    for idx, alg, integrate, config in plan.calls:
        case = plan.cases[idx]
        integrand = case.integrand
        if tracer is not None:
            integrand = tracer.begin_call(alg, integrand)
        t0 = clock()
        try:
            res = integrate(integrand, case.a, case.b, case.tau, config)
        except Exception as exc:  # a raising call is a failed operation
            print(f"{case.label} {alg}: {exc!r}", file=sys.stderr)
            ledger.record((idx, alg), ("raised", type(exc).__name__), False)
            continue
        t1 = clock()
        if tracer is not None:
            tracer.end_call(alg, t0, t1)
        ledger.latency[alg].append(t1 - t0)
        ledger.block[alg].append(len(ledger.kernels) - 1)
        ledger.neval[alg] += res.neval
        status = res.status.value
        ledger.record((idx, alg), (res.q, res.eps, res.neval, status),
                      passes(case, res.q, res.eps, status))
        if t1 - since >= CAL_PERIOD:
            ledger.kernels.append(kernel_time())
            since = clock()


def run_for(plan, ledger, passes, seconds, min_rounds, tracer=None) -> int:
    """Whole rounds until `seconds` have passed; returns the round count."""
    start = time.perf_counter()
    rounds = 0
    while rounds < min_rounds or time.perf_counter() - start < seconds:
        run_round(plan, ledger, passes, tracer)
        rounds += 1
    return rounds


def warm_up() -> None:
    """Build every stencil the integrators use before timing starts."""
    from relquad.algorithms import int_naive, int_refined
    int_naive(math.exp, 0.0, 1.0, 1e-9)
    int_refined(math.exp, 0.0, 1.0, 1e-9)


def p90_ms(latency: list) -> float:
    p90 = statistics.quantiles(latency, n=10)[8]
    if sum(t > p90 for t in latency) < 10:
        raise RuntimeError("fewer than ten calls beyond the p90 latency")
    return 1e3 * p90


def end_to_end(ledger: Ledger, setup_s: float) -> dict:
    m = {"setup_s": (setup_s, "s"),
         "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                         / 1024.0, "MB")}
    for alg in INTEGRATORS:
        lat = ledger.scaled(alg)
        busy = math.fsum(lat)
        m[f"{alg}.integrals_per_s"] = (len(lat) / busy, "1/s")
        m[f"{alg}.evals_per_s"] = (ledger.neval[alg] / busy, "1/s")
        m[f"{alg}.neval_per_integral"] = (ledger.neval[alg] / len(lat),
                                          "count")
        m[f"{alg}.call_ms.p50"] = (1e3 * statistics.median(lat), "ms")
        m[f"{alg}.call_ms.p90"] = (p90_ms(lat), "ms")
    return m


def per_layer(tracer, rounds: int, untraced_s: dict, traced_scaled_s: dict
              ) -> dict:
    """Per-round layer split of the traced pass, per integrator.  Span
    times are as measured, so that they add up; the untraced time, the
    tracing overhead and the per-evaluation costs are at nominal speed."""
    from tracing import LAYER

    nid, self_s, parent = tracer.self_times()
    root = np.where(parent < 0, np.arange(len(nid)), parent)
    while (parent[root] >= 0).any():
        root = np.where(parent[root] >= 0, parent[root], root)
    _, t0, t1 = tracer.arrays()
    names = np.array(tracer.names)
    m = {}
    for alg in INTEGRATORS:
        p = alg + "."
        call = tracer.call_id[alg]
        mine = nid[root] == call
        traced_s = float((t1 - t0)[nid == call].sum()) / rounds
        layer_self = {}
        for name, prefix in LAYER.items():
            sel = mine & (names[nid] == name)
            layer_self[prefix] = float(self_s[sel].sum()) / rounds
        alg_self = float(self_s[nid == call].sum()) / rounds
        total = alg_self + sum(layer_self.values())
        if not math.isclose(total, traced_s, rel_tol=1e-9):
            raise RuntimeError(f"{alg}: self times add up to {total}, "
                               f"traced time is {traced_s}")

        # integrand cost: the recorded points evaluated again, untimed
        # per call, after the run
        n_eval = 0
        busy = 0.0
        clock = time.perf_counter
        k0 = kernel_time()
        with np.errstate(all="ignore"):     # as in relquad.interp.sample
            for fn, xs in tracer.recorded[alg]:
                t = clock()
                for x in xs:
                    float(fn(x))
                busy += clock() - t
                n_eval += len(xs)
        busy *= 2.0 * KERNEL_NOMINAL_S / (k0 + kernel_time())
        us_per_eval = 1e6 * busy / n_eval
        evals = n_eval / rounds

        c = tracer.per_alg[alg]
        m[p + "integrand.evals"] = (evals, "count")
        m[p + "integrand.us_per_eval"] = (us_per_eval, "us")
        m[p + "interp.sample.calls"] = (c["sample.calls"] / rounds, "count")
        m[p + "interp.sample.reuse_ratio"] = (
            c["sample.reused"] / c["sample.filled"], "ratio")
        m[p + "interp.sample.masked_nodes"] = (c["sample.masked"] / rounds,
                                               "count")
        m[p + "interp.fit.calls"] = (c["fit.calls"] / rounds, "count")
        m[p + "interp.fit.downdates"] = (c["fit.downdates"] / rounds, "count")
        if alg == "refined":
            m[p + "errest.refined_error.fallback_ratio"] = (
                c["refined_error.fallbacks"] / c["refined_error.calls"],
                "ratio")
        for prefix, v in layer_self.items():
            if prefix == "errest.refined_error" and alg != "refined":
                continue
            m[p + prefix + ".self_s"] = (v, "s")
        m[p + "engine.select_worst.calls"] = (c["select_worst.calls"] / rounds,
                                              "count")
        m[p + "engine.heap_len.mean"] = (
            c["heap_len.sum"] / c["select_worst.calls"], "count")
        m[p + "engine.heap_len.max"] = (c["heap_len.max"], "count")
        m[p + "engine.evictions"] = (c["evictions"] / rounds, "count")
        m[p + "engine.drops"] = (c["drops"] / rounds, "count")
        m[p + "engine.divergence_update.calls"] = (
            c["divergence_update.calls"] / rounds, "count")
        m[p + "engine.divergent_verdicts"] = (c["divergent_verdicts"] / rounds,
                                              "count")
        m[p + "algorithms.self_s"] = (alg_self, "s")
        m[p + "algorithms.traced_s"] = (traced_s, "s")
        m[p + "algorithms.untraced_s"] = (untraced_s[alg], "s")
        m[p + "algorithms.trace_overhead"] = (
            traced_scaled_s[alg] / untraced_s[alg] - 1.0, "ratio")
        m[p + "algorithms.overhead_us_per_eval"] = (
            (1e6 * untraced_s[alg] - evals * us_per_eval) / evals, "us")
        m[p + "algorithms.bisections"] = (c["child_samples"] / 2 / rounds,
                                          "count")
        if alg == "naive":
            m[p + "algorithms.ladder_raises"] = (c["ladder_raises"] / rounds,
                                                 "count")
    return m


def traced_run(plan, ledger, passes, seconds, workload, seed) -> dict:
    from tracing import Tracer

    # untraced half: the base the tracing overhead is measured against
    rounds = run_for(plan, ledger, passes, seconds / 2.0, 1)
    n_untraced = {alg: len(ledger.latency[alg]) for alg in INTEGRATORS}
    untraced_s = {alg: math.fsum(ledger.scaled(alg)) / rounds
                  for alg in INTEGRATORS}

    tracer = Tracer(INTEGRATORS)
    restore = tracer.install()
    try:
        traced_rounds = run_for(plan, ledger, passes, seconds / 2.0, 1,
                                tracer)
    finally:
        restore()
    traced_scaled_s = {
        alg: math.fsum(ledger.scaled(alg, n_untraced[alg])) / traced_rounds
        for alg in INTEGRATORS}
    TRACE_DIR.mkdir(exist_ok=True)
    tracer.save(TRACE_DIR / f"{workload}-seed{seed}.npz")
    return per_layer(tracer, traced_rounds, untraced_s, traced_scaled_s)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("lk", "staircase", "singular"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0.0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "relquad" / "__init__.py").is_file():
        print(f"run.py: no relquad sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import relquad
    if Path(relquad.__file__).resolve().parent != SRC / "relquad":
        print(f"run.py: imported relquad from {relquad.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, passes

    setup_s = measure_setup() if args.trace == 0 else None
    plan = Plan(WORKLOADS[args.workload](args.seed))
    warm_up()
    ledger = Ledger()
    min_rounds = math.ceil(MIN_CALLS / len(plan.cases))
    if args.trace:
        metrics = traced_run(plan, ledger, passes, args.seconds,
                             args.workload, args.seed)
    else:
        rounds = run_for(plan, ledger, passes, args.seconds, min_rounds)
        metrics = end_to_end(ledger, setup_s)
        print(f"# {args.workload} seed {args.seed}: {rounds} rounds of "
              f"{len(plan.cases)} cases per integrator")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:10s} {name:48s} {value:14.6g} {unit}")
    print(f"{args.workload:10s} {'attempted':48s} {ledger.attempted:14d}")
    print(f"{args.workload:10s} {'failed':48s} {ledger.failed:14d}")
    print(json.dumps({
        "correct": ledger.mismatches == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
