"""Mutation runs of tier-1 against modules of ``relquad``.

    python tools/mutants.py CHECKOUT MODULE [MODULE ...]

MODULE names a file of CHECKOUT's ``src/relquad`` (``errest``, ``engine``,
...).  Each mutant changes one expression of one module, in three classes:

- ``negate``: an ordering comparison (one with ``<``, ``<=``, ``>`` or
  ``>=`` among its operators) ``c`` becomes ``not c``;
- ``boundary``: one ordering operator of a comparison flips, ``<`` with
  ``<=`` and ``>`` with ``>=``; a chained comparison gives one mutant per
  ordering operator;
- ``constant``: a module-level ``NAME = ...`` (``NAME`` upper case, a
  leading underscore allowed) whose value, as imported, is an int or a
  float takes one perturbation: an int ``c`` becomes ``c - max(1, c //
  10)``, a float ``c`` becomes ``2 * c``.  A value the rule leaves as it
  is (0.0, inf, nan) gives no mutant.

Each mutant runs in a private copy of CHECKOUT (``.git`` and caches left
out) with the mutated module written in, as tier-1 with ``-x``, criterion
5's family table deselected (it fails on unmutated code) and hypothesis'
seed fixed at 0, one pytest at a time.  The mutant is killed if that run
fails or does not finish within five times the unmutated run's time (at
least 60 s), and survived if it passes.  Before any mutant, the unmutated
checkout runs the same way, and nothing else runs unless it passes.

Mutants run in a fixed order: modules as given, and in each module by
line, column and class.  One line is printed per mutant:

    module:line class old -> new killed|survived

and then the counts.  Only the standard library is used; the checkout's
own tests need what tier-1 needs.
"""

import ast
import copy
import importlib
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DESELECT = "tests/test_acceptance.py::test_criterion_5_family_benchmark_table"
PYTEST = ("-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "--deselect", DESELECT)
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis",
                                ".pytest_cache", "*.egg-info", "build", "dist",
                                ".bench_trace")
FLIP = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
CONSTANT = re.compile(r"_?[A-Z][A-Z0-9_]*")


def perturb(value):
    """The constant rule: the mutant value of an int or float, or None."""
    if type(value) is int:
        return value - max(1, value // 10)
    if type(value) is float and repr(2.0 * value) != repr(value):
        return 2.0 * value
    return None


def splice(source: str, node: ast.AST, text: str) -> str:
    """source with node's text replaced by (text); ast offsets count
    UTF-8 bytes."""
    raw = source.encode()
    starts = [0]
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    i = starts[node.lineno - 1] + node.col_offset
    j = starts[node.end_lineno - 1] + node.end_col_offset
    return (raw[:i] + f"({text})".encode() + raw[j:]).decode()


def mutants(source: str, module) -> list:
    """(line, class, old, new, mutated source) of every mutant of one
    module, in run order; module is the imported module, for the values
    of its constants."""
    found = []
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        flips = [k for k, op in enumerate(node.ops) if type(op) in FLIP]
        if not flips:
            continue
        found.append((node, 0, 0, ast.UnaryOp(ast.Not(), node)))
        for k in flips:
            new = copy.deepcopy(node)
            new.ops[k] = FLIP[type(node.ops[k])]()
            found.append((node, 1, k, new))
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            target = stmt.target
        else:
            continue
        if not (isinstance(target, ast.Name)
                and CONSTANT.fullmatch(target.id)):
            continue
        value = perturb(getattr(module, target.id))
        if value is not None:
            found.append((stmt.value, 2, 0, ast.Constant(value)))
    found.sort(key=lambda m: (m[0].lineno, m[0].col_offset, m[1], m[2]))
    return [(node.lineno, ("negate", "boundary", "constant")[cls],
             ast.unparse(node), ast.unparse(new),
             splice(source, node, ast.unparse(new)))
            for node, cls, _, new in found]


def tier1(checkout: Path, rel: str | None = None, text: str = "",
          timeout: float | None = None) -> bool:
    """Whether tier-1 passes on a private copy of checkout, with the file
    rel (if given) replaced by text; a run past timeout fails."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        root = Path(tmp) / "checkout"
        shutil.copytree(checkout, root, ignore=IGNORE)
        if rel is not None:
            (root / rel).write_text(text, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, (str(root / "src"), os.environ.get("PYTHONPATH")))))
        proc = subprocess.Popen((sys.executable, *PYTEST), cwd=root, env=env,
                                stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL,
                                start_new_session=True)
        try:
            return proc.wait(timeout=timeout) == 0
        except subprocess.TimeoutExpired:
            return False
        finally:
            if proc.poll() is None:  # timed out or interrupted
                # the run and anything it started
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    # a SIGTERM unwinds as Ctrl-C does, so the running pytest is killed too
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    checkout = Path(argv[0]).resolve()
    sys.path.insert(0, str(checkout / "src"))
    plan = []
    for name in argv[1:]:
        rel = f"src/relquad/{name}.py"
        module = importlib.import_module(f"relquad.{name}")
        if Path(module.__file__).resolve() != checkout / rel:
            raise SystemExit(f"relquad.{name} imports from {module.__file__}")
        source = (checkout / rel).read_text(encoding="utf-8")
        plan += [(name, rel, m) for m in mutants(source, module)]

    t0 = time.perf_counter()
    if not tier1(checkout):
        print(f"tier-1 fails on the unmutated {checkout}", file=sys.stderr)
        return 1
    timeout = max(60.0, 5.0 * (time.perf_counter() - t0))

    killed = 0
    for name, rel, (line, cls, old, new, text) in plan:
        survived = tier1(checkout, rel, text, timeout)
        killed += not survived
        verdict = "survived" if survived else "killed"
        print(f"{name}:{line} {cls} {old} -> {new} {verdict}", flush=True)
    print(f"{len(plan)} mutants: {killed} killed, {len(plan) - killed} "
          f"survived")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
