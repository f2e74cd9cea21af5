import csv
import io
import math

import pytest

from relquad.cli import (
    ALPHA_GRID,
    CSV_HEADER,
    RunSpec,
    emit_report,
    main,
    run,
    run_battery,
    run_divergence,
    run_lk,
    run_probe,
)

SMALL_LK = RunSpec(mode="lk", algorithms=("naive",), tolerances=(1e-3,),
                   realizations=10, seed=7)


def _parse_csv(text):
    rows = list(csv.reader(io.StringIO(text)))
    return rows[0], rows[1:]


def test_runspec_validation():
    with pytest.raises(ValueError):
        RunSpec(mode="bogus")
    with pytest.raises(ValueError):
        RunSpec(mode="lk", algorithms=("gauss",))
    with pytest.raises(ValueError):
        RunSpec(mode="lk", algorithms=())
    with pytest.raises(ValueError):
        RunSpec(mode="lk", tolerances=(2.0,))
    with pytest.raises(ValueError):
        RunSpec(mode="lk", realizations=0)
    with pytest.raises(ValueError):
        RunSpec(mode="lk", output_format="yaml")
    with pytest.raises(ValueError):
        RunSpec(mode="lk", budget=0)
    # a repeated entry would print its rows twice
    with pytest.raises(ValueError, match="repeated algorithm"):
        RunSpec(mode="battery", algorithms=("naive", "naive"))
    with pytest.raises(ValueError, match="repeated tolerance"):
        RunSpec(mode="lk", tolerances=(1e-3, 1e-6, 1e-3))


def test_lk_rows_partition_and_header():
    rows = run_lk(SMALL_LK)
    assert len(rows) == 6  # one cell per family
    for r in rows:
        assert tuple(r.keys()) == CSV_HEADER
        assert int(r["correct"]) + int(r["incorrect"]) == 10
        assert 0 <= int(r["warned"]) <= 10
        assert float(r["mean_neval"]) > 0


def test_lk_mean_neval_reference_cell():
    # the published per-cell cost this runner must land near: the kinked
    # exponential family, degree-ladder integrator, tol 1e-3, cost 113.36
    spec = RunSpec(mode="lk", algorithms=("naive",), tolerances=(1e-3,),
                   realizations=100, seed=0)
    row, = (r for r in run_lk(spec) if r["family"] == "kink_exp")
    assert abs(float(row["mean_neval"]) - 113.36) <= 0.25 * 113.36
    assert row["correct"] == "100"


def test_success_rate_stable_under_doubling():
    # doubling the realization count (fresh indices, same streams) moves the
    # per-cell success rate by no more than binomial 3 sigma
    half = RunSpec(mode="lk", algorithms=("refined",), tolerances=(1e-3,),
                   realizations=25, seed=3)
    full = RunSpec(mode="lk", algorithms=("refined",), tolerances=(1e-3,),
                   realizations=50, seed=3)
    for rh, rf in zip(run_lk(half), run_lk(full)):
        p_h = int(rh["correct"]) / 25.0
        p_f = int(rf["correct"]) / 50.0
        sigma = math.sqrt(max(p_f * (1.0 - p_f), 1.0 / 50.0) / 25.0)
        assert abs(p_h - p_f) <= 3.0 * sigma


def test_battery_rows_padding_and_flags():
    spec = RunSpec(mode="battery", algorithms=("refined",),
                   tolerances=(1e-3,), seed=5)
    rows = run_battery(spec)
    assert len(rows) == 25
    assert rows[0]["family"] == "f1"
    for r in rows:
        assert tuple(r.keys()) == CSV_HEADER
        assert r["correct"] == ""  # no counts for a single deterministic run
        assert r["incorrect"] in ("0", "1")
        assert r["warned"] in ("0", "1")
        int(r["mean_neval"])  # exact count, not a mean


def test_divergence_rows_flag_pair():
    spec = RunSpec(mode="divergence", algorithms=("refined",),
                   tolerances=(1e-3,), realizations=5, seed=1)
    rows = run_divergence(spec)
    assert [r["family"] for r in rows] == ["%.1f" % a for a in ALPHA_GRID]
    for r in rows:
        assert tuple(r.keys()) == CSV_HEADER
        assert int(r["correct"]) + int(r["incorrect"]) == 5
    by_alpha = {r["family"]: r for r in rows}
    assert by_alpha["-0.1"]["correct"] == "5"
    assert by_alpha["-0.1"]["warned"] == "0/0"
    # non-integrable side: nothing is correct and every run raises a flag
    for fam in ("-1.5", "-2.0"):
        r = by_alpha[fam]
        assert r["correct"] == "0" and r["incorrect"] == "5"
        n_err, n_div = map(int, r["warned"].split("/"))
        assert n_err + n_div == 5
        assert n_div >= 4


def test_probe_rows():
    rows = run_probe(RunSpec(mode="probe"))
    assert len(rows) == len(ALPHA_GRID)
    assert tuple(rows[0].keys()) == ("mode", "alpha", "h", "eps_ratio",
                                     "q_ratio")
    for r, alpha in zip(rows, ALPHA_GRID):
        expect = 2.0 ** (-1.0 - alpha)
        assert abs(float(r["eps_ratio"]) - expect) <= 1e-11 * expect
        assert abs(float(r["q_ratio"]) - expect) <= 1e-11 * expect


def test_emit_csv_round_trip():
    rows = run_lk(SMALL_LK)
    header, data = _parse_csv(emit_report(rows, "csv"))
    assert tuple(header) == CSV_HEADER
    assert [dict(zip(header, d)) for d in data] == rows


def test_emit_markdown_column_count_matches_csv():
    for spec in (SMALL_LK, RunSpec(mode="probe")):
        rows = run(spec)
        md = emit_report(rows, "md").splitlines()
        n_fields = len(rows[0])
        assert len(md) == len(rows) + 2  # header + rule + one line per row
        for line in md:
            assert line.startswith("| ") and line.endswith(" |")
            assert len(line.split(" | ")) == n_fields
    with pytest.raises(ValueError):
        emit_report([], "csv")


def test_main_writes_deterministic_output(tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["--mode", "lk", "--alg", "naive", "--tol", "1e-3", "--runs", "5",
            "--seed", "42"]
    assert main(argv + ["--out", str(out1)]) == 0
    assert main(argv + ["--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    header, data = _parse_csv(out1.read_text(encoding="utf-8"))
    assert tuple(header) == CSV_HEADER
    assert all(d[-1] == "42" for d in data)


def test_main_stdout_and_alg_all(capsys):
    assert main(["--mode", "probe", "--format", "md"]) == 0
    md = capsys.readouterr().out
    assert md.splitlines()[0].startswith("| mode")
    assert main(["--mode", "battery", "--alg", "all", "--tol", "1e-3",
                 "--budget", "3000"]) == 0
    header, data = _parse_csv(capsys.readouterr().out)
    assert {d[2] for d in data} == {"naive", "refined", "simpson"}
    assert len(data) == 75


def test_main_error_paths(capsys):
    assert main(["--mode", "lk", "--tol", "2.0"]) == 1
    assert "error" in capsys.readouterr().err
    assert main(["--mode", "lk", "--runs", "0"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit):
        main(["--mode", "nonsense"])  # argparse rejects the choice
