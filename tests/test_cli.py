import csv
import json
import math
import os

import pytest

from bcgame.cli import main


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def test_thresholds_csv(tmp_path):
    out = tmp_path / "thr.csv"
    assert main(["thresholds", "--horizon", "10", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["n"] for r in rows] == [str(n) for n in range(1, 11)]
    assert list(rows[0].keys()) == ["n", "x_n", "w1", "is_at_or_after_nstar"]
    assert float(rows[8]["x_n"]) == 0.5
    assert float(rows[7]["x_n"]) == pytest.approx(0.689898, abs=1e-5)
    flags = [r["is_at_or_after_nstar"] for r in rows]
    assert flags[:3] == ["false"] * 3 and flags[3] == "true"


def test_thresholds_invalid_horizon():
    assert main(["thresholds", "--horizon", "1"]) == 2


@pytest.mark.parametrize("tol", ["0", "inf", "nan", "1e300"])
def test_thresholds_ignore_retired_tolerance_variable(tol, monkeypatch, capsys):
    # thresholds are solved to floating-point resolution; BCGAME_TOL, which
    # once set a bisection width, is read by nothing
    monkeypatch.delenv("BCGAME_TOL", raising=False)
    assert main(["thresholds", "--horizon", "4"]) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("BCGAME_TOL", tol)
    assert main(["thresholds", "--horizon", "4"]) == 0
    assert capsys.readouterr().out == unset


def test_table1_grid(tmp_path):
    out = tmp_path / "t1.csv"
    assert main(["table1", "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 30
    cell = {
        (int(r["N"]), round(float(r["p"]), 6)): (int(r["nstar"]), int(r["ntilde"]))
        for r in rows
    }
    assert cell[(30, round(math.exp(-1), 6))] == (12, 17)
    assert cell[(20, 0.1)] == (8, 9)
    assert cell[(50, round(1 / 3, 6))] == (19, 28)


def test_values_json_keys(tmp_path):
    out = tmp_path / "v.json"
    assert (
        main(
            [
                "values",
                "--horizon",
                "10",
                "--priority",
                "0.25",
                "--method",
                "both",
                "--samples",
                "5000",
                "--seed",
                "3",
                "--format",
                "json",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    payload = json.loads(out.read_text())
    assert set(payload) == {"horizon", "priority", "method", "val1", "val2", "mc"}
    assert set(payload["mc"]) == {"val1", "val2", "se1", "se2", "samples", "seed"}
    assert payload["mc"]["seed"] == 3


def test_values_rejects_high_priority():
    assert main(["values", "--horizon", "10", "--priority", "0.6"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["regions", "--horizon", "5", "--priority", "0.9", "--xstep", "0.1"],
        ["simulate", "--horizon", "5", "--priority", "0.6", "--samples", "1000"],
    ],
)
def test_high_priority_exits_2(argv, capsys):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("bcgame: error: classification established for p <= 0.5")


@pytest.mark.parametrize("error", [MemoryError, OverflowError])
def test_resource_errors_exit_2(error, monkeypatch, capsys):
    from bcgame import cli as climod

    def fail(args):
        raise error("out of range")

    monkeypatch.setattr(climod, "_cmd_thresholds", fail)
    assert main(["thresholds", "--horizon", "5"]) == 2
    assert capsys.readouterr().err == "bcgame: error: out of range\n"



def test_values_beyond_physical_memory_exits_2(monkeypatch, capsys):
    # the cost model refuses the value tables before they are allocated
    from bcgame import valuation

    monkeypatch.setattr(valuation, "_physical_memory", lambda: 1 << 20)
    assert main(["values", "--horizon", "40", "--priority", "0.25"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("bcgame: error: value tables at horizon 40 need")
    assert "physical memory" in err


def test_values_priority_literals(tmp_path):
    for literal, value in (("1/3", 1 / 3), ("e^-1", math.exp(-1))):
        out = tmp_path / "lit.json"
        assert (
            main(
                [
                    "values",
                    "--horizon",
                    "5",
                    "--priority",
                    literal,
                    "--format",
                    "json",
                    "--out",
                    str(out),
                ]
            )
            == 0
        )
        assert json.loads(out.read_text())["priority"] == value
    assert main(["values", "--horizon", "5", "--priority", "2/7"]) == 2


def test_mc_outputs_reproducible_bytes(tmp_path):
    args = [
        "values",
        "--horizon",
        "8",
        "--priority",
        "0.25",
        "--method",
        "mc",
        "--samples",
        "20000",
        "--seed",
        "99",
    ]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_alias_matches_values_mc(tmp_path):
    common = [
        "--horizon",
        "8",
        "--priority",
        "0.2",
        "--samples",
        "20000",
        "--seed",
        "5",
        "--format",
        "json",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["values", "--method", "mc"] + common + ["--out", str(a)]) == 0
    assert main(["simulate"] + common + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_csv_json_numeric_agreement(tmp_path):
    base = ["thresholds", "--horizon", "7"]
    c = tmp_path / "t.csv"
    j = tmp_path / "t.json"
    assert main(base + ["--out", str(c), "--format", "csv"]) == 0
    assert main(base + ["--out", str(j), "--format", "json"]) == 0
    csv_rows = read_csv(c)
    json_rows = json.loads(j.read_text())
    for cr, jr in zip(csv_rows, json_rows):
        assert float(cr["x_n"]) == jr["x_n"]
        assert float(cr["w1"]) == jr["w1"]


def test_regions_rows(tmp_path):
    out = tmp_path / "r.csv"
    assert (
        main(
            [
                "regions",
                "--horizon",
                "10",
                "--priority",
                "0.25",
                "--xstep",
                "0.05",
                "--out",
                str(out),
            ]
        )
        == 0
    )
    rows = read_csv(out)
    assert len(rows) == 10 * 21
    kinds_n3 = {float(r["x"]): r["kind"] for r in rows if r["n"] == "3"}
    assert all(k == "FS" for x, k in kinds_n3.items() if x >= 0.9)
    kinds_n10 = {r["kind"] for r in rows if r["n"] == "10"}
    assert kinds_n10 == {"SS"}
    from bcgame.models import fullinfo_thresholds

    thresholds = fullinfo_thresholds(__import__("bcgame").ProblemConfig(horizon=10))
    below_sf = [
        r["kind"]
        for r in rows
        if int(r["n"]) >= 5 and float(r["x"]) < thresholds.x(int(r["n"]))
    ]
    assert set(below_sf) == {"SF"}


def test_regions_invalid_step():
    assert (
        main(["regions", "--horizon", "5", "--priority", "0.25", "--xstep", "0.5"])
        == 2
    )


def test_verify_passes_and_writes_reports(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "--samples", "40000", "--seed", "42", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    reports = json.loads(out.read_text())
    assert len(reports) >= 10
    assert all(r["passed"] for r in reports)
    assert set(reports[0]) == {
        "quantity",
        "oracle_value",
        "solver_value",
        "abs_diff",
        "tolerance",
        "passed",
        "method",
    }


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    from bcgame import cli as climod
    from bcgame.oracle import OracleReport

    def fake_suite(samples, seed):
        return [OracleReport.compare("forced", 0.0, 1.0, 1e-9, "negative control")]

    monkeypatch.setattr(climod.oracle, "run_verification_suite", fake_suite)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--samples", "10", "--out", str(out)]) == 1


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["thresholds", "--horizon", "5", "--out", str(out)]) == 0
    assert out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".bcgame-")]
    assert leftovers == []


def test_stdout_default(capsys):
    assert main(["thresholds", "--horizon", "3"]) == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "n,x_n,w1,is_at_or_after_nstar"


def test_seed_ignores_retired_variable(monkeypatch, capsys):
    # --seed alone sets the seed; BCGAME_SEED, which once overrode its
    # default, is read by nothing
    argv = ["simulate", "--horizon", "5", "--priority", "0.25"]
    argv += ["--samples", "1000", "--format", "json"]
    monkeypatch.delenv("BCGAME_SEED", raising=False)
    assert main(argv) == 0
    unset = capsys.readouterr().out
    monkeypatch.setenv("BCGAME_SEED", "777")
    assert main(argv) == 0
    assert capsys.readouterr().out == unset
    assert json.loads(unset)["mc"]["seed"] == 42


@pytest.mark.parametrize(
    "argv, target",
    [
        (["verify", "--samples", "20000"], "missing/x.csv"),
        (["thresholds", "--horizon", "5"], "."),
    ],
    ids=["missing-dir", "directory"],
)
def test_unwritable_out_exits_2(argv, target, tmp_path, capsys):
    # exit 1 means a failed verification, so a bad path must not give it
    out = tmp_path / target
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bcgame: error: cannot write {out}: ")
    assert err.count("\n") == 1
    assert [p for p in os.listdir(tmp_path) if p.startswith(".bcgame-")] == []


@pytest.mark.parametrize(
    "umask, mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"]
)
def test_out_file_mode_follows_umask(umask, mode, tmp_path):
    out = tmp_path / "x.csv"
    old = os.umask(umask)
    try:
        assert main(["thresholds", "--horizon", "5", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.stat().st_mode & 0o777 == mode
