import argparse
import csv
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import tracemalloc

import pytest

import bcgame
from bcgame import cli, equilibrium, errors, valuation
from bcgame.cli import main
from bcgame.errors import DomainError

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures")


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
        "both",
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
    assert main(["values", "--method", "both"] + common + ["--out", str(a)]) == 0
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


def test_regions_over_memory_grid_exits_2(monkeypatch, capsys):
    # 5 x (1e9 + 1) cells of 48 bytes against 1 GiB, by arithmetic alone:
    # refused before the thresholds are solved or a value is built
    monkeypatch.setattr(errors, "_physical_memory", lambda: 1 << 30)
    monkeypatch.setattr(equilibrium, "build_game_tables", _never_called)
    argv = ["regions", "--horizon", "5", "--priority", "0.25", "--xstep", "1e-9"]
    for fmt in ("csv", "json"):
        assert main(argv + ["--format", fmt]) == 2
        err = capsys.readouterr().err
        assert err == (
            "bcgame: error: regions at horizon 5 and xstep 1e-09 need 240.0 GB, "
            "more than the 1.1 GB of physical memory\n"
        )


@pytest.mark.parametrize(
    "argv",
    [["thresholds"], ["values", "--priority", "0.25"]],
    ids=["thresholds", "values"],
)
def test_huge_horizon_exits_2_before_the_threshold_solve(argv, capsys):
    assert main(argv + ["--horizon", str(10**12)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(
        "bcgame: error: thresholds at horizon 1000000000000 need 64000.0 GB, "
        "more than the "
    )


@pytest.mark.parametrize(
    "count", [0, 1, cli._ROW_SLICE, cli._ROW_SLICE + 1], ids=lambda c: f"{c}rows"
)
def test_emit_rows_streams_the_bytes_of_one_dump(count):
    # rows written as they come equal the whole list formatted at once
    header = ["i", "x", "flag", "kind"]
    cells = [1.5, math.inf, -math.inf, math.nan, 0.1, -0.0]
    rows = [
        [i, cells[i % len(cells)], i % 2 == 0, "SF" if i % 3 else "FS"]
        for i in range(count)
    ]
    want = {
        "csv": "\n".join(
            [",".join(header)] + [",".join(cli._fmt(v) for v in row) for row in rows]
        )
        + "\n",
        "json": json.dumps([dict(zip(header, row)) for row in rows], indent=2) + "\n",
    }
    for fmt, text in want.items():
        args = argparse.Namespace(format=fmt, sink=io.StringIO())
        cli._emit_rows(args, header, iter(rows))
        assert args.sink.getvalue() == text


def test_regions_peak_memory_is_the_grid(tmp_path):
    # 20 x 10001 cells: the rows are written as they are formatted, so the
    # traced peak stays within the grid's own bytes a cell
    cells = 20 * 10001
    out = tmp_path / "r.csv"
    argv = ["regions", "--horizon", "20", "--priority", "0.25", "--xstep", "1e-4"]
    tracemalloc.start()
    try:
        assert main(argv + ["--out", str(out)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < equilibrium._GRID_CELL_BYTES * cells
    assert out.read_text().count("\n") == cells + 1


def test_verify_passes_and_writes_reports(tmp_path):
    out = tmp_path / "verify.json"
    code = main(
        ["verify", "--samples", "40000", "--seed", "42", "--format", "json", "--out", str(out)]
    )
    assert code == 0
    # pinned bytes: any drift in a report's value, tolerance or verdict
    # fails here
    with open(os.path.join(FIXTURES, "verify-samples40000-seed42.json"), "rb") as handle:
        assert out.read_bytes() == handle.read()
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


def test_verify_csv_rows_have_one_field_a_column(tmp_path):
    # methods such as "monte carlo (40000 samples, seed 42) vs first-stop
    # closed form" hold commas, so their cells are quoted
    out = tmp_path / "verify.csv"
    assert main(["verify", "--samples", "40000", "--seed", "42", "--out", str(out)]) == 0
    rows = read_csv(out)
    with open(os.path.join(FIXTURES, "verify-samples40000-seed42.json"), "rb") as handle:
        reports = json.load(handle)
    assert len(rows) == len(reports)
    assert any("," in report["method"] for report in reports)
    for row, report in zip(rows, reports):
        assert len(row) == 7 and None not in row, row
        assert (row["quantity"], row["method"]) == (report["quantity"], report["method"])


def test_csv_cells_with_commas_quotes_or_line_breaks_are_quoted():
    sink = io.StringIO()
    texts = ["plain", "a, b", 'say "hi"', "two\nlines", "cr\rlf", ""]
    args = argparse.Namespace(sink=sink, format="csv")
    cli._emit_rows(args, ["i", "text"], [[i, text] for i, text in enumerate(texts)])
    lines = sink.getvalue().split("\n")
    assert lines[1:3] == ["0,plain", '1,"a, b"']
    assert lines[3] == '2,"say ""hi"""'
    got = list(csv.reader(io.StringIO(sink.getvalue(), newline="")))
    assert got == [["i", "text"]] + [[str(i), text] for i, text in enumerate(texts)]


def test_verify_exit_code_on_failure(tmp_path, monkeypatch):
    from bcgame import oracle
    from bcgame.oracle import OracleReport

    def fake_suite(samples, seed):
        return [OracleReport("forced", 0.0, 1.0, 1e-9, "negative control")]

    # verify imports the oracle module when it runs and calls the suite
    # through it, so a patch of the module reaches it
    monkeypatch.setattr(oracle, "run_verification_suite", fake_suite)
    out = tmp_path / "verify.csv"
    assert main(["verify", "--samples", "10", "--out", str(out)]) == 1
    # a failed verification still writes its reports
    assert read_csv(out)[0]["quantity"] == "forced"


def test_atomic_write_leaves_no_temp_files(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["thresholds", "--horizon", "5", "--out", str(out)]) == 0
    assert out.exists()
    leftovers = [p for p in os.listdir(tmp_path) if p.startswith(".bcgame-")]
    assert leftovers == []


def test_out_symlink_writes_its_target(tmp_path):
    want = tmp_path / "want.csv"
    assert main(["thresholds", "--horizon", "5", "--out", str(want)]) == 0
    target, link = tmp_path / "target.csv", tmp_path / "link"
    target.write_text("old bytes\n")
    link.symlink_to(target)
    assert main(["thresholds", "--horizon", "5", "--out", str(link)]) == 0
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == want.read_bytes()


def test_out_existing_file_written_in_place(tmp_path):
    # as a shell redirect: the file keeps its inode and mode, and every
    # hard link to it reads the new bytes
    want = tmp_path / "want.csv"
    assert main(["thresholds", "--horizon", "3", "--out", str(want)]) == 0
    out, link = tmp_path / "f.csv", tmp_path / "h.csv"
    out.write_text("old bytes\n")
    out.chmod(0o600)
    os.link(out, link)
    inode = out.stat().st_ino
    old = os.umask(0o022)
    try:
        assert main(["thresholds", "--horizon", "3", "--out", str(out)]) == 0
    finally:
        os.umask(old)
    assert out.read_bytes() == link.read_bytes() == want.read_bytes()
    assert out.stat().st_ino == inode
    assert out.stat().st_mode & 0o777 == 0o600
    assert sorted(os.listdir(tmp_path)) == ["f.csv", "h.csv", "want.csv"]


def test_out_fifo_written_in_place(tmp_path):
    want = tmp_path / "want.csv"
    assert main(["thresholds", "--horizon", "5", "--out", str(want)]) == 0
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    # daemon: a reader left blocked in open() must not hold up the session
    reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
    reader.start()
    assert main(["thresholds", "--horizon", "5", "--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert got == [want.read_bytes()]
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)


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


def _never_called(*args, **kwargs):
    raise AssertionError("the command computed before its check")


@pytest.mark.parametrize("samples", [0, -5])
def test_verify_samples_below_one_exit_2_before_computing(samples, monkeypatch, capsys):
    # exit 1 means a failed verification, so a refused argument must not
    # give it, nor run part of the suite first
    from bcgame import oracle

    monkeypatch.setattr(oracle, "_secretary_wins", _never_called)
    monkeypatch.setattr(oracle, "_rule_value", _never_called)
    monkeypatch.setattr(equilibrium, "build_game_tables", _never_called)
    assert main(["verify", "--samples", str(samples)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"bcgame: error: samples must be >= 1, got {samples}\n"
    assert captured.out == ""


@pytest.mark.parametrize("method", ["both", "dp"])
def test_mc_samples_below_one_exit_2_before_computing(method, monkeypatch, capsys):
    monkeypatch.setattr(equilibrium, "build_game_tables", _never_called)
    argv = ["values", "--method", method, "--samples", "0", "--horizon", "10"]
    assert main(argv + ["--priority", "0.25"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "bcgame: error: samples must be >= 1, got 0\n"
    assert captured.out == ""


@pytest.mark.parametrize(
    "argv,bounds,seed",
    [
        (["simulate"], "[0, 2**64)", -1),
        (["values", "--method", "both"], "[0, 2**64)", 1 << 64),
        (["values", "--method", "dp"], "[0, 2**64)", -1),
        (["verify"], "[0, 2**64 - 2)", (1 << 64) - 2),
    ],
    ids=["simulate", "values-both", "values-dp", "verify"],
)
def test_seed_outside_the_stream_keys_exits_2_before_computing(
    argv, bounds, seed, monkeypatch, capsys
):
    # the keys read a seed modulo 2**64, so -1 printed the bytes of
    # 2**64 - 1 and 2**64 those of 0
    from bcgame import oracle

    monkeypatch.setattr(oracle, "_secretary_wins", _never_called)
    monkeypatch.setattr(oracle, "_rule_value", _never_called)
    monkeypatch.setattr(equilibrium, "build_game_tables", _never_called)
    argv = argv + ["--seed", str(seed)]
    if argv[0] != "verify":
        argv += ["--horizon", "10", "--priority", "0.25"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == f"bcgame: error: seed must be in {bounds}, got {seed}\n"
    assert captured.out == ""


def test_unwritable_out_fails_before_computing(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(equilibrium, "build_game_tables", _never_called)
    out = tmp_path / "missing" / "x.csv"
    argv = ["values", "--horizon", "300", "--priority", "0.25", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"bcgame: error: cannot write {out}: ")


def test_failed_command_leaves_no_out_file(tmp_path, monkeypatch, capsys):
    def fail(cfg):
        raise DomainError("refused mid-command")

    monkeypatch.setattr(equilibrium, "build_game_tables", fail)
    out = tmp_path / "x.csv"
    argv = ["values", "--horizon", "5", "--priority", "0.25", "--out", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err == "bcgame: error: refused mid-command\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["values", "--horizon", "50", "--priority", "0.25"],
        ["simulate", "--horizon", "50", "--priority", "0.25", "--samples", "1000"],
    ],
    ids=["values", "simulate"],
)
def test_game_value_commands_build_no_value_tables(
    argv, monkeypatch, capsys, game_tables
):
    # the value tables at N = 50 (1.06 MB) exceed 1 MiB of memory, yet the
    # printed game value needs none of them: the refusal of tables beyond
    # memory belongs to the API (test_valuation's
    # test_value_function_refuses_tables_beyond_physical_memory)
    assert valuation._table_bytes(50) > 1 << 20
    monkeypatch.setattr(errors, "_physical_memory", lambda: 1 << 20)
    monkeypatch.setattr(valuation, "ValueFunction", _never_called)
    monkeypatch.setattr(valuation, "backward_induce", _never_called)
    assert main(argv) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header.split(",")[:2] == ["val1", "val2"]
    pair = valuation.game_value(game_tables(50, 0.25))
    assert [float(v) for v in row.split(",")[:2]] == [pair.val1, pair.val2]


def test_values_beyond_the_table_horizon_limit_completes(monkeypatch, capsys):
    # N = 1000 needs 8 GB of value tables, refused against 1 GiB; values
    # prints the game value without them
    assert valuation._table_bytes(1000) > 1 << 30
    monkeypatch.setattr(errors, "_physical_memory", lambda: 1 << 30)
    monkeypatch.setattr(valuation, "ValueFunction", _never_called)
    assert main(["values", "--horizon", "1000", "--priority", "0.25"]) == 0
    header, row = capsys.readouterr().out.splitlines()
    assert header == "val1,val2"
    val1, val2 = (float(v) for v in row.split(","))
    assert math.isfinite(val1) and math.isfinite(val2)
    assert 0.0 < val2 < 1.0 and -1.0 < val1 < val2


#: Modules a cold start must not load: the oracle module and what it
#: imports, which only ``verify`` runs, numpy.ma, which the first
#: ``np.unique`` of a process loads and no command needs, and json, which
#: only JSON output needs.
_COLD_PATH_SKIPS = (
    "bcgame.oracle", "fractions", "numpy.polynomial", "numpy.ma", "json"
)


def _modules_after(code: str) -> set[str]:
    """The modules of ``_COLD_PATH_SKIPS`` that a fresh interpreter holds
    after running ``code``, read from the last line it prints."""
    src = os.path.dirname(os.path.dirname(bcgame.__file__))
    probe = f"{code}\nimport sys\nprint(*[m for m in {_COLD_PATH_SKIPS!r} if m in sys.modules])"
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    return set(done.stdout.splitlines()[-1].split())


def _run_fresh(code: str) -> subprocess.CompletedProcess:
    """``code`` run by a fresh interpreter that imports bcgame from this tree."""
    src = os.path.dirname(os.path.dirname(bcgame.__file__))
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )


#: SHA-256 of b"abc" (FIPS 180-2) and HMAC-SHA256 of b"m" under key b"k".
_SHA256_ABC = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
_HMAC_K_M = "b60090e3052297aeb5a080889ce2fc4bca957e756faeb4df7d31800ca1e771ec"


def test_monte_carlo_commands_leave_openssl_unloaded():
    # numpy.random imports secrets, hashlib and, without the guard,
    # OpenSSL's _hashlib; after main the digests are CPython's own
    done = _run_fresh(
        "import os\n"
        "from bcgame.cli import main\n"
        "game = ['--horizon', '10', '--priority', '0.25', '--samples', '1000']\n"
        "for argv in (['simulate'] + game, ['values', '--method', 'both'] + game,\n"
        "             ['verify', '--samples', '1000']):\n"
        "    main(argv + ['--out', os.devnull])\n"
        "import hashlib, hmac, sys\n"
        "print(sys.modules.get('_hashlib', 'unset'),\n"
        "      hashlib.sha256(b'abc').hexdigest(),\n"
        "      hmac.new(b'k', b'm', 'sha256').hexdigest())"
    )
    assert done.stdout.split() == ["None", _SHA256_ABC, _HMAC_K_M]
    assert done.stderr == ""


def test_api_leaves_openssl_alone():
    done = _run_fresh(
        "import sys\n"
        "from bcgame import ProblemConfig, build_game_tables\n"
        "from bcgame.valuation import SimConfig, simulate\n"
        "tables = build_game_tables(ProblemConfig(horizon=10, priority=0.25))\n"
        "simulate(tables.config, tables, SimConfig(samples=1000))\n"
        "print(sys.modules.get('_hashlib') is not None)"
    )
    assert done.stdout.split() == ["True"]


@pytest.mark.parametrize(
    "missing,registered",
    [
        ((), True),
        (("_sha256",), False),
        (("_md5", "_sha1", "_sha256", "_sha512", "_sha3"), False),
    ],
    ids=["none", "sha256", "all-but-blake2"],
)
def test_openssl_kept_out_only_with_every_builtin_digest(
    missing, registered, monkeypatch, capsys
):
    # with a digest module missing, hashlib would log a traceback for it
    import importlib.util

    find_spec = importlib.util.find_spec
    monkeypatch.setattr(
        importlib.util,
        "find_spec",
        lambda name, *args: None if name in missing else find_spec(name, *args),
    )
    monkeypatch.delitem(sys.modules, "_hashlib", raising=False)
    assert main(["thresholds", "--horizon", "5"]) == 0
    capsys.readouterr()
    assert ("_hashlib" in sys.modules) is registered
    assert sys.modules.get("_hashlib") is None


def test_cold_start_loads_only_what_the_command_runs():
    assert _modules_after("import bcgame.cli") == set()
    values = (
        "from bcgame.cli import main\n"
        "main(['values', '--horizon', '20', '--priority', '0.25'])"
    )
    assert "numpy.ma" not in _modules_after(values)
    induce = (
        "from bcgame import ProblemConfig, backward_induce, build_game_tables\n"
        "backward_induce(build_game_tables(ProblemConfig(horizon=20, priority=0.25)))"
    )
    assert "numpy.ma" not in _modules_after(induce)


def test_only_json_output_loads_json():
    values = (
        "from bcgame.cli import main\n"
        "main(['values', '--horizon', '10', '--priority', '0.25'{}])"
    )
    assert _modules_after(values.format("")) == set()
    assert _modules_after(values.format(", '--format', 'json'")) == {"json"}
    table1 = "from bcgame.cli import main\nmain(['table1', '--format', 'json'])"
    assert _modules_after(table1) == {"json"}


def test_main_freezes_the_heap_it_was_imported_with():
    # the exit collections then skip numpy's and bcgame's import-time objects
    done = _run_fresh(
        "import gc, os\n"
        "from bcgame.cli import main\n"
        "assert gc.get_freeze_count() == 0\n"
        "main(['table1', '--out', os.devnull])\n"
        "print(gc.get_freeze_count())"
    )
    assert int(done.stdout) > 0


def test_api_leaves_the_collector_alone():
    done = _run_fresh(
        "import gc\n"
        "import bcgame\n"
        "from bcgame import (\n"
        "    ProblemConfig, backward_induce, build_game_tables, run_verification_suite\n"
        ")\n"
        "from bcgame.valuation import SimConfig, simulate\n"
        "tables = build_game_tables(ProblemConfig(horizon=10, priority=0.25))\n"
        "backward_induce(tables)\n"
        "simulate(tables.config, tables, SimConfig(samples=1000))\n"
        "run_verification_suite(samples=1000)\n"
        "print(gc.get_freeze_count())"
    )
    assert done.stdout.split() == ["0"]


def test_verify_loads_no_numpy_polynomial():
    # the oracle's exact rule value works on whole coefficient arrays
    verify = (
        "import os\n"
        "from bcgame.cli import main\n"
        "main(['verify', '--samples', '1000', '--out', os.devnull])"
    )
    assert _modules_after(verify) == {"bcgame.oracle", "fractions"}
