"""Scaling figures of the thresholds, game-table, game-value, induction,
Monte Carlo, state-audit, region-map and oracle-suite layers and of some
end-to-end commands, one row per source tree, for a ``BENCH_*.json``
file.

    python tools/scaling.py --tree change=src \\
        [--tree parent=/path/to/parent/src] > BENCH.json

Each ``--tree LABEL=DIR`` names a directory holding the ``bcgame`` package.
Every case runs in a fresh interpreter, so its ``ru_maxrss`` is its own,
and a case that reports the fastest of several calls makes them all in
that one child; the five repeats interleave the trees and alternate
which goes first.

The in-process cases come from the case table, ``LAYERS``.  Its entry
``name`` gives one case ``name-N`` for each horizon N it lists
(``suite`` has none): a child, ``_LAYER_CHILD`` filled in, runs the
entry's setup untimed, then times the calls of one statement.  It
reports ``wall_s``, the fastest call, and ``maxrss_mb``, the child's max
RSS; a traced entry adds the ``tracemalloc`` peak of one more call,
``tracemalloc_mb``. ``simulate-N`` (``SEQUENCES`` sequences a call) adds
``seq_per_s``, and ``audit-N`` (``AUDIT_STATES`` seeded record states a
call) reports ``us_per_state`` and ``states_per_s`` in place of
``wall_s``.

The ``cli-*`` cases run the commands of ``CLI_CASES`` end to end, their
output to /dev/null.  They report the wall time, the child's CPU time
and its max RSS, and split the wall time at stamps the child takes:
``startup_s``, the interpreter's start-up before the child's script
runs; ``import_s``, ``import bcgame.cli``; ``command_s``, ``main``; and
``exit_s``, from ``main``'s return to the child's end, the interpreter's
finalization included.

``tier1`` is the tier-1 command, ``python -m pytest -q
--continue-on-collection-errors`` with DIR on the path, run from DIR's
parent, the checkout that holds the tests; three runs a tree, not five.
It reports the wall time, the CPU time and max RSS of the pytest
process, and the passed, failed and error counts of its summary line.
Failing tests do not stop the script; a run that pytest itself aborts
does.

A row records the tree's commit (``dirty`` when it has uncommitted
changes), the Python and numpy versions, the CPUs this process may run
on, the line counts of each ``bcgame`` module (``_line_counts``), and
each case's runs and their medians.  The rows go to stdout as
JSON.  The script reports and never gates.
"""

from __future__ import annotations

import argparse
import ast
import glob
import io
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import textwrap
import time
import tokenize

import numpy as np

HORIZONS = (10, 50, 150, 400)
#: the thresholds and the game tables also at N = 10,000, where their
#: exponent in N shows
SOLVE_HORIZONS = (*HORIZONS, 10_000)
RULE_HORIZONS = (10, 50, 100, 400, 1000)
REPEATS = 5
SEQUENCES = 1 << 18
AUDIT_STATES = 2000
_REGIONS_ARGV = ("regions", "--horizon", "50", "--priority", "0.25", "--xstep", "1e-4")
CLI_CASES = {
    "cli-simulate-35": (
        "simulate", "--horizon", "35", "--priority", "0.25", "--samples", "2000000"
    ),
    "cli-simulate-10": (
        "simulate", "--horizon", "10", "--priority", "0.25", "--samples", "2000000"
    ),
    "cli-regions-50-csv": (*_REGIONS_ARGV, "--format", "csv"),
    "cli-regions-50-json": (*_REGIONS_ARGV, "--format", "json"),
    "cli-verify": ("verify",),
    "cli-values-400": ("values", "--horizon", "400", "--priority", "0.25"),
    "cli-values-both-10": (
        "values", "--horizon", "10", "--priority", "0.25", "--method", "both",
        "--samples", "1000000",
    ),
    "cli-table1": ("table1",),
    "cli-thresholds-10": ("thresholds", "--horizon", "10"),
}


def _game(*names: str) -> str:
    """Setup importing ``names`` that builds the game at p = 0.25."""
    return (
        f"from bcgame import ProblemConfig, build_game_tables, {', '.join(names)}\n"
        "tables = build_game_tables(ProblemConfig(horizon=horizon, priority=0.25))"
    )


#: The case table: name -> (setup, the statement timed, {horizon: calls
#: a child times}, whether one more call runs under ``tracemalloc``).
LAYERS = {
    "simulate": (
        f"""{_game('SimConfig', 'simulate')}
sim = SimConfig(samples={SEQUENCES}, seed=1)""",
        "simulate(tables.config, tables, sim)",
        dict.fromkeys(HORIZONS, 1), True,
    ),
    "audit": (
        f"""import random
{_game('backward_induce', 'bimatrix', 'classify_state', 'continuation')}
vf, _ = backward_induce(tables)
rng = random.Random(1)
states = [
    (rng.randint(1, horizon), 1.0 - rng.random()) for _ in range({AUDIT_STATES})
]""",
        """for n, x in states:
    kind = classify_state(n, x, tables)
    ff = (continuation(n, x, vf, 1), continuation(n, x, vf, 2))
    bimatrix(n, x, tables, ff).is_pure_nash(kind)""",
        dict.fromkeys(HORIZONS, REPEATS), False,
    ),
    # the first call of the interpreter
    "thresholds": (
        """from bcgame import ProblemConfig, fullinfo_thresholds
cfg = ProblemConfig(horizon=horizon)""",
        "fullinfo_thresholds(cfg)",
        dict.fromkeys(SOLVE_HORIZONS, 1), False,
    ),
    # the game's own threshold solve included
    "tables": (
        """from bcgame import ProblemConfig, build_game_tables
cfg = ProblemConfig(horizon=horizon, priority=0.25)""",
        "build_game_tables(cfg)",
        dict.fromkeys(SOLVE_HORIZONS, REPEATS), False,
    ),
    "value": (
        _game("game_value"), "game_value(tables)",
        dict.fromkeys(HORIZONS, REPEATS), False,
    ),
    # each call's tables are freed before the next; one call at N = 400
    # holds 537 MB, so there the fastest of two
    "induce": (
        _game("backward_induce"), "backward_induce(tables)",
        {**dict.fromkeys(HORIZONS, REPEATS), 400: 2}, False,
    ),
    "regions": (
        _game("region_map"), "region_map(tables, 1e-3)",
        dict.fromkeys(HORIZONS, REPEATS), False,
    ),
    # the first-stop closed form of the value player's solo rule
    "rule": (
        """from bcgame import ProblemConfig, fullinfo_thresholds, oracle
thresholds = fullinfo_thresholds(ProblemConfig(horizon=horizon))""",
        "oracle._rule_value(thresholds)",
        dict.fromkeys(RULE_HORIZONS, REPEATS), False,
    ),
    # at its defaults, 200,000 samples and seed 42; no horizon
    "suite": (
        "from bcgame import run_verification_suite",
        "run_verification_suite()",
        {None: REPEATS}, True,
    ),
}

_LAYER_CHILD = """
import json, time{traced}
horizon = {horizon}
{setup}
walls = []
for _ in range({calls}):
    start = time.perf_counter()
{timed}
    walls.append(time.perf_counter() - start)
row = {{"wall_s": min(walls)}}
{trace}print(json.dumps(row))
"""
_TRACE = """tracemalloc.start()
{call}
row["tracemalloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
tracemalloc.stop()
"""


def _layer_script(name: str, horizon: int | None, calls: int) -> str:
    """The child of entry ``name``, timing ``calls`` calls at ``horizon``."""
    setup, call, _, traced = LAYERS[name]
    return _LAYER_CHILD.format(
        traced=", tracemalloc" if traced else "",
        horizon=horizon,
        setup=setup,
        calls=calls,
        timed=textwrap.indent(call, "    "),
        trace=_TRACE.format(call=call) if traced else "",
    )


#: A CLI request as ``python -m bcgame.cli`` makes it, which writes three
#: ``time.monotonic()`` stamps as the last line of its stderr: when the
#: script starts, once ``bcgame.cli`` is imported (perfbench's
#: ``launch.py`` stamps its ready time there too) and once ``main`` has
#: returned; the interpreter's exit comes after the last.
_CLI_CHILD = """
import sys, time
script = time.monotonic()
import bcgame.cli
imported = time.monotonic()
code = bcgame.cli.main(sys.argv[1:])
sys.stderr.write(f"{script!r} {imported!r} {time.monotonic()!r}\\n")
sys.exit(code)
"""

#: The tier-1 command's arguments to the interpreter; pytest exits 1 when
#: a test fails, and acceptance criteria 2 and 8 fail by design.
_TIER1_ARGV = ("-m", "pytest", "-q", "--continue-on-collection-errors")
TIER1_REPEATS = 3


def _child(
    src: str, argv: list[str], keep: str = "stdout", cwd: str | None = None, ok=(0,)
) -> tuple[float, float, bytes, os.rusage]:
    """Run ``python ARGV`` with ``src`` first on the path, in ``cwd``;
    return its start and end on ``time.monotonic()``'s clock, the stream
    named by ``keep`` and its resource usage.  With ``keep="stderr"`` its
    stdout goes to /dev/null, else its stderr is this script's.  An exit
    code outside ``ok`` stops the script.

    Linux carries a process's peak RSS over ``exec``, so a child's
    ``ru_maxrss`` is at least this script's own peak when it was started:
    output that is not kept goes to /dev/null, never into this process."""
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    pipes = {
        "stdout": subprocess.DEVNULL if keep == "stderr" else subprocess.PIPE,
        "stderr": subprocess.PIPE if keep == "stderr" else None,
    }
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, *argv], env=env, cwd=cwd, **pipes)
    stream = getattr(proc, keep)
    out = stream.read()
    stream.close()
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode not in ok:
        raise SystemExit(f"{argv[1:]} under {src} exited {proc.returncode}")
    return start, end, out, usage


def _layer_case(src: str, name: str, script: str) -> dict:
    """One run of the child ``script`` of the case table's entry ``name``:
    the row it prints, with the rates of ``simulate`` and ``audit`` in
    place of or beside its wall time, plus its max RSS."""
    *_, out, usage = _child(src, ["-c", script])
    row = json.loads(out)
    wall = row["wall_s"]
    if name == "simulate":
        row = {"wall_s": wall, "seq_per_s": SEQUENCES / wall, **row}
    elif name == "audit":
        row = {
            "us_per_state": wall / AUDIT_STATES * 1e6,
            "states_per_s": AUDIT_STATES / wall,
        }
    return {**row, "maxrss_mb": usage.ru_maxrss / 1024}


def _process_row(wall: float, usage: os.rusage) -> dict:
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_mb": usage.ru_maxrss / 1024,
    }


def _cli_case(src: str, argv: tuple[str, ...]) -> dict:
    """One CLI request, its wall time split at ``_CLI_CHILD``'s stamps."""
    start, end, err, usage = _child(src, ["-c", _CLI_CHILD, *argv], keep="stderr")
    script, imported, returned = map(float, err.split()[-3:])
    return {
        **_process_row(end - start, usage),
        "startup_s": script - start,
        "import_s": imported - script,
        "command_s": returned - imported,
        "exit_s": end - returned,
    }


def _tier1_case(src: str) -> dict:
    """One run of the tier-1 command on the checkout holding ``src``."""
    start, end, out, usage = _child(
        src, _TIER1_ARGV, cwd=os.path.dirname(src), ok=(0, 1)
    )
    summary = out.decode().strip().splitlines()[-1]
    counts = {"passed": 0, "failed": 0, "errors": 0}
    # pytest writes "1 error" and "2 errors"
    for n, kind in re.findall(r"(\d+) (passed|failed|error)", summary):
        counts["errors" if kind == "error" else kind] = int(n)
    return {**_process_row(end - start, usage), **counts}


def _commit(src: str) -> tuple[str | None, bool]:
    def git(*args: str) -> str | None:
        try:
            done = subprocess.run(
                ["git", "-C", src, *args], capture_output=True, text=True, check=True
            )
        except (OSError, subprocess.CalledProcessError):
            return None
        return done.stdout.strip()

    return git("rev-parse", "HEAD"), bool(git("status", "--porcelain", "--", "."))


#: Tokens that carry no code of their own.
_LAYOUT_TOKENS = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}


def _line_counts(src: str) -> dict:
    """Lines of every module of the ``bcgame`` package in ``src``, and
    their sums: ``code``, the lines holding a token of code, ``docs``, the
    other lines of a docstring or a comment, and ``total``.  Docstrings
    are the first string statements of modules, classes and functions, as
    ``ast`` finds them; comments and code come from ``tokenize``."""
    modules = {}
    for path in sorted(glob.glob(os.path.join(src, "bcgame", "*.py"))):
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
        docs = set()
        for node in ast.walk(ast.parse(text)):
            if isinstance(
                node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
            ) and ast.get_docstring(node, clean=False) is not None:
                docs.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
        code = set()
        for tok in tokenize.generate_tokens(io.StringIO(text).readline):
            if tok.type == tokenize.COMMENT:
                docs.add(tok.start[0])
            elif tok.type not in _LAYOUT_TOKENS and not (
                tok.type == tokenize.STRING and tok.start[0] in docs
            ):
                code.update(range(tok.start[0], tok.end[0] + 1))
        modules[os.path.basename(path)] = {
            "code": len(code),
            "docs": len(docs - code),
            "total": text.count("\n"),
        }
    sums = {key: sum(m[key] for m in modules.values()) for key in ("code", "docs", "total")}
    return {**sums, "modules": modules}


def _cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--tree", action="append", required=True, metavar="LABEL=DIR")
    args = ap.parse_args()
    trees = {}
    for item in args.tree:
        label, src = item.split("=", 1)
        trees[label] = os.path.abspath(src)
    cases = {}
    for name, (_, _, horizons, _) in LAYERS.items():
        for n, calls in horizons.items():
            script = _layer_script(name, n, calls)
            case = name if n is None else f"{name}-{n}"
            cases[case] = lambda src, n=name, s=script: _layer_case(src, n, s)
    for name, argv in CLI_CASES.items():
        cases[name] = lambda src, a=argv: _cli_case(src, a)
    cases["tier1"] = _tier1_case
    runs = {label: {name: [] for name in cases} for label in trees}
    order = list(trees)
    for rep in range(REPEATS):
        for name, case in cases.items():
            if name == "tier1" and rep >= TIER1_REPEATS:
                continue
            for label in order if rep % 2 == 0 else order[::-1]:
                run = case(trees[label])
                print(label, name, run, file=sys.stderr, flush=True)
                runs[label][name].append(run)
    rows = []
    for label, src in trees.items():
        commit, dirty = _commit(src)
        rows.append(
            {
                "label": label,
                "commit": commit,
                "dirty": dirty,
                "machine": platform.machine(),
                "python": platform.python_version(),
                "numpy": np.__version__,
                "cpus": _cpu_count(),
                "lines": _line_counts(src),
                "cases": {
                    name: {
                        "runs": got,
                        "median": {k: statistics.median(r[k] for r in got) for k in got[0]},
                    }
                    for name, got in runs[label].items()
                },
            }
        )
    json.dump(rows, sys.stdout, indent=2)
    print()


if __name__ == "__main__":
    main()
