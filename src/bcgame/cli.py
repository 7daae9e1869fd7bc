"""Command-line surface: thresholds, the shifted-cutoff table, game values
(dynamic programming and Monte Carlo), strategy-region data, and the
verification suite, each emitted as CSV or JSON.

Exit codes: 0 success, 1 verification failure, 2 usage, domain or output
error.  No environment variable is read.  ``main`` first freezes the
heap the process was imported with (``gc.freeze``), so that no later
collection, the interpreter's at exit included, traverses numpy's and
bcgame's import-time objects, and keeps OpenSSL out of the process
(``_keep_openssl_out``).  ``json`` is imported by the JSON writers alone.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import math
import os
import re
import shutil
import sys
import tempfile
from dataclasses import astuple, fields
from itertools import islice

from . import equilibrium, models, valuation
from .errors import BcgameError
from .models import ProblemConfig

_TABLE1_HORIZONS = (5, 10, 20, 30, 50)
_TABLE1_PRIORITIES = (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5)

#: Rows formatted per write, in either format: only one slice of row
#: objects and text is held at a time, and an unbuffered stdout
#: (``python -u``, ``PYTHONUNBUFFERED``) takes one write call a slice, not
#: one a line.
_ROW_SLICE = 4096


#: Characters that put a CSV cell in quotes (RFC 4180).
_CSV_SPECIAL = re.compile('[,"\r\n]')


def _fmt(value) -> str:
    """Shortest round-trip text for one CSV cell; locale-independent.  A
    string holding a comma, a quote, CR or LF is quoted, its quotes
    doubled (RFC 4180)."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, str):
        # letters and digits, such as every regions kind, are the cheap test
        if value.isalnum() or not _CSV_SPECIAL.search(value):
            return value
        return '"' + value.replace('"', '""') + '"'
    return str(value)


def _run(args: argparse.Namespace) -> int:
    """Run the command with its output on ``args.sink``, opened before
    anything is computed, as a shell redirect would write it: stdout for
    ``-``; else ``args.out``, symlinks followed.  An existing target that
    is not a regular file, such as a FIFO or a device, is written in
    place.  A regular file or a new path gets a temporary file made next
    to it, which is copied into the target once the command returns
    (verification failure included), so an existing file keeps its inode,
    mode and links and a new one gets a shell redirect's mode; the
    temporary file is removed either way.  Commands do no file I/O of
    their own, so an ``OSError`` here means ``args.out`` cannot be
    written: a ``BcgameError``, exit 2."""
    if args.out == "-":
        args.sink = sys.stdout
        return args.func(args)
    tmp = None
    try:
        if os.path.exists(args.out) and not os.path.isfile(args.out):
            with open(args.out, "w", encoding="utf-8") as args.sink:
                return args.func(args)
        path = os.path.realpath(args.out)
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(path), prefix=".bcgame-", suffix=".tmp"
        )
        with os.fdopen(fd, "w", encoding="utf-8") as args.sink:
            code = args.func(args)
        shutil.copyfile(tmp, path)
        return code
    except OSError as exc:
        raise BcgameError(f"cannot write {args.out}: {exc.strerror}") from exc
    finally:
        if tmp is not None:
            os.unlink(tmp)


def _emit_rows(args: argparse.Namespace, header: list[str], rows) -> None:
    """Write ``rows``, any iterable, as they come, ``_ROW_SLICE`` at a
    time: CSV lines, or JSON objects, each slice one ``json.dumps`` with
    its brackets cut off, joined to the bytes of one dump of the whole
    list."""
    sink, rows = args.sink, iter(rows)
    if args.format == "csv":
        sink.write(",".join(header) + "\n")
        while chunk := list(islice(rows, _ROW_SLICE)):
            sink.write("".join(",".join(map(_fmt, row)) + "\n" for row in chunk))
        return
    import json

    sep = "[\n"
    while chunk := [dict(zip(header, row)) for row in islice(rows, _ROW_SLICE)]:
        sink.write(sep + json.dumps(chunk, indent=2)[2:-2])
        sep = ",\n"
    sink.write("[]\n" if sep == "[\n" else "\n]\n")


def _parse_priority(text: str) -> float:
    """Decimal, or the exact literals 1/3 and e^-1."""
    if text == "1/3":
        return 1 / 3
    if text == "e^-1":
        return math.exp(-1)
    return float(text)


def _add_output_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", default="-", help="output path, or - for stdout")
    sub.add_argument(
        "--format", choices=("csv", "json"), default="csv", help="output format"
    )


def _cmd_thresholds(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(horizon=args.horizon)
    thresholds = models.fullinfo_thresholds(cfg)
    # w1 turns nonnegative exactly at the cutoff nstar
    rows = [
        [n, thresholds.x(n), w1n, w1n >= 0.0]
        for n, w1n in enumerate(equilibrium._w1_values(cfg), start=1)
    ]
    _emit_rows(args, ["n", "x_n", "w1", "is_at_or_after_nstar"], rows)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for horizon in _TABLE1_HORIZONS:
        for p in _TABLE1_PRIORITIES:
            tables = equilibrium.build_game_tables(
                ProblemConfig(horizon=horizon, priority=p)
            )
            rows.append([horizon, tables.nstar, p, tables.ntilde])
    _emit_rows(args, ["N", "nstar", "p", "ntilde"], rows)
    return 0


def _cmd_values(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(horizon=args.horizon, priority=args.priority)
    # every method refuses invalid samples and seeds up front
    sim = valuation.SimConfig(samples=args.samples, seed=args.seed)
    tables = equilibrium.build_game_tables(cfg)
    pair = valuation.game_value(tables)
    payload: dict = {
        "horizon": cfg.horizon,
        "priority": cfg.priority,
        "method": args.method,
        "val1": pair.val1,
        "val2": pair.val2,
    }
    header, row = ["val1", "val2"], [pair.val1, pair.val2]
    if args.method != "dp":
        mc_pair, ses = valuation.simulate(cfg, tables, sim)
        payload["mc"] = {
            "val1": mc_pair.val1,
            "val2": mc_pair.val2,
            "se1": ses[0],
            "se2": ses[1],
            "samples": sim.samples,
            "seed": sim.seed,
        }
        header += ["mc_val1", "mc_val2", "se1", "se2"]
        row += [mc_pair.val1, mc_pair.val2, ses[0], ses[1]]
    if args.format == "json":
        import json

        args.sink.write(json.dumps(payload, indent=2) + "\n")
    else:
        _emit_rows(args, header, [row])
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(horizon=args.horizon, priority=args.priority)
    equilibrium._check_region_size(cfg.horizon, args.xstep)
    tables = equilibrium.build_game_tables(cfg)
    grid = equilibrium.region_map(tables, args.xstep)
    xs = grid.xs.tolist()
    rows = (
        [n, x, kind]
        for i, n in enumerate(grid.ns.tolist())
        for x, kind in zip(xs, grid.kinds[i].tolist())
    )
    _emit_rows(args, ["n", "x", "kind"], rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # imported here: no other command runs the oracles
    from . import oracle

    reports = oracle.run_verification_suite(samples=args.samples, seed=args.seed)
    header = [f.name for f in fields(oracle.OracleReport)]
    _emit_rows(args, header, [astuple(r) for r in reports])
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcgame",
        description=(
            "Two-player finite-horizon best-choice stopping game: one player "
            "sees only relative ranks, the other exact uniform values."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser(
        "thresholds", help="per-index thresholds, rank margins and the cutoff flag"
    )
    sub.add_argument("--horizon", type=int, required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_thresholds)

    sub = subs.add_parser(
        "table1", help="shifted cutoffs over the standard horizon/priority grid"
    )
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_table1)

    for name, help_text in (
        ("values", "game value by the first-stop density and optionally Monte Carlo"),
        ("simulate", "game value and Monte Carlo (alias of values --method both)"),
    ):
        sub = subs.add_parser(name, help=help_text)
        sub.add_argument("--horizon", type=int, required=True)
        sub.add_argument(
            "--priority",
            type=_parse_priority,
            required=True,
            help="priority of the rank player; accepts decimals, 1/3 and e^-1",
        )
        if name == "values":
            sub.add_argument("--method", choices=("dp", "both"), default="dp")
        else:  # on the values parser this would override --method's default
            sub.set_defaults(method="both")
        sub.add_argument("--samples", type=int, default=100_000)
        sub.add_argument("--seed", type=int, default=42)
        _add_output_flags(sub)
        sub.set_defaults(func=_cmd_values)

    sub = subs.add_parser("regions", help="equilibrium kind over an index/value grid")
    sub.add_argument("--horizon", type=int, required=True)
    sub.add_argument("--priority", type=_parse_priority, required=True)
    sub.add_argument("--xstep", type=float, required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_regions)

    sub = subs.add_parser("verify", help="run the oracle suite; exit 1 on any failure")
    sub.add_argument("--samples", type=int, default=200_000)
    sub.add_argument("--seed", type=int, default=42)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_verify)
    return parser


#: CPython's own digest modules, which ``hashlib`` falls back to when
#: OpenSSL's ``_hashlib`` is absent, logging one traceback for each that
#: is missing; a build configured with fewer (FIPS-oriented ones keep
#: ``_blake2`` alone), or CPython 3.12 on, which merges the SHA-2 pair
#: into ``_sha2``, keeps OpenSSL.
_DIGEST_MODULES = ("_md5", "_sha1", "_sha256", "_sha512", "_sha3", "_blake2")


def _keep_openssl_out() -> None:
    """Register OpenSSL's ``_hashlib`` as absent where all of
    ``_DIGEST_MODULES`` can be imported.  ``numpy.random``, which the
    Monte Carlo commands load, imports ``secrets`` unconditionally, and
    with it ``hmac`` and ``hashlib``, which would map OpenSSL's libcrypto
    (3.4 MB resident) although no command hashes anything; ``hashlib``,
    ``hmac`` and ``secrets`` then use the built-in digests.  The modules
    are looked up, not imported: reading the build's configuration
    through ``sysconfig`` would hold 0.26 MB.  A process that has already
    imported ``_hashlib`` keeps it, and only ``main`` calls this: the API
    leaves ``sys.modules`` alone."""
    if all(importlib.util.find_spec(name) for name in _DIGEST_MODULES):
        sys.modules.setdefault("_hashlib", None)


def main(argv: list[str] | None = None) -> int:
    """Run the command of ``argv`` (``sys.argv[1:]`` if None) and return
    its exit code.  First moves every object the process holds, the
    ~21,700 that importing numpy and bcgame made, into the collector's
    permanent generation: a short request otherwise spends 20-30 ms (2
    vCPUs, Python 3.11) after returning on the interpreter's exit
    collections over that heap, which the OS reclaims anyway.  Objects
    made after this are collected as before.  Like ``_keep_openssl_out``
    it is process-wide, so only ``main`` does it, and it is not undone
    here, since the saving comes after ``main`` returns; the API leaves
    the collector alone."""
    gc.freeze()
    _keep_openssl_out()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return _run(args)
    except (BcgameError, ValueError, MemoryError, OverflowError) as exc:
        print(f"bcgame: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
