"""Command-line surface: thresholds, the shifted-cutoff table, game values
(dynamic programming and Monte Carlo), strategy-region data, and the
verification suite, each emitted as CSV or JSON.

Exit codes: 0 success, 1 verification failure, 2 usage, domain or output
error.  No environment variable is read.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import astuple, fields

from . import equilibrium, models, oracle, valuation
from .errors import BcgameError
from .models import ProblemConfig

_TABLE1_HORIZONS = (5, 10, 20, 30, 50)
_TABLE1_PRIORITIES = (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5)


def _fmt(value) -> str:
    """Shortest round-trip text for one cell; locale-independent."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(args: argparse.Namespace, text: str) -> None:
    """Write ``text`` to stdout, or atomically to ``args.out`` with the mode
    a shell redirect gives a new file; a path that cannot be written is a
    ``BcgameError``, so it exits 2 and leaves no temporary file."""
    if args.out == "-":
        sys.stdout.write(text)
        return
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(
            dir=os.path.dirname(os.path.abspath(args.out)),
            prefix=".bcgame-",
            suffix=".tmp",
        )
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        umask = os.umask(0)  # the only way to read it; restored at once
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # mkstemp creates the file 0600
        os.replace(tmp, args.out)
    except BaseException as exc:
        if tmp is not None:
            os.unlink(tmp)
        if isinstance(exc, OSError):
            raise BcgameError(f"cannot write {args.out}: {exc.strerror}") from exc
        raise


def _emit_rows(args: argparse.Namespace, header: list[str], rows: list) -> None:
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write_text(args, "\n".join(lines) + "\n")
    else:
        objs = [dict(zip(header, row)) for row in rows]
        _write_text(args, json.dumps(objs, indent=2) + "\n")


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
    nstar = models.secretary_cutoff(cfg)
    rows = [
        [
            n,
            thresholds.x(n),
            equilibrium.w1(n, cfg),
            n >= nstar,
        ]
        for n in range(1, cfg.horizon + 1)
    ]
    _emit_rows(args, ["n", "x_n", "w1", "is_at_or_after_nstar"], rows)
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    rows = []
    for horizon in _TABLE1_HORIZONS:
        nstar = models.secretary_cutoff(ProblemConfig(horizon=horizon))
        for p in _TABLE1_PRIORITIES:
            tables = equilibrium.build_game_tables(
                ProblemConfig(horizon=horizon, priority=p)
            )
            rows.append([horizon, nstar, p, tables.ntilde])
    _emit_rows(args, ["N", "nstar", "p", "ntilde"], rows)
    return 0


def _cmd_values(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(horizon=args.horizon, priority=args.priority)
    tables = equilibrium.build_game_tables(cfg)
    _, pair = valuation.backward_induce(tables)
    payload: dict = {
        "horizon": cfg.horizon,
        "priority": cfg.priority,
        "method": args.method,
        "val1": pair.val1,
        "val2": pair.val2,
    }
    header, row = ["val1", "val2"], [pair.val1, pair.val2]
    if args.method in ("mc", "both"):
        sim = valuation.SimConfig(samples=args.samples, seed=args.seed)
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
        _write_text(args, json.dumps(payload, indent=2) + "\n")
    else:
        _emit_rows(args, header, [row])
    return 0


def _cmd_regions(args: argparse.Namespace) -> int:
    cfg = ProblemConfig(horizon=args.horizon, priority=args.priority)
    tables = equilibrium.build_game_tables(cfg)
    grid = equilibrium.region_map(tables, args.xstep)
    rows = [
        [int(n), float(x), grid.kinds[i, j]]
        for i, n in enumerate(grid.ns)
        for j, x in enumerate(grid.xs)
    ]
    _emit_rows(args, ["n", "x", "kind"], rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
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
        ("values", "game value by backward induction and optionally Monte Carlo"),
        ("simulate", "game value by Monte Carlo (alias of values --method mc)"),
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
            sub.add_argument(
                "--method", choices=("dp", "mc", "both"), default="dp"
            )
        else:  # on the values parser this would override --method's default
            sub.set_defaults(method="mc")
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


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (BcgameError, ValueError, MemoryError, OverflowError) as exc:
        print(f"bcgame: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
