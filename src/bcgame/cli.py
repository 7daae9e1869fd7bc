"""Command-line surface: thresholds, the shifted-cutoff table, game values
(dynamic programming and Monte Carlo), strategy-region data, and the
verification suite, each emitted as CSV or JSON.

Exit codes: 0 success, 1 verification failure, 2 usage or domain error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict, dataclass

from . import equilibrium, models, oracle, valuation
from .errors import BcgameError
from .models import ProblemConfig

_SEED_ENV = "BCGAME_SEED"
_DEFAULT_SEED = 42
_TABLE1_HORIZONS = (5, 10, 20, 30, 50)
_TABLE1_PRIORITIES = (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5)

_EPILOG = """\
environment:
  BCGAME_SEED   default Monte Carlo seed (default 42); the --seed flag wins
"""


@dataclass(frozen=True)
class OutputSpec:
    """Where and how a command writes: csv/json, to a path or stdout."""

    format: str
    path: str | None


def _default_seed() -> int:
    raw = os.environ.get(_SEED_ENV)
    return int(raw) if raw is not None else _DEFAULT_SEED


def _fmt(value) -> str:
    """Shortest round-trip text for one cell; locale-independent."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_text(spec: OutputSpec, text: str) -> None:
    if spec.path is None or spec.path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(spec.path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bcgame-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, spec.path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit_rows(spec: OutputSpec, header: list[str], rows: list[list]) -> None:
    if spec.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt(v) for v in row) for row in rows]
        _write_text(spec, "\n".join(lines) + "\n")
    else:
        objs = [dict(zip(header, row)) for row in rows]
        _write_text(spec, json.dumps(objs, indent=2) + "\n")


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


def _spec_of(args: argparse.Namespace) -> OutputSpec:
    return OutputSpec(format=args.format, path=args.out)


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
    _emit_rows(_spec_of(args), ["n", "x_n", "w1", "is_at_or_after_nstar"], rows)
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
    _emit_rows(_spec_of(args), ["N", "nstar", "p", "ntilde"], rows)
    return 0


def _values_payload(args: argparse.Namespace, method: str) -> dict:
    cfg = ProblemConfig(horizon=args.horizon, priority=args.priority)
    tables = equilibrium.build_game_tables(cfg)
    _, pair = valuation.backward_induce(tables)
    payload: dict = {
        "horizon": cfg.horizon,
        "priority": cfg.priority,
        "method": method,
        "val1": pair.val1,
        "val2": pair.val2,
    }
    if method in ("mc", "both"):
        seed = args.seed if args.seed is not None else _default_seed()
        sim = valuation.SimConfig(samples=args.samples, seed=seed)
        mc_pair, ses = valuation.simulate(cfg, tables, sim)
        payload["mc"] = {
            "val1": mc_pair.val1,
            "val2": mc_pair.val2,
            "se1": ses[0],
            "se2": ses[1],
            "samples": sim.samples,
            "seed": sim.seed,
        }
    return payload


def _emit_values(spec: OutputSpec, payload: dict) -> None:
    if spec.format == "json":
        _write_text(spec, json.dumps(payload, indent=2) + "\n")
        return
    header = ["val1", "val2"]
    row = [payload["val1"], payload["val2"]]
    if "mc" in payload:
        mc = payload["mc"]
        header += ["mc_val1", "mc_val2", "se1", "se2"]
        row += [mc["val1"], mc["val2"], mc["se1"], mc["se2"]]
    _emit_rows(spec, header, [row])


def _cmd_values(args: argparse.Namespace) -> int:
    payload = _values_payload(args, args.method)
    _emit_values(_spec_of(args), payload)
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    payload = _values_payload(args, "mc")
    _emit_values(_spec_of(args), payload)
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
    _emit_rows(_spec_of(args), ["n", "x", "kind"], rows)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    reports = oracle.run_verification_suite(samples=args.samples, seed=seed)
    spec = _spec_of(args)
    if spec.format == "json":
        _write_text(
            spec, json.dumps([asdict(r) for r in reports], indent=2) + "\n"
        )
    else:
        header = [
            "quantity",
            "oracle_value",
            "solver_value",
            "abs_diff",
            "tolerance",
            "passed",
            "method",
        ]
        rows = [
            [
                r.quantity,
                r.oracle_value,
                r.solver_value,
                r.abs_diff,
                r.tolerance,
                r.passed,
                r.method,
            ]
            for r in reports
        ]
        _emit_rows(spec, header, rows)
    return 0 if all(r.passed for r in reports) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bcgame",
        description=(
            "Two-player finite-horizon best-choice stopping game: one player "
            "sees only relative ranks, the other exact uniform values."
        ),
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
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
        sub.add_argument("--samples", type=int, default=100_000)
        sub.add_argument("--seed", type=int, default=None)
        _add_output_flags(sub)
        sub.set_defaults(func=_cmd_values if name == "values" else _cmd_simulate)

    sub = subs.add_parser("regions", help="equilibrium kind over an index/value grid")
    sub.add_argument("--horizon", type=int, required=True)
    sub.add_argument("--priority", type=_parse_priority, required=True)
    sub.add_argument("--xstep", type=float, required=True)
    _add_output_flags(sub)
    sub.set_defaults(func=_cmd_regions)

    sub = subs.add_parser("verify", help="run the oracle suite; exit 1 on any failure")
    sub.add_argument("--samples", type=int, default=200_000)
    sub.add_argument("--seed", type=int, default=None)
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
