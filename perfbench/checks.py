"""Output checks of every benchmark request.

Each check returns a list of problems; an empty list means the output is
correct.  The checks recompute what they can in their own code (threshold
equations, cutoffs, margins, region classification) and compare the rest
with ``reference.json``, recorded from the program by
``make_reference.py``.  None of them compares against the external
reference game values of acceptance criterion 2, and none requires the
best-response property of criterion 8: both fail by design.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from functools import lru_cache

import numpy as np

from workloads import PRIORITIES, Request

REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

#: Table 1 of the paper: shifted cutoff ntilde by horizon and priority.
TABLE1 = {
    5: {"0.1": 3, "0.2": 3, "0.25": 3, "1/3": 3, "e^-1": 3, "0.5": 3},
    10: {"0.1": 4, "0.2": 5, "0.25": 5, "1/3": 5, "e^-1": 5, "0.5": 6},
    20: {"0.1": 9, "0.2": 10, "0.25": 10, "1/3": 11, "e^-1": 11, "0.5": 12},
    30: {"0.1": 14, "0.2": 15, "0.25": 15, "1/3": 16, "e^-1": 17, "0.5": 18},
    50: {"0.1": 24, "0.2": 26, "0.25": 26, "1/3": 28, "e^-1": 28, "0.5": 31},
}
TABLE1_NSTAR = {5: 3, 10: 4, 20: 8, 30: 12, 50: 19}

DP_TOL = 1e-12  # fast paths must match the recorded values to this
THRESHOLD_TOL = 1e-9  # residual of the threshold equation
MARGIN_TOL = 1e-12
BOUNDARY_TOL = 1e-9  # grid points this close to a threshold may go either way
MC_SIGMAS = 4.0


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def key(horizon: int, label: str) -> str:
    return f"{horizon}|{label}"


# ---- the benchmark's own arithmetic -------------------------------------


def threshold_residual(x: float, remaining: int) -> float:
    """sum_{k=1}^{d} (x**-k - 1)/k - 1, the threshold equation; inf at x = 0."""
    if x <= 0.0:
        return math.inf
    k = np.arange(1, remaining + 1, dtype=float)
    with np.errstate(over="ignore"):
        return float(np.sum((x**-k - 1.0) / k) - 1.0)


@lru_cache(maxsize=None)
def thresholds(horizon: int) -> tuple[float, ...]:
    """x_1..x_N by bisection of threshold_residual (x_N = 0)."""
    out = []
    for n in range(1, horizon + 1):
        d = horizon - n
        lo, hi = 0.0, 1.0
        if d == 0:
            out.append(0.0)
            continue
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                break
            if threshold_residual(mid, d) > 0.0:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    return tuple(out)


def nstar(horizon: int) -> int:
    """Smallest n with sum_{k=n+1}^{N} 1/(k-1) <= 1."""
    for n in range(1, horizon + 1):
        if math.fsum(1.0 / (k - 1) for k in range(n + 1, horizon + 1)) <= 1.0:
            return n
    return horizon


def w1(n: int, horizon: int) -> float:
    return (n / horizon) * (1.0 - math.fsum(1.0 / (j - 1) for j in range(n + 1, horizon + 1)))


def w2(n: int, x: float, horizon: int) -> float:
    d = horizon - n
    if d == 0:
        return 1.0
    return x**d - math.fsum((x ** (d - j) - x**d) / j for j in range(1, d + 1))


def kinds_at(n: int, x: float, thr: float, ns: int, nt: int) -> set[str]:
    """Acceptable equilibrium kinds at (n, x); both sides near a threshold."""
    stop = "SS" if n >= ns else "FS"
    forgo = "SF" if n >= nt else "FF"
    if abs(x - thr) < BOUNDARY_TOL:
        return {stop, forgo}
    return {stop} if x >= thr else {forgo}


def parse_csv(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


# ---- CLI requests ---------------------------------------------------------


def check_thresholds(rows: list[dict], horizon: int) -> list[str]:
    if [int(r["n"]) for r in rows] != list(range(1, horizon + 1)):
        return [f"expected rows n = 1..{horizon}"]
    problems = []
    xs = [float(r["x_n"]) for r in rows]
    if any(b >= a for a, b in zip(xs, xs[1:])):
        problems.append("thresholds not strictly decreasing")
    if xs[-1] != 0.0:
        problems.append(f"x_N = {xs[-1]}, expected 0")
    worst = max(abs(threshold_residual(x, horizon - n)) for n, x in enumerate(xs[:-1], 1))
    if not worst <= THRESHOLD_TOL:
        problems.append(f"threshold residual {worst:.3g} > {THRESHOLD_TOL}")
    cut = nstar(horizon)
    for n, r in enumerate(rows, 1):
        if abs(float(r["w1"]) - w1(n, horizon)) > MARGIN_TOL:
            problems.append(f"w1 at n={n} is {r['w1']}")
            break
        if (r["is_at_or_after_nstar"] == "true") != (n >= cut):
            problems.append(f"cutoff flag at n={n} is {r['is_at_or_after_nstar']}")
            break
    return problems


def check_table1(rows: list[dict]) -> list[str]:
    problems = []
    seen = set()
    for r in rows:
        horizon, p = int(r["N"]), float(r["p"])
        label = next((lab for lab, val in PRIORITIES.items() if val == p), None)
        if horizon not in TABLE1 or label is None:
            problems.append(f"unexpected cell N={r['N']} p={r['p']}")
            continue
        seen.add((horizon, label))
        if int(r["ntilde"]) != TABLE1[horizon][label]:
            problems.append(f"ntilde N={horizon} p={label} is {r['ntilde']}")
        if int(r["nstar"]) != TABLE1_NSTAR[horizon]:
            problems.append(f"nstar N={horizon} is {r['nstar']}")
    if len(rows) != 30 or len(seen) != 30:
        problems.append(f"expected the 30 cells of Table 1, got {len(rows)} rows")
    return problems


def check_regions(rows: list[dict], params: dict, ref: dict) -> list[str]:
    horizon, label = params["horizon"], params["priority"]
    xstep = float(params["xstep"])
    xs = [i * xstep for i in range(int(math.floor(1.0 / xstep + 1e-9)) + 1)]
    if len(rows) != horizon * len(xs):
        return [f"expected {horizon * len(xs)} rows, got {len(rows)}"]
    thr = thresholds(horizon)
    ns, nt = nstar(horizon), ref["ntilde"][key(horizon, label)]
    for i, r in enumerate(rows):
        n, x = i // len(xs) + 1, xs[i % len(xs)]
        if int(r["n"]) != n or float(r["x"]) != x:
            return [f"row {i} is ({r['n']}, {r['x']}), expected ({n}, {x})"]
        if r["kind"] not in kinds_at(n, x, thr[n - 1], ns, nt):
            return [f"kind at ({n}, {x}) is {r['kind']}"]
    return []


def check_values(rows: list[dict], params: dict, ref: dict, with_mc: bool) -> list[str]:
    if len(rows) != 1:
        return [f"expected one row, got {len(rows)}"]
    row = rows[0]
    want = ref["dp"][key(params["horizon"], params["priority"])]
    problems = []
    for i, name in enumerate(("val1", "val2")):
        got = float(row[name])
        if not abs(got - want[i]) <= DP_TOL:
            problems.append(f"{name} {got!r} differs from reference {want[i]!r}")
        if with_mc:
            mc, se = float(row[f"mc_{name}"]), float(row[f"se{i + 1}"])
            if not (se > 0.0 and abs(mc - want[i]) <= MC_SIGMAS * se):
                problems.append(f"mc_{name} {mc!r} not within {MC_SIGMAS} se ({se!r}) of DP")
    if not with_mc and "mc_val1" in row:
        problems.append("unexpected Monte Carlo columns")
    return problems


def check_cli(req: Request, exit_code: int, text: str, ref: dict) -> list[str]:
    """Problems with the output of one CLI request (empty when correct)."""
    if exit_code != 0:
        return [f"exit code {exit_code}"]
    try:
        rows = parse_csv(text)
        if req.kind == "thresholds":
            return check_thresholds(rows, req.params["horizon"])
        if req.kind == "table1":
            return check_table1(rows)
        if req.kind == "regions":
            return check_regions(rows, req.params, ref)
        if req.kind == "values-dp":
            return check_values(rows, req.params, ref, with_mc=False)
        if req.kind in ("values-both", "simulate"):
            return check_values(rows, req.params, ref, with_mc=True)
        if req.kind == "verify":
            return [] if rows and all(r["passed"] == "true" for r in rows) else ["verify row failed"]
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        return [f"malformed output: {exc!r}"]
    return [f"no check for kind {req.kind}"]


# ---- br-audit requests ----------------------------------------------------


def check_audit(row: dict, horizon: int, label: str, state, ref: dict, want_cont=None) -> list[str]:
    """Problems with one audited state; ``want_cont`` is the recorded
    continuation pair where the reference has one."""
    if "error" in row:
        return [f"raised {row['error']}"]
    n, x = state
    if (row["n"], row["x"]) != (n, x):
        return [f"answered ({row['n']}, {row['x']}) for ({n}, {x})"]
    problems = []
    thr = thresholds(horizon)[n - 1]
    if row["kind"] not in kinds_at(n, x, thr, nstar(horizon), ref["ntilde"][key(horizon, label)]):
        problems.append(f"kind {row['kind']} at ({n}, {x})")
    c1, c2 = row["cont"]
    if not (math.isfinite(c1) and math.isfinite(c2) and abs(c1) <= 1 and abs(c2) <= 1):
        problems.append(f"continuation ({c1}, {c2}) outside [-1, 1]")
    if want_cont is not None and not (
        abs(c1 - want_cont[0]) <= DP_TOL and abs(c2 - want_cont[1]) <= DP_TOL
    ):
        problems.append(f"continuation ({c1!r}, {c2!r}) differs from reference {want_cont}")
    p = PRIORITIES[label]
    a, b = w1(n, horizon), w2(n, x, horizon)
    want = [
        [(2 * p - 1) * a, (1 - 2 * p) * b],
        [a, -b],
        [-a, b],
    ]
    cells = row["cells"]
    if any(abs(g - w) > MARGIN_TOL for gc, wc in zip(cells[:3], want) for g, w in zip(gc, wc)):
        problems.append(f"stage cells {cells[:3]} differ from {want}")
    if cells[3] != [c1, c2]:
        problems.append(f"FF cell {cells[3]} is not the continuation ({c1}, {c2})")
    table = {"SS": cells[0], "SF": cells[1], "FS": cells[2], "FF": cells[3]}
    flip = {"S": "F", "F": "S"}
    a1, a2 = row["kind"]
    here = table[a1 + a2]
    nash = table[flip[a1] + a2][0] <= here[0] and table[a1 + flip[a2]][1] <= here[1]
    if row["nash"] != nash:
        problems.append(f"is_pure_nash {row['nash']} but the cells say {nash}")
    return problems
