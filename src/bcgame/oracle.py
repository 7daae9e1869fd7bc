"""Independent brute-force verifiers at tiny horizons plus the bundled
verification suite.

Everything here recomputes quantities by a route disjoint from the solver
path it certifies: rank-side win probabilities by exhaustive permutation
enumeration, the value-side rule by exact piecewise-polynomial recursion
and by Monte Carlo, and small-horizon game values by midpoint-rule
integration over the full joint distribution of the observations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as P

from . import equilibrium, models, valuation
from ._rng import batch_generator
from .errors import TooLarge
from .models import ProblemConfig, ThresholdVector
from .valuation import SimConfig, ValuePair

_MC_BATCH = 1 << 17

#: Midpoints per axis of the joint-grid oracle's mesh; the suite's
#: tolerances (1e-4 at horizon 2, 1e-3 at horizon 3) assume it.
_MESH = 1000


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle-versus-solver comparison."""

    quantity: str
    oracle_value: float
    solver_value: float
    abs_diff: float
    tolerance: float
    passed: bool
    method: str

    @staticmethod
    def compare(
        quantity: str, oracle_value: float, solver_value: float, tolerance: float, method: str
    ) -> "OracleReport":
        diff = abs(oracle_value - solver_value)
        return OracleReport(
            quantity=quantity,
            oracle_value=float(oracle_value),
            solver_value=float(solver_value),
            abs_diff=float(diff),
            tolerance=float(tolerance),
            passed=bool(diff <= tolerance),
            method=method,
        )


def secretary_exhaustive(horizon: int, cutoff: int) -> float:
    """Win probability of "stop at the first candidate at index >= cutoff"
    over all horizon! rank orders, as an exact rational evaluated to float.
    """
    if horizon > 8:
        raise TooLarge(f"exhaustive enumeration capped at horizon 8, got {horizon}")
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    if not 1 <= cutoff <= horizon:
        raise ValueError(f"cutoff {cutoff} outside 1..{horizon}")
    wins = 0
    total = 0
    for perm in permutations(range(1, horizon + 1)):
        total += 1
        best = 0
        for i, v in enumerate(perm, start=1):
            if v > best:
                best = v
                if i >= cutoff:
                    wins += v == horizon
                    break
    return float(Fraction(wins, total))


def _rule_value_polys(horizon: int, thresholds: ThresholdVector) -> float:
    """Win probability of the value player's solo threshold rule, by exact
    piecewise-polynomial backward recursion on record states."""
    breaks = np.unique(np.concatenate(([0.0, 1.0], thresholds.values)))
    segs = list(zip(breaks[:-1], breaks[1:]))

    def monomial(k: int) -> np.ndarray:
        c = np.zeros(k + 1)
        c[k] = 1.0
        return c

    # per stage: list of coefficient arrays, one per segment
    u: dict[int, list[np.ndarray]] = {}
    upper: dict[int, list[np.ndarray]] = {}  # int_x^{1}, as polys per segment
    for n in range(horizon, 0, -1):
        xn = thresholds.x(n)
        stage: list[np.ndarray] = []
        for seg_idx, (a, b) in enumerate(segs):
            if a >= xn:
                stage.append(monomial(horizon - n))
            else:
                acc = np.zeros(1)
                for k in range(n + 1, horizon + 1):
                    term = P.polymul(monomial(k - n - 1), upper[k][seg_idx])
                    acc = P.polyadd(acc, term)
                stage.append(acc)
        u[n] = stage
        # integral tables for the stage just built
        anti = [P.polyint(c) for c in stage]
        fulls = [
            float(P.polyval(b, f) - P.polyval(a, f))
            for (a, b), f in zip(segs, anti)
        ]
        tails = np.concatenate((np.cumsum(fulls[::-1])[::-1], [0.0]))
        ups: list[np.ndarray] = []
        for idx, ((a, b), f) in enumerate(zip(segs, anti)):
            const = tails[idx + 1] + float(P.polyval(b, f))
            ups.append(P.polysub(np.array([const]), f))
        upper[n] = ups
    anti1 = [P.polyint(c) for c in u[1]]
    return math.fsum(
        float(P.polyval(b, f) - P.polyval(a, f)) for (a, b), f in zip(segs, anti1)
    )


def _threshold_residual(x: float, remaining: int) -> float:
    """sum_{k=1}^{d} (x**-k - 1)/k - 1 by ``math.fsum``, straight from the
    threshold equation; inf where x**-k is not a finite double."""
    try:
        return math.fsum((x**-k - 1.0) / k for k in range(1, remaining + 1)) - 1.0
    except (ZeroDivisionError, OverflowError):
        return math.inf


def fullinfo_mc_check(
    horizon: int,
    thresholds: ThresholdVector | None = None,
    samples: int = 200_000,
    seed: int = 42,
) -> OracleReport:
    """Monte Carlo win rate of the solo threshold rule against its exact
    recursion value; passes within 4 standard errors."""
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    if thresholds is None:
        thr_values = np.array(
            [models.fullinfo_threshold(horizon - n) for n in range(1, horizon + 1)]
        )
        thresholds = ThresholdVector(horizon=horizon, values=thr_values)
    dp_value = 1.0 if horizon == 1 else _rule_value_polys(horizon, thresholds)
    thr = thresholds.values
    wins = 0
    remaining = samples
    batch_index = 0
    while remaining > 0:
        nb = min(_MC_BATCH, remaining)
        rng = batch_generator(seed, batch_index)
        x = rng.random((nb, horizon))
        running = np.maximum.accumulate(x, axis=1)
        rec = np.empty((nb, horizon), dtype=bool)
        rec[:, 0] = True
        rec[:, 1:] = x[:, 1:] > running[:, :-1]
        stops = rec & (x >= thr[None, :])
        stopped = stops.any(axis=1)
        first = np.argmax(stops, axis=1)
        rows = np.nonzero(stopped)[0]
        picked = x[rows, first[rows]]
        wins += int(np.sum(picked == running[rows, -1]))
        remaining -= nb
        batch_index += 1
    rate = wins / samples
    se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / samples)
    return OracleReport.compare(
        quantity=f"fullinfo.rule_win_rate.N{horizon}",
        oracle_value=rate,
        solver_value=dp_value,
        tolerance=4.0 * se,
        method=f"monte carlo ({samples} samples, seed {seed}) vs exact recursion",
    )


def _w2_power_sum(n: int, xs: np.ndarray, horizon: int) -> np.ndarray:
    """Value player's stop margin by its power sum, x**d - sum_{j=1}^{d}
    (x**(d-j) - x**d)/j with d = N - n: the joint-grid check shares no
    margin code with the induction it certifies."""
    d = horizon - n
    xs = np.asarray(xs, dtype=float)
    return xs**d - sum((xs ** (d - j) - xs**d) / j for j in range(1, d + 1))


def _stop_payoffs(
    n: int, xs: np.ndarray, tables: equilibrium.GameTables
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cell payoff pair at stopped record states (n, xs), plus a mask of
    which entries actually stop (the rest are forgo-forgo)."""
    cfg = tables.config
    p = cfg.priority
    thr = tables.xthresholds.x(n)
    w1n = float(tables.w1[n - 1])
    w2v = _w2_power_sum(n, xs, cfg.horizon)
    above = xs >= thr
    stops = above | (n >= tables.ntilde)
    pay1 = np.zeros_like(xs)
    pay2 = np.zeros_like(xs)
    if n >= tables.nstar:
        both = above
        pay1[both] = (2.0 * p - 1.0) * w1n
        pay2[both] = (1.0 - 2.0 * p) * w2v[both]
    else:
        pay1[above] = -w1n
        pay2[above] = w2v[above]
    alone = stops & ~above
    pay1[alone] = w1n
    pay2[alone] = -w2v[alone]
    return pay1, pay2, stops


def game_exhaustive_small(horizon: int, priority: float) -> ValuePair:
    """Game value by midpoint-rule integration over the joint distribution
    of all observations, on a mesh of ``_MESH`` midpoints per axis, playing
    the classified profile with the priority coin taken in expectation.
    Ground truth for the backward induction at horizons 2 and 3.
    """
    if horizon > 3:
        raise TooLarge(f"joint-grid oracle capped at horizon 3, got {horizon}")
    if horizon < 2:
        raise ValueError(f"horizon must be >= 2, got {horizon}")
    cfg = ProblemConfig(horizon=horizon, priority=priority)
    tables = equilibrium.build_game_tables(cfg)
    mid = (np.arange(_MESH) + 0.5) / _MESH
    # last stage always stops on a record; both margins there equal 1
    last1 = 2.0 * priority - 1.0
    last2 = 1.0 - 2.0 * priority

    pay1_1, pay2_1, stop1 = _stop_payoffs(1, mid, tables)
    if horizon == 2:
        # P(record at 2 beats x1) has exact midpoint count (_MESH - 1 - i)/_MESH
        frac_above = (_MESH - 1 - np.arange(_MESH)) / _MESH
        val1 = np.where(stop1, pay1_1, frac_above * last1)
        val2 = np.where(stop1, pay2_1, frac_above * last2)
        return ValuePair(val1=float(val1.mean()), val2=float(val2.mean()))

    # horizon == 3: integrate over (x1, x2) cells; the x3 coordinate only
    # enters through exact midpoint counts above a midpoint level.
    frac_above = (_MESH - 1 - np.arange(_MESH)) / _MESH
    pay1_2, pay2_2, stop2 = _stop_payoffs(2, mid, tables)
    x1 = mid[:, None]
    x2 = mid[None, :]
    record2 = x2 > x1
    # record at 2 and state (2, x2) stops
    s2 = record2 & stop2[None, :]
    # record at 2, forgo-forgo: stage 3 pays off when x3 > x2
    c2 = record2 & ~stop2[None, :]
    # no record at 2: stage 3 pays off when x3 > x1
    c1 = ~record2
    cont_from_x2 = frac_above[None, :]
    cont_from_x1 = frac_above[:, None]
    cont1 = np.where(
        stop1[:, None],
        pay1_1[:, None],
        s2 * pay1_2[None, :]
        + c2 * cont_from_x2 * last1
        + c1 * cont_from_x1 * last1,
    )
    cont2 = np.where(
        stop1[:, None],
        pay2_1[:, None],
        s2 * pay2_2[None, :]
        + c2 * cont_from_x2 * last2
        + c1 * cont_from_x1 * last2,
    )
    return ValuePair(val1=float(cont1.mean()), val2=float(cont2.mean()))


def _secretary_rule_formula(horizon: int, cutoff: int) -> float:
    """Closed-form win probability of the rank cutoff rule."""
    if cutoff == 1:
        return 1.0 / horizon
    return (cutoff - 1) / horizon * math.fsum(
        1.0 / (k - 1) for k in range(cutoff, horizon + 1)
    )


def run_verification_suite(
    samples: int = 200_000,
    seed: int = 42,
    tamper_thresholds: Callable[[np.ndarray], np.ndarray] | None = None,
) -> list[OracleReport]:
    """Full oracle suite and invariant checks; every report carries its own
    tolerance.  ``tamper_thresholds`` lets tests corrupt the threshold
    table that the threshold-sensitive checks consume (negative control).
    """
    reports: list[OracleReport] = []

    def tampered(horizon: int) -> ThresholdVector:
        base = models.fullinfo_thresholds(ProblemConfig(horizon=horizon))
        if tamper_thresholds is None:
            return base
        return ThresholdVector(
            horizon=horizon, values=tamper_thresholds(base.values.copy())
        )

    # rank-side exhaustive enumeration
    reports.append(
        OracleReport.compare(
            "secretary.exhaustive.N5.r3",
            oracle_value=float(Fraction(13, 30)),
            solver_value=secretary_exhaustive(5, 3),
            tolerance=0.0,
            method="120-permutation enumeration vs exact rational",
        )
    )
    for big_n in (5, 6, 7, 8):
        cutoff = models.secretary_cutoff(ProblemConfig(horizon=big_n))
        reports.append(
            OracleReport.compare(
                f"secretary.formula.N{big_n}",
                oracle_value=secretary_exhaustive(big_n, cutoff),
                solver_value=_secretary_rule_formula(big_n, cutoff),
                tolerance=1e-12,
                method="permutation enumeration vs closed form at the cutoff",
            )
        )
    optimal = all(
        secretary_exhaustive(big_n, models.secretary_cutoff(ProblemConfig(horizon=big_n)))
        >= max(secretary_exhaustive(big_n, r) for r in range(1, big_n + 1))
        for big_n in (5, 6, 7, 8)
    )
    reports.append(
        OracleReport.compare(
            "secretary.cutoff.optimality.N5-8",
            oracle_value=1.0,
            solver_value=1.0 if optimal else 0.0,
            tolerance=0.0,
            method="cutoff rule dominates every other cutoff, exhaustively",
        )
    )

    # value-side rule: exact recursion vs hand integral and Monte Carlo
    reports.append(
        OracleReport.compare(
            "fullinfo.rule_value.N2",
            oracle_value=0.75,
            solver_value=_rule_value_polys(
                2, models.fullinfo_thresholds(ProblemConfig(horizon=2))
            ),
            tolerance=1e-12,
            method="hand two-stage integral vs piecewise-polynomial recursion",
        )
    )
    reports.append(fullinfo_mc_check(2, samples=samples, seed=seed))
    reports.append(
        fullinfo_mc_check(10, thresholds=tampered(10), samples=samples, seed=seed + 1)
    )

    # kernel normalizations
    rng = batch_generator(seed, 10_000)
    worst_record = 0.0
    worst_rank = 0.0
    big_n = 100
    for n in range(1, big_n + 1):
        for x in rng.random(8):
            state = models.RecordState(index=n, value=float(x))
            mass = math.fsum(
                models.record_transition_density(state, m) * (1.0 - x)
                for m in range(n + 1, big_n + 1)
            ) + x ** (big_n - n)
            worst_record = max(worst_record, abs(mass - 1.0))
        rank_mass = math.fsum(
            models.rank_transition(n, m) for m in range(n + 1, big_n + 1)
        ) + n / big_n
        worst_rank = max(worst_rank, abs(rank_mass - 1.0))
    reports.append(
        OracleReport.compare(
            "kernel.record.normalization.N100",
            oracle_value=0.0,
            solver_value=worst_record,
            tolerance=1e-12,
            method="geometric mass identity over random record values",
        )
    )
    reports.append(
        OracleReport.compare(
            "kernel.rank.normalization.N100",
            oracle_value=0.0,
            solver_value=worst_rank,
            tolerance=1e-12,
            method="telescoping mass identity, all indices",
        )
    )

    # threshold fidelity and margin identities
    thr50 = tampered(50)
    worst_residual = max(
        abs(_threshold_residual(thr50.x(n), 50 - n)) for n in range(1, 50)
    )
    reports.append(
        OracleReport.compare(
            "thresholds.residual.N50",
            oracle_value=0.0,
            solver_value=worst_residual,
            tolerance=1e-9,
            method="defining-equation residual at every computed threshold",
        )
    )
    cfg50 = ProblemConfig(horizon=50)
    worst_indiff = max(
        abs(
            equilibrium.w2(models.RecordState(index=n, value=thr50.x(n)), cfg50)
        )
        for n in range(1, 50)
    )
    reports.append(
        OracleReport.compare(
            "margins.value.indifference.N50",
            oracle_value=0.0,
            solver_value=worst_indiff,
            tolerance=1e-9,
            method="stop margin vanishes at each threshold",
        )
    )
    cfg200 = ProblemConfig(horizon=200)
    worst_w1 = max(
        abs(
            equilibrium.w1(n, cfg200)
            - (
                models.secretary_stop_reward(n, cfg200)
                - models.secretary_continue_reward(n, cfg200)
            )
        )
        for n in range(1, 201)
    )
    reports.append(
        OracleReport.compare(
            "margins.rank.identity.N200",
            oracle_value=0.0,
            solver_value=worst_w1,
            tolerance=1e-12,
            method="margin equals stop reward minus continue reward",
        )
    )

    # game values: joint-grid oracle and Monte Carlo against the induction
    for big_n, tol in ((2, 1e-4), (3, 1e-3)):
        cfg = ProblemConfig(horizon=big_n, priority=0.25)
        _, dp = valuation.backward_induce(equilibrium.build_game_tables(cfg))
        grid = game_exhaustive_small(big_n, 0.25)
        for comp, dp_v, gr_v in (
            ("val1", dp.val1, grid.val1),
            ("val2", dp.val2, grid.val2),
        ):
            reports.append(
                OracleReport.compare(
                    f"game.value.exhaustive.N{big_n}.p0.25.{comp}",
                    oracle_value=gr_v,
                    solver_value=dp_v,
                    tolerance=tol,
                    method="midpoint-rule joint integration vs backward induction",
                )
            )
    cfg10 = ProblemConfig(horizon=10, priority=0.25)
    tables10 = equilibrium.build_game_tables(cfg10)
    _, dp10 = valuation.backward_induce(tables10)
    mc10, se10 = valuation.simulate(
        cfg10, tables10, SimConfig(samples=samples, seed=seed + 2)
    )
    for comp, dp_v, mc_v, se in (
        ("val1", dp10.val1, mc10.val1, se10[0]),
        ("val2", dp10.val2, mc10.val2, se10[1]),
    ):
        reports.append(
            OracleReport.compare(
                f"game.value.dp_vs_mc.N10.p0.25.{comp}",
                oracle_value=mc_v,
                solver_value=dp_v,
                tolerance=3.0 * se,
                method=f"monte carlo ({samples} samples) vs backward induction, 3 sigma",
            )
        )

    # shifted-cutoff row at horizon 10
    expected_row = {0.1: 4, 0.2: 5, 0.25: 5, 1 / 3: 5, math.exp(-1): 5, 0.5: 6}
    row_ok = all(
        equilibrium.build_game_tables(ProblemConfig(horizon=10, priority=p)).ntilde
        == want
        for p, want in expected_row.items()
    )
    reports.append(
        OracleReport.compare(
            "shifted_cutoff.row.N10",
            oracle_value=1.0,
            solver_value=1.0 if row_ok else 0.0,
            tolerance=0.0,
            method="reference shift row at horizon 10, all six priorities",
        )
    )
    return reports
