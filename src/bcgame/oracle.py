"""Independent brute-force verifiers at tiny horizons plus the bundled
verification suite.

Everything here recomputes quantities by a route disjoint from the solver
path it certifies: rank-side win probabilities by exhaustive permutation
enumeration, which scores every rank cutoff in one pass over the orders of
a horizon, all held in one array, and checks the solver's closed form at
the cutoff, the value-side rule by its exact first-stop closed form, O(N^2) terms in
O(N) memory for a threshold table that does not increase (a table that
rises is outside its domain), and by Monte Carlo, and small-horizon game
values by midpoint-rule integration over the full joint distribution of
the observations.

``run_verification_suite`` is what ``verify`` prints: it builds the work
its checks share once (the rank orders' wins, the threshold tables, the
games at horizons 2, 3 and 10 with their inductions, the joint grids and
one Monte Carlo run) and then reads one table of rows, each a tuple that becomes one
``OracleReport`` or a report that a verifier here returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, islice

import numpy as np

from . import equilibrium, models, valuation
from ._rng import batch_generator
from .errors import DomainError, TooLarge
from .models import ProblemConfig, ThresholdVector
from .valuation import SimConfig, ValuePair

#: Sequences per batch of ``fullinfo_mc_check``; each batch draws its own
#: stream, so this size fixes the sample set of every (samples, seed).
_MC_BATCH = 1 << 17

#: Draws that one ``fullinfo_mc_check`` chunk holds, whatever N.
_MC_BUDGET = 1 << 16

#: Midpoints per axis of the joint-grid oracle's mesh; the suite's
#: tolerances (1e-4 at horizon 2, 1e-3 at horizon 3) assume it.
_MESH = 1000


@dataclass(frozen=True)
class OracleReport:
    """Outcome of one oracle-versus-solver comparison: ``abs_diff``, the
    absolute difference of the two values as passed in, and ``passed``,
    whether it is within ``tolerance``, are computed on construction."""

    quantity: str
    oracle_value: float
    solver_value: float
    abs_diff: float = field(init=False)
    tolerance: float
    passed: bool = field(init=False)
    method: str

    def __post_init__(self) -> None:
        diff = abs(self.oracle_value - self.solver_value)
        object.__setattr__(self, "passed", bool(diff <= self.tolerance))
        object.__setattr__(self, "abs_diff", float(diff))
        for name in ("oracle_value", "solver_value", "tolerance"):
            object.__setattr__(self, name, float(getattr(self, name)))


def _rank_orders(horizon: int):
    """Yield, for n = 1..horizon, all n! orders of the ranks 1..n as the
    rows of one int8 array: each from the one before, with rank n put at
    every position of every row."""
    orders = np.ones((1, 1), dtype=np.int8)
    yield orders
    for n in range(2, horizon + 1):
        orders = np.concatenate([np.insert(orders, k, n, axis=1) for k in range(n)])
        yield orders


def _secretary_wins(orders: np.ndarray) -> list[int]:
    """Rank orders, of the rows of ``orders`` (all N! orders of 1..N),
    that each cutoff r = 1..N wins.  The rule stops at the first record at
    an index >= r.  With m the position of the maximum and q that of the
    maximum before it, the last record (0 if none), r wins exactly when
    q < r <= m, so all r count at once."""
    horizon = orders.shape[1]
    ranks = np.pad(orders, ((0, 0), (1, 0)))  # position 0 holds rank 0, no record
    m = ranks.argmax(axis=1)
    q = np.where(np.arange(horizon + 1) < m[:, None], ranks, 0).argmax(axis=1)
    # wins at r: the orders with q < r less those with m < r
    size = horizon + 1
    below = np.bincount(q, minlength=size) - np.bincount(m, minlength=size)
    return np.cumsum(below[:horizon]).tolist()


def secretary_exhaustive(horizon: int, cutoff: int) -> float:
    """Win probability of "stop at the first candidate at index >= cutoff"
    over all horizon! rank orders, as an exact rational evaluated to float."""
    horizon = models._integer(horizon, "horizon")
    cutoff = models._integer(cutoff, "cutoff")
    if horizon > 8:
        raise TooLarge(f"exhaustive enumeration capped at horizon 8, got {horizon}")
    if horizon < 2:
        raise DomainError(f"horizon must be >= 2, got {horizon}")
    if not 1 <= cutoff <= horizon:
        raise DomainError(f"cutoff {cutoff} outside 1..{horizon}")
    *_, orders = _rank_orders(horizon)
    wins = _secretary_wins(orders)[cutoff - 1]
    return float(Fraction(wins, math.factorial(horizon)))


def _stop_terms(xj, xn, n, horizon: int) -> tuple:
    """The two addends of ``_rule_value`` for a first stop at stage n after
    a last earlier record at j < n: (x_j^N - x_n^N) / (N m) and
    x_j^m (1 - x_j^d) / (d m), with m = n - 1 and d = N - n + 1.  Takes
    arrays for x_j, or for x_n with n, and broadcasts them."""
    m, d = n - 1, horizon - n + 1
    return (xj**horizon - xn**horizon) / (horizon * m), xj**m * (1.0 - xj**d) / (d * m)


def _rule_value(thresholds: ThresholdVector) -> float:
    """Win probability of the value player's solo threshold rule by its
    first-stop closed form, for a table that does not increase; a table
    that rises is outside its domain and refused with ``DomainError``.

    The rule first stops at (n, y), y >= x_n, when y is a record and the
    best of the first n - 1 values, at some j < n, lies below min(x_j, y):
    density sum_{j<n} min(x_j, y)^m / m, m = n - 1.  The stop wins when
    the N - n later values lie below y, with probability y^(N - n).  As
    x_j >= x_n, each j's integral splits at x_j into the two addends of
    ``_stop_terms``, and stage 1 adds (1 - x_1^N) / N.  The addends are
    formed one stage row at a time, so the sum holds O(N) memory, and are
    summed by ``math.fsum``."""
    x, horizon = thresholds.values, len(thresholds)
    rise = np.flatnonzero(x[1:] > x[:-1]) + 1
    if rise.size:
        raise DomainError(f"thresholds must not increase, x_{rise[0] + 1} > x_{rise[0]}")
    rows = (
        part.tolist()
        for n in range(2, horizon + 1)
        for part in _stop_terms(x[: n - 1], x[n - 1], n, horizon)
    )
    first = (1.0 - x[0] ** horizon) / horizon
    return math.fsum(chain([first], chain.from_iterable(rows)))


#: Bend of one threshold in the rule's optimality rows.
_BEND = 1e-3


def _rule_optimality(thresholds: ThresholdVector) -> OracleReport:
    """Largest value gain over the table of any table with one threshold
    bent by +-``_BEND``, clipped so that it still does not increase; passes
    when no bend gains more than a few roundings.  A bend of x_i to y
    changes the first stop at stage i by (x_i^N - y^N) / N and the addends
    of ``_stop_terms`` that hold x_i as an x_j, so all 2N bends are the rows
    of one (2, N, 2N - 1) array of changes, each row summed by
    ``math.fsum``.  A table that rises is outside the closed form's domain
    and fails.

    The bends test the second order only: near the optimum the value falls
    as the square of a lane's error e, so a bend by ``_BEND`` toward the
    optimum gains only when e exceeds about ``_BEND`` / 2, and a table off
    by less passes.  The first order, dP/dx_i = -x_i^(i-1) w2_i(x_i), is
    the threshold equation, which ``thresholds.residual`` and
    ``margins.value.indifference`` hold."""
    x, horizon = thresholds.values, len(thresholds)
    quantity = f"fullinfo.rule_value.optimality.N{horizon}"
    if np.any(x[1:] > x[:-1]):
        return OracleReport(quantity, 0.0, math.inf, 1e-15, "the table rises")
    stages = np.arange(2, horizon + 1)
    lows = np.maximum(x - _BEND, np.append(x[1:], 0.0))
    # each lane as it is, lowered and raised: a (3, N, 1) column stack
    ys = np.stack((x, lows, np.minimum(x + _BEND, np.append(1.0, x[:-1]))))[..., None]
    # lane i as x_j of stages 2..N: only the stages after it, the upper triangle
    held = (np.triu(t) for t in _stop_terms(ys, x[1:], stages, horizon))
    terms = np.concatenate((-(ys**horizon) / horizon, *held), axis=-1)
    changes = (terms[1:] - terms[0]).reshape(2 * horizon, -1)
    gains = np.array([math.fsum(row) for row in changes.tolist()])
    best = gains[(ys[1:] != ys[0]).ravel()].max()  # of the bends that move
    method = f"closed form, each x_n bent +-{_BEND:g}; smallest loss {0.0 - best:.2g}"
    return OracleReport(quantity, 0.0, max(best, 0.0), 1e-15, method)


def _threshold_residual(x: float, remaining: int) -> float:
    """sum_{k=1}^{d} (x**-k - 1)/k - 1 by ``math.fsum``, straight from the
    threshold equation; inf where x**-k is not a finite double."""
    try:
        return math.fsum((x**-k - 1.0) / k for k in range(1, remaining + 1)) - 1.0
    except (ZeroDivisionError, OverflowError):
        return math.inf


def fullinfo_mc_check(
    thresholds: ThresholdVector, samples: int = 200_000, seed: int = 42
) -> OracleReport:
    """Monte Carlo win rate of the solo threshold rule with ``thresholds``
    against its exact value by the first-stop closed form
    (``_rule_value``); passes within 4 standard errors.  The horizon N is
    the table's length.  Anything but a non-empty ``ThresholdVector``, and
    a table that rises anywhere, outside the closed form's domain, are
    refused with ``DomainError`` before a draw.

    The samples come in batches of ``_MC_BATCH`` sequences, each batch on
    its own stream, and each batch is drawn in chunks of max(1,
    ``_MC_BUDGET`` // N) rows that continue its stream, so the sequences
    are those of one draw per batch.  The chunk buffers are allocated once
    a call: the draws, their running maximum and the record and stop
    masks.  The Monte Carlo part thus holds O(``_MC_BUDGET``) memory
    whatever N and ``samples`` (one row when N exceeds the budget), and
    the win count is an exact integer.  The exact value holds O(N).
    """
    if not isinstance(thresholds, ThresholdVector) or len(thresholds) == 0:
        raise DomainError(
            f"thresholds must be a non-empty ThresholdVector, got {thresholds!r}"
        )
    SimConfig(samples=samples, seed=seed)  # refuses them as ``simulate`` would
    horizon = len(thresholds)
    dp_value = _rule_value(thresholds)  # refuses a table that rises
    thr = thresholds.values
    chunk = max(1, _MC_BUDGET // horizon)
    draws = np.empty((chunk, horizon))
    running = np.empty((chunk, horizon))
    records = np.empty((chunk, horizon), dtype=bool)
    records[:, 0] = True
    marks = np.empty((chunk, horizon), dtype=bool)
    wins = 0
    for batch_index, lo in enumerate(range(0, samples, _MC_BATCH)):
        rng = batch_generator(seed, batch_index)
        size = min(_MC_BATCH, samples - lo)
        for start in range(0, size, chunk):
            rows = min(chunk, size - start)
            x, run, rec, stops = draws[:rows], running[:rows], records[:rows], marks[:rows]
            rng.random(out=x)
            np.maximum.accumulate(x, axis=1, out=run)
            np.greater(x[:, 1:], run[:, :-1], out=rec[:, 1:])
            np.greater_equal(x, thr, out=stops)
            stops &= rec
            hit = np.flatnonzero(stops.any(axis=1))
            picked = x[hit, stops.argmax(axis=1)[hit]]
            wins += int(np.count_nonzero(picked == run[hit, -1]))
    rate = wins / samples
    se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / samples)
    return OracleReport(
        quantity=f"fullinfo.rule_win_rate.N{horizon}",
        oracle_value=rate,
        solver_value=dp_value,
        tolerance=4.0 * se,
        method=f"monte carlo ({samples} samples, seed {seed}) vs first-stop closed form",
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
    which entries actually stop (the rest are forgo-forgo, paid 0).  Where
    the value player stops, the pair is (s1 w1_n, s2 w2) with the signs
    (2p - 1, 1 - 2p) of a shared claim from nstar on and (-1, 1) before;
    where the rank player stops alone, from ntilde on, it is (w1_n, -w2)."""
    p = tables.config.priority
    s1, s2 = (2.0 * p - 1.0, 1.0 - 2.0 * p) if n >= tables.nstar else (-1.0, 1.0)
    w1n = float(tables.w1[n - 1])
    w2v = _w2_power_sum(n, xs, tables.config.horizon)
    above = xs >= tables.xthresholds.x(n)
    stops = above | (n >= tables.ntilde)
    pay1 = np.where(stops, np.where(above, s1 * w1n, w1n), 0.0)
    pay2 = np.where(stops, np.where(above, s2 * w2v, -w2v), 0.0)
    return pay1, pay2, stops


def game_exhaustive_small(horizon: int, priority: float) -> ValuePair:
    """Game value by midpoint-rule integration over the joint distribution
    of all observations, on a mesh of ``_MESH`` midpoints per axis, playing
    the classified profile with the priority coin taken in expectation.
    Ground truth for the backward induction at horizons 2 and 3.  At
    horizon 3 each player's integrand fills one reused mesh-by-mesh buffer
    under one mask, the record at stage 2: 9 MB whatever the priority.
    ``UnsupportedPriority`` for p > 0.5, as the solver, before the mesh
    is built: the classified profile is established for p <= 0.5 only.
    """
    if horizon > 3:
        raise TooLarge(f"joint-grid oracle capped at horizon 3, got {horizon}")
    if horizon < 2:
        raise DomainError(f"horizon must be >= 2, got {horizon}")
    cfg = ProblemConfig(horizon=horizon, priority=priority)
    tables = equilibrium.build_game_tables(cfg)
    equilibrium._check_priority(tables)
    mid = (np.arange(_MESH) + 0.5) / _MESH
    # last stage always stops on a record; both margins there equal 1
    last1, last2 = 2.0 * priority - 1.0, 1.0 - 2.0 * priority

    pay1_1, pay2_1, stop1 = _stop_payoffs(1, mid, tables)
    # P(a later value beats midpoint i) has exact midpoint count (_MESH - 1 - i)/_MESH
    frac_above = (_MESH - 1 - np.arange(_MESH)) / _MESH
    if horizon == 2:
        val1 = np.where(stop1, pay1_1, frac_above * last1)
        val2 = np.where(stop1, pay2_1, frac_above * last2)
        return ValuePair(val1=float(val1.mean()), val2=float(val2.mean()))

    # horizon == 3: integrate over (x1, x2) cells, x1 on the rows; the x3
    # coordinate only enters through exact midpoint counts above a level.
    # Without a record at 2, stage 3 pays off when x3 > x1; with one, the
    # state (2, x2) stops or stage 3 pays off when x3 > x2.
    pay1_2, pay2_2, stop2 = _stop_payoffs(2, mid, tables)
    record2 = mid[None, :] > mid[:, None]
    cell = np.empty((_MESH, _MESH))
    means = []
    for pay_1, pay_2, last in ((pay1_1, pay1_2, last1), (pay2_1, pay2_2, last2)):
        later = frac_above * last
        cell[:] = later[:, None]
        np.copyto(cell, np.where(stop2, pay_2, later), where=record2)
        cell[stop1] = pay_1[stop1, None]
        means.append(float(cell.mean()))
    return ValuePair(*means)


def _pair_rows(
    prefix: str, oracle: ValuePair, solver: ValuePair, tols: tuple, method: str
) -> list[tuple]:
    """The suite's ``prefix.val1`` and ``prefix.val2`` rows of one pair."""
    pairs = zip(oracle.as_tuple(), solver.as_tuple(), tols)
    return [
        (f"{prefix}.{comp}", *pair, method) for comp, pair in zip(("val1", "val2"), pairs)
    ]


def _worst(values) -> float:
    """Largest absolute value of a non-empty iterable of numbers; NaN when
    any is NaN, so that a row built on it fails."""
    return float(np.abs(np.fromiter(values, dtype=float)).max())


def run_verification_suite(samples: int = 200_000, seed: int = 42) -> list[OracleReport]:
    """Full oracle suite and invariant checks, one report per row in a
    fixed order; every report carries its own tolerance.  The samples
    count and the seed are refused before anything is computed.

    The shared work is built once, first: the rank orders' wins at N = 5..8
    and each horizon's cutoff; the threshold tables at N = 2, 10 and 50,
    each fetched through ``models.fullinfo_thresholds``; the seeded record
    values of the kernel normalizations; the games at N = 2, 3 and 10 at
    p = 0.25 with their inductions; the joint-grid values at N = 2 and 3;
    and the N = 10 Monte Carlo game value.  Then comes the table ``rows``:
    each entry is a report of ``fullinfo_mc_check`` or ``_rule_optimality``,
    or a tuple (quantity, oracle value, solver value, tolerance, method)
    that becomes one ``OracleReport``.  A check that holds or fails passes
    its ``bool``, against ``True`` at tolerance 0.

    A bent N = 50 threshold table fails ``thresholds.residual.N50`` and
    ``margins.value.indifference.N50``, which hold it to the threshold
    equation, and ``fullinfo.rule_value.optimality.N50`` when a bend gains
    value or makes the table rise.
    """
    SimConfig(samples=samples)  # refuses a count as ``simulate`` would
    if not 0 <= seed < (1 << 64) - 2:  # it also plays seed + 1 and seed + 2
        raise DomainError(f"seed must be in [0, 2**64 - 2), got {seed}")

    # shared work: rank-side wins of every cutoff, one pass per horizon
    wins = {o.shape[1]: _secretary_wins(o) for o in islice(_rank_orders(8), 4, None)}
    cutoffs = {n: models.secretary_cutoff(ProblemConfig(horizon=n)) for n in wins}
    thr2, thr10, thr50 = (
        models.fullinfo_thresholds(ProblemConfig(horizon=n)) for n in (2, 10, 50)
    )
    # each record state once, as its row reads them, with its value also
    # kept as the numpy double drawn: numpy's x ** d can round apart from
    # Python's, and the row prints it
    kernel_xs = batch_generator(seed, 10_000).random((100, 8))
    states = (
        (models.RecordState(index=n, value=float(x)), x)
        for n, row in enumerate(kernel_xs, start=1)
        for x in row
    )
    induced = {}  # horizon -> (tables, induction pair)
    for big_n in (2, 3, 10):
        tables = equilibrium.build_game_tables(ProblemConfig(horizon=big_n, priority=0.25))
        induced[big_n] = tables, valuation.backward_induce(tables)[1]
    # the joint grids before ``simulate``: run after it, their 8 MB buffers
    # raised the peak RSS of ``verify`` by 3.5 MB, to 45 MB
    grids = {n: game_exhaustive_small(n, 0.25) for n in (2, 3)}
    tables10, dp10 = induced[10]
    mc10, se10 = valuation.simulate(
        tables10.config, tables10, SimConfig(samples=samples, seed=seed + 2)
    )
    cfg50, cfg200 = ProblemConfig(horizon=50), ProblemConfig(horizon=200)
    shifted = {0.1: 4, 0.2: 5, 0.25: 5, 1 / 3: 5, math.exp(-1): 5, 0.5: 6}

    # (quantity, oracle value, solver value, tolerance, method), or a report
    rows = [
        ("secretary.exhaustive.N5.r3", Fraction(13, 30),
            Fraction(wins[5][2], math.factorial(5)),
            0.0, "120-permutation enumeration vs exact rational"),
        # the rule passes the candidate at cutoff - 1 (>= 1 at these
        # horizons) and takes the next: the solver's continue reward there
        *((f"secretary.formula.N{n}", Fraction(wins[n][r - 1], math.factorial(n)),
            models.secretary_continue_reward(r - 1, ProblemConfig(horizon=n)),
            1e-12, "permutation enumeration vs closed form at the cutoff")
          for n, r in cutoffs.items()),
        ("secretary.cutoff.optimality.N5-8", True,
            all(wins[n][r - 1] == max(wins[n]) for n, r in cutoffs.items()),
            0.0, "cutoff rule dominates every other cutoff, exhaustively"),
        # value-side rule: exact closed form vs hand integral and Monte
        # Carlo, and against its own tables with one threshold bent
        ("fullinfo.rule_value.N2", 0.75,
            _rule_value(thr2),
            1e-12, "hand two-stage integral vs first-stop closed form"),
        fullinfo_mc_check(thr2, samples=samples, seed=seed),
        fullinfo_mc_check(thr10, samples=samples, seed=seed + 1),
        _rule_optimality(thr10),
        _rule_optimality(thr50),
        ("kernel.record.normalization.N100", 0.0,
            _worst(math.fsum(models.record_transition_density(state, m) * (1.0 - x)
                             for m in range(state.index + 1, 101))
                   + x ** (100 - state.index) - 1.0 for state, x in states),
            1e-12, "geometric mass identity over random record values"),
        ("kernel.rank.normalization.N100", 0.0,
            _worst(math.fsum(models.rank_transition(n, m) for m in range(n + 1, 101))
                   + n / 100 - 1.0 for n in range(1, 101)),
            1e-12, "telescoping mass identity, all indices"),
        # threshold fidelity and margin identities
        ("thresholds.residual.N50", 0.0,
            _worst(_threshold_residual(thr50.x(n), 50 - n) for n in range(1, 50)),
            1e-9, "defining-equation residual at every computed threshold"),
        ("margins.value.indifference.N50", 0.0,
            _worst(equilibrium.w2(models.RecordState(index=n, value=thr50.x(n)), cfg50)
                   for n in range(1, 50)),
            1e-9, "stop margin vanishes at each threshold"),
        ("margins.rank.identity.N200", 0.0,
            _worst(w1n - (models.secretary_stop_reward(n, cfg200)
                          - models.secretary_continue_reward(n, cfg200))
                   for n, w1n in enumerate(equilibrium._w1_values(cfg200), start=1)),
            1e-12, "margin equals stop reward minus continue reward"),
        # game values: joint-grid oracle and Monte Carlo against the induction
        *(row for n, tol in ((2, 1e-4), (3, 1e-3)) for row in _pair_rows(
            f"game.value.exhaustive.N{n}.p0.25", grids[n], induced[n][1], (tol, tol),
            "midpoint-rule joint integration vs backward induction")),
        *_pair_rows("game.value.dp_vs_mc.N10.p0.25", mc10, dp10,
                    (3.0 * se10[0], 3.0 * se10[1]),
                    f"monte carlo ({samples} samples) vs backward induction, 3 sigma"),
        # the first-stop game value, which the CLI prints, against the induction
        *(row for big_n, (tables, dp) in induced.items() for row in _pair_rows(
            f"game.value.first_stop_vs_induction.N{big_n}.p0.25", dp,
            valuation.game_value(tables), (1e-12, 1e-12),
            "first-stop closed form vs backward induction")),
        ("shifted_cutoff.row.N10", True,
            all(equilibrium.build_game_tables(ProblemConfig(horizon=10, priority=p)).ntilde
                == want for p, want in shifted.items()),
            0.0, "reference shift row at horizon 10, all six priorities"),
    ]
    return [r if isinstance(r, OracleReport) else OracleReport(*r) for r in rows]
