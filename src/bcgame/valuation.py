"""Game value by backward induction over record states, and an independent
Monte Carlo simulation of play under the classified profile.

The induction walks indices downward.  At each record state it reads the
classified action pair and scores the corresponding stage-bimatrix cell;
at forgo-forgo states the pair is the continuation: the record-chain
kernel applied to the next-stage values, with absorption (no further
record) worth 0 to both,

    C(n, x) = sum_{k>n} x**(k-n-1) U(k, x),   U(k, x) = int_x^1 V(k, y) dy,

computed by the one-step recurrence C(n, x) = U(n+1, x) + x C(n+1, x)
with C(N, x) = 0.  Values V_i(n, .) are piecewise polynomials in x whose
only breakpoints are the thresholds, of degree at most N - n on each
segment, and so is C(n, .).  Each segment maps to t in [-1, 1] by
x = c + h t, and each function is held, exact up to rounding, by its
Legendre coefficients in t.  The recurrence then takes two banded
operators,

    t P_k = ((k+1) P_{k+1} + k P_{k-1}) / (2k+1),
    int_t^1 P_k = (P_{k-1} - P_{k+1}) / (2k+1),   1 - t for k = 0,

a segment's integral is 2h times its P_0 coefficient, and the stopped
cells come from two running series, x**d = x x**(d-1) and
S_d = x S_{d-1} + 1/d.  A stage costs O(S (N - n)) for S segments, the
induction O(N**3).  The tables take 16 (N+1)(S (N+1) + 1) bytes,
about 16 (N+1)**3 with the S = N segments of the game, 1.03 GB at
N = 400; a horizon whose tables would not fit in physical memory is
refused before anything is allocated.

Point queries (``continuation``, ``ValueFunction.value_at``) take a
scalar read path in Python floats: the segment by ``bisect`` on a list of
the breakpoints, the reference coordinate t, the stopped cells, and one
Clenshaw loop over the stage's N - n + 1 coefficients.

Payoff accounting: both the induction and the simulator classify and
score record states by the one stage rule of ``equilibrium``
(``stage_actions`` and ``stage_cells``).  When player i stops and receives
the record, player i scores his own stop margin (w1_n or w2_n(x)) and the
opponent scores minus the opponent's own margin; the induction scores a
simultaneous claim at the coin's mean, the simulator draws the coin;
absorption with no stop scores (0, 0).

The simulator plays fixed batches of ``_BATCH`` sequences, runs them on
one thread per CPU in the process's affinity mask (``taskset`` limits
it) and draws each batch in row chunks under one memory budget.  Every
batch has its own counter-based stream and the batch sums are added in
batch-index order, so the estimates for the same (samples, seed) are
bit-identical at any core count and chunk size, and memory is the budget
plus O(batch) per thread, whatever N.
"""

from __future__ import annotations

import math
import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from itertools import islice

import numpy as np

from ._rng import batch_generator
from .equilibrium import (
    EquilibriumKind,
    GameTables,
    _w2_values,
    classify_state,
    stage_actions,
    stage_cells,
)
from .errors import DomainError, TooLarge
from .models import ProblemConfig

_PLAYERS = (1, 2)

#: Uniforms (doubles) that one ``simulate`` call holds drawn at a time,
#: shared evenly by its threads: 4 MB, whatever N and the core count.
_DRAW_BUDGET = 1 << 19

#: Sequences per Monte Carlo batch.  Each batch draws its own Philox
#: stream, so this size fixes the bytes of every (samples, seed) estimate.
_BATCH = 1 << 16


@dataclass(frozen=True)
class ValuePair:
    """Expected payoffs to the rank player (val1) and value player (val2)."""

    val1: float
    val2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.val1) and math.isfinite(self.val2)):
            raise ValueError(f"values must be finite, got ({self.val1}, {self.val2})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.val1, self.val2)


@dataclass(frozen=True)
class SimConfig:
    """Sample count and master seed of one simulation run.

    Identical (samples, seed) on the same game give bit-identical
    estimates, whatever the core count: the samples are played in
    batches of ``_BATCH`` sequences on independent deterministic streams,
    which run concurrently and combine in fixed index order.  A running
    batch holds O(``_BATCH``) memory besides its share of the draw budget.
    """

    samples: int
    seed: int = 42

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")


def _table_bytes(horizon: int, n_segments: int) -> int:
    """Bytes of a ``ValueFunction``'s tables: ``cont``, (2, N+1, S, N+1)
    float64, and ``averages``, (2, N+1); about 16 (N+1)**3 when S = N."""
    return 8 * 2 * (horizon + 1) * (n_segments * (horizon + 1) + 1)


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


def _check_player(player: int) -> None:
    if player not in _PLAYERS:
        raise DomainError(f"player must be 1 or 2, got {player}")


def _integral_to_one(a: np.ndarray) -> np.ndarray:
    """Legendre coefficients (last axis) of int_t^1 f(u) du, one degree up:
    int_t^1 P_k = (P_{k-1} - P_{k+1}) / (2k+1), and 1 - t for k = 0."""
    q = a / (2 * np.arange(a.shape[-1]) + 1)
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-2] = q[..., 1:]
    out[..., 0] += q[..., 0]
    out[..., 1:] -= q
    return out


def _times_x(a: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Legendre coefficients (last axis) of x f on every segment between
    consecutive ``breaks`` (second-last axis), one degree up: x f = c f
    + h t f, with t P_k = ((k+1) P_{k+1} + k P_{k-1}) / (2k+1)."""
    k = np.arange(a.shape[-1])
    lo, hi = breaks[:-1, None], breaks[1:, None]
    out = np.zeros(a.shape[:-1] + (len(k) + 1,))
    out[..., 1:] = a * ((k + 1) / (2 * k + 1))
    out[..., :-2] += a[..., 1:] * (k[1:] / (2 * k[1:] + 1))
    out *= 0.5 * (hi - lo)
    out[..., :-1] += 0.5 * (hi + lo) * a
    return out


class ValueFunction:
    """Piecewise-polynomial per-index values of both players.

    On each segment between consecutive breakpoints, x = c + h t with t in
    [-1, 1], and ``cont[i, n, s, k]`` is the k-th Legendre coefficient in t
    of the continuation C_i(n, .) on segment s: exact, since C(n, .) has
    degree at most N - n there, and zero from k = N - n + 1 on.
    ``averages[i, n]`` is int_0^1 V_i(n, x) dx.
    Raises ``TooLarge`` before any table is built when the tables would
    exceed physical memory.
    """

    def __init__(self, tables: GameTables):
        self.tables = tables
        big_n = tables.config.horizon
        self.breaks = np.unique(
            np.concatenate(([0.0, 1.0], tables.xthresholds.values))
        )
        self.n_segments = len(self.breaks) - 1
        need, have = _table_bytes(big_n, self.n_segments), _physical_memory()
        if have is not None and need > have:
            raise TooLarge(
                f"value tables at horizon {big_n} need {need / 1e9:.1f} GB, "
                f"more than the {have / 1e9:.1f} GB of physical memory"
            )
        self.cont = np.zeros((2, big_n + 1, self.n_segments, big_n + 1))  # C(N, .) = 0
        self.averages = np.zeros((2, big_n + 1))
        # the scalar read path works on Python floats
        lo, hi = self.breaks[:-1], self.breaks[1:]
        self._break_list = self.breaks.tolist()
        self._mid_list = (0.5 * (hi + lo)).tolist()
        self._half_list = (0.5 * (hi - lo)).tolist()
        # Clenshaw's recurrence for sum a_k P_k(t): b_k = a_k
        # + (2k+1)/(k+1) t b_{k+1} - (k+1)/(k+2) b_{k+2}, the sum is b_0
        self._rise = [(2 * k + 1) / (k + 1) for k in range(big_n + 1)]
        self._fall = [(k + 1) / (k + 2) for k in range(big_n + 1)]

    def finalize_stage(self, n: int, coefficients: np.ndarray) -> None:
        """Fill the average of stage n from the Legendre coefficients of
        V(n, .), shape (2, S, N - n + 1), and the continuation table of
        stage n - 1 by C(n-1) = U(n) + x C(n)."""
        width = self.tables.config.horizon - n + 1
        half = 0.5 * np.diff(self.breaks)
        seg_int = 2.0 * half * coefficients[..., 0]
        tail = np.zeros((2, self.n_segments + 1))  # int_{b_s}^1 V(n, x) dx
        tail[:, :-1] = np.cumsum(seg_int[:, ::-1], axis=1)[:, ::-1]
        self.averages[:, n] = tail[:, 0]
        upper = half[:, None] * _integral_to_one(coefficients)
        upper[..., 0] += tail[:, 1:]
        later = _times_x(self.cont[:, n, :, :width], self.breaks)
        self.cont[:, n - 1, :, : width + 1] = upper + later

    def continuation_at(self, n: int, x: float, player: int) -> float:
        """C_player(n, x): the Legendre series of its segment, exact because
        C(n, .) has degree at most N - n there.

        One point in Python floats: the segment by ``bisect`` (the side and
        clamp of ``searchsorted(side="right")``), the reference coordinate
        t, and Clenshaw's recurrence over the stage's N - n + 1
        coefficients.
        """
        if x >= 1.0:  # no later value beats a record at 1
            return 0.0
        s = bisect_right(self._break_list, x) - 1
        s = min(max(s, 0), self.n_segments - 1)
        t = (x - self._mid_list[s]) / self._half_list[s]
        top = self.tables.config.horizon - n
        coef = self.cont[player - 1, n, s, : top + 1].tolist()
        rise, fall = self._rise, self._fall
        b1 = b2 = 0.0
        for k in range(top, -1, -1):
            b1, b2 = coef[k] + rise[k] * t * b1 - fall[k] * b2, b1
        return b1

    def value_at(self, n: int, x: float, player: int) -> float:
        """V_player(n, x): the classified stage cell, or the continuation."""
        _check_player(player)
        kind = classify_state(n, x, self.tables)
        if kind is EquilibriumKind.FF:
            return self.continuation_at(n, x, player)
        w2n = _w2_values(n, x, self.tables.config.horizon)
        stop1, stop2 = kind.action1 == "S", kind.action2 == "S"
        return float(stage_cells(n, stop1, stop2, w2n, self.tables)[player - 1])

    def stage_average(self, n: int, player: int) -> float:
        """int_0^1 V_player(n, x) dx, for n in 1..N."""
        _check_player(player)
        if not 1 <= n <= self.tables.config.horizon:
            raise DomainError(f"index {n} outside 1..{self.tables.config.horizon}")
        return float(self.averages[player - 1, n])


def continuation(n: int, x: float, V: ValueFunction, player: int) -> float:
    """Expected payoff to ``player`` when nobody stops at record (n, x):
    the record kernel applied to next-stage values, absorption worth 0."""
    _check_player(player)
    if not 0 <= n <= V.tables.config.horizon:
        raise DomainError(f"index {n} outside 0..{V.tables.config.horizon}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"value must be in [0, 1], got {x}")
    return V.continuation_at(n, x, player)


def backward_induce(tables: GameTables) -> tuple[ValueFunction, ValuePair]:
    """Equilibrium-profile values of every record state, plus the game value.

    Descends from the last index: stopped cells are scored by the stage
    rule, forgo-forgo cells come from the continuation table; the game
    value averages the first-stage values over a uniform first observation
    (index 1 is always a record).
    """
    big_n = tables.config.horizon
    vf = ValueFunction(tables)
    power = np.ones((vf.n_segments, 1))  # x**0 on every segment
    series = np.zeros((vf.n_segments, 1))  # S_0 = 0
    harmonic = 0.0  # w2 = x**d (1 + H_d) - S_d with d = N - n
    for n in range(big_n, 0, -1):
        d = big_n - n
        if d:
            power = _times_x(power, vf.breaks)
            series = _times_x(series, vf.breaks)
            series[:, 0] += 1.0 / d
            harmonic += 1.0 / d
        # each segment takes the actions at its left break
        stop1, stop2 = stage_actions(n, vf.breaks[:-1], tables)
        stop = stop1 | stop2
        coefficients = vf.cont[:, n, :, : d + 1].copy()
        w2s = power[stop] * (1.0 + harmonic) - series[stop]
        cells = stage_cells(n, stop1[stop, None], stop2[stop, None], w2s, tables)
        cells[0, :, 1:] = 0.0  # the rank player's cell is constant in x
        coefficients[:, stop] = cells
        vf.finalize_stage(n, coefficients)
    pair = ValuePair(val1=vf.stage_average(1, 1), val2=vf.stage_average(1, 2))
    return vf, pair


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _play_batch(
    cfg: ProblemConfig,
    tables: GameTables,
    seed: int,
    batch_index: int,
    size: int,
    chunk_rows: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Payoff sum and sum of squares over the ``size`` sequences of one
    batch, each player on its own entry.

    The uniforms come in chunks of at most ``chunk_rows`` rows; the chunks
    continue one Philox stream, so together they are the one draw of the
    whole batch.  A chunk finds each row's first stop and who stops after
    the coin; the stops of the whole batch are scored at the end, in one
    pass of the Horner loop.
    """
    big_n = cfg.horizon
    ns = np.arange(1, big_n + 1)
    rng = batch_generator(seed, batch_index)
    stage = np.zeros(size, dtype=np.intp)  # index of the first stop, 0 for none
    value = np.empty(size)
    taker1 = np.empty(size, dtype=bool)
    taker2 = np.empty(size, dtype=bool)
    for lo in range(0, size, chunk_rows):
        u = rng.random((min(chunk_rows, size - lo), big_n + 1))
        x = u[:, :big_n]
        coin = u[:, big_n]
        running_max = np.maximum.accumulate(x, axis=1)
        is_record = np.empty(x.shape, dtype=bool)
        is_record[:, 0] = True
        is_record[:, 1:] = x[:, 1:] > running_max[:, :-1]
        del running_max  # not needed past here; freeing it lowers the peak
        stop1, stop2 = stage_actions(ns, x, tables)
        stops = stop1 | stop2
        stops &= is_record
        rows = np.flatnonzero(stops.any(axis=1))
        j = np.argmax(stops[rows], axis=1)  # first stop
        s1, s2 = stop1[rows, j], stop2[rows, j]
        both = s1 & s2  # the coin gives the record to the rank player w.p. p
        wins = coin[rows][both] < cfg.priority
        s1[both], s2[both] = wins, ~wins
        at = lo + rows
        stage[at] = j + 1
        value[at] = x[rows, j]
        taker1[at], taker2[at] = s1, s2
    rows = np.flatnonzero(stage)
    stopped_at = stage[rows]
    pay = np.zeros((size, 2))
    w2s = _w2_values(stopped_at, value[rows], big_n)
    pay[rows] = stage_cells(stopped_at, taker1[rows], taker2[rows], w2s, tables).T
    return pay.sum(axis=0), (pay**2).sum(axis=0)


def simulate(
    cfg: ProblemConfig, tables: GameTables, sim: SimConfig
) -> tuple[ValuePair, tuple[float, float]]:
    """Monte Carlo play of the classified profile; returns the mean payoff
    pair and its standard errors.

    Each sequence consumes N + 1 uniforms from its batch stream: the N
    observations plus the priority coin (used only at simultaneous
    claims).  Play continues through records classified forgo-forgo,
    scores the stage cell at the first stop, and scores (0, 0) when no
    stop occurs before the horizon.

    The sequences are played in batches of ``_BATCH``, the last one
    partial.  Batches run on a pool of one thread per CPU in the process's
    affinity mask, at most one per batch (numpy releases the interpreter
    lock while it draws and computes), and their sums are added in
    batch-index order.  Each batch draws its uniforms in row chunks; the
    threads share ``_DRAW_BUDGET`` doubles evenly, so a chunk has at most
    budget / (threads (N + 1)) rows.  Neither the thread count nor the
    chunk size changes a bit of the result.  Memory is the budget plus
    O(batch) per thread, whatever N.  The first error, an interrupt
    included, cancels the batches not yet started and propagates.
    """
    # imported here: it costs every CLI start several milliseconds
    from concurrent.futures import ThreadPoolExecutor

    n_batches = -(-sim.samples // _BATCH)
    workers = min(_cpu_count(), n_batches)
    chunk_rows = max(1, _DRAW_BUDGET // workers // (cfg.horizon + 1))
    sums = np.zeros(2)
    sq_sums = np.zeros(2)
    with ThreadPoolExecutor(workers) as pool:
        futures = (
            pool.submit(
                _play_batch,
                cfg,
                tables,
                sim.seed,
                i,
                min(_BATCH, sim.samples - i * _BATCH),
                chunk_rows,
            )
            for i in range(n_batches)
        )
        # two batches in flight per thread bound the queue and its memory
        window = deque(islice(futures, 2 * workers))
        try:
            while window:
                batch_sum, batch_sq = window.popleft().result()
                sums += batch_sum
                sq_sums += batch_sq
                window.extend(islice(futures, 1))
        except BaseException:
            pool.shutdown(cancel_futures=True)
            raise
    count = sim.samples
    means = sums / count
    if count > 1:
        var = np.maximum(sq_sums - count * means**2, 0.0) / (count - 1)
        ses = np.sqrt(var / count)
    else:
        ses = np.zeros(2)
    return ValuePair(val1=float(means[0]), val2=float(means[1])), (
        float(ses[0]),
        float(ses[1]),
    )
