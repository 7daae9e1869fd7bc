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
only breakpoints are the thresholds, so each segment is represented
exactly by its values at Gauss-Legendre nodes; so is C(n, .), of degree at
most N - n per segment.  All integrals (segment tails, partial integrals,
the final average over the first observation) and all interpolations are
then exact up to rounding.  The tables take 16 (N+1)(2 S m + S + 1)
bytes for S segments of m nodes, about 2.1 GB at N = 400; a horizon
whose tables would not fit in physical memory is refused before anything
is allocated.

Point queries (``continuation``, ``ValueFunction.value_at``) take a
scalar read path: the segment by ``bisect`` on a list of the breakpoints,
the reference coordinate and the stopped cells in Python floats, and one
barycentric step over the segment's nodes in numpy.  It returns the same
bits as evaluating the interpolation matrix at that point.

Payoff accounting: both the induction and the simulator classify and
score record states by the one stage rule of ``equilibrium``
(``stage_actions`` and ``stage_cells``).  When player i stops and receives
the record, player i scores his own stop margin (w1_n or w2_n(x)) and the
opponent scores minus the opponent's own margin; the induction scores a
simultaneous claim at the coin's mean, the simulator draws the coin;
absorption with no stop scores (0, 0).

The simulator runs its batches on one thread per CPU in the process's
affinity mask (``taskset`` limits it) and draws each batch in row chunks
under one memory budget.  Every batch has its own counter-based stream
and the batch sums are added in batch-index order, so the estimates for
the same (samples, seed, batch) are bit-identical at any core count and
chunk size, and memory is the budget plus O(batch) per thread, whatever
N.
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
    """Sample count, master seed and batch size of one simulation run.

    Identical (samples, seed, batch) on the same game give bit-identical
    estimates, whatever the core count: batches use independent
    deterministic streams, run concurrently and combine in fixed index
    order.  A running batch holds O(batch) memory besides its share of
    the draw budget.
    """

    samples: int
    seed: int = 42
    batch: int = 1 << 16

    def __post_init__(self) -> None:
        if self.samples < 1:
            raise ValueError(f"samples must be >= 1, got {self.samples}")
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")


def _barycentric_weights(nodes: np.ndarray) -> np.ndarray:
    m = len(nodes)
    w = np.empty(m)
    for j in range(m):
        w[j] = 1.0 / np.prod(nodes[j] - np.delete(nodes, j))
    return w


def _table_bytes(horizon: int, n_segments: int, m: int) -> int:
    """Bytes of a ``ValueFunction``'s tables: ``node_values`` and ``cont``,
    each (2, N+1, S, m) float64, and ``tail``, (2, N+1, S+1)."""
    return 8 * 2 * (horizon + 1) * (2 * n_segments * m + n_segments + 1)


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


def _interp_matrix(nodes: np.ndarray, bw: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Rows evaluate the Lagrange basis over ``nodes`` at ``points``."""
    diff = points[:, None] - nodes[None, :]
    hit = diff == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = bw[None, :] / diff
        denom = terms.sum(axis=1, keepdims=True)
        out = terms / denom
    rows_hit = hit.any(axis=1)
    if rows_hit.any():
        out[rows_hit] = hit[rows_hit].astype(float)
    return out


class ValueFunction:
    """Piecewise-polynomial per-index values of both players.

    Segments between consecutive breakpoints carry values at ``m``
    Gauss-Legendre nodes; per segment the value is a polynomial of degree
    at most N - n, so the node representation is exact.  ``cont[i, n]``
    holds the continuation C_i(n, .) at the same nodes.  Raises
    ``TooLarge`` before any table is built when the tables would exceed
    physical memory.
    """

    def __init__(self, tables: GameTables, nodes_per_segment: int | None = None):
        self.tables = tables
        big_n = tables.config.horizon
        self.m = nodes_per_segment or (big_n + 8)
        self.breaks = np.unique(
            np.concatenate(([0.0, 1.0], tables.xthresholds.values))
        )
        self.n_segments = len(self.breaks) - 1
        need, have = _table_bytes(big_n, self.n_segments, self.m), _physical_memory()
        if have is not None and need > have:
            raise TooLarge(
                f"value tables at horizon {big_n} need {need / 1e9:.1f} GB, "
                f"more than the {have / 1e9:.1f} GB of physical memory"
            )
        self._ref_t, self._ref_w = np.polynomial.legendre.leggauss(self.m)
        self._bary = _barycentric_weights(self._ref_t)
        self._partial = self._partial_matrix()
        lo = self.breaks[:-1]
        hi = self.breaks[1:]
        self.halves = 0.5 * (hi - lo)
        self.mids = 0.5 * (hi + lo)
        # node x-positions, shape (segments, m)
        self.nodes_x = self.mids[:, None] + self.halves[:, None] * self._ref_t[None, :]
        shape = (2, big_n + 1, self.n_segments, self.m)
        self.node_values = np.zeros(shape)
        self.cont = np.zeros(shape)  # C(N, .) = 0: no record after the last index
        self.tail = np.zeros((2, big_n + 1, self.n_segments + 1))
        # the scalar read path works on Python floats
        self._break_list = self.breaks.tolist()
        self._mid_list = self.mids.tolist()
        self._half_list = self.halves.tolist()
        self._node_of = {t: j for j, t in enumerate(self._ref_t.tolist())}

    def _partial_matrix(self) -> np.ndarray:
        """P[j] maps node values to int_{t_j}^{1} of the interpolant on the
        reference interval [-1, 1]; exact for degree <= m - 1."""
        m = self.m
        out = np.empty((m, m))
        for j in range(m):
            a = self._ref_t[j]
            sub = 0.5 * (a + 1.0) + 0.5 * (1.0 - a) * self._ref_t
            ws = 0.5 * (1.0 - a) * self._ref_w
            basis = _interp_matrix(self._ref_t, self._bary, sub)
            out[j] = ws @ basis
        return out

    def finalize_stage(self, n: int) -> None:
        """Fill the integral table of stage n from its node values, and the
        continuation table of stage n - 1 by C(n-1) = U(n) + x C(n)."""
        for idx in range(2):
            vals = self.node_values[idx, n]  # (S, m)
            seg_int = (vals @ self._ref_w) * self.halves
            tail = np.zeros(self.n_segments + 1)
            tail[:-1] = np.cumsum(seg_int[::-1])[::-1]
            self.tail[idx, n] = tail
            upper = tail[1:, None] + vals @ self._partial.T * self.halves[:, None]
            self.cont[idx, n - 1] = upper + self.nodes_x * self.cont[idx, n]

    def continuation_at(self, n: int, x: float, player: int) -> float:
        """C_player(n, x), interpolated from the node table of its segment;
        exact because C(n, .) has degree at most N - n < m there.

        One point in Python floats: the segment by ``bisect`` (the side and
        clamp of ``searchsorted(side="right")``), the reference coordinate
        t, the node's own value when t is a node, else the barycentric
        basis normalised before the dot product.  These are the operations
        of ``_interp_matrix`` on a one-point row, so the bits are the same.
        """
        if x >= 1.0:  # no later value beats a record at 1
            return 0.0
        s = bisect_right(self._break_list, x) - 1
        s = min(max(s, 0), self.n_segments - 1)
        t = (x - self._mid_list[s]) / self._half_list[s]
        vals = self.cont[player - 1, n, s]
        j = self._node_of.get(t)
        if j is not None:
            return float(vals[j])
        terms = self._bary / (t - self._ref_t)
        # normalising first, not (terms @ vals) / terms.sum(), keeps the
        # bits; ndarray.dot is the matmul of two vectors with less overhead
        basis = terms / terms.sum()
        return float(basis.dot(vals))

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
        return float(self.tail[player - 1, n, 0])


def continuation(n: int, x: float, V: ValueFunction, player: int) -> float:
    """Expected payoff to ``player`` when nobody stops at record (n, x):
    the record kernel applied to next-stage values, absorption worth 0."""
    _check_player(player)
    if not 0 <= n <= V.tables.config.horizon:
        raise DomainError(f"index {n} outside 0..{V.tables.config.horizon}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"value must be in [0, 1], got {x}")
    return V.continuation_at(n, x, player)


def backward_induce(
    tables: GameTables, nodes_per_segment: int | None = None
) -> tuple[ValueFunction, ValuePair]:
    """Equilibrium-profile values of every record state, plus the game value.

    Descends from the last index: stopped cells are scored by the stage
    rule, forgo-forgo cells come from the continuation table; the game
    value averages the first-stage values over a uniform first observation
    (index 1 is always a record).
    """
    big_n = tables.config.horizon
    vf = ValueFunction(tables, nodes_per_segment)
    for n in range(big_n, 0, -1):
        # each segment takes the actions at its left break
        stop1, stop2 = stage_actions(n, vf.breaks[:-1], tables)
        stop = stop1 | stop2
        vf.node_values[:, n, ~stop] = vf.cont[:, n, ~stop]
        w2s = _w2_values(n, vf.nodes_x[stop], big_n)
        cells = stage_cells(n, stop1[stop, None], stop2[stop, None], w2s, tables)
        vf.node_values[:, n, stop] = cells
        vf.finalize_stage(n)
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

    Batches run on a pool of one thread per CPU in the process's affinity
    mask, at most one per batch (numpy releases the interpreter lock while
    it draws and computes), and their sums are added in batch-index order.
    Each batch draws its uniforms in row chunks; the threads share
    ``_DRAW_BUDGET`` doubles evenly, so a chunk has at most
    budget / (threads (N + 1)) rows.  Neither the thread count nor the
    chunk size changes a bit of the result.  Memory is the budget plus
    O(batch) per thread, whatever N.  The first error, an interrupt
    included, cancels the batches not yet started and propagates.
    """
    # imported here: it costs every CLI start several milliseconds
    from concurrent.futures import ThreadPoolExecutor

    n_batches = -(-sim.samples // sim.batch)
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
                min(sim.batch, sim.samples - i * sim.batch),
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
