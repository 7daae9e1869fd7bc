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
then exact up to rounding.

Payoff accounting: both the induction and the simulator classify and
score record states by the one stage rule of ``equilibrium``
(``stage_actions`` and ``stage_cells``).  When player i stops and receives
the record, player i scores his own stop margin (w1_n or w2_n(x)) and the
opponent scores minus the opponent's own margin; the induction scores a
simultaneous claim at the coin's mean, the simulator draws the coin;
absorption with no stop scores (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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
from .errors import DomainError
from .models import ProblemConfig

_PLAYERS = (1, 2)


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
    estimates; batches use independent deterministic streams and combine
    in fixed index order.
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
    holds the continuation C_i(n, .) at the same nodes.
    """

    def __init__(self, tables: GameTables, nodes_per_segment: int | None = None):
        self.tables = tables
        big_n = tables.config.horizon
        self.m = nodes_per_segment or (big_n + 8)
        self.breaks = np.unique(
            np.concatenate(([0.0, 1.0], tables.xthresholds.values))
        )
        self.n_segments = len(self.breaks) - 1
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

    def _segment_of(self, x: float) -> int:
        s = int(np.searchsorted(self.breaks, x, side="right")) - 1
        return min(max(s, 0), self.n_segments - 1)

    def continuation_at(self, n: int, x: float, player: int) -> float:
        """C_player(n, x), interpolated from the node table of its segment;
        exact because C(n, .) has degree at most N - n < m there."""
        if x >= 1.0:  # no later value beats a record at 1
            return 0.0
        s = self._segment_of(x)
        t = np.array([(x - self.mids[s]) / self.halves[s]])
        basis = _interp_matrix(self._ref_t, self._bary, t)[0]
        return float(basis @ self.cont[player - 1, n, s])

    def value_at(self, n: int, x: float, player: int) -> float:
        """V_player(n, x): the classified stage cell, or the continuation."""
        kind = classify_state(n, x, self.tables)
        if kind is EquilibriumKind.FF:
            return self.continuation_at(n, x, player)
        w2n = _w2_values(n, x, self.tables.config.horizon)
        stop1, stop2 = kind.action1 == "S", kind.action2 == "S"
        return float(stage_cells(n, stop1, stop2, w2n, self.tables)[player - 1])

    def stage_average(self, n: int, player: int) -> float:
        """int_0^1 V_player(n, x) dx."""
        return float(self.tail[player - 1, n, 0])


def continuation(n: int, x: float, V: ValueFunction, player: int) -> float:
    """Expected payoff to ``player`` when nobody stops at record (n, x):
    the record kernel applied to next-stage values, absorption worth 0."""
    if player not in _PLAYERS:
        raise DomainError(f"player must be 1 or 2, got {player}")
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
    """
    big_n = cfg.horizon
    p = cfg.priority
    sums = np.zeros(2)
    sq_sums = np.zeros(2)
    remaining = sim.samples
    batch_index = 0
    while remaining > 0:
        nb = min(sim.batch, remaining)
        rng = batch_generator(sim.seed, batch_index)
        u = rng.random((nb, big_n + 1))
        x = u[:, :big_n]
        coin = u[:, big_n]
        running_max = np.maximum.accumulate(x, axis=1)
        is_record = np.empty((nb, big_n), dtype=bool)
        is_record[:, 0] = True
        is_record[:, 1:] = x[:, 1:] > running_max[:, :-1]
        del running_max  # not needed past here; freeing it lowers the peak
        stop1, stop2 = stage_actions(np.arange(1, big_n + 1), x, tables)
        stops = stop1 | stop2
        stops &= is_record
        rows = np.flatnonzero(stops.any(axis=1))
        j = np.argmax(stops[rows], axis=1)  # first stop
        s1, s2 = stop1[rows, j], stop2[rows, j]
        both = s1 & s2  # the coin gives the record to the rank player w.p. p
        wins = coin[rows][both] < p
        s1[both], s2[both] = wins, ~wins
        pay = np.zeros((nb, 2))
        w2s = _w2_values(j + 1, x[rows, j], big_n)
        pay[rows] = stage_cells(j + 1, s1, s2, w2s, tables).T
        sums += pay.sum(axis=0)
        sq_sums += (pay**2).sum(axis=0)
        remaining -= nb
        batch_index += 1
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
