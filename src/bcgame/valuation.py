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

Payoff accounting (shared with the simulator): when player i stops and
receives the record, player i scores his own stop margin (w1_n or
w2_n(x)) and the opponent scores minus the opponent's own margin; a
simultaneous claim resolves by the priority coin; absorption with no stop
scores (0, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._rng import batch_generator
from .equilibrium import EquilibriumKind, GameTables, _w2_values, classify_state
from .errors import DomainError, UnsupportedPriority
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
    out = np.empty_like(diff)
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
        cfg = self.tables.config
        p = cfg.priority
        w1n = float(self.tables.w1[n - 1])
        if kind is EquilibriumKind.FF:
            return self.continuation_at(n, x, player)
        if kind is not EquilibriumKind.SS and player == 1:
            return w1n if kind is EquilibriumKind.SF else -w1n
        w2n = float(_w2_values(n, np.array([x]), cfg.horizon)[0])
        if kind is EquilibriumKind.SS:
            return (2.0 * p - 1.0) * w1n if player == 1 else (1.0 - 2.0 * p) * w2n
        return -w2n if kind is EquilibriumKind.SF else w2n

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

    Descends from the last index: stopped cells come from the stage
    bimatrix, forgo-forgo cells from the continuation table; the game
    value averages the first-stage values over a uniform first observation
    (index 1 is always a record).
    """
    cfg = tables.config
    if cfg.priority > 0.5:
        raise UnsupportedPriority(
            f"backward induction established for p <= 0.5 only, got {cfg.priority}"
        )
    big_n = cfg.horizon
    p = cfg.priority
    vf = ValueFunction(tables, nodes_per_segment)
    for n in range(big_n, 0, -1):
        xn = tables.xthresholds.x(n)
        w1n = float(tables.w1[n - 1])
        for s in range(vf.n_segments):
            stop_side = vf.breaks[s] >= xn  # x >= x_n on the segment
            if not stop_side and n < tables.ntilde:  # both continue
                vf.node_values[:, n, s] = vf.cont[:, n, s]
                continue
            w2s = _w2_values(n, vf.nodes_x[s], big_n)
            if not stop_side:  # rank player stops alone
                v1, v2 = w1n, -w2s
            elif n >= tables.nstar:  # both stop, priority coin
                v1, v2 = (2.0 * p - 1.0) * w1n, (1.0 - 2.0 * p) * w2s
            else:  # value player stops alone
                v1, v2 = -w1n, w2s
            vf.node_values[0, n, s] = v1
            vf.node_values[1, n, s] = v2
        vf.finalize_stage(n)
    pair = ValuePair(val1=vf.stage_average(1, 1), val2=vf.stage_average(1, 2))
    return vf, pair


def _w2_many(indices: np.ndarray, xs: np.ndarray, horizon: int) -> np.ndarray:
    out = np.empty(len(xs))
    for n in np.unique(indices):
        mask = indices == n
        out[mask] = _w2_values(int(n), xs[mask], horizon)
    return out


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
    if cfg.priority > 0.5:
        raise UnsupportedPriority(
            f"simulation plays the classified profile; needs p <= 0.5, got {cfg.priority}"
        )
    big_n = cfg.horizon
    p = cfg.priority
    thr = tables.xthresholds.values
    w1_vec = tables.w1
    stop_from = np.arange(1, big_n + 1) >= tables.ntilde
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
        stops = is_record & ((x >= thr[None, :]) | stop_from[None, :])
        stopped = stops.any(axis=1)
        first = np.argmax(stops, axis=1)
        pay = np.zeros((nb, 2))
        rows = np.nonzero(stopped)[0]
        if len(rows) > 0:
            j = first[rows]
            n0 = j + 1
            x0 = x[rows, j]
            w1v = w1_vec[j]
            w2v = _w2_many(n0, x0, big_n)
            above = x0 >= thr[j]
            both = above & (n0 >= tables.nstar)
            # sign convention: +1 when the rank player receives the record
            sign = np.where(above, -1.0, 1.0)
            sign[both] = np.where(coin[rows][both] < p, 1.0, -1.0)
            pay[rows, 0] = sign * w1v
            pay[rows, 1] = -sign * w2v
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
