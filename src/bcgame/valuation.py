"""Game values by the first-stop density and by backward induction over
record states, and an independent Monte Carlo simulation of play under
the classified profile.

``game_value`` gives the game value alone, the pair that ``values`` and
``simulate`` print, in O(N**2) time and O(N) memory: the classified
profile stops at a record (n, x) exactly when x >= b_n, with b the
nonincreasing bars of ``stop_bars``, so the first stop has a density in
closed form, and the value is its integral against the stopped cells.
``backward_induce`` gives the value of every record state, which the
API's point queries read, and certifies ``game_value`` (within 1e-12).

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
monomial coefficients in t.  The recurrence then takes two operators
that move each coefficient one place up,

    x t**k = c t**k + h t**(k+1),   int_t^1 u**k du = (1 - t**(k+1)) / (k+1),

a segment's integral is h times the sum of 2 a_k / (k+1) over even k,
and the stopped cells come from two running series, x**d = x x**(d-1)
and S_d = x S_{d-1} + 1/d, carried together on the stopped segments
only: at stage n those whose left break is at least the bar b_n, a
suffix that shrinks as n falls.  A stage costs O(S (N - n)) for S
segments, the induction O(N**3).  Stage n holds only its N - n + 1
coefficients a segment, so the tables take 8 (N+1)(N (N+2) + 2) bytes
with the S = N segments of the game, about 8 (N+1)**3, 0.52 GB at
N = 400; a horizon whose tables would not fit in physical memory is
refused before anything is allocated.

Point queries (``continuation``, ``ValueFunction.value_at``) take a
scalar read path in Python floats: the segment by ``bisect`` on a list of
the breakpoints, the reference coordinate t, the stopped cells, and one
Horner loop over the stage's N - n + 1 coefficients that runs both
players' polynomials side by side, each by the operations of a loop of
its own.  The pair of the last state read is kept as one tuple, replaced
whole, so threads may share a value function: auditing a state asks for
both players at the same (n, x) and reads its coefficients once, while
one player alone at a new state costs the whole pair.

Payoff accounting: both the induction and the simulator classify and
score record states by the one stage rule of ``equilibrium``
(``stage_actions`` and ``stage_cells``).  When player i stops and receives
the record, player i scores its own stop margin (w1_n or w2_n(x)) and the
opponent scores minus the opponent's own margin; the induction scores a
simultaneous claim at the coin's mean, the simulator draws the coin;
absorption with no stop scores (0, 0).

The simulator plays the classified profile in fixed batches of
``_BATCH`` sequences on one thread per CPU: ``simulate`` states what a
caller may rely on, and ``_play_batch`` how a batch is laid out.
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
    _cell,
    _w2_array,
    _w2_scalar,
    classify_state,
    stage_actions,
    stage_cells,
    stop_bars,
)
from .errors import DomainError, refuse_beyond
from .models import ProblemConfig, _check_index, _check_value, _integer

_PLAYERS = (1, 2)

#: Stage-major 32-bit uniforms that one ``simulate`` call holds at a
#: time, N + 1 a sequence, shared evenly by its threads: 1 MB, whatever N
#: and the core count.  ``_play_batch`` lays a thread's share out.
_DRAW_BUDGET = 1 << 18

#: Sequences per Monte Carlo batch.  Each batch draws its own Philox
#: stream, two uniforms a word, so this size fixes the bytes of every
#: (samples, seed) estimate.
_BATCH = 1 << 16


@dataclass(frozen=True)
class ValuePair:
    """Expected payoffs to the rank player (val1) and value player (val2)."""

    val1: float
    val2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.val1) and math.isfinite(self.val2)):
            raise DomainError(f"values must be finite, got ({self.val1}, {self.val2})")

    def as_tuple(self) -> tuple[float, float]:
        return (self.val1, self.val2)


@dataclass(frozen=True)
class SimConfig:
    """Sample count and master seed of one simulation run.

    Identical (samples, seed) on the same game give bit-identical
    estimates, whatever the core count (``simulate``).  The seed must lie
    in [0, 2**64): the stream keys read it modulo 2**64; ``DomainError``
    for a seed outside it, fewer than one sample, or either not an integer.
    """

    samples: int
    seed: int = 42

    def __post_init__(self) -> None:
        object.__setattr__(self, "samples", _integer(self.samples, "samples"))
        object.__setattr__(self, "seed", _integer(self.seed, "seed"))
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 1 << 64:
            raise DomainError(f"seed must be in [0, 2**64), got {self.seed}")


def _table_bytes(horizon: int) -> int:
    """Bytes of a ``ValueFunction``'s tables: ``cont``, 2 S (N - n + 1)
    float64 at each stage n = 0..N with the S = N threshold segments of
    every game, and ``averages``, (2, N+1); about 8 (N+1)**3."""
    return 8 * (horizon + 1) * (horizon * (horizon + 2) + 2)


def _check_player(player: int) -> int:
    """``player`` as a plain int (``_integer``); ``DomainError`` unless it
    is 1 or 2."""
    if type(player) is not int:  # a plain int, the per-state paths' case, needs no call
        player = _integer(player, "player")
    if player not in _PLAYERS:
        raise DomainError(f"player must be 1 or 2, got {player}")
    return player


def _integral_to_one(a: np.ndarray) -> np.ndarray:
    """Monomial coefficients (last axis) of int_t^1 f(u) du, one degree up:
    int_t^1 u**k du = (1 - t**(k+1)) / (k+1)."""
    q = a / np.arange(1, a.shape[-1] + 1)
    out = np.empty(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., 0] = q.sum(axis=-1)
    np.negative(q, out=out[..., 1:])
    return out


def _times_x(a: np.ndarray, breaks: np.ndarray) -> np.ndarray:
    """Monomial coefficients (last axis) of x f on every segment between
    consecutive ``breaks`` (second-last axis), one degree up: x f = c f
    + h t f, so a_k adds c a_k to t**k and h a_k to t**(k+1)."""
    lo, hi = breaks[:-1, None], breaks[1:, None]
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    np.multiply(a, 0.5 * (hi - lo), out=out[..., 1:])
    out[..., :-1] += 0.5 * (hi + lo) * a
    return out


class ValueFunction:
    """Piecewise-polynomial per-index values of both players.

    On each segment between consecutive breakpoints, x = c + h t with t in
    [-1, 1], and ``cont[n][i, s, k]``, k = 0..N - n, is the coefficient of
    t**k of the continuation C_i(n, .) on segment s: exact, since C(n, .)
    has degree at most N - n there, and read at a point by Horner's rule.
    The stages are views of shape (2, S, N - n + 1) into one buffer.
    ``averages[i, n]`` is int_0^1 V_i(n, x) dx.
    Raises ``TooLarge`` before any table is built when the tables would
    exceed physical memory.
    """

    def __init__(self, tables: GameTables):
        self.tables = tables
        big_n = self._horizon = tables.config.horizon
        # the model needs N alone: refuse before any table is allocated
        refuse_beyond(_table_bytes(big_n), f"value tables at horizon {big_n}")
        # the thresholds strictly decrease to x_N = 0: ascending, they and
        # 1 are the distinct breakpoints
        self.breaks = np.append(tables.xthresholds.values[::-1], 1.0)
        self.n_segments = len(self.breaks) - 1
        # one buffer for all stages: stage arrays of their own fragment the heap
        sizes = 2 * self.n_segments * np.arange(big_n + 1, 0, -1)
        self._buffer = np.zeros(sizes.sum())  # C(N, .) = 0
        stages = np.split(self._buffer, np.cumsum(sizes)[:-1])
        self.cont = tuple(stage.reshape(2, self.n_segments, -1) for stage in stages)
        self.averages = np.zeros((2, big_n + 1))
        # the scalar read path works on Python floats
        lo, hi = self.breaks[:-1], self.breaks[1:]
        self._break_list = self.breaks.tolist()
        self._mid_list = (0.5 * (hi + lo)).tolist()
        self._half_list = (0.5 * (hi - lo)).tolist()
        # (n, x, C_1(n, x), C_2(n, x)) of the last pair read; NaN matches no x
        self._last = (0, math.nan, 0.0, 0.0)

    def finalize_stage(self, n: int, coefficients: np.ndarray) -> None:
        """Fill the average of stage n from the monomial coefficients of
        V(n, .), shape (2, S, N - n + 1), and the continuation table of
        stage n - 1 by C(n-1) = U(n) + x C(n)."""
        half = 0.5 * np.diff(self.breaks)
        # int_{-1}^1 t**k dt is 2 / (k+1) for even k and 0 for odd k
        even = 2.0 / np.arange(1, coefficients.shape[-1] + 1, 2)
        seg_int = half * (coefficients[..., ::2] @ even)
        tail = np.zeros((2, self.n_segments + 1))  # int_{b_s}^1 V(n, x) dx
        tail[:, :-1] = np.cumsum(seg_int[:, ::-1], axis=1)[:, ::-1]
        self.averages[:, n] = tail[:, 0]
        upper = half[:, None] * _integral_to_one(coefficients)
        upper[..., 0] += tail[:, 1:]
        later = _times_x(self.cont[n], self.breaks)
        np.add(upper, later, out=self.cont[n - 1])

    def _pair_at(self, n: int, x: float) -> tuple[int, float, float, float]:
        """(n, x, C_1(n, x), C_2(n, x)) in Python floats, also kept as the
        last pair read: the segment by ``bisect`` (the side of
        ``searchsorted(side="right")``; callers pass 0 <= x < 1), the
        reference coordinate t, and Horner's rule over the stage's N - n + 1
        monomial coefficients, from the highest, one loop for both players.
        Each player's polynomial takes the operations of a loop of its own,
        in the same order."""
        s = bisect_right(self._break_list, x) - 1
        t = (x - self._mid_list[s]) / self._half_list[s]
        coef1, coef2 = self.cont[n][:, s].tolist()
        v1 = v2 = 0.0
        for k in range(self._horizon - n, -1, -1):
            v1 = v1 * t + coef1[k]
            v2 = v2 * t + coef2[k]
        last = self._last = (n, x, v1, v2)
        return last

    def value_at(self, n: int, x: float, player: int) -> float:
        """V_player(n, x): the classified stage cell, or the continuation."""
        player = _check_player(player)
        kind = classify_state(n, x, self.tables)
        if kind is EquilibriumKind.FF:
            return continuation(n, x, self, player)
        tables = self.tables
        w1n = tables.w1.item(n - 1)
        w2n = _w2_scalar(self._horizon - n, float(x), tables.inverses, tables.harmonics)
        return _cell(kind.stop1, kind.stop2, tables.joint, w1n, w2n)[player - 1]

    def stage_average(self, n: int, player: int) -> float:
        """int_0^1 V_player(n, x) dx, for n in 1..N."""
        player = _check_player(player)
        _check_index(n, self._horizon)
        return float(self.averages[player - 1, n])


def continuation(n: int, x: float, V: ValueFunction, player: int) -> float:
    """Expected payoff to ``player`` when nobody stops at record (n, x):
    the record kernel applied to next-stage values, absorption worth 0.

    It is the polynomial of x's segment, exact because C(n, .) has degree
    at most N - n there.  Both players' values come from one pair
    read and are kept for the last state asked, so the other player's
    value at the same (n, x) costs a tuple lookup.
    """
    player = _check_player(player)
    if type(n) is not int:  # a plain int, the per-state paths' case, needs no call
        n = _integer(n, "index")
    if not 0 <= n <= V._horizon:
        raise DomainError(f"index {n} outside 0..{V._horizon}")
    _check_value(x)
    if x >= 1.0:  # no later value beats a record at 1
        return 0.0
    last = V._last
    if last[0] != n or last[1] != x:
        last = V._pair_at(n, x)
    return last[1 + player]


def backward_induce(tables: GameTables) -> tuple[ValueFunction, ValuePair]:
    """Equilibrium-profile values of every record state, plus the game value.

    Descends from the last index: stopped cells are scored by the stage
    rule, forgo-forgo cells come from the continuation table; the game
    value averages the first-stage values over a uniform first observation
    (index 1 is always a record).  The w2 series x**d and S_d are one
    array carried on the stopped segments alone, the suffix from b_n,
    sliced as it shrinks, with 1/d and H_d read from ``tables``; V(n) is
    the forgo prefix of C(n) beside the stopped cells.
    """
    big_n = tables.config.horizon
    vf = ValueFunction(tables)
    segments = vf.n_segments
    # x**d and S_d, w2 = x**d (1 + H_d) - S_d with d = N - n, on the
    # stopped segments: from x**0 = 1 and S_0 = 0 on every segment
    carry = np.zeros((2, segments, 1))
    carry[0] = 1.0
    for n in range(big_n, 0, -1):
        d = big_n - n
        # each segment takes the actions at its left break; some player
        # stops from the bar b_n on, a suffix that shrinks as n falls
        stop1, stop2 = stage_actions(n, vf.breaks[:-1], tables)
        stopped = np.count_nonzero(stop1 | stop2)
        first = segments - stopped
        carry = carry[:, carry.shape[1] - stopped :]
        if d:
            carry = _times_x(carry, vf.breaks[first:])
            carry[1, :, 0] += tables.inverses[d]
        w2s = carry[0] * (1.0 + tables.harmonics[d]) - carry[1]
        cells = stage_cells(n, stop1[first:, None], stop2[first:, None], w2s, tables)
        cells[0, :, 1:] = 0.0  # the rank player's cell is constant in x
        vf.finalize_stage(n, np.concatenate((vf.cont[n][:, :first], cells), axis=1))
    pair = ValuePair(val1=vf.stage_average(1, 1), val2=vf.stage_average(1, 2))
    return vf, pair


def game_value(tables: GameTables) -> ValuePair:
    """The game value of ``backward_induce``, by the first-stop density,
    in O(N**2) time and O(N) memory.

    With b the bars of ``stop_bars``, nobody stops before a record at n
    exactly when the maximum of the first n - 1 values, at some index j,
    lies below b_j, so the first stop falls at (n, y), y >= b_n, with
    density f_n(y) = sum_{j<n} min(y, b_j)**m / m, m = n - 1, and f_1 = 1.
    The value is sum_n int_{b_n}^1 f_n(y) cell_n(y) dy.  Stage n splits at
    x_n into the piece [x_n, 1] and, from ntilde on, where b_n = 0, the
    piece [0, x_n); each piece takes its stopped cell s (w1_n, -w2_n(y))
    from ``stage_actions`` at one of its points.  Only the J = min(m,
    ntilde - 1) positive bars b_j = x_j count, and x_j > x_n, so

        int_{x_n}^1 f_n = sum_j [(x_j**n - x_n**n) / n + x_j**m (1 - x_j)] / m,
        int_{x_n}^1 f_n w2_n = sum_j [A(x_j) - A(x_n) + x_j**m (B(1) - B(x_j))] / m,
        int_0^{x_n} f_n = J x_n**n / (n m),  int_0^{x_n} f_n w2_n = J A(x_n) / m,

    with A(y) = int_0^y t**m w2_n(t) dt and B(y) = int_0^y w2_n(t) dt.  With
    d = N - n and w2_n = y**d (1 + H_d) - sum_{k=1}^{d} y**(d-k) / k,

        A = (1 + H_d) y**N / N - G_d,   G_d = sum_{k=1}^{d} y**(N-k) / (k (N-k)),
        B = ((1 + H_d) y**(d+1) - S_d - R_d) / (d + 1),
        S_d = sum_{k=1}^{d} y**k / k,   R_d = y (R_{d-1} + 1/d),

    each series one vector update a stage, at the points 1, x_1, .., x_n
    that stage n and the stages before it read.
    """
    big_n = tables.config.horizon
    bars = stop_bars(tables)
    thresholds = tables.xthresholds.values
    live = int(np.count_nonzero(bars))  # the bars before ntilde
    ns = np.arange(1, big_n + 1)
    upper = [flags.tolist() for flags in stage_actions(ns, thresholds, tables)]
    lower = [flags.tolist() for flags in stage_actions(ns, bars, tables)]
    y = np.concatenate(([1.0], thresholds))  # y[j] = x_j, y[0] = 1
    top = y**big_n
    power = np.ones_like(y)  # y**d
    g, s, r = np.zeros_like(y), np.zeros_like(y), np.zeros_like(y)
    terms1: list[float] = []
    terms2: list[float] = []
    for n in range(big_n, 0, -1):
        d, k = big_n - n, n + 1
        head = y[:k]
        if d:
            yn = head**n
            g[:k] += yn / (d * n)
            power[:k] *= head
            s[:k] += power[:k] / d
            r[:k] += tables.inverses[d]
            r[:k] *= head
        else:
            yn = top
        scale = 1.0 + tables.harmonics[d]
        a = scale / big_n * top[:k] - g[:k]
        b = (scale * power[:k] * head - s[:k] - r[:k]) / (d + 1)
        if n == 1:
            up1, up2 = 1.0 - y[1], b[0] - b[1]
            lo1, lo2 = y[1], b[1]
        else:
            m = n - 1
            j = min(m, live)
            xj = y[1 : j + 1]
            pm = yn[1 : j + 1] / xj
            up1 = ((yn[1 : j + 1].sum() - j * yn[n]) / n + pm @ (1.0 - xj)) / m
            up2 = (a[1 : j + 1].sum() - j * a[n] + pm @ (b[0] - b[1 : j + 1])) / m
            lo1, lo2 = j * yn[n] / (n * m), j * a[n] / m
        w1n = tables.w1.item(n - 1)
        pieces = [(upper, up1, up2)]
        if bars[n - 1] < thresholds[n - 1]:
            pieces.append((lower, lo1, lo2))
        for (stop1, stop2), i1, i2 in pieces:
            c1, c2 = _cell(stop1[n - 1], stop2[n - 1], tables.joint, w1n, 1.0)
            terms1.append(c1 * i1)
            terms2.append(c2 * i2)
    return ValuePair(val1=math.fsum(terms1), val2=math.fsum(terms2))


def _cpu_count() -> int:
    """CPUs this process may run on: its affinity mask where the platform
    reports one, else the machine's count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _score_stops(
    tables: GameTables,
    stage: np.ndarray,
    value: np.ndarray,
    coin: np.ndarray,
    totals: np.ndarray,
    scratch: np.ndarray,
) -> None:
    """Add the payoffs of a block of stops, in row order, to ``totals``:
    (sums, sums of squares), one entry per player.

    Who takes the record, after the coin; the margins, by one pass of the
    Horner loop, and the cells, written into ``scratch`` (three doubles a
    stop, as ``_play_batch`` sizes it); then, one player at a time, the
    squares and a running sum along the stops from the sums so far, which
    adds them in the order one running sum over the whole batch would.
    """
    count = len(stage)
    cells = scratch[: 2 * count].reshape(2, count)
    square = scratch[2 * count : 3 * count]
    _w2_array(stage, value, tables, out=cells[1])
    stop1, stop2 = stage_actions(stage, value, tables)
    # where both stop, the coin gives the rank player the record
    wins = coin < tables.config.priority
    taker1 = stop1 & (~stop2 | wins)
    taker2 = stop2 & ~(stop1 & wins)
    del stop1, stop2, wins  # only the takers are held through the cells
    stage_cells(stage, taker1, taker2, cells[1], tables, out=cells)
    for player, cell in enumerate(cells):
        np.multiply(cell, cell, out=square)
        for row, terms in enumerate((cell, square)):
            terms[0] += totals[row, player]
            np.add.accumulate(terms, out=terms)
            totals[row, player] = terms[-1]


def _uniform_bars(bars: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The bars b on the grid of the 32-bit uniforms, as (bar, reachable):
    u 2**-32 >= b exactly when u >= ceil(b 2**32), a ceiling exact in
    doubles, clipped to the uint32 range.  Where it is 2**32 or more,
    within 2**-32 of 1 or above, no uniform reaches the bar: there
    ``reachable`` is false."""
    ceiling = np.ceil(np.ldexp(bars, 32))
    reachable = ceiling < 2.0**32
    return np.clip(ceiling, 0, 2**32 - 1).astype(np.uint32), reachable


def _play_batch(
    tables: GameTables, seed: int, batch_index: int, size: int, chunk_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """Payoff sum and sum of squares over the ``size`` sequences of one
    batch, each player on its own entry: the Monte Carlo batch layout.

    The batch stream is a run of Philox words, each two 32-bit uniforms
    u, its low half first, on any byte order; a sequence takes N + 1
    consecutive uniforms, row-major: its N values x = u 2**-32, then the
    coin.  A sequence stops at its first record x_n >= b_n, the bar of
    ``stop_bars``, and scores the stage cell there; a sequence that never
    stops pays (0, 0) and adds nothing to the sums.  The uniforms come in
    chunks of at most ``chunk_rows`` rows, rounded up to an even count,
    and each chunk in row-major tiles of about a quarter of its rows, an
    even count too, so that every tile but the batch's last starts and
    ends on a word; each tile is transposed into the stage-major buffer
    x[n, row], N + 1 uint32 a row (a stage is one contiguous vector; row
    N holds the coins).  The tiles and chunks continue one stream, so
    together they are the one draw of the whole batch, and the last word
    of a batch with an odd number of uniforms gives its low half only.

    The batch allocates its buffers once: the stage-major buffer, one
    scratch buffer, the stop marks, a quarter of the stage-major buffer,
    and a block of B stops; a tile is the words that Philox hands out.
    Once a chunk is drawn in full, the scratch buffer holds in turn the
    rises of its running maximum, its weighted marks, the places and
    uniforms of the stops being gathered into the block, and a full
    block's margins, cells and squares, 3 B doubles, while
    ``_score_stops`` scores it.  It takes the larger of the weighted
    marks and 3 B doubles, so tiny budgets work too.

    The uniforms stay integers until a row stops: over the stages before
    ntilde a chunk turns x into its running maximum M in place, one
    vector operation per stage.  Stage n is a record exactly where M
    rises, M_n > M_{n-1}, and there M_n = x_n, so the marks are the rises
    with M_n >= b_n, each bar by the exact integer rule of
    ``_uniform_bars``.  From ntilde on every bar is 0, and the first
    record is the first value above the maximum of the stages before
    ntilde, so there the marks are the values above it.  Stage n's marks,
    weighted N - n + 1, or 0 where no uniform reaches the bar, take one
    maximum down the stages: it is 0 where a row never stops, else
    N - n + 1 at its first stop n, where x is its value.

    Only the rows that stop are scored, and only their value and coin
    become doubles, u 2**-32, which is exact.  A chunk's stops are found
    in windows of at most B rows, so their row indices take at most B
    entries; they fill the block in row order across windows and chunks,
    and each full block, and the last, is scored by ``_score_stops``, with
    the running sums carried from block to block, so the sums are the
    same bit for bit at any chunk, tile and block size.  B is a sixteenth
    of the stage-major buffer's entries: the block holds three doubles a
    stop, and its scoring, beside the scratch buffer, about two more.  So
    a batch holds its share of the draw budget and, in bytes of it, about
    a quarter for a tile, three eighths for the scratch buffer, a quarter
    for the stop marks and five eighths for a block as it is scored,
    whatever N and the batch size.
    """
    big_n = tables.config.horizon
    bars, reachable = _uniform_bars(stop_bars(tables))
    bars = bars[:, None]
    scanned = max(tables.ntilde - 1, 1)  # stages before ntilde, and stage 1
    draw = batch_generator(seed, batch_index).bit_generator.random_raw
    chunk_rows += chunk_rows % 2  # whole words a chunk
    width = min(chunk_rows, size)
    block = max(1, width * (big_n + 1) // 16)
    # the stages, then the coin
    xt = np.empty((big_n + 1, width), dtype=np.uint32)
    weights = np.arange(big_n, 0, -1, dtype=np.min_scalar_type(big_n))[:, None]
    weights[~reachable] = 0
    tile_rows = 2 * -(-width // 8)
    weighted_size = -(-big_n * width * weights.itemsize // 8)  # in doubles
    scratch = np.empty(max(weighted_size, 3 * block))
    marks = np.empty((big_n, width), dtype=bool)
    # a block of stops: index, value and coin
    stage = np.empty(block, dtype=np.intp)
    value = np.empty(block)
    coin = np.empty(block)
    # sums and sums of squares, from +0.0: a sum of -0.0 cells is +0.0,
    # as a sum from 0 is
    totals = np.zeros((2, 2))
    count = 0
    for lo in range(0, size, chunk_rows):
        rows = min(chunk_rows, size - lo)
        for a in range(0, rows, tile_rows):
            t = min(tile_rows, rows - a)
            uniforms = t * (big_n + 1)
            words = draw(-(-uniforms // 2)).astype("<u8", copy=False)
            xt[:, a : a + t] = words.view("<u4")[:uniforms].reshape(t, big_n + 1).T
            del words  # one tile at a time
        x, mark = xt[:big_n, :rows], marks[:, :rows]
        # the rises, then the weighted marks, in the scratch buffer
        rise = scratch.view(bool)[: (scanned - 1) * rows].reshape(scanned - 1, rows)
        weighted = scratch.view(weights.dtype)[: big_n * rows].reshape(big_n, rows)
        head = x[:scanned]
        stages = iter(head)
        before = next(stages)
        for here in stages:  # the running maximum, in place
            np.maximum(before, here, out=here)
            before = here
        np.greater_equal(head, bars[:scanned], out=mark[:scanned])
        np.greater(head[1:], head[:-1], out=rise)
        mark[1:scanned] &= rise
        np.greater(x[scanned:], before, out=mark[scanned:])
        first = np.multiply(mark, weights, out=weighted).max(axis=0)
        for w in range(0, rows, block):  # the stops of at most a block of rows
            window = first[w : w + block]
            hit = np.flatnonzero(window)
            done = 0
            while done < len(hit):  # into the block, split where it fills
                take = min(block - count, len(hit) - done)
                r = hit[done : done + take]  # rows w + r of the chunk
                at = slice(count, count + take)
                # the first stops' places in xt from column w on, and their
                # uniforms, held in the scratch buffer
                place = scratch[:take].view(np.intp)
                gathered = scratch[block : 2 * block].view(np.uint32)[:take]
                np.subtract(big_n, window[r], out=place, dtype=np.intp)  # x rows
                np.add(place, 1, out=stage[at])
                place *= width
                place += r
                xt.ravel()[w:].take(place, out=gathered)
                np.multiply(gathered, 2.0**-32, out=value[at])
                xt[big_n, w:].take(r, out=gathered)
                np.multiply(gathered, 2.0**-32, out=coin[at])
                count += take
                done += take
                if count == block:
                    _score_stops(tables, stage, value, coin, totals, scratch)
                    count = 0
    if count:
        _score_stops(
            tables, stage[:count], value[:count], coin[:count], totals, scratch
        )
    return totals[0], totals[1]


def simulate(
    cfg: ProblemConfig, tables: GameTables, sim: SimConfig
) -> tuple[ValuePair, tuple[float, float]]:
    """Monte Carlo play of the classified profile; returns the mean payoff
    pair and its standard errors.  ``cfg`` must be the game of ``tables``,
    ``tables.config``: ``DomainError`` otherwise, before anything is drawn.

    Each sequence consumes N + 1 uniforms from its batch stream: the N
    observations plus the priority coin (used only at simultaneous
    claims).  Play continues through records classified forgo-forgo,
    scores the stage cell at the first stop, and scores (0, 0) when no
    stop occurs before the horizon.

    The uniforms are 32-bit integers u, two a Philox word, read as
    u 2**-32 (``_play_batch``), and each bar is compared exactly.  Read as
    the grid cells of continuous uniforms, they play as those do except
    where a value and the running maximum, a bar or the priority fall in
    one cell of width 2**-32: at most 2N such comparisons a sequence (the
    bars, the records and the coin), so with probability at most
    2N 2**-32 a sequence.  A value that is scored is its cell's lower
    end, below the continuous value by less than 2**-32.

    The sequences are played in batches of ``_BATCH``, the last one
    partial, laid out as ``_play_batch`` describes.  Batches run on a pool
    of one thread per CPU in the process's affinity mask, at most one per
    batch (numpy releases the interpreter lock while it draws and
    computes), and their sums are added in batch-index order.  The threads
    share ``_DRAW_BUDGET`` evenly, so a chunk has budget / (threads
    (N + 1)) rows, rounded up to an even count, and memory does not grow
    with N or the sample count.  Neither the thread count nor the chunk
    size changes a bit of the result.  The first error, an interrupt included, cancels
    the batches not yet started and propagates.
    """
    if cfg != tables.config:
        raise DomainError(f"simulate got {cfg} for tables of {tables.config}")
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
