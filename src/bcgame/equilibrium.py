"""Game layer: stop-versus-continue margins, the 2x2 stage bimatrix, the
one-step value shift for the rank-only player, and the stage rule that
classifies and scores record states.

At a record state (n, x) each player chooses Stop (claim the current
record) or Forgo (keep observing).  Payoffs are margins relative to each
player's own one-step continuation.  Every stopped cell of the stage game
at (n, x) pays

    s (w1_n, -w2_n(x)),   s = 2p - 1 for (S,S), +1 for (S,F), -1 for (F,S),

with p the priority probability of player 1 at a simultaneous claim (s is
the mean of the +-1 priority coin at (S,S)); the (F,F) cell is the
continuation pair, supplied externally.  ``stage_actions`` (who stops),
``stop_bars`` (from which value on anyone stops) and ``stage_cells`` (what
stopped cells pay; ``_cell`` for one, in floats) hold this rule for
p <= 0.5.  An action pair has one position, 0..3 for SS, SF, FS and FF
(``_position``), by which the kinds, the region names and a
``Bimatrix``'s cells are read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import NamedTuple

import numpy as np

from . import models
from .errors import DomainError, UnsupportedPriority, refuse_beyond
from .models import ProblemConfig, RecordState, ThresholdVector


def w1(n: int, cfg: ProblemConfig) -> float:
    """Rank player's margin of stopping over continuing at candidate n.

    (n/N)(1 - sum_{j=n+1}^{N} 1/(j-1)); negative before the cutoff index,
    nonnegative from it on.
    """
    models._check_index(n, cfg.horizon)
    return (n / cfg.horizon) * (1.0 - models._harmonic_suffix(n, cfg.horizon))


def _w1_values(cfg: ProblemConfig) -> list[float]:
    """``w1(n, cfg)`` for n = 1..N, bit for bit, in O(N) instead of one
    ``math.fsum`` of N - n terms per n: each margin reads the correctly
    rounded suffix of ``models._rank_suffixes``, the sum ``secretary_cutoff``
    reads, so w1_n >= 0 exactly from n = nstar on."""
    big_n = cfg.horizon
    margins = [
        (n / big_n) * (1.0 - suffix)
        for n, suffix in zip(range(big_n, 0, -1), models._rank_suffixes(big_n))
    ]
    return margins[::-1]


def _w2_array(n, xs, tables: GameTables, out=None) -> np.ndarray:
    """Value-player margin at the indices n and values xs of the game of
    ``tables``, stable down to x = 0; ``n`` may be an array broadcast
    against ``xs``.  With ``out``, a C-contiguous float array of the
    broadcast shape, the margins are written there.

    x**d (1 + H_d) - sum_{j=1}^{d} x**(d-j)/j with d = N - n and H_d the
    d-th harmonic number, 1/m and H_m read from ``tables``, by one pass of
    Horner's rule over the whole polynomial: from the leading coefficient
    1 + H_d, d steps acc = acc x - 1/j for j = 1..d, with no power and no
    negative power.  Only IEEE +, - and x are taken, so the bits follow
    from the inputs alone, on every host and at every array length.
    The entries are sorted stably by degree d, highest first (a radix sort
    on the small unsigned key top - d), so step t of the loop runs on the
    prefix of entries with d >= t only; an entry with d = 0 keeps its
    leading coefficient 1, x = 0 included.  The sorted values are held in
    ``out``, and the margins go back there in the order of the entries, so
    beside ``out`` the sums and the order, two arrays of its size, are held."""
    horizon, inverses = tables.config.horizon, tables.inverses
    xs, n = np.broadcast_arrays(np.asarray(xs, dtype=float), np.asarray(n))
    low = int(np.min(n, initial=horizon))
    top = horizon - low
    key = (n - low).ravel().astype(np.min_scalar_type(top))
    # live[t] entries, the first in the order, have degree >= t
    live = np.cumsum(np.bincount(key, minlength=top + 1))[::-1]
    order = np.argsort(key, kind="stable")
    if out is None:
        out = np.empty(xs.shape)
    flat = out.reshape(-1)
    np.take(xs.ravel(), order, out=flat)
    # 1 + H_d of each entry, in the sorted order
    acc = (1.0 + np.array(tables.harmonics[: top + 1]))[::-1].take(key[order])
    for t in range(1, top + 1):
        head = acc[: live[t]]
        head *= flat[: live[t]]
        head -= inverses[t]
    flat[order] = acc
    return out


def _horner_lists(degree: int) -> tuple[tuple, tuple]:
    """(1/m, H_m) for m = 0..degree as two tuples of Python floats, 1/0
    read as 0 and H_m summed left to right as ``np.cumsum`` sums it: the
    lists that ``_w2_scalar`` reads up to its degree."""
    inverses = (0.0, *(1.0 / m for m in range(1, degree + 1)))
    return inverses, tuple(accumulate(inverses))


def _w2_scalar(d: int, x: float, inverses: tuple, harmonics: tuple) -> float:
    """``_w2_array`` at one state of degree d = N - n in Python floats, by
    the same operations in the same order, with 1/m and H_m read from
    ``_horner_lists`` of degree d or more: a numpy step on a 0-d array
    costs about 2.5 us.  Python's float +, - and x round as numpy's do,
    so the two forms agree bit for bit, at any array length.
    ``w2``, ``bimatrix`` and ``ValueFunction.value_at`` take this form; the
    Monte Carlo scoring takes the array form."""
    acc = 1.0 + harmonics[d]
    for step in inverses[1 : d + 1]:
        acc = acc * x - step
    return acc


def w2(state: RecordState, cfg: ProblemConfig) -> float:
    """Value player's margin of stopping over continuing at a record.

    Zero exactly at the indifference threshold, negative below it,
    positive above.  x = 0 with n < N is rejected: such states are
    classified through thresholds, never through this margin.
    """
    n, x = state.index, float(state.value)
    _check_margin_state(n, x, cfg.horizon)
    d = cfg.horizon - n
    return _w2_scalar(d, x, *_horner_lists(d))


def _check_margin_state(n: int, x: float, horizon: int) -> None:
    """Raise ``DomainError`` unless w2 is defined at the record (n, x)."""
    models._check_index(n, horizon)
    models._check_value(x)
    if x == 0.0 and n < horizon:
        raise DomainError("w2 is not evaluated at x = 0 before the last stage")


@dataclass(frozen=True, eq=False)
class GameTables:
    """What follows from a game's (N, p), immutable and read by every game
    operation: the thresholds, the rank margins w1_1..w1_N (read-only)
    and both cutoffs, the simultaneous-claim weight ``joint`` = 2p - 1,
    and the w2 Horner lists ``inverses`` (1/m) and ``harmonics`` (H_m)
    for m < N, from ``_horner_lists``, which ``_w2_scalar``,
    ``_w2_array``, ``backward_induce`` and ``game_value`` read.  Only the
    game is passed in; the rest is derived from it on construction, in
    this order: the thresholds from ``models.fullinfo_thresholds``
    (solved once per horizon, to floating-point resolution, and refused
    with ``TooLarge`` before any other table is built), w1 (by
    ``_w1_values``), nstar as the first index where w1 is nonnegative (w1
    reads the correctly rounded rank suffix that
    ``models.secretary_cutoff`` reads, so this is that cutoff, found with
    no second walk of the suffixes), the constants, and ``ntilde`` last,
    as ``shifted_cutoff`` of the rest.  No tv1 is kept;
    finding ntilde evaluates tv1 only at n = nstar..min(ntilde, N - 1).
    Compared and hashed by identity."""

    config: ProblemConfig
    xthresholds: ThresholdVector = field(init=False)
    nstar: int = field(init=False)
    ntilde: int = field(init=False)
    w1: np.ndarray = field(init=False)
    joint: float = field(init=False)
    inverses: tuple = field(init=False, repr=False)
    harmonics: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        cfg = self.config
        object.__setattr__(self, "xthresholds", models.fullinfo_thresholds(cfg))
        w1 = np.array(_w1_values(cfg))
        w1.setflags(write=False)
        object.__setattr__(self, "w1", w1)
        # w1_N = 1, so some margin is nonnegative
        object.__setattr__(self, "nstar", int(np.argmax(w1 >= 0.0)) + 1)
        inverses, harmonics = _horner_lists(cfg.horizon - 1)
        object.__setattr__(self, "joint", 2.0 * cfg.priority - 1.0)
        object.__setattr__(self, "inverses", inverses)
        object.__setattr__(self, "harmonics", harmonics)
        object.__setattr__(self, "ntilde", shifted_cutoff(self))


def tv1(n: int, tables: GameTables) -> float:
    """Rank player's one-step shift at index n in closed form, computed on
    each call: the average over x uniform on [0, x_n], the values
    compatible with the opponent continuing, of its expected one-step
    payoff after the record (n, x).  Zero at n = N.

    That payoff, from stopping at the next candidate k against the (stop
    if above threshold) opponent there, is a sum over k > n of
    w1_k x**(k-n-1) ((1 - t)(x_k - x)+ + t (1 - x)), t = ``tables.joint``:
    below x_k the claim is the rank player's alone, worth w1_k, and above
    it a simultaneous claim, worth t w1_k; both read as a claim at weight
    t everywhere, the tilt t (1 - x), plus the weight 1 - t below x_k.
    The thresholds strictly decrease, so x_k < x_n, and with e = k - n the
    two terms integrate over [0, x_n] to
    ((1 - t) x_k**(e+1) + t x_n**e (1 + e (1 - x_n))) / (e (e + 1)).
    """
    cfg = tables.config
    models._check_index(n, cfg.horizon)
    xn = tables.xthresholds.x(n)
    if xn <= 0.0:
        return 0.0
    t = tables.joint
    e = np.arange(1, cfg.horizon - n + 1, dtype=float)
    xk = tables.xthresholds.values[n:]
    terms = (1.0 - t) * xk ** (e + 1.0) + t * xn**e * (1.0 + e * (1.0 - xn))
    return math.fsum(tables.w1[n:] * terms / (e * (e + 1.0))) / xn


def shifted_cutoff(tables: GameTables) -> int:
    """First index from the rank cutoff on where stopping beats the
    one-step continuation even against a continuing opponent.

    min{n in [nstar, N] : tv1(n) <= w1(n)}, by a linear scan that
    evaluates ``tv1`` from nstar up to the first such n and no further;
    n = N always qualifies, so tv1(N) is never evaluated.  Reads no
    ``tables.ntilde``, so ``GameTables`` can call it on construction.
    """
    big_n = tables.config.horizon
    for n in range(tables.nstar, big_n):
        if tv1(n, tables) <= tables.w1[n - 1]:
            return n
    return big_n


def build_game_tables(cfg: ProblemConfig) -> GameTables:
    """The thresholds, the rank margins w1, both cutoffs and the w2
    constants of the game ``cfg``: ``GameTables(cfg)``."""
    return GameTables(cfg)


def fs_condition(n: int, x: float, cfg: ProblemConfig) -> bool:
    """Persistence condition for the value player stopping alone below the
    rank cutoff:

        2p sum_{k=1}^{d} (x**-k - 1)/k
            >= -(1-2p) sum_{k=1}^{d} sum_{j=1}^{k-1}
                   ((j/k) x**-k - x**-j/(k-j) + 1/k)

    with d = N - n.  Both sums are positive on (0, 1), so for p <= 0.5 the
    condition holds everywhere; the operation exists as a verification
    hook for that claim.  Both sides are evaluated times x**d > 0, which
    keeps the sign of the test and leaves only nonnegative powers of x, so
    nothing overflows at large d or small x.  So scaled, the left sum is
    the value player's continue reward at (n, x),
    ``models.fullinfo_continue_reward``, and the double sum is single:
    the sum over j < k of j is k(k-1)/2, and its x**(d-j)/(k-j) terms
    gather by i = d - j into H_i x**i, H_i the i-th harmonic number, so

        sum_{k=1}^{d} (x**(d-k) (k-1)/2 + x**d (k-1)/k)
            - sum_{i=1}^{d-1} H_i x**i.
    """
    models._check_index(n, cfg.horizon)
    try:
        inside = 0.0 < x < 1.0
    except TypeError:  # not a number, shown by its repr
        inside, x = False, repr(x)
    if not inside:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    d = cfg.horizon - n
    p = cfg.priority
    lhs = 2.0 * p * models.fullinfo_continue_reward(RecordState(n, x), cfg)
    xp = x ** np.arange(0, d + 1, dtype=float)  # xp[i] = x**i
    k = np.arange(1, d + 1)
    harmonics = np.array(_horner_lists(d - 1)[1][1:])  # H_1..H_{d-1}
    terms = (xp[d - k] * (k - 1) / 2, xp[d] * (k - 1) / k, -harmonics * xp[1:d])
    inner = math.fsum(np.concatenate(terms).tolist())
    rhs = -(1.0 - 2.0 * p) * inner
    return bool(lhs >= rhs)


def _position(stop1, stop2):
    """Position 0..3 of the action pair (SS, SF, FS, FF) with the stop flags
    ``stop1`` and ``stop2``, bools or bool arrays: the order of the kinds
    and of a ``Bimatrix``'s cells, where a player's switch flips one bit,
    2 for the rank player and 1 for the value player."""
    return 3 - 2 * stop1 - stop2


class EquilibriumKind(Enum):
    """Pure Nash action pair at a record state; first letter is the rank
    player's action, second the value player's (S = stop, F = forgo).
    Each member carries its actions as plain attributes, ``action1`` and
    ``action2``, as stop flags, ``stop1`` and ``stop2``, and as its
    ``position``, the index of its cell in a ``Bimatrix``."""

    SS = "SS"
    SF = "SF"
    FS = "FS"
    FF = "FF"

    def __init__(self, value: str) -> None:
        self.action1, self.action2 = value
        self.stop1, self.stop2 = self.action1 == "S", self.action2 == "S"
        self.position = _position(self.stop1, self.stop2)


# the kinds by position
_KINDS = tuple(EquilibriumKind)


def _check_priority(tables: GameTables) -> None:
    p = tables.config.priority
    if p > 0.5:
        raise UnsupportedPriority(
            f"classification established for p <= 0.5 only, got {p}"
        )


def stage_actions(n, xs, tables: GameTables):
    """Stop flags (rank player, value player) at the record states (n, xs),
    bools or bool arrays (indices 1..N broadcast against the values).

    The value player stops at or above its threshold x_n.  The rank player
    stops from ntilde on, and from nstar on when the value player stops
    too: x >= x_n gives SS from nstar on, FS before it; x < x_n gives SF
    from ntilde on, FF before it.
    """
    _check_priority(tables)
    stop2 = xs >= tables.xthresholds.x(n)
    stop1 = (n >= tables.ntilde) | ((n >= tables.nstar) & stop2)
    return stop1, stop2


def stop_bars(tables: GameTables) -> np.ndarray:
    """Bars b_1..b_N of the classified profile: at a record (n, x) some
    player stops exactly when x >= b_n, which is ``stage_actions``'s
    stop1 | stop2.  b_n is the threshold x_n before ntilde and 0 from
    ntilde on, where the rank player stops at every record."""
    _check_priority(tables)
    bars = tables.xthresholds.values.copy()
    bars[tables.ntilde - 1 :] = 0.0
    return bars


def _cell(stop1, stop2, joint: float, w1n: float, w2n: float) -> tuple[float, float]:
    """One stopped cell s (w1_n, -w2_n) in Python floats, with s = ``joint``
    when both stop, +1 when only the rank player stops, -1 when
    only the value player stops."""
    s = (joint if stop2 else 1.0) if stop1 else -1.0
    return s * w1n, -s * w2n


def stage_cells(n, stop1, stop2, w2s, tables: GameTables, out=None) -> np.ndarray:
    """Payoffs s (w1_n, -w2) of stopped cells at index n, stacked on a
    leading player axis, given who stops there (at least one player) and
    the value player's margins ``w2s``, as arrays: s = ``tables.joint``
    when both stop, +1 when only the rank player stops, -1 when only the
    value player stops.  ``_cell`` scores one cell by the same products in Python
    floats, so the two agree bit for bit.  With ``out``, a float array of
    shape (2, *broadcast shape), the cells are written there; ``w2s`` may
    be ``out[1]`` itself.
    """
    w1n = tables.w1[n - 1]
    if out is None:
        shapes = (np.shape(w1n), np.shape(stop1), np.shape(stop2), np.shape(w2s))
        out = np.empty((2, *np.broadcast_shapes(*shapes)))
    s, cell2 = out[0, ...], out[1, ...]
    s[...] = -1.0
    np.copyto(s, 1.0, where=stop1)
    np.copyto(s, tables.joint, where=np.logical_and(stop1, stop2))
    # -(s w2) is (-s) w2 bit for bit: negation and rounding are symmetric
    np.multiply(s, w2s, out=cell2)
    np.negative(cell2, out=cell2)
    np.multiply(s, w1n, out=s)
    return out


def classify_state(n: int, x: float, tables: GameTables) -> EquilibriumKind:
    """Pure-equilibrium action pair at record state (n, x) for p <= 0.5.

    Boundaries resolve to the stop side (x = x_n) and to SF (n = ntilde).
    """
    models._check_index(n, tables.config.horizon)
    models._check_value(x)
    return _KINDS[_position(*stage_actions(n, x, tables))]


@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Classification of every (index, value) grid point; the data behind
    the strategy-region picture.  It holds read-only views of the arrays
    passed in, not copies, since a grid can be large.  Compared and hashed
    by identity."""

    ns: np.ndarray
    xs: np.ndarray
    kinds: np.ndarray  # shape (len(ns), len(xs)), dtype '<U2'

    def __post_init__(self) -> None:
        for name in ("ns", "xs", "kinds"):
            view = getattr(self, name).view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)


#: Peak bytes per (index, value) cell of ``region_map``, with room: 11.3
#: by tracemalloc at N = 50, plus 16 per value, which this also covers at
#: N = 1.  The CLI streams its rows from the grid, so the figure covers
#: ``regions`` too.
_GRID_CELL_BYTES = 48


def _check_region_size(horizon: int, xstep: float) -> None:
    """Refuse a region grid of ``horizon`` indices against the value mesh of
    step ``xstep`` before anything is built: ``DomainError`` for a step
    outside (0, 0.1], ``TooLarge`` when its cells, about N / xstep, at
    ``_GRID_CELL_BYTES`` each would exceed physical memory.  ``region_map``
    checks for API callers, and the CLI before it solves the thresholds.
    The cell count is a float, so a step near 0 gives an infinite need,
    not an overflow."""
    try:
        inside = 0.0 < xstep <= 0.1
    except TypeError:  # not a number, shown by its repr
        inside, xstep = False, repr(xstep)
    if not inside:
        raise DomainError(f"xstep must lie in (0, 0.1], got {xstep}")
    need = _GRID_CELL_BYTES * horizon * (1.0 / xstep + 1.0)
    refuse_beyond(need, f"regions at horizon {horizon} and xstep {xstep}")


def region_map(tables: GameTables, xstep: float) -> RegionGrid:
    """Classify all indices against a uniform value mesh of step ``xstep``,
    its points clamped at 1."""
    big_n = tables.config.horizon
    _check_region_size(big_n, xstep)
    count = int(math.floor(1.0 / xstep + 1e-9))
    # the slack in the count can put the last point just above 1
    xs = np.minimum(np.arange(count + 1) * xstep, 1.0)
    ns = np.arange(1, big_n + 1)
    stop1, stop2 = stage_actions(ns[:, None], xs[None, :], tables)
    names = np.array([kind.value for kind in _KINDS])
    return RegionGrid(ns=ns, xs=xs, kinds=names[_position(stop1.astype(np.int8), stop2)])


class Bimatrix(NamedTuple):
    """Stage bimatrix at one record state; each cell is (payoff1, payoff2)
    and rows/columns are indexed by actions (S, F) of players 1 and 2.
    A named tuple, so it equals the 4-tuple of its cells."""

    ss: tuple[float, float]
    sf: tuple[float, float]
    fs: tuple[float, float]
    ff: tuple[float, float]

    def cell(self, action1: str, action2: str) -> tuple[float, float]:
        """Cell of the action pair; ``DomainError`` unless each is "S" or "F"."""
        try:
            if action1 in {"S", "F"} and action2 in {"S", "F"}:
                return self[EquilibriumKind(action1 + action2).position]
        except TypeError:  # an action that does not hash
            pass
        raise DomainError(f'actions must be "S" or "F", got ({action1!r}, {action2!r})')

    def is_pure_nash(self, kind: EquilibriumKind) -> bool:
        """True when neither unilateral deviation improves the deviator:
        the cell of ``kind`` against the cell where only player 1 switches
        and the cell where only player 2 switches, a flip of bit 2 and of
        bit 1 of its position.  ``DomainError`` for a ``kind`` without the
        position of an ``EquilibriumKind``."""
        try:
            i = kind.position
        except AttributeError:
            raise DomainError(f"kind must be an EquilibriumKind, got {kind!r}") from None
        return self[i ^ 2][0] <= self[i][0] and self[i ^ 1][1] <= self[i][1]


def bimatrix(n: int, x: float, tables: GameTables, ff: tuple[float, float]) -> Bimatrix:
    """Assemble the stage bimatrix at (n, x).

    The three stopped cells share one w1_n and one w2_n(x), as
    ``stage_cells`` scores them; (n, x) must be a state where w2 is
    defined, else ``DomainError``.  The (F,F) cell has no closed form at
    this layer and must be supplied by the caller (continuation values
    from the valuation layer).
    """
    big_n, joint = tables.config.horizon, tables.joint
    _check_margin_state(n, x, big_n)
    w1n = tables.w1.item(n - 1)
    w2n = _w2_scalar(big_n - n, float(x), tables.inverses, tables.harmonics)
    return Bimatrix(
        _cell(True, True, joint, w1n, w2n),
        _cell(True, False, joint, w1n, w2n),
        _cell(False, True, joint, w1n, w2n),
        (float(ff[0]), float(ff[1])),
    )
