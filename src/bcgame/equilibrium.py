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
continuation pair, supplied externally.  ``stage_actions`` (who stops)
and ``stage_cells`` (what a stopped cell pays) hold this rule for p <= 0.5.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum

import numpy as np

from . import models
from .errors import DomainError, UnsupportedPriority
from .models import ProblemConfig, RecordState, ThresholdVector
from .numerics import Tolerance


def w1(n: int, cfg: ProblemConfig) -> float:
    """Rank player's margin of stopping over continuing at candidate n.

    (n/N)(1 - sum_{j=n+1}^{N} 1/(j-1)); negative before the cutoff index,
    nonnegative from it on.
    """
    if not 1 <= n <= cfg.horizon:
        raise DomainError(f"index {n} outside 1..{cfg.horizon}")
    return (n / cfg.horizon) * (1.0 - models._harmonic_suffix(n, cfg.horizon))


def _w2_values(n, xs, horizon: int) -> np.ndarray:
    """Vectorized value-player margin at index n, stable down to x = 0.

    x**d (1 + H_d) - sum_{j=1}^{d} x**(d-j)/j with d = N - n and H_d the
    d-th harmonic number.  The sum has coefficient 1/(d-k) at x**k and is
    taken by Horner's rule in d multiply-adds, with no negative power.
    ``n`` may be an array broadcast against ``xs``: coef[top + m] is 1/m,
    and 0 for m <= 0, so entries of lower degree start later.
    """
    xs = np.asarray(xs, dtype=float)
    d = horizon - np.asarray(n)
    top = int(np.max(d, initial=0))
    coef = np.concatenate((np.zeros(top + 1), 1.0 / np.arange(1, top + 1)))
    acc = np.zeros(np.broadcast_shapes(xs.shape, d.shape))
    for k in range(top - 1, -1, -1):
        acc = acc * xs + coef[top + d - k]
    return xs**d * (1.0 + np.cumsum(coef)[top + d]) - acc


def w2(state: RecordState, cfg: ProblemConfig) -> float:
    """Value player's margin of stopping over continuing at a record.

    Zero exactly at the indifference threshold, negative below it,
    positive above.  x = 0 with n < N is rejected: such states are
    classified through thresholds, never through this margin.
    """
    n, x = state.index, float(state.value)
    if not 1 <= n <= cfg.horizon:
        raise DomainError(f"index {n} outside 1..{cfg.horizon}")
    if x == 0.0 and n < cfg.horizon:
        raise DomainError("w2 is not evaluated at x = 0 before the last stage")
    return float(_w2_values(n, x, cfg.horizon))


@dataclass(frozen=True)
class GameTables:
    """Per-config immutable tables read by every game operation."""

    config: ProblemConfig
    xthresholds: ThresholdVector
    nstar: int
    ntilde: int
    w1: np.ndarray
    tv1: np.ndarray

    def __post_init__(self) -> None:
        self.w1.setflags(write=False)
        self.tv1.setflags(write=False)


def _tv1_given_x_array(
    n: int,
    xs: np.ndarray,
    cfg: ProblemConfig,
    thresholds: ThresholdVector,
    w1_vec: np.ndarray,
) -> np.ndarray:
    big_n = cfg.horizon
    tilt = 2.0 * cfg.priority - 1.0
    ks = np.arange(n + 1, big_n + 1)
    if len(ks) == 0:
        return np.zeros_like(np.asarray(xs, dtype=float))
    xk = thresholds.values[ks - 1]
    wk = w1_vec[ks - 1]
    x_col = np.asarray(xs, dtype=float)[:, None]
    hi = np.maximum(x_col, xk[None, :])
    kernel = x_col ** (ks - n - 1)[None, :]
    cells = kernel * ((hi - x_col) + (1.0 - hi) * tilt) * wk[None, :]
    return cells.sum(axis=1)


def tv1_given_x(n: int, x: float, tables: GameTables) -> float:
    """Rank player's expected one-step payoff after the record (n, x) when
    he stops at the next candidate and faces the (stop if above threshold)
    opponent there: the interval below the threshold pays w1_k alone, the
    interval above pays the simultaneous-claim weight (2p-1) w1_k, both
    under the record-chain kernel x**(k-n-1).  Empty sum at n = N.
    """
    return float(
        _tv1_given_x_array(
            n, np.array([float(x)]), tables.config, tables.xthresholds, tables.w1
        )[0]
    )


def _tv1_value(
    n: int, cfg: ProblemConfig, thresholds: ThresholdVector, w1_vec: np.ndarray
) -> float:
    """tv1 at index n in closed form.

    Term k of tv1_given_x, with e = k - n - 1 and t = 2p - 1, is
    w1_k x**e ((x_k - x) + (1 - x_k) t) below x_k and w1_k x**e (1 - x) t
    above it.  The thresholds strictly decrease, so x_k < x_n, and both
    pieces integrate exactly over [0, x_k] and [x_k, x_n].
    """
    xn = thresholds.x(n)
    if xn <= 0.0:
        return 0.0
    t = 2.0 * cfg.priority - 1.0
    e1 = np.arange(1, cfg.horizon - n + 1, dtype=float)  # e + 1
    xk = thresholds.values[n:]
    below = xk ** (e1 + 1) / (e1 * (e1 + 1)) + t * (1.0 - xk) * xk**e1 / e1
    above = t * ((xn**e1 - xk**e1) / e1 - (xn ** (e1 + 1) - xk ** (e1 + 1)) / (e1 + 1))
    return math.fsum(w1_vec[n:] * (below + above)) / xn


def tv1(n: int, tables: GameTables) -> float:
    """Average of tv1_given_x over the values compatible with the opponent
    continuing, i.e. x uniform on [0, x_n].  Zero at n = N."""
    if not 1 <= n <= tables.config.horizon:
        raise DomainError(f"index {n} outside 1..{tables.config.horizon}")
    return _tv1_value(n, tables.config, tables.xthresholds, tables.w1)


def shifted_cutoff(tables: GameTables) -> int:
    """First index from the rank cutoff on where stopping beats the
    one-step continuation even against a continuing opponent.

    min{n in [nstar, N] : tv1(n) <= w1(n)}; n = N always qualifies.
    """
    big_n = tables.config.horizon
    for n in range(tables.nstar, big_n + 1):
        if tables.tv1[n - 1] <= tables.w1[n - 1]:
            return n
    return big_n


def build_game_tables(cfg: ProblemConfig, tol: Tolerance | None = None) -> GameTables:
    """Compute thresholds, margins, one-step shift values and both cutoffs.

    ``tol`` applies to the threshold root finding; everything else is
    closed form.
    """
    thresholds = models.fullinfo_thresholds(cfg, tol)
    w1_vec = np.array([w1(n, cfg) for n in range(1, cfg.horizon + 1)])
    tv1_vec = np.array(
        [_tv1_value(n, cfg, thresholds, w1_vec) for n in range(1, cfg.horizon + 1)]
    )
    tables = GameTables(
        config=cfg,
        xthresholds=thresholds,
        nstar=models.secretary_cutoff(cfg),
        ntilde=cfg.horizon,  # replaced by shifted_cutoff below
        w1=w1_vec,
        tv1=tv1_vec,
    )
    return replace(tables, ntilde=shifted_cutoff(tables))


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
    nothing overflows at large d or small x.
    """
    if not 0.0 < x < 1.0:
        raise DomainError(f"x must lie in (0, 1), got {x}")
    d = cfg.horizon - n
    if d < 0:
        raise DomainError(f"index {n} beyond horizon {cfg.horizon}")
    p = cfg.priority
    xp = x ** np.arange(0, d + 1, dtype=float)  # xp[i] = x**i
    lhs = 2.0 * p * math.fsum((xp[d - k] - xp[d]) / k for k in range(1, d + 1))
    inner = math.fsum(
        (j / k) * xp[d - k] - xp[d - j] / (k - j) + xp[d] / k
        for k in range(1, d + 1)
        for j in range(1, k)
    )
    rhs = -(1.0 - 2.0 * p) * inner
    return bool(lhs >= rhs)


class EquilibriumKind(Enum):
    """Pure Nash action pair at a record state; first letter is the rank
    player's action, second the value player's (S = stop, F = forgo)."""

    SS = "SS"
    SF = "SF"
    FS = "FS"
    FF = "FF"

    @property
    def action1(self) -> str:
        return self.value[0]

    @property
    def action2(self) -> str:
        return self.value[1]


# kind by (rank player stops, value player stops)
_KIND_OF = (
    (EquilibriumKind.FF, EquilibriumKind.FS),
    (EquilibriumKind.SF, EquilibriumKind.SS),
)


def stage_actions(n, xs, tables: GameTables):
    """Stop flags (rank player, value player) at the record states (n, xs),
    bools or bool arrays (indices 1..N broadcast against the values).

    The value player stops at or above its threshold x_n.  The rank player
    stops from ntilde on, and from nstar on when the value player stops
    too: x >= x_n gives SS from nstar on, FS before it; x < x_n gives SF
    from ntilde on, FF before it.
    """
    p = tables.config.priority
    if p > 0.5:
        raise UnsupportedPriority(
            f"classification established for p <= 0.5 only, got {p}"
        )
    stop2 = xs >= tables.xthresholds.x(n)
    stop1 = (n >= tables.ntilde) | ((n >= tables.nstar) & stop2)
    return stop1, stop2


def stage_cells(n, stop1, stop2, w2s, tables: GameTables) -> np.ndarray:
    """Payoffs s (w1_n, -w2) of stopped cells at index n, stacked on a
    leading player axis, given who stops there (at least one player) and
    the value player's margins ``w2s``: s = 2p - 1 when both stop, +1 when
    only the rank player stops, -1 when only the value player stops."""
    joint = 2.0 * tables.config.priority - 1.0
    s = np.where(stop1, np.where(stop2, joint, 1.0), -1.0)
    return np.stack(np.broadcast_arrays(s * tables.w1[n - 1], -s * w2s))


def classify_state(n: int, x: float, tables: GameTables) -> EquilibriumKind:
    """Pure-equilibrium action pair at record state (n, x) for p <= 0.5.

    Boundaries resolve to the stop side (x = x_n) and to SF (n = ntilde).
    """
    cfg = tables.config
    if not 1 <= n <= cfg.horizon:
        raise DomainError(f"index {n} outside 1..{cfg.horizon}")
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"value must be in [0, 1], got {x}")
    stop1, stop2 = stage_actions(n, x, tables)
    return _KIND_OF[bool(stop1)][bool(stop2)]


@dataclass(frozen=True)
class RegionGrid:
    """Classification of every (index, value) grid point; the data behind
    the strategy-region picture."""

    ns: np.ndarray
    xs: np.ndarray
    kinds: np.ndarray  # shape (len(ns), len(xs)), dtype '<U2'

    def __post_init__(self) -> None:
        self.ns.setflags(write=False)
        self.xs.setflags(write=False)
        self.kinds.setflags(write=False)


def region_map(tables: GameTables, xstep: float) -> RegionGrid:
    """Classify all indices against a uniform value mesh of step ``xstep``."""
    if not 0.0 < xstep <= 0.1:
        raise DomainError(f"xstep must lie in (0, 0.1], got {xstep}")
    big_n = tables.config.horizon
    count = int(math.floor(1.0 / xstep + 1e-9))
    xs = np.array([i * xstep for i in range(count + 1)])
    ns = np.arange(1, big_n + 1)
    stop1, stop2 = stage_actions(ns[:, None], xs[None, :], tables)
    names = np.array([[kind.value for kind in row] for row in _KIND_OF])
    return RegionGrid(ns=ns, xs=xs, kinds=names[stop1.astype(int), stop2.astype(int)])


@dataclass(frozen=True)
class Bimatrix:
    """Stage bimatrix at one record state; each cell is (payoff1, payoff2)
    and rows/columns are indexed by actions (S, F) of players 1 and 2."""

    ss: tuple[float, float]
    sf: tuple[float, float]
    fs: tuple[float, float]
    ff: tuple[float, float]

    def cell(self, action1: str, action2: str) -> tuple[float, float]:
        return {
            ("S", "S"): self.ss,
            ("S", "F"): self.sf,
            ("F", "S"): self.fs,
            ("F", "F"): self.ff,
        }[(action1, action2)]

    def is_pure_nash(self, kind: EquilibriumKind) -> bool:
        """True when neither unilateral deviation improves the deviator."""
        a1, a2 = kind.action1, kind.action2
        here = self.cell(a1, a2)
        dev1 = self.cell("F" if a1 == "S" else "S", a2)
        dev2 = self.cell(a1, "F" if a2 == "S" else "S")
        return dev1[0] <= here[0] and dev2[1] <= here[1]


def bimatrix(n: int, x: float, tables: GameTables, ff: tuple[float, float]) -> Bimatrix:
    """Assemble the stage bimatrix at (n, x).

    The (F,F) cell has no closed form at this layer and must be supplied
    by the caller (continuation values from the valuation layer).
    """
    w2n = w2(RecordState(index=n, value=x), tables.config)
    stop1 = np.array([True, True, False])  # cells (S,S), (S,F), (F,S)
    stop2 = np.array([True, False, True])
    ss, sf, fs = map(tuple, stage_cells(n, stop1, stop2, w2n, tables).T.tolist())
    return Bimatrix(ss=ss, sf=sf, fs=fs, ff=(float(ff[0]), float(ff[1])))
