"""Single-agent baselines for the two observers of the best-choice game.

The rank-only observer sees relative ranks of an i.i.d. uniform sequence
(the classical secretary setting); the value observer sees the exact
values (the classical full-information setting).  This module provides
both Markov transition kernels on "record" states, the stop/continue
rewards, the rank-side cutoff index, and the value-side indifference
thresholds, all solved at once by one monotone Newton iteration.

Conventions: 0**0 = 1 throughout (a record at value 0, or a transition to
the immediately next index, needs no intermediate observation), and the
threshold for zero remaining observations is 0 (a record at the last
stage is always taken).
"""

from __future__ import annotations

import math
import operator
import threading
from dataclasses import dataclass, field

import numpy as np

from ._memory import _physical_memory, refuse_beyond
from .errors import DomainError


@dataclass(frozen=True)
class ProblemConfig:
    """Horizon and priority parameter; the root of every computation.

    ``horizon`` is the number of sequentially observed objects, an
    integer, stored as a plain ``int`` (``_integer``).
    ``priority`` is the probability that a simultaneously claimed object
    is assigned to the rank-only player (player 1).
    """

    horizon: int
    priority: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "horizon", _integer(self.horizon, "horizon"))
        if self.horizon < 2:
            raise DomainError(f"horizon must be >= 2, got {self.horizon}")
        if not 0.0 <= self.priority <= 1.0:
            raise DomainError(f"priority must be in [0, 1], got {self.priority}")


@dataclass(frozen=True)
class RecordState:
    """A running-maximum observation: index n and its value x.

    Only the value player can see ``value``; for the rank player the state
    carries the fact that the current observation has relative rank 1.
    """

    index: int
    value: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "index", _integer(self.index, "index"))
        if self.index < 1:
            raise DomainError(f"index must be >= 1, got {self.index}")
        _check_value(self.value)


@dataclass(frozen=True, eq=False)
class ThresholdVector:
    """Indifference thresholds x_1..x_N of the value player, immutable: it
    holds a read-only copy of ``values``, and its horizon N is their
    count.  Compared and hashed by identity."""

    values: np.ndarray
    horizon: int = field(init=False)
    # scalar lookups give Python floats, so per-state comparisons stay cheap
    _floats: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.array(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "horizon", len(values))
        object.__setattr__(self, "_floats", tuple(values.tolist()))

    def x(self, n):
        """Threshold at index n (1-based) as a float; an array of indices
        gives an array.  ``DomainError`` for any index outside 1..N."""
        try:
            if 0 < n <= self.horizon:
                return self._floats[n - 1]
        except (TypeError, ValueError):  # an array of indices
            if n.size == 0 or 0 < n.min() and n.max() <= self.horizon:
                return self.values[n - 1]
        raise DomainError(f"index {n} outside 1..{self.horizon}")

    def __len__(self) -> int:
        return self.horizon


def record_transition_density(state: RecordState, to_index: int) -> float:
    """Density factor of the record chain between consecutive records.

    P(next record at (m, dy)) = x**(m-n-1) dy for y in (x, 1], m > n.
    Returns 0 for m <= n.  The remaining mass x**(N-n) is absorption:
    no further record before the horizon.
    """
    gap = to_index - state.index - 1
    if gap < 0:
        return 0.0
    return float(state.value) ** gap


def rank_transition(n: int, m: int) -> float:
    """P(next candidate appears at index m | candidate at index n).

    Equals n / (m (m - 1)) for m > n and 0 otherwise; the remaining mass
    n / N is the probability that no further candidate appears, i.e. the
    candidate at n is the overall best.
    """
    if n < 1:
        raise DomainError(f"candidate index must be >= 1, got {n}")
    if m <= n:
        return 0.0
    return n / (m * (m - 1))


def _integer(value, name: str) -> int:
    """``value`` as a plain ``int``, by ``operator.index``, so numpy integers
    pass and come out as Python ints; ``DomainError`` for anything that is
    not an integer, an integral float such as 10.0 included."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value}") from None


def _check_index(n: int, horizon: int) -> None:
    """``DomainError`` for an index outside 1..horizon."""
    if not 1 <= n <= horizon:
        raise DomainError(f"index {n} outside 1..{horizon}")


def _check_value(x: float) -> None:
    """``DomainError`` for a record value outside [0, 1], NaN included."""
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"value must be in [0, 1], got {x}")


def secretary_stop_reward(n: int, cfg: ProblemConfig) -> float:
    """Probability that a rank-1 object at index n is the overall best."""
    _check_index(n, cfg.horizon)
    return n / cfg.horizon


def _harmonic_suffix(n: int, horizon: int) -> float:
    """sum_{k=n+1}^{N} 1/(k-1), the rank player's continuation series."""
    return math.fsum(1.0 / (k - 1) for k in range(n + 1, horizon + 1))


def secretary_continue_reward(n: int, cfg: ProblemConfig) -> float:
    """Win probability of passing the candidate at n and taking the next one.

    (n/N) * sum_{k=n+1}^{N} 1/(k-1); the sum is empty at n = N.
    """
    _check_index(n, cfg.horizon)
    return (n / cfg.horizon) * _harmonic_suffix(n, cfg.horizon)


def _rank_suffixes(horizon: int):
    """S_n = sum_{k=n+1}^{N} 1/(k-1) for n = N, N-1, .., 1, each the
    correctly rounded sum of the float terms 1.0/j, the bits ``math.fsum``
    of those terms gives.  The terms are summed exactly, as an integer in
    units of 2**-scale, of which every 1.0/j with j < N is a whole number;
    only the conversion of each suffix back to a float rounds."""
    scale = 54 + horizon.bit_length()  # 1/j >= 2**-bit_length, 53 bits each
    exact = 0
    yield 0.0
    for j in range(horizon - 1, 0, -1):
        exact += int(math.ldexp(1.0 / j, scale))
        yield math.ldexp(float(exact), -scale)


def secretary_cutoff(cfg: ProblemConfig) -> int:
    """First index at which stopping on a candidate is optimal.

    Smallest n whose correctly rounded suffix sum_{k=n+1}^{N} 1/(k-1)
    (``_rank_suffixes``) is <= 1, which is where ``w1`` turns
    nonnegative.  For N = 10 this is 4; n/N tends to 1/e as N grows.
    """
    for n, suffix in zip(range(cfg.horizon, 0, -1), _rank_suffixes(cfg.horizon)):
        if suffix > 1.0:
            return n + 1
    return 1


def fullinfo_stop_reward(state: RecordState, cfg: ProblemConfig) -> float:
    """Probability that no later value exceeds x: x**(N-n)."""
    _check_index(state.index, cfg.horizon)
    return float(state.value) ** (cfg.horizon - state.index)


def fullinfo_continue_reward(state: RecordState, cfg: ProblemConfig) -> float:
    """Win probability of passing the record (n, x) and taking the next record.

    sum_{k=n+1}^{N} x**(k-n-1) (1 - x**(N-k+1)) / (N-k+1): each term is the
    record-chain density to index k integrated against the stop reward
    there.  Empty sum (n = N) gives 0.
    """
    n, x = state.index, float(state.value)
    big_n = cfg.horizon
    _check_index(n, big_n)
    return math.fsum(
        x ** (k - n - 1) * (1.0 - x ** (big_n - k + 1)) / (big_n - k + 1)
        for k in range(n + 1, big_n + 1)
    )


def _solve_thresholds(count: int) -> np.ndarray:
    """x_1..x_count by Newton's method in y = 1/x, every d in one lane.

    Lane d solves f_d(y) = sum_{k=1}^{d} (y**k - 1)/k - 1 = 0 from
    y = 1 + 1/d, where f_d >= 0 (0 at d = 1, at least 0.125 for d >= 2).
    f_d is increasing and convex, so the iterates fall monotonically onto
    the root and y**k stays below e; a lane stops when a step no longer
    lowers y, at floating-point resolution.  Lanes never mix, so lane d
    gives the same bits for every ``count`` >= d.  Each sweep runs k over
    the lanes d >= k, a suffix: O(count**2) flops and O(count) memory, at
    most eight doubles a lane: y, f, the slope, the power and the step,
    two temporaries, and the result (58 bytes by tracemalloc).
    """
    y = 1.0 + 1.0 / np.arange(1, count + 1)
    live = np.ones(count, dtype=bool)
    while live.any():
        f = np.full(count, -1.0)
        slope = np.zeros(count)
        power = np.ones(count)  # y**(k-1)
        for k in range(1, count + 1):
            lanes = slice(k - 1, None)  # d >= k
            slope[lanes] += power[lanes]
            power[lanes] *= y[lanes]
            f[lanes] += (power[lanes] - 1.0) / k
        step = y - f / slope
        live &= step < y
        y = np.where(live, step, y)
    return 1.0 / y


#: x_1, x_2, ... for as many remaining counts as any call has needed
_solved = np.zeros(0)
_storing = threading.Lock()


def _thresholds_upto(count: int) -> np.ndarray:
    """x_d for d = 1..count, solved once: a longer request re-solves every
    lane and keeps the result unless another thread stored a longer one
    meanwhile, a shorter one takes a prefix.  A solve whose arrays would
    exceed physical memory is refused with ``TooLarge`` before any is
    allocated."""
    global _solved
    solved = _solved  # read once: another thread may replace it meanwhile
    if len(solved) < count:
        refuse_beyond(
            64 * count, _physical_memory(), f"thresholds at horizon {count + 1}"
        )
        solved = _solve_thresholds(count)
        with _storing:
            if len(solved) > len(_solved):
                _solved = solved
    return solved[:count]


def fullinfo_threshold(remaining: int) -> float:
    """Indifference value with ``remaining`` observations still to come.

    The unique root in (0, 1) of sum_{k=1}^{d} (x**-k - 1)/k = 1 for d >= 1
    (0.5 at d = 1, ~0.689898 at d = 2, increasing toward 1), and 0 at
    d = 0, to floating-point resolution.  Depends only on d, so results
    are cached.  ``DomainError`` for a negative or non-integer count.
    """
    remaining = _integer(remaining, "remaining")
    if remaining < 0:
        raise DomainError(f"remaining must be >= 0, got {remaining}")
    if remaining == 0:
        return 0.0
    return float(_thresholds_upto(remaining)[remaining - 1])


def fullinfo_thresholds(cfg: ProblemConfig) -> ThresholdVector:
    """Vector (x_1, ..., x_N) with x_n the threshold for N - n remaining.

    Strictly decreasing in n, reaching 0 at n = N.
    """
    vals = np.append(_thresholds_upto(cfg.horizon - 1)[::-1], 0.0)
    return ThresholdVector(vals)
