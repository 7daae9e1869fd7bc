"""Single-agent baselines for the two observers of the best-choice game.

The rank-only observer sees relative ranks of an i.i.d. uniform sequence
(the classical secretary setting); the value observer sees the exact
values (the classical full-information setting).  This module provides
both Markov transition kernels on "record" states, the stop/continue
rewards, the rank-side cutoff index, and the value-side indifference
thresholds, each solved by a monotone Newton iteration of its own.

Conventions: 0**0 = 1 throughout (a record at value 0, or a transition to
the immediately next index, needs no intermediate observation), and the
threshold for zero remaining observations is 0 (a record at the last
stage is always taken).
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, refuse_beyond


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
        _check_value(self.priority, "priority")


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
    count.  ``DomainError`` for anything but one row of numbers in [0, 1],
    checked by the row's ``min`` and ``max``, so that a NaN lane fails
    too; an empty row is a table.  Compared and hashed by identity."""

    values: np.ndarray
    horizon: int = field(init=False)
    # scalar lookups give Python floats, so per-state comparisons stay cheap
    _floats: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        values = np.array(self.values)
        if values.ndim != 1 or values.dtype.kind not in "fiu" or not (
            0.0 <= values.min(initial=0.0) and values.max(initial=1.0) <= 1.0
        ):
            raise DomainError(f"thresholds must be a row in [0, 1], got {self.values!r}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "horizon", len(values))
        object.__setattr__(self, "_floats", tuple(values.tolist()))

    def x(self, n):
        """Threshold at index n (1-based) as a float; an array of indices
        gives an array.  ``DomainError`` for a scalar that is not an
        integer (``_integer``) and for any index outside 1..N."""
        try:
            if 0 < n <= self.horizon:
                return self._floats[n - 1]  # a tuple takes integer indices only
        except (TypeError, ValueError):
            if not isinstance(n, np.ndarray):
                _integer(n, "index")
            elif n.size == 0 or 0 < n.min() and n.max() <= self.horizon:
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
    gap = _integer(to_index, "index") - state.index - 1
    if gap < 0:
        return 0.0
    return float(state.value) ** gap


def rank_transition(n: int, m: int) -> float:
    """P(next candidate appears at index m | candidate at index n).

    Equals n / (m (m - 1)) for m > n and 0 otherwise; the remaining mass
    n / N is the probability that no further candidate appears, i.e. the
    candidate at n is the overall best.
    """
    if _integer(n, "candidate index") < 1:
        raise DomainError(f"candidate index must be >= 1, got {n}")
    if _integer(m, "index") <= n:
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
    """``DomainError`` for an index that is not an integer (``_integer``)
    or lies outside 1..horizon."""
    if type(n) is not int:  # a plain int, the per-state paths' case, needs no call
        n = _integer(n, "index")
    if not 1 <= n <= horizon:
        raise DomainError(f"index {n} outside 1..{horizon}")


def _check_value(x: float, name: str = "value") -> None:
    """``DomainError`` for a record value, or the real ``name``, outside
    [0, 1], NaN, arrays of one or more dimensions and anything that does
    not compare with numbers included."""
    try:
        inside = 0.0 <= x <= 1.0
    except (TypeError, ValueError):  # no comparison, or an array of several values
        inside = None
    # a Python number compares to a bool, a numpy scalar to a numpy bool and
    # an array to an array
    if inside is True or type(inside) is np.bool_ and inside:
        return
    if not isinstance(inside, (bool, np.bool_)):  # not a number, shown by its repr
        x = repr(x)
    raise DomainError(f"{name} must be in [0, 1], got {x}")


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


#: nodes u_j and weights w_j of the 12-point Gauss-Legendre rule on
#: [0, 1], correctly rounded, so the threshold bits are the same on any host
_NODES = np.array([
    0.009219682876640375, 0.04794137181476257, 0.11504866290284765,
    0.2063410228566913, 0.3160842505009099, 0.43738329574426554,
    0.5626167042557345, 0.6839157494990901, 0.7936589771433087,
    0.8849513370971523, 0.9520586281852375, 0.9907803171233597,
])
_WEIGHTS = np.array([
    0.023587668193255914, 0.05346966299765921, 0.08003916427167311,
    0.10158371336153296, 0.1167462682691774, 0.12457352290670139,
    0.12457352290670139, 0.1167462682691774, 0.10158371336153296,
    0.08003916427167311, 0.05346966299765921, 0.023587668193255914,
])
_LANES = 4096  # lanes a block


def _solve_thresholds(counts: range) -> np.ndarray:
    """x_d for each d in ``counts``, a range of counts >= 1 that starts at
    its largest, by Newton's method in y = 1/x, every d in one lane.

    Lane d solves f_d(y) = int_1^y (t**d - 1)/(t - 1) dt - 1 = 0, which
    is sum_{k=1}^{d} (y**k - 1)/k - 1, from y = 1 + 1/d, where f_d >= 0.
    With h = y - 1 and t = 1 + h u the integral is the 12-point rule's
    sum_j (w_j / u_j) expm1(d log1p(h u_j)), exact up to rounding for
    d <= 24, and the slope f_d'(y) is expm1(d log1p(h)) / h: O(1) a lane
    a sweep.  f_d is increasing and convex, so the iterates fall
    monotonically onto the root; a lane stops when a step no longer
    lowers y, at floating-point resolution.  A lane sums its 12 terms in
    one order and lanes never mix, so lane d has the same bits alone, in
    any block and at any horizon.  The lanes run in blocks of ``_LANES``,
    so the scratch is bounded and the result, eight bytes a lane, grows
    with the count.  A solve whose table at horizon counts[0] + 1, at 64
    bytes a lane, would exceed physical memory is refused with
    ``TooLarge`` before anything is allocated.
    """
    refuse_beyond(64 * counts[0], f"thresholds at horizon {counts[0] + 1}")
    ratios = _WEIGHTS / _NODES
    x = np.empty(len(counts))
    for start in range(0, len(counts), _LANES):
        block = counts[start : start + _LANES]
        d = np.arange(block.start, block.stop, block.step, dtype=float)
        y = 1.0 + 1.0 / d
        live = np.ones(len(d), dtype=bool)
        while live.any():
            h = y - 1.0
            terms = np.expm1(d[:, None] * np.log1p(h[:, None] * _NODES))
            f = (terms * ratios).sum(axis=1) - 1.0
            step = y - f / (np.expm1(d * np.log1p(h)) / h)
            live &= step < y
            y = np.where(live, step, y)
        x[start : start + _LANES] = 1.0 / y
    return x


def fullinfo_threshold(remaining: int) -> float:
    """Indifference value with ``remaining`` observations still to come.

    The unique root in (0, 1) of sum_{k=1}^{d} (x**-k - 1)/k = 1 for d >= 1
    (0.5 at d = 1, ~0.689898 at d = 2, increasing toward 1), and 0 at
    d = 0, to floating-point resolution.  Solves lane d alone, with the
    bits of the same lane in ``fullinfo_thresholds``, and refuses a count
    whose table, at horizon d + 1, would exceed physical memory, as that
    does.  ``DomainError`` for a negative or non-integer count.
    """
    remaining = _integer(remaining, "remaining")
    if remaining < 0:
        raise DomainError(f"remaining must be >= 0, got {remaining}")
    if remaining == 0:
        return 0.0
    return float(_solve_thresholds(range(remaining, remaining + 1))[0])


def fullinfo_thresholds(cfg: ProblemConfig) -> ThresholdVector:
    """Vector (x_1, ..., x_N) with x_n the threshold for N - n remaining.

    Strictly decreasing in n, reaching 0 at n = N.
    """
    vals = np.append(_solve_thresholds(range(cfg.horizon - 1, 0, -1)), 0.0)
    return ThresholdVector(vals)
