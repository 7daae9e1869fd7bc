"""Single-agent baselines for the two observers of the best-choice game.

The rank-only observer sees relative ranks of an i.i.d. uniform sequence
(the classical secretary setting); the value observer sees the exact
values (the classical full-information setting).  This module provides
both Markov transition kernels on "record" states, the stop/continue
rewards, the rank-side cutoff index, and the value-side indifference
thresholds.

Conventions: 0**0 = 1 throughout (a record at value 0, or a transition to
the immediately next index, needs no intermediate observation), and the
threshold for zero remaining observations is 0 (a record at the last
stage is always taken).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError
from .numerics import Tolerance, bisect_root, default_tolerance


@dataclass(frozen=True)
class ProblemConfig:
    """Horizon and priority parameter; the root of every computation.

    ``horizon`` is the number of sequentially observed objects.
    ``priority`` is the probability that a simultaneously claimed object
    is assigned to the rank-only player (player 1).
    """

    horizon: int
    priority: float = 0.5

    def __post_init__(self) -> None:
        if self.horizon < 2:
            raise ValueError(f"horizon must be >= 2, got {self.horizon}")
        if not 0.0 <= self.priority <= 1.0:
            raise ValueError(f"priority must be in [0, 1], got {self.priority}")


@dataclass(frozen=True)
class RecordState:
    """A running-maximum observation: index n and its value x.

    Only the value player can see ``value``; for the rank player the state
    carries the fact that the current observation has relative rank 1.
    """

    index: int
    value: float

    def __post_init__(self) -> None:
        if self.index < 1:
            raise ValueError(f"index must be >= 1, got {self.index}")
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"value must be in [0, 1], got {self.value}")


@dataclass(frozen=True)
class ThresholdVector:
    """Indifference thresholds x_1..x_N of the value player, immutable."""

    horizon: int
    values: np.ndarray
    # scalar lookups give Python floats, so per-state comparisons stay cheap
    _floats: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.values.setflags(write=False)
        object.__setattr__(self, "_floats", tuple(self.values.tolist()))

    def x(self, n):
        """Threshold at index n (1-based) as a float; an array of indices
        gives an array."""
        try:
            return self._floats[n - 1]
        except TypeError:  # an array of indices
            return self.values[n - 1]

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


def secretary_stop_reward(n: int, cfg: ProblemConfig) -> float:
    """Probability that a rank-1 object at index n is the overall best."""
    return n / cfg.horizon


def _harmonic_suffix(n: int, horizon: int) -> float:
    """sum_{k=n+1}^{N} 1/(k-1), the rank player's continuation series."""
    return math.fsum(1.0 / (k - 1) for k in range(n + 1, horizon + 1))


def secretary_continue_reward(n: int, cfg: ProblemConfig) -> float:
    """Win probability of passing the candidate at n and taking the next one.

    (n/N) * sum_{k=n+1}^{N} 1/(k-1); the sum is empty at n = N.
    """
    return (n / cfg.horizon) * _harmonic_suffix(n, cfg.horizon)


def secretary_cutoff(cfg: ProblemConfig) -> int:
    """First index at which stopping on a candidate is optimal.

    Smallest n with sum_{k=n+1}^{N} 1/(k-1) <= 1.  For N = 10 this is 4;
    n/N tends to 1/e as N grows.
    """
    acc = 0.0
    for n in range(cfg.horizon - 1, 0, -1):
        acc += 1.0 / n  # suffix sum for index n grows as n decreases
        if acc > 1.0:
            return n + 1
    return 1


def fullinfo_stop_reward(state: RecordState, cfg: ProblemConfig) -> float:
    """Probability that no later value exceeds x: x**(N-n)."""
    return float(state.value) ** (cfg.horizon - state.index)


def fullinfo_continue_reward(state: RecordState, cfg: ProblemConfig) -> float:
    """Win probability of passing the record (n, x) and taking the next record.

    sum_{k=n+1}^{N} x**(k-n-1) (1 - x**(N-k+1)) / (N-k+1): each term is the
    record-chain density to index k integrated against the stop reward
    there.  Empty sum (n = N) gives 0.
    """
    n, x = state.index, float(state.value)
    big_n = cfg.horizon
    return math.fsum(
        x ** (k - n - 1) * (1.0 - x ** (big_n - k + 1)) / (big_n - k + 1)
        for k in range(n + 1, big_n + 1)
    )


def _threshold_residual(x: float, remaining: int) -> float:
    """sum_{k=1}^{d} (x**-k - 1)/k - 1, guarded against overflow near 0."""
    if x <= 0.0:
        return math.inf
    log_x = math.log(x)
    acc = -1.0
    for k in range(1, remaining + 1):
        e = -k * log_x
        if e > 700.0:  # x**-k overflows a double; sign is all that matters
            return math.inf
        acc += (math.exp(e) - 1.0) / k
    return acc


@lru_cache(maxsize=None)
def _threshold_cached(remaining: int, abs_tol: float, max_iter: int) -> float:
    return bisect_root(
        lambda x: _threshold_residual(x, remaining),
        0.0,
        1.0,
        Tolerance(abs_tol=abs_tol, max_iter=max_iter),
    )


def fullinfo_threshold(remaining: int, tol: Tolerance | None = None) -> float:
    """Indifference value with ``remaining`` observations still to come.

    The unique root in (0, 1) of sum_{k=1}^{d} (x**-k - 1)/k = 1 for d >= 1
    (0.5 at d = 1, ~0.689898 at d = 2, increasing toward 1), and 0 at
    d = 0.  Depends only on d, so results are cached.
    """
    if remaining < 0:
        raise DomainError(f"remaining must be >= 0, got {remaining}")
    if remaining == 0:
        return 0.0
    tol = tol or default_tolerance()
    return _threshold_cached(remaining, tol.abs_tol, tol.max_iter)


def fullinfo_thresholds(cfg: ProblemConfig, tol: Tolerance | None = None) -> ThresholdVector:
    """Vector (x_1, ..., x_N) with x_n the threshold for N - n remaining.

    Strictly decreasing in n, reaching 0 at n = N.
    """
    big_n = cfg.horizon
    vals = np.array(
        [fullinfo_threshold(big_n - n, tol) for n in range(1, big_n + 1)]
    )
    return ThresholdVector(horizon=big_n, values=vals)
