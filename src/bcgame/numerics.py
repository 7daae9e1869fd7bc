"""Shared numeric kernel: bracketed root finding by bisection, and the
tolerance it works to.

The routine is pure and deterministic; identical inputs give bit-identical
outputs.  The package needs no general quadrature: the integrals it uses
have closed forms (equilibrium) or are exact sums over polynomial segments
(valuation).
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Callable

from .errors import NoBracket, NoConvergence

_TOL_ENV = "BCGAME_TOL"


@dataclass(frozen=True)
class Tolerance:
    """Absolute error target plus iteration budget for numeric routines."""

    abs_tol: float = 1e-12
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not 0 < self.abs_tol < math.inf:
            raise ValueError(f"abs_tol must be positive and finite, got {self.abs_tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")


def default_tolerance() -> Tolerance:
    """Tolerance used when callers pass none.

    The absolute tolerance may be overridden through the BCGAME_TOL
    environment variable; explicit Tolerance arguments always win.
    """
    raw = os.environ.get(_TOL_ENV)
    if raw is None:
        return Tolerance()
    return Tolerance(abs_tol=float(raw))


def bisect_root(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance | None = None,
) -> float:
    """Root of a monotone function on [lo, hi] by bisection.

    Requires f(lo) and f(hi) of opposite sign (or zero).  Returns a point r
    with the final bracket width at most ``tol.abs_tol``; r always lies in
    [lo, hi].  Raises NoBracket when the endpoints do not straddle a sign
    change and NoConvergence when the iteration budget is exhausted.
    """
    tol = tol or default_tolerance()
    if not lo < hi:
        raise ValueError(f"need lo < hi, got [{lo}, {hi}]")
    flo = f(lo)
    fhi = f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if math.copysign(1.0, flo) == math.copysign(1.0, fhi):
        raise NoBracket(f"f({lo})={flo} and f({hi})={fhi} have the same sign")
    for _ in range(tol.max_iter):
        if hi - lo <= tol.abs_tol:
            return 0.5 * (lo + hi)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:  # interval at floating-point resolution
            return mid
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if math.copysign(1.0, fmid) == math.copysign(1.0, flo):
            lo, flo = mid, fmid
        else:
            hi = mid
    raise NoConvergence(
        f"bisection did not reach width {tol.abs_tol} in {tol.max_iter} iterations"
    )
