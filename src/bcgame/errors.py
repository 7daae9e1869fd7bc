"""Exception hierarchy shared by all bcgame modules.

The one iterative routine, the threshold solve, stops at floating-point
resolution and cannot miss a tolerance, so there is no convergence error:
only bad arguments, unsupported priorities and sizes."""


class BcgameError(Exception):
    """Base class for all bcgame errors."""


class DomainError(BcgameError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class UnsupportedPriority(BcgameError, ValueError):
    """Game-layer operation invoked with priority p > 0.5, where the
    equilibrium classification is not established."""


class TooLarge(BcgameError, ValueError):
    """A problem too large for an operation: a brute-force oracle beyond the
    horizon it is meant for, or, beyond physical memory, the value tables
    of backward induction (``ValueFunction``, an API object: the CLI's
    game values need none), about 8 (N+1)**3 bytes at horizon N, the
    threshold solve, about 64 N bytes, or a region grid of about N / xstep
    cells."""
