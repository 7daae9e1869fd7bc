"""Exception hierarchy shared by all bcgame modules."""


class BcgameError(Exception):
    """Base class for all bcgame errors."""


class NoBracket(BcgameError):
    """Root finder was given an interval whose endpoints do not bracket a sign change."""


class NoConvergence(BcgameError):
    """An iterative numeric routine exceeded its iteration budget."""


class DomainError(BcgameError, ValueError):
    """An argument lies outside the domain an operation is defined on."""


class UnsupportedPriority(BcgameError, ValueError):
    """Game-layer operation invoked with priority p > 0.5, where the
    equilibrium classification is not established."""


class TooLarge(BcgameError, ValueError):
    """A problem too large for an operation: a brute-force oracle beyond the
    horizon it is meant for, or the value tables of backward induction,
    16 (N+1)**3 bytes at horizon N, beyond physical memory."""
