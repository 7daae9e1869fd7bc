"""Exception hierarchy shared by all bcgame modules, and the one memory
gate that raises ``TooLarge``: ``refuse_beyond``, which a request whose
arrays would not fit in physical memory meets before anything is
allocated.

The one iterative routine, the threshold solve, stops at floating-point
resolution and cannot miss a tolerance, so there is no convergence error:
only bad arguments, unsupported priorities and sizes."""

import os


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


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


def refuse_beyond(need: float, what: str) -> None:
    """Raise ``TooLarge`` when ``need`` bytes exceed physical memory; an
    unknown figure refuses nothing."""
    have = _physical_memory()
    if have is not None and need > have:
        raise TooLarge(
            f"{what} need {need / 1e9:.1f} GB, "
            f"more than the {have / 1e9:.1f} GB of physical memory"
        )
