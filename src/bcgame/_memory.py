"""Up-front size checks: a request whose arrays would not fit in physical
memory is refused with ``TooLarge`` before anything is allocated."""

from __future__ import annotations

import os

from .errors import TooLarge


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        total = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None
    return total if total > 0 else None


def refuse_beyond(need: float, have: int | None, what: str) -> None:
    """Raise ``TooLarge`` when ``need`` bytes exceed ``have``, the physical
    memory; an unknown figure (None) refuses nothing."""
    if have is not None and need > have:
        raise TooLarge(
            f"{what} need {need / 1e9:.1f} GB, "
            f"more than the {have / 1e9:.1f} GB of physical memory"
        )
