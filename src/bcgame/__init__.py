"""Solver and simulator for the two-player finite-horizon best-choice game
with asymmetric information: a rank-only observer against an exact-value
observer, with a priority coin resolving simultaneous claims.

The oracle module and its names load on first use: only the verification
suite runs them.
"""

import importlib

from .equilibrium import (
    Bimatrix,
    EquilibriumKind,
    GameTables,
    RegionGrid,
    bimatrix,
    build_game_tables,
    classify_state,
    fs_condition,
    region_map,
    shifted_cutoff,
    tv1,
    w1,
    w2,
)
from .errors import (
    BcgameError,
    DomainError,
    TooLarge,
    UnsupportedPriority,
)
from .models import (
    ProblemConfig,
    RecordState,
    ThresholdVector,
    fullinfo_continue_reward,
    fullinfo_stop_reward,
    fullinfo_threshold,
    fullinfo_thresholds,
    rank_transition,
    record_transition_density,
    secretary_continue_reward,
    secretary_cutoff,
    secretary_stop_reward,
)
from .valuation import (
    SimConfig,
    ValueFunction,
    ValuePair,
    backward_induce,
    continuation,
    game_value,
    simulate,
)

__version__ = "0.1.0"

_ORACLE_NAMES = frozenset(
    {
        "OracleReport",
        "fullinfo_mc_check",
        "game_exhaustive_small",
        "run_verification_suite",
        "secretary_exhaustive",
    }
)


def __getattr__(name: str):
    """``oracle`` and its public names, imported on first access (PEP 562).
    ``import_module``, not ``from . import oracle``: that form looks the
    name up on this package first, which would call this function again."""
    if name == "oracle" or name in _ORACLE_NAMES:
        oracle = importlib.import_module(".oracle", __name__)
        return oracle if name == "oracle" else getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
