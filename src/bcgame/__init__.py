"""Solver and simulator for the two-player finite-horizon best-choice game
with asymmetric information: a rank-only observer against an exact-value
observer, with a priority coin resolving simultaneous claims."""

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
from .oracle import (
    OracleReport,
    fullinfo_mc_check,
    game_exhaustive_small,
    run_verification_suite,
    secretary_exhaustive,
)
from .valuation import (
    SimConfig,
    ValueFunction,
    ValuePair,
    backward_induce,
    continuation,
    simulate,
)

__version__ = "0.1.0"
