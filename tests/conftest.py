import functools
import gc

import pytest

from bcgame.equilibrium import build_game_tables
from bcgame.models import ProblemConfig
from bcgame.valuation import backward_induce


@pytest.fixture(scope="session")
def game_tables():
    """``game_tables(horizon, priority)``: the ``GameTables`` of the game,
    built once a session and shared by every test that only reads it, as
    ``GameTables`` is frozen and its ``w1`` read-only.  ``induced`` reads
    its tables here too, so a session builds and induces each game once.

    The tests that build or induce games of their own:

    - tests that patch a layer the build or the induction runs through:
      test_suite_catches_tampered_thresholds and the ``_never_called`` CLI
      tests; test_tables_evaluate_tv1_only_up_to_the_crossing (``tv1``);
      and, setting the memory figure,
      test_packed_tables_fit_where_padded_ones_did_not,
      test_value_function_refuses_tables_beyond_physical_memory,
      test_one_memory_figure_gates_every_allocation and
      test_value_function_unchecked_without_memory_figure;
    - tests that time or trace memory: test_criterion_5_oracle_equivalence,
      test_criterion_6_dp_mc_consistency,
      test_game_value_memory_is_linear_in_horizon,
      test_simulate_memory_independent_of_horizon and
      test_simulate_scores_stops_in_the_tile;
    - tests of the build itself:
      test_numpy_integer_horizon_builds_the_int_game,
      test_array_holding_types_compare_and_hash_by_identity and
      test_game_tables_derive_every_table_from_the_game;
    - tests that exercise the pair memo on a value function of their own:
      test_pair_memo_interleavings and test_pair_memo_shared_by_two_threads;
    - test_backward_induce_matches_every_segment_carry, which compares
      whole value tables bit for bit at N up to 150, so induces its games
      (from these tables) rather than hold seven N = 150 tables.

    The commands, the verification suite and ``game_exhaustive_small``
    solve their games inside the program; tests that run them cannot
    share those."""

    @functools.cache
    def build(horizon, priority):
        return build_game_tables(ProblemConfig(horizon=horizon, priority=priority))

    return build


class _Inductions:
    """``backward_induce`` of the session's games, keyed by (horizon,
    priority): calling it gives the induction of ``game_tables``' game,
    run once and held until its last reader takes it with ``unheld``.  A
    value function is safe to share for reads: its pair memo is replaced
    whole on each read."""

    def __init__(self, tables):
        self._tables = tables
        self._held = {}
        self._pairs = {}

    def __call__(self, horizon, priority):
        key = horizon, priority
        if key not in self._held:
            self._held[key] = self.unheld(horizon, priority)
        return self._held[key]

    def unheld(self, horizon, priority):
        """The held induction if there is one, which is held no longer,
        else a new one that is not held, for the last reader of a game and
        for grids whose value tables the session cannot hold (the 427
        games of test_valuation's first-stop grid would take about
        450 MB); its pair is kept either way."""
        key = horizon, priority
        got = self._held.pop(key, None) or backward_induce(
            self._tables(horizon, priority)
        )
        self._pairs[key] = got[1]
        return got

    def pair(self, horizon, priority):
        """The game-value pair of the induction, two floats: that of an
        earlier induction, held or not, else of a new one, not held."""
        key = horizon, priority
        if key not in self._pairs:
            self.unheld(horizon, priority)
        return self._pairs[key]


@pytest.fixture(scope="session")
def induced(game_tables):
    """``induced(horizon, priority)``: ``backward_induce`` of the game at
    (horizon, priority), run once a session, for tests that only read it;
    ``induced.unheld`` and ``induced.pair`` serve a grid too large to
    hold (``_Inductions``).  ``game_tables`` names the tests that build
    or induce their own."""
    return _Inductions(game_tables)


@pytest.fixture(autouse=True)
def _unfreeze_the_collector():
    """``cli.main`` freezes the heap it finds (``gc.freeze``) and leaves it
    frozen, as a process's one call should; thaw it after each test, so
    that a test calling ``main`` in process does not keep its own cycles,
    and those of the tests before it, from the collector for the rest of
    the run."""
    yield
    gc.unfreeze()
