import functools
import gc

import pytest

from bcgame.equilibrium import build_game_tables
from bcgame.models import ProblemConfig
from bcgame.valuation import backward_induce


@pytest.fixture(scope="session")
def induced():
    """``backward_induce`` of the game at (horizon, priority), built once a
    session, for tests that only read it.  Tests that exercise the pair
    memo, or change a value function, build their own."""

    @functools.cache
    def induce(horizon, priority):
        return backward_induce(
            build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
        )

    return induce


@pytest.fixture(autouse=True)
def _unfreeze_the_collector():
    """``cli.main`` freezes the heap it finds (``gc.freeze``) and leaves it
    frozen, as a process's one call should; thaw it after each test, so
    that a test calling ``main`` in process does not keep its own cycles,
    and those of the tests before it, from the collector for the rest of
    the run."""
    yield
    gc.unfreeze()
