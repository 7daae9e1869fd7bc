import functools

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
