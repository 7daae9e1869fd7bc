import math
from fractions import Fraction

import numpy as np
import pytest

from bcgame.equilibrium import build_game_tables
from bcgame.errors import TooLarge
from bcgame.models import ProblemConfig, ThresholdVector, fullinfo_thresholds
from bcgame.oracle import (
    OracleReport,
    fullinfo_mc_check,
    game_exhaustive_small,
    run_verification_suite,
    secretary_exhaustive,
)
from bcgame.valuation import backward_induce


def test_secretary_exhaustive_examples():
    assert secretary_exhaustive(5, 3) == float(Fraction(13, 30))
    assert secretary_exhaustive(5, 3) == 13 / 30
    assert secretary_exhaustive(2, 1) == 0.5
    assert secretary_exhaustive(2, 2) == 0.5


def test_secretary_exhaustive_matches_closed_form():
    for big_n in (4, 5, 6):
        for r in range(2, big_n + 1):
            closed = (r - 1) / big_n * math.fsum(
                1.0 / (k - 1) for k in range(r, big_n + 1)
            )
            assert secretary_exhaustive(big_n, r) == pytest.approx(closed, abs=1e-12)


def test_secretary_exhaustive_cutoff_is_best():
    from bcgame.models import secretary_cutoff

    for big_n in (5, 6, 7):
        cutoff = secretary_cutoff(ProblemConfig(horizon=big_n))
        best = max(secretary_exhaustive(big_n, r) for r in range(1, big_n + 1))
        assert secretary_exhaustive(big_n, cutoff) == best


def test_secretary_exhaustive_guards():
    with pytest.raises(TooLarge):
        secretary_exhaustive(9, 3)
    with pytest.raises(ValueError):
        secretary_exhaustive(5, 0)


def test_fullinfo_check_two_stage_value():
    report = fullinfo_mc_check(2, samples=50_000, seed=21)
    assert report.solver_value == pytest.approx(0.75, abs=1e-12)
    assert report.passed


def test_fullinfo_check_single_object():
    report = fullinfo_mc_check(1, samples=10_000, seed=2)
    assert report.solver_value == 1.0
    assert report.oracle_value == 1.0
    assert report.passed


def test_fullinfo_check_ten_stage():
    report = fullinfo_mc_check(10, samples=100_000, seed=4)
    # classical full-information solo value at this horizon
    assert report.solver_value == pytest.approx(0.608699, abs=1e-6)
    assert report.passed


def test_bent_thresholds_lower_the_rule_value():
    from bcgame.oracle import _rule_value_polys

    base = fullinfo_thresholds(ProblemConfig(horizon=10))
    bent = ThresholdVector(
        horizon=10, values=np.clip(base.values + 0.2, 0.0, 0.999)
    )
    assert _rule_value_polys(10, bent) < _rule_value_polys(10, base) - 1e-3
    # the Monte Carlo check still agrees with the recursion for the bent
    # rule: both sides evaluate the same (suboptimal) rule
    report = fullinfo_mc_check(10, thresholds=bent, samples=100_000, seed=4)
    assert report.passed


def test_game_exhaustive_guards():
    with pytest.raises(TooLarge):
        game_exhaustive_small(4, 0.25)


@pytest.mark.parametrize("priority", [0.0, 0.25, 0.5])
def test_game_exhaustive_matches_induction_two_stage(priority):
    tables = build_game_tables(ProblemConfig(horizon=2, priority=priority))
    _, dp = backward_induce(tables)
    grid = game_exhaustive_small(2, priority)
    assert grid.val1 == pytest.approx(dp.val1, abs=1e-4)
    assert grid.val2 == pytest.approx(dp.val2, abs=1e-4)


def test_game_exhaustive_matches_induction_three_stage():
    tables = build_game_tables(ProblemConfig(horizon=3, priority=0.25))
    _, dp = backward_induce(tables)
    grid = game_exhaustive_small(3, 0.25)
    assert grid.val1 == pytest.approx(dp.val1, abs=1e-3)
    assert grid.val2 == pytest.approx(dp.val2, abs=1e-3)


def test_game_exhaustive_priority_probe():
    low = game_exhaustive_small(2, 0.0)
    high = game_exhaustive_small(2, 0.5)
    assert low.val2 >= high.val2


def test_report_consistency():
    r = OracleReport.compare("x", 1.0, 1.0 + 5e-13, 1e-12, "m")
    assert r.passed and r.abs_diff <= r.tolerance
    r2 = OracleReport.compare("x", 1.0, 2.0, 1e-12, "m")
    assert not r2.passed


def test_suite_passes_and_is_large_enough():
    reports = run_verification_suite(samples=60_000, seed=42)
    assert len(reports) >= 10
    failed = [r.quantity for r in reports if not r.passed]
    assert failed == []


def test_suite_catches_tampered_thresholds():
    def bend(values):
        values[4] = min(values[4] + 0.05, 0.999)
        return values

    reports = run_verification_suite(
        samples=60_000, seed=42, tamper_thresholds=bend
    )
    assert any(not r.passed for r in reports)
