import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcgame.equilibrium import (
    Bimatrix,
    _tv1_given_x_array,
    _w2_values,
    EquilibriumKind,
    bimatrix,
    build_game_tables,
    classify_state,
    fs_condition,
    region_map,
    shifted_cutoff,
    tv1,
    tv1_given_x,
    w1,
    w2,
)
from bcgame.errors import DomainError, UnsupportedPriority
from bcgame.models import (
    ProblemConfig,
    RecordState,
    fullinfo_continue_reward,
    fullinfo_stop_reward,
    secretary_continue_reward,
    secretary_stop_reward,
)

TABLE_PRIORITIES = (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5)


@pytest.fixture(scope="module")
def tables10():
    return build_game_tables(ProblemConfig(horizon=10, priority=0.25))


def test_w1_values():
    c = ProblemConfig(horizon=10)
    assert w1(10, c) == 1.0
    w4 = Fraction(4, 10) * (1 - sum(Fraction(1, j - 1) for j in range(5, 11)))
    w3 = Fraction(3, 10) * (1 - sum(Fraction(1, j - 1) for j in range(4, 11)))
    assert w1(4, c) == pytest.approx(float(w4), abs=1e-15)
    assert w1(3, c) == pytest.approx(float(w3), abs=1e-15)
    assert float(w4) == pytest.approx(0.0017460, abs=1e-7)
    assert float(w3) == pytest.approx(-0.0986905, abs=1e-7)


def test_w1_is_stop_minus_continue():
    for big_n in (5, 17, 60):
        c = ProblemConfig(horizon=big_n)
        for n in range(1, big_n + 1):
            margin = secretary_stop_reward(n, c) - secretary_continue_reward(n, c)
            assert abs(w1(n, c) - margin) < 1e-12


def test_w2_values(tables10):
    c = tables10.config
    assert w2(RecordState(10, 0.77), c) == 1.0
    # index N-1 at value 0.5 sits exactly on the one-remaining threshold
    assert w2(RecordState(9, 0.5), c) == pytest.approx(0.0, abs=1e-12)
    assert w2(RecordState(9, 0.6), c) == pytest.approx(0.2, abs=1e-12)
    for n in range(1, 10):
        assert abs(w2(RecordState(n, tables10.xthresholds.x(n)), c)) < 1e-9


def test_w2_is_stop_minus_continue(tables10):
    c = tables10.config
    for n in range(1, 11):
        for x in np.arange(0.05, 0.96, 0.05):
            state = RecordState(n, float(x))
            margin = fullinfo_stop_reward(state, c) - fullinfo_continue_reward(state, c)
            assert abs(w2(state, c) - margin) < 1e-9


def test_w2_rejects_zero_before_last_stage(tables10):
    with pytest.raises(DomainError):
        w2(RecordState(3, 0.0), tables10.config)
    assert w2(RecordState(10, 0.0), tables10.config) == 1.0


def _w2_reference(n, x, horizon):
    """x**d - sum_{j=1}^{d} (x**(d-j) - x**d)/j, summed exactly by fsum."""
    d = horizon - n
    xd = x**d
    return math.fsum([xd] + [-(x ** (d - j) - xd) / j for j in range(1, d + 1)])


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(min_value=2, max_value=400),
    data=st.data(),
)
def test_w2_horner_matches_fsum_reference(horizon, data):
    ns = data.draw(
        st.lists(st.integers(min_value=1, max_value=horizon), min_size=1, max_size=6)
    )
    xs = [0.0, 1e-300, 1.0] + data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5)
    )
    want = np.array([[_w2_reference(n, x, horizon) for x in xs] for n in ns])
    for row, n in enumerate(ns):  # one index, many values (the induction)
        got = _w2_values(n, np.array(xs), horizon)
        assert np.max(np.abs(got - want[row])) <= 1e-12
    # one index per entry (the simulator)
    got = _w2_values(np.array(ns)[:, None], np.array(xs)[None, :], horizon)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_margin_sign_structure(tables10):
    c = tables10.config
    for n in range(1, 11):
        assert (w1(n, c) >= 0) == (n >= tables10.nstar)
        xn = tables10.xthresholds.x(n)
        if n < 10:
            assert w2(RecordState(n, min(xn + 0.01, 1.0)), c) >= 0
            assert w2(RecordState(n, max(xn - 0.01, 0.01)), c) < 0


def test_tv1_given_x_terminal_and_single_term(tables10):
    assert tv1_given_x(10, 0.3, tables10) == 0.0
    # one stage left: kernel power 0, threshold 0, so the whole mass is the
    # simultaneous-claim weight
    p = tables10.config.priority
    for x in (0.1, 0.4):
        want = (1.0 - x) * (2 * p - 1.0)
        assert tv1_given_x(9, x, tables10) == pytest.approx(want, abs=1e-12)


def test_tv1_given_x_half_priority_collapses_tilt():
    t = build_game_tables(ProblemConfig(horizon=8, priority=0.5))
    for n in (4, 6):
        for x in (0.2, 0.5):
            manual = sum(
                x ** (k - n - 1)
                * max(0.0, t.xthresholds.x(k) - x)
                * t.w1[k - 1]
                for k in range(n + 1, 9)
            )
            assert tv1_given_x(n, x, t) == pytest.approx(manual, abs=1e-12)


def test_tv1_terminal(tables10):
    assert tv1(10, tables10) == 0.0
    assert tables10.tv1[-1] == 0.0


def _tv1_by_quadrature(n, tables):
    """Average of tv1_given_x over [0, x_n] by Gauss-Legendre, split at the
    thresholds; the integrand is a polynomial of degree <= N - n between
    them, so ceil((N - n + 1) / 2) nodes per piece are exact."""
    big_n = tables.config.horizon
    xn = tables.xthresholds.x(n)
    if xn <= 0.0:
        return 0.0
    cuts = np.unique(
        np.concatenate(([0.0, xn], tables.xthresholds.values[n:]))
    )
    t, w = np.polynomial.legendre.leggauss((big_n - n) // 2 + 2)
    half = 0.5 * np.diff(cuts)[:, None]
    xs = 0.5 * (cuts[:-1] + cuts[1:])[:, None] + half * t[None, :]
    # the array form behind tv1_given_x
    vals = _tv1_given_x_array(
        n, xs.ravel(), tables.config, tables.xthresholds, tables.w1
    ).reshape(xs.shape)
    return math.fsum((half * vals * w[None, :]).ravel()) / xn


@pytest.mark.parametrize("horizon", [5, 10, 30, 50, 150])
def test_tv1_closed_form_matches_quadrature(horizon):
    for p in (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5):
        tables = build_game_tables(ProblemConfig(horizon=horizon, priority=p))
        ns = range(1, horizon + 1)
        if horizon > 50:  # the ends and the shift; every index takes seconds
            ns = (1, 2, horizon // 2, tables.ntilde - 1, tables.ntilde, horizon)
        for n in ns:
            assert tables.tv1[n - 1] == pytest.approx(
                _tv1_by_quadrature(n, tables), abs=1e-12
            )


def test_tv1_crossing_matches_reference_shift():
    t25 = build_game_tables(ProblemConfig(horizon=10, priority=0.25))
    first = next(n for n in range(t25.nstar, 11) if t25.tv1[n - 1] <= t25.w1[n - 1])
    assert first == 5
    t50 = build_game_tables(ProblemConfig(horizon=10, priority=0.5))
    first = next(n for n in range(t50.nstar, 11) if t50.tv1[n - 1] <= t50.w1[n - 1])
    assert first == 6


@pytest.mark.parametrize(
    "horizon,priority,want",
    [(10, 0.25, 5), (5, 0.1, 3), (5, 0.5, 3), (50, 0.5, 31)],
)
def test_shifted_cutoff_spot_values(horizon, priority, want):
    t = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
    assert shifted_cutoff(t) == want
    assert t.ntilde == want


def test_shifted_cutoff_monotone_in_priority():
    for horizon in (5, 10, 20):
        shifts = [
            build_game_tables(ProblemConfig(horizon=horizon, priority=p)).ntilde
            for p in TABLE_PRIORITIES
        ]
        assert shifts == sorted(shifts)
        nstar = build_game_tables(ProblemConfig(horizon=horizon, priority=0.1)).nstar
        assert all(s >= nstar for s in shifts)


def test_fs_condition_half_priority():
    c = ProblemConfig(horizon=10, priority=0.5)
    assert fs_condition(2, 0.3, c)


def test_fs_condition_near_cutoff():
    c = ProblemConfig(horizon=10, priority=0.25)
    assert fs_condition(3, 0.9, c)


def test_fs_condition_sweep():
    for p in (0.1, 0.25):
        c = ProblemConfig(horizon=10, priority=p)
        for n in range(1, 4):
            for x in np.arange(0.05, 0.951, 0.05):
                assert fs_condition(n, float(x), c)


def test_fs_condition_long_horizon_small_value():
    # x**-d overflowed here before both sides were scaled by x**d
    c = ProblemConfig(horizon=400, priority=0.25)
    assert fs_condition(1, 0.05, c)


def test_fs_condition_domain():
    c = ProblemConfig(horizon=10, priority=0.25)
    with pytest.raises(DomainError):
        fs_condition(3, 0.0, c)
    with pytest.raises(DomainError):
        fs_condition(3, 1.0, c)


def test_classify_examples(tables10):
    assert classify_state(6, 0.9, tables10) is EquilibriumKind.SS
    assert classify_state(3, 0.95, tables10) is EquilibriumKind.FS
    assert classify_state(4, 0.5, tables10) is EquilibriumKind.FF
    assert classify_state(5, 0.5, tables10) is EquilibriumKind.SF


def test_classify_boundaries(tables10):
    # value boundary resolves to the stop side, index boundary to SF
    x6 = tables10.xthresholds.x(6)
    assert classify_state(6, x6, tables10) is EquilibriumKind.SS
    assert classify_state(tables10.ntilde, 0.1, tables10) is EquilibriumKind.SF
    assert classify_state(tables10.ntilde - 1, 0.1, tables10) is EquilibriumKind.FF


def test_classify_guards(tables10):
    with pytest.raises(DomainError):
        classify_state(3, 1.5, tables10)
    with pytest.raises(DomainError):
        classify_state(0, 0.5, tables10)
    hot = build_game_tables(ProblemConfig(horizon=6, priority=0.75))
    with pytest.raises(UnsupportedPriority):
        classify_state(2, 0.5, hot)


def test_game_tables_invariants(tables10):
    assert tables10.nstar <= tables10.ntilde <= 10
    for n in range(1, 11):
        assert (tables10.w1[n - 1] >= 0) == (n >= tables10.nstar)
    with pytest.raises(ValueError):
        tables10.w1[0] = 1.0


def test_region_map_step_validation(tables10):
    with pytest.raises(DomainError):
        region_map(tables10, 0.2)
    with pytest.raises(DomainError):
        region_map(tables10, 0.0)


def test_region_map_rejects_high_priority():
    hot = build_game_tables(ProblemConfig(horizon=5, priority=0.9))
    with pytest.raises(UnsupportedPriority):
        region_map(hot, 0.1)


def test_region_map_two_block_rows(tables10):
    grid = region_map(tables10, 0.02)
    for row in grid.kinds:
        changes = sum(1 for a, b in zip(row[:-1], row[1:]) if a != b)
        assert changes <= 1


def test_region_map_shift_boundary(tables10):
    # below-threshold kinds flip from FF to SF between indices 4 and 5
    grid = region_map(tables10, 0.02)
    assert grid.kinds[3][0] == "FF"
    assert grid.kinds[4][0] == "SF"
    assert all(k == "SS" for k in grid.kinds[9])


def test_region_map_small_horizon_shift_start():
    for p in TABLE_PRIORITIES:
        t = build_game_tables(ProblemConfig(horizon=5, priority=p))
        grid = region_map(t, 0.05)
        below_kinds = [grid.kinds[n - 1][0] for n in range(1, 6)]
        # last index has threshold 0, so its whole row is on the stop side
        assert below_kinds == ["FF", "FF", "SF", "SF", "SS"]


def test_bimatrix_cells_and_nash_check(tables10):
    p = tables10.config.priority
    n, x = 6, 0.9
    w1n = float(tables10.w1[n - 1])
    w2n = w2(RecordState(n, x), tables10.config)
    bm = bimatrix(n, x, tables10, ff=(0.0, 0.0))
    assert bm.ss == ((2 * p - 1) * w1n, (1 - 2 * p) * w2n)
    assert bm.sf == (w1n, -w2n)
    assert bm.fs == (-w1n, w2n)
    assert bm.cell("S", "F") == bm.sf
    # at a stop-stop state both margins are positive, so SS is self-enforcing
    assert bm.is_pure_nash(EquilibriumKind.SS)


def test_bimatrix_hand_example():
    # dilemma-shaped payoffs: mutual forgo is the only self-enforcing pair
    bm = Bimatrix(ss=(3.0, 3.0), sf=(0.0, 5.0), fs=(5.0, 0.0), ff=(1.0, 1.0))
    assert not bm.is_pure_nash(EquilibriumKind.SS)
    assert not bm.is_pure_nash(EquilibriumKind.SF)
    assert not bm.is_pure_nash(EquilibriumKind.FS)
    assert bm.is_pure_nash(EquilibriumKind.FF)


def test_stop_stop_states_always_self_enforcing(tables10):
    # algebraic consequence of the sign structure for p <= 0.5
    for n in range(tables10.nstar, 11):
        xn = tables10.xthresholds.x(n)
        for x in np.linspace(min(xn + 0.01, 0.99), 0.99, 4):
            bm = bimatrix(n, float(x), tables10, ff=(0.0, 0.0))
            assert bm.is_pure_nash(EquilibriumKind.SS)
