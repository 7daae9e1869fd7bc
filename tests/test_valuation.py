import math
import os
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.legendre import legval

from bcgame import valuation
from bcgame._rng import batch_generator
from bcgame.equilibrium import (
    EquilibriumKind,
    _w2_values,
    build_game_tables,
    classify_state,
    stage_actions,
    stage_cells,
)
from bcgame.errors import DomainError, TooLarge, UnsupportedPriority
from bcgame.models import ProblemConfig
from bcgame.valuation import (
    SimConfig,
    ValueFunction,
    ValuePair,
    backward_induce,
    continuation,
    simulate,
)


@pytest.fixture(scope="module")
def game10():
    tables = build_game_tables(ProblemConfig(horizon=10, priority=0.25))
    vf, pair = backward_induce(tables)
    return tables, vf, pair


def test_value_pair_finite():
    with pytest.raises(ValueError):
        ValuePair(val1=float("nan"), val2=0.0)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        SimConfig(samples=0)


def test_terminal_stage_matches_cell(game10):
    tables, vf, _ = game10
    p = tables.config.priority
    for x in np.linspace(0.0, 1.0, 7):
        assert vf.value_at(10, float(x), 1) == pytest.approx(2 * p - 1, abs=1e-12)
        assert vf.value_at(10, float(x), 2) == pytest.approx(1 - 2 * p, abs=1e-12)


def test_continuation_edges(game10):
    tables, vf, _ = game10
    assert continuation(10, 0.4, vf, 1) == 0.0
    assert continuation(3, 1.0, vf, 2) == 0.0


def test_continuation_mass_probe(game10):
    # with V identically 1 the kernel mass identity gives 1 - x**(N-n); V = 1
    # is the coefficient vector [1, 0, ...] on every segment
    tables, _, _ = game10
    vf = ValueFunction(tables)
    for n in range(10, 0, -1):
        ones = np.zeros((2, vf.n_segments, 10 - n + 1))
        ones[..., 0] = 1.0
        vf.finalize_stage(n, ones)
    for n in (1, 4, 9):
        for x in (0.0, 0.3, 0.8):
            want = 1.0 - x ** (10 - n)
            assert continuation(n, x, vf, 1) == pytest.approx(want, abs=1e-12)


def test_backward_induce_two_stage_closed_form():
    # N=2: player 1's margin at index 1 is 0; player 2 collects |2x-1|-shaped
    # margins, scaled on the stop side by the simultaneous-claim weight:
    # val2 = 1/4 + (1-2p)/4
    for p in (0.0, 0.25, 0.5):
        tables = build_game_tables(ProblemConfig(horizon=2, priority=p))
        _, pair = backward_induce(tables)
        assert pair.val1 == pytest.approx(0.0, abs=1e-12)
        assert pair.val2 == pytest.approx(0.25 + (1 - 2 * p) / 4, abs=1e-12)


def test_backward_induce_rejects_high_priority():
    tables = build_game_tables(ProblemConfig(horizon=5, priority=0.7))
    with pytest.raises(UnsupportedPriority):
        backward_induce(tables)


def test_value_monotone_in_priority():
    vals = []
    for p in (0.1, 0.25, math.exp(-1), 0.5):
        tables = build_game_tables(ProblemConfig(horizon=10, priority=p))
        _, pair = backward_induce(tables)
        vals.append(pair)
    assert all(a.val1 <= b.val1 for a, b in zip(vals, vals[1:]))
    assert all(a.val2 >= b.val2 for a, b in zip(vals, vals[1:]))


def test_forgo_states_are_bellman_consistent(game10):
    tables, vf, _ = game10
    for n in range(1, 10):
        for x in (0.05, 0.2, 0.4):
            if classify_state(n, x, tables) is not EquilibriumKind.FF:
                continue
            for player in (1, 2):
                assert vf.value_at(n, x, player) == pytest.approx(
                    continuation(n, x, vf, player), abs=1e-10
                )


def test_stage_values_continuous_at_interior_nodes(game10):
    # piecewise representation evaluates consistently across segment joins
    tables, vf, _ = game10
    for n in (2, 6):
        for b in vf.breaks[1:-1]:
            left = continuation(n, float(b) - 1e-12, vf, 1)
            right = continuation(n, float(b), vf, 1)
            assert left == pytest.approx(right, abs=1e-9)


def _upper_integral_by_quadrature(vf, k, x, player):
    """int_x^1 V_player(k, y) dy from value_at, by Gauss-Legendre on each
    piece between x and the breakpoints above it; exact for the piecewise
    polynomials of degree <= N - k."""
    cuts = np.unique(np.concatenate(([x], vf.breaks[vf.breaks > x])))
    t, w = np.polynomial.legendre.leggauss(vf.tables.config.horizon // 2 + 2)
    total = 0.0
    for a, b in zip(cuts[:-1], cuts[1:]):
        half, mid = 0.5 * (b - a), 0.5 * (a + b)
        total += half * sum(
            wi * vf.value_at(k, float(mid + half * ti), player) for ti, wi in zip(t, w)
        )
    return total


@pytest.mark.parametrize("horizon,priority", [(6, 0.1), (10, 0.25), (8, 0.5)])
def test_continuation_matches_kernel_sum(horizon, priority):
    # C(n, x) = sum_{k>n} x**(k-n-1) int_x^1 V(k, y) dy, on and off breakpoints
    tables = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
    vf, _ = backward_induce(tables)
    xs = [float(b) for b in vf.breaks[:-1]] + [0.13, 0.58, 0.91]
    for n in range(1, horizon, 3):
        for x in xs:
            for player in (1, 2):
                want = sum(
                    x ** (k - n - 1) * _upper_integral_by_quadrature(vf, k, x, player)
                    for k in range(n + 1, horizon + 1)
                )
                assert continuation(n, x, vf, player) == pytest.approx(want, abs=1e-12)


def test_continuation_rejects_state_outside_domain(game10):
    _, vf, _ = game10
    for n, x in ((-1, 0.5), (11, 0.5), (3, -0.5), (3, 1.5)):
        with pytest.raises(DomainError):
            continuation(n, x, vf, 1)


def test_value_at_and_stage_average_validate_player_and_index(game10):
    _, vf, _ = game10
    for player in (0, 3, -1):
        with pytest.raises(DomainError):
            vf.value_at(3, 0.2, player)
        with pytest.raises(DomainError):
            vf.stage_average(1, player)
        with pytest.raises(DomainError):
            continuation(3, 0.2, vf, player)
    for n in (-1, 0, 11):
        with pytest.raises(DomainError):
            vf.stage_average(n, 1)
        with pytest.raises(DomainError):
            vf.value_at(n, 0.2, 1)


def test_table_cost_model_matches_allocation(game10):
    tables, vf, _ = game10
    # x_N = 0 is a break, so N thresholds and 1 give N segments
    assert vf.n_segments == tables.config.horizon
    allocated = vf.cont.nbytes + vf.averages.nbytes
    assert valuation._table_bytes(10, vf.n_segments) == allocated == 16 * 11 * 111
    # the tables are all the arrays it holds besides its breakpoints
    arrays = [v for v in vars(vf).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == allocated + vf.breaks.nbytes
    assert valuation._table_bytes(400, 400) == pytest.approx(1.03e9, rel=0.01)
    assert valuation._table_bytes(1000, 1000) == pytest.approx(16e9, rel=0.01)


def test_value_function_refuses_tables_beyond_physical_memory(monkeypatch):
    # 1.1 MB of tables at N = 40 against 1 MiB of memory; the refusal comes
    # before any table is allocated, so the refused call allocates less
    # than a tenth of them
    tables = build_game_tables(ProblemConfig(horizon=40, priority=0.25))
    need = valuation._table_bytes(40, 40)
    assert need > 1 << 20
    monkeypatch.setattr(valuation, "_physical_memory", lambda: 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="physical memory"):
            backward_induce(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need / 10


def test_value_function_unchecked_without_memory_figure(monkeypatch):
    monkeypatch.delattr(os, "sysconf", raising=False)
    assert valuation._physical_memory() is None
    tables = build_game_tables(ProblemConfig(horizon=5, priority=0.25))
    _, pair = backward_induce(tables)
    assert math.isfinite(pair.val1)


PARITY_PRIORITIES = (0.0, 0.1, 0.25, 1 / 3, math.exp(-1), 0.5)


def _legval_reference(vf, n, x, player):
    """C_player(n, x) by numpy's ``legval`` on the stored coefficients of
    the segment that ``searchsorted(side="right")`` finds."""
    if x >= 1.0:
        return 0.0
    s = int(np.searchsorted(vf.breaks, x, side="right")) - 1
    s = min(max(s, 0), vf.n_segments - 1)
    lo, hi = vf.breaks[s], vf.breaks[s + 1]
    t = (x - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
    top = vf.tables.config.horizon - n
    return float(legval(t, vf.cont[player - 1, n, s, : top + 1]))


def _stage_cells_reference(n, stop1, stop2, w2s, tables):
    joint = 2.0 * tables.config.priority - 1.0
    s = np.where(stop1, np.where(stop2, joint, 1.0), -1.0)
    return np.stack(np.broadcast_arrays(s * tables.w1[n - 1], -s * w2s))


def _check_point_queries(vf, n, x):
    """``continuation`` is a Python float within 1e-15 of ``legval`` on the
    stored coefficients; from n = 1 on, ``value_at`` is that continuation
    at forgo-forgo states and the array stage cell elsewhere.  Returns the
    state's kind, or None at n = 0."""
    tables = vf.tables
    for player in (1, 2):
        got = continuation(n, x, vf, player)
        assert type(got) is float
        want = _legval_reference(vf, n, x, player)
        assert abs(got - want) <= 1e-15, (tables.config, n, x, player)
    if n == 0:
        return None
    kind = classify_state(n, x, tables)
    stop1, stop2 = kind.action1 == "S", kind.action2 == "S"
    w2n = _w2_values(n, x, tables.config.horizon)
    for player in (1, 2):
        got = vf.value_at(n, x, player)
        assert type(got) is float
        if kind is EquilibriumKind.FF:
            want = continuation(n, x, vf, player)
        else:
            want = float(_stage_cells_reference(n, stop1, stop2, w2n, tables)[player - 1])
        assert got == want, (tables.config, n, x, player)
    return kind


def _parity_values(vf, seed, interior=0):
    """Every breakpoint, 0, 1, 1e-300, 50 uniform values and ``interior``
    evenly spaced interior points of every segment."""
    rng = np.random.default_rng(seed)
    xs = vf.breaks.tolist() + [0.0, 1.0, 1e-300] + rng.random(50).tolist()
    lo, hi = vf.breaks[:-1], vf.breaks[1:]
    for j in range(1, interior + 1):
        xs += (lo + (hi - lo) * (j / (interior + 1))).tolist()
    return xs


# the longer horizons run at fewer priorities; segments do not depend on p
@pytest.mark.parametrize(
    "horizon,priorities,interior",
    [
        (2, PARITY_PRIORITIES, 3),
        (5, PARITY_PRIORITIES, 3),
        (10, PARITY_PRIORITIES, 3),
        (30, (0.0, 1 / 3, 0.5), 3),
        (60, (0.1, 0.25), 3),
        (150, (math.exp(-1),), 9),
    ],
)
def test_scalar_read_path_matches_array_path(horizon, priorities, interior):
    # continuation's Clenshaw loop in Python floats against numpy's legval,
    # and value_at against the array stage cells, at stage 0, 1, N/2, N - 1
    # and N
    stages = sorted({0, 1, horizon // 2, horizon - 1, horizon})
    for priority in priorities:
        tables = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
        vf, _ = backward_induce(tables)
        kinds = set()
        for x in _parity_values(vf, seed=horizon, interior=interior):
            for n in stages:
                kinds.add(_check_point_queries(vf, n, x))
        # stopped cells ran, and forgo-forgo ones wherever the game has them
        assert kinds - {EquilibriumKind.FF, None}
        assert EquilibriumKind.FF in kinds or horizon < 5


@given(
    horizon=st.integers(2, 60),
    priority=st.floats(0.0, 0.5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_point_queries_match_legval_property(horizon, priority, data):
    tables = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
    vf, _ = backward_induce(tables)
    states = st.tuples(st.integers(0, horizon), st.floats(0.0, 1.0))
    for n, x in data.draw(st.lists(states, min_size=1, max_size=20)):
        _check_point_queries(vf, n, x)


def test_simulate_deterministic(game10):
    tables, _, _ = game10
    cfg = tables.config
    sim = SimConfig(samples=30_000, seed=11)
    a = simulate(cfg, tables, sim)
    b = simulate(cfg, tables, sim)
    assert a[0].as_tuple() == b[0].as_tuple()
    assert a[1] == b[1]


def test_simulate_single_path_reproducible(game10):
    tables, _, _ = game10
    cfg = tables.config
    one = simulate(cfg, tables, SimConfig(samples=1, seed=5))
    two = simulate(cfg, tables, SimConfig(samples=1, seed=5))
    assert one[0] == two[0]
    assert one[1] == (0.0, 0.0)


def test_simulate_agrees_with_induction(game10):
    tables, _, pair = game10
    cfg = tables.config
    mc, se = simulate(cfg, tables, SimConfig(samples=200_000, seed=77))
    assert abs(mc.val1 - pair.val1) <= 3 * se[0]
    assert abs(mc.val2 - pair.val2) <= 3 * se[1]


@pytest.mark.parametrize("priority", [0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5])
@pytest.mark.parametrize("horizon", [5, 20])
def test_simulate_agrees_across_grid(horizon, priority):
    tables = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
    _, pair = backward_induce(tables)
    mc, se = simulate(tables.config, tables, SimConfig(samples=100_000, seed=31))
    assert abs(mc.val1 - pair.val1) <= 3 * max(se[0], 1e-12)
    assert abs(mc.val2 - pair.val2) <= 3 * max(se[1], 1e-12)


def test_simulate_two_stage_matches_hand_value():
    tables = build_game_tables(ProblemConfig(horizon=2, priority=0.5))
    cfg = tables.config
    mc, se = simulate(cfg, tables, SimConfig(samples=200_000, seed=13))
    assert abs(mc.val1 - 0.0) <= max(3 * se[0], 1e-12)
    assert abs(mc.val2 - 0.25) <= 3 * se[1]


def test_simulate_rejects_high_priority():
    tables = build_game_tables(ProblemConfig(horizon=5, priority=0.8))
    with pytest.raises(UnsupportedPriority):
        simulate(tables.config, tables, SimConfig(samples=10, seed=1))


def _serial_simulate(cfg, tables, sim):
    """Reference: the one-thread loop that draws each batch in one piece."""
    big_n = cfg.horizon
    p = cfg.priority
    sums = np.zeros(2)
    sq_sums = np.zeros(2)
    remaining = sim.samples
    batch_index = 0
    while remaining > 0:
        nb = min(valuation._BATCH, remaining)
        rng = batch_generator(sim.seed, batch_index)
        u = rng.random((nb, big_n + 1))
        x = u[:, :big_n]
        coin = u[:, big_n]
        running_max = np.maximum.accumulate(x, axis=1)
        is_record = np.empty((nb, big_n), dtype=bool)
        is_record[:, 0] = True
        is_record[:, 1:] = x[:, 1:] > running_max[:, :-1]
        stop1, stop2 = stage_actions(np.arange(1, big_n + 1), x, tables)
        stops = (stop1 | stop2) & is_record
        rows = np.flatnonzero(stops.any(axis=1))
        j = np.argmax(stops[rows], axis=1)
        s1, s2 = stop1[rows, j], stop2[rows, j]
        both = s1 & s2
        wins = coin[rows][both] < p
        s1[both], s2[both] = wins, ~wins
        pay = np.zeros((nb, 2))
        w2s = _w2_values(j + 1, x[rows, j], big_n)
        pay[rows] = stage_cells(j + 1, s1, s2, w2s, tables).T
        sums += pay.sum(axis=0)
        sq_sums += (pay**2).sum(axis=0)
        remaining -= nb
        batch_index += 1
    count = sim.samples
    means = sums / count
    if count > 1:
        var = np.maximum(sq_sums - count * means**2, 0.0) / (count - 1)
        ses = np.sqrt(var / count)
    else:
        ses = np.zeros(2)
    return ValuePair(float(means[0]), float(means[1])), (float(ses[0]), float(ses[1]))


def _use_cpus(monkeypatch, count):
    monkeypatch.setattr(
        os, "sched_getaffinity", lambda pid: set(range(count)), raising=False
    )


@pytest.mark.parametrize("priority", [0.0, 0.25, 0.5])
@pytest.mark.parametrize("horizon", [2, 10, 60])
def test_simulate_matches_serial_reference(monkeypatch, horizon, priority):
    # threads and row chunks change no bit: three threads with 700-row
    # chunks (a partial last chunk in every batch) and one thread with the
    # default budget (at 150000 samples, three batches, the last partial,
    # refill its window of two); on the short runs also one row per chunk
    tables = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
    cfg = tables.config
    default, split = valuation._DRAW_BUDGET, 3 * (horizon + 1) * 700
    for samples in (1, 3, 150_000):
        sim = SimConfig(samples=samples, seed=17)
        want = _serial_simulate(cfg, tables, sim)
        runs = [(3, split), (1, default)]
        if samples <= 3:
            runs.append((3, 1))
        for cpus, budget in runs:
            _use_cpus(monkeypatch, cpus)
            monkeypatch.setattr(valuation, "_DRAW_BUDGET", budget)
            got = simulate(cfg, tables, sim)
            assert got[0] == want[0], (samples, cpus, budget)
            assert got[1] == want[1], (samples, cpus, budget)


def test_simulate_memory_independent_of_horizon(monkeypatch):
    # four 65536-row batches at N = 400 on four threads; drawn whole, one
    # batch alone holds 65536 x 401 uniforms (210 MB) plus their running
    # maximum
    _use_cpus(monkeypatch, 4)
    tables = build_game_tables(ProblemConfig(horizon=400, priority=0.25))
    tracemalloc.start()
    try:
        simulate(tables.config, tables, SimConfig(samples=4 * 65536, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * 2**20


def test_simulate_error_cancels_remaining_batches(monkeypatch):
    # batch 0 fails at once while the other threads hold slow batches, so
    # at most one more batch per thread starts before the rest is cancelled
    tables = build_game_tables(ProblemConfig(horizon=5, priority=0.25))
    started = []
    failure = RuntimeError("batch 0 failed")

    def failing_generator(seed, batch_index):
        started.append(batch_index)
        if batch_index == 0:
            raise failure
        time.sleep(0.3)
        return batch_generator(seed, batch_index)

    monkeypatch.setattr(valuation, "batch_generator", failing_generator)
    _use_cpus(monkeypatch, 3)
    with pytest.raises(RuntimeError) as caught:
        simulate(tables.config, tables, SimConfig(samples=20 * valuation._BATCH, seed=1))
    assert caught.value is failure
    assert 0 in started
    assert len(started) <= 3 + 1
