import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from bisect import bisect_right
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial.polynomial import polyval

from bcgame import errors, valuation
from bcgame._rng import batch_generator
from bcgame.equilibrium import (
    Bimatrix,
    EquilibriumKind,
    _cell,
    _w2_array,
    _w2_scalar,
    bimatrix,
    build_game_tables,
    classify_state,
    region_map,
    stage_actions,
    stage_cells,
    w2,
)
from bcgame.errors import BcgameError, DomainError, TooLarge, UnsupportedPriority
from bcgame.models import ProblemConfig, RecordState, fullinfo_thresholds
from bcgame.valuation import (
    SimConfig,
    ValueFunction,
    ValuePair,
    backward_induce,
    continuation,
    game_value,
    simulate,
)


@pytest.fixture(scope="module")
def game10(induced):
    vf, pair = induced(10, 0.25)
    return vf.tables, vf, pair


def test_value_pair_finite():
    for bad in (float("nan"), math.inf, -math.inf):
        with pytest.raises(DomainError):
            ValuePair(val1=bad, val2=0.0)
        with pytest.raises(DomainError):
            ValuePair(val1=0.0, val2=bad)


def test_sim_config_validation():
    with pytest.raises(BcgameError):
        SimConfig(samples=0)
    with pytest.raises(DomainError, match="samples must be an integer"):
        SimConfig(samples=1.5)
    with pytest.raises(DomainError, match="seed must be an integer"):
        SimConfig(samples=10, seed=1.0)
    sim = SimConfig(samples=np.int64(10), seed=np.uint64(2**64 - 1))
    assert (type(sim.samples), type(sim.seed)) == (int, int)
    assert sim.seed == 2**64 - 1


def test_numpy_integer_horizon_builds_the_int_game(game_tables):
    # the rank suffixes call int.bit_length, which numpy integers lack
    want = game_tables(10, 0.25)
    got = build_game_tables(ProblemConfig(horizon=np.int64(10), priority=0.25))
    assert (got.nstar, got.ntilde) == (want.nstar, want.ntilde) == (4, 5)
    assert got.w1.tobytes() == want.w1.tobytes()
    assert game_value(got) == game_value(want)


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


def test_backward_induce_two_stage_closed_form(induced):
    # N=2: player 1's margin at index 1 is 0; player 2 collects |2x-1|-shaped
    # margins, scaled on the stop side by the simultaneous-claim weight:
    # val2 = 1/4 + (1-2p)/4
    for p in (0.0, 0.25, 0.5):
        _, pair = induced(2, p)
        assert pair.val1 == pytest.approx(0.0, abs=1e-12)
        assert pair.val2 == pytest.approx(0.25 + (1 - 2 * p) / 4, abs=1e-12)


def test_backward_induce_rejects_high_priority(game_tables):
    tables = game_tables(5, 0.7)
    with pytest.raises(UnsupportedPriority):
        backward_induce(tables)


#: The seven priorities of the first-stop parity grid: Table 1's six and 0.
FIRST_STOP_PRIORITIES = (0.0, 0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5)


def _backward_induce_before(tables):
    """Reference: the induction as it was before the w2 carry ran on the
    stopped segments alone: x**d and S_d as two arrays on every segment, a
    running H_d and 1/d, and each stage copied whole before its stopped
    cells were overwritten."""
    big_n = tables.config.horizon
    vf = ValueFunction(tables)
    power = np.ones((vf.n_segments, 1))  # x**0 on every segment
    series = np.zeros((vf.n_segments, 1))  # S_0 = 0
    harmonic = 0.0  # w2 = x**d (1 + H_d) - S_d with d = N - n
    for n in range(big_n, 0, -1):
        d = big_n - n
        if d:
            power = valuation._times_x(power, vf.breaks)
            series = valuation._times_x(series, vf.breaks)
            series[:, 0] += 1.0 / d
            harmonic += 1.0 / d
        stop1, stop2 = stage_actions(n, vf.breaks[:-1], tables)
        stop = stop1 | stop2
        coefficients = vf.cont[n].copy()
        w2s = power[stop] * (1.0 + harmonic) - series[stop]
        cells = stage_cells(n, stop1[stop, None], stop2[stop, None], w2s, tables)
        cells[0, :, 1:] = 0.0
        coefficients[:, stop] = cells
        vf.finalize_stage(n, coefficients)
    return vf, ValuePair(val1=vf.stage_average(1, 1), val2=vf.stage_average(1, 2))


#: Horizons of the induction's bit-for-bit checks, each at the seven
#: first-stop priorities.
INDUCTION_HORIZONS = (2, 3, 4, 10, 37, 50, 150)


@pytest.mark.parametrize("horizon", INDUCTION_HORIZONS)
def test_backward_induce_matches_every_segment_carry(game_tables, horizon):
    # its own inductions: the session holds no N = 150 tables for it
    for priority in FIRST_STOP_PRIORITIES:
        tables = game_tables(horizon, priority)
        vf, pair = backward_induce(tables)
        ref, ref_pair = _backward_induce_before(tables)
        assert vf._buffer.tobytes() == ref._buffer.tobytes(), priority
        assert vf.averages.tobytes() == ref.averages.tobytes(), priority
        assert repr(pair) == repr(ref_pair), priority


@pytest.mark.parametrize("horizon", INDUCTION_HORIZONS)
def test_stopped_segments_are_a_suffix_that_shrinks(game_tables, horizon):
    # the induction carries w2 on the last segments alone, and slices the
    # carry as n falls
    for priority in FIRST_STOP_PRIORITIES:
        tables = game_tables(horizon, priority)
        lefts = ValueFunction(tables).breaks[:-1]
        before = 0  # the first stopped segment of stage n + 1
        for n in range(horizon, 0, -1):
            stop1, stop2 = stage_actions(n, lefts, tables)
            stop = stop1 | stop2
            first = len(stop) - np.count_nonzero(stop)
            assert stop[first:].all(), (priority, n)
            assert first >= before, (priority, n)
            before = first


def test_game_value_rejects_high_priority(game_tables):
    tables = game_tables(5, 0.7)
    with pytest.raises(UnsupportedPriority):
        game_value(tables)


def test_joint_grid_rejects_high_priority():
    # the grid plays the classified profile, established for p <= 0.5 only
    from bcgame.oracle import game_exhaustive_small

    for horizon in (2, 3):
        with pytest.raises(UnsupportedPriority) as caught:
            game_exhaustive_small(horizon, 0.7)
        message = "classification established for p <= 0.5 only, got 0.7"
        assert str(caught.value) == message


def test_game_value_memory_is_linear_in_horizon():
    # a handful of (N + 1)-vectors: 16 KB each at N = 2000, where the
    # induction's tables would take 128 GB
    tables = build_game_tables(ProblemConfig(horizon=2000, priority=0.25))
    tracemalloc.start()
    try:
        pair = game_value(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert math.isfinite(pair.val1) and math.isfinite(pair.val2)


def test_value_monotone_in_priority(induced):
    vals = [induced(10, p)[1] for p in (0.1, 0.25, math.exp(-1), 0.5)]
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
def test_continuation_matches_kernel_sum(induced, horizon, priority):
    # C(n, x) = sum_{k>n} x**(k-n-1) int_x^1 V(k, y) dy, on and off breakpoints
    vf, _ = induced(horizon, priority)
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
    outside = (
        (-1, 0.5), (11, 0.5), (3, -0.5), (3, 1.5), (3, float("nan")), (3, math.inf)
    )
    for n, x in outside:
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


@pytest.mark.parametrize("horizon", [2, 10, 150])
def test_breakpoints_match_np_unique(game_tables, horizon):
    # the solver's segments, read off the thresholds, give np.unique's
    # array, bit for bit
    tables = game_tables(horizon, 0.25)
    breaks = valuation.ValueFunction(tables).breaks
    want = np.unique(np.concatenate(([0.0, 1.0], tables.xthresholds.values)))
    assert breaks.dtype == want.dtype
    assert breaks.tobytes() == want.tobytes()


def test_table_cost_model_matches_allocation(game10):
    tables, vf, _ = game10
    # x_N = 0 is a break, so N thresholds and 1 give N segments
    assert vf.n_segments == tables.config.horizon
    allocated = vf.cont[0].base.nbytes + vf.averages.nbytes
    assert valuation._table_bytes(10) == allocated == 8 * 11 * 122
    # the tables are all the arrays it holds besides its breakpoints
    arrays = [v for v in vars(vf).values() if isinstance(v, np.ndarray)]
    assert sum(a.nbytes for a in arrays) == allocated + vf.breaks.nbytes
    assert valuation._table_bytes(400) == pytest.approx(0.516e9, rel=0.01)
    assert valuation._table_bytes(1000) == pytest.approx(8e9, rel=0.01)


@pytest.mark.parametrize("horizon", (2, 10, 60))
def test_value_tables_are_stage_views_of_one_unpadded_buffer(induced, horizon):
    # stage n holds its N - n + 1 coefficients a segment and nothing more,
    # and the stages tile one buffer, which is all the table allocates
    vf, _ = induced(horizon, 0.25)
    assert len(vf.cont) == horizon + 1
    buffer = vf.cont[0].base
    for n, stage in enumerate(vf.cont):
        assert stage.shape == (2, vf.n_segments, horizon - n + 1)
        assert stage.base is buffer
    assert sum(stage.nbytes for stage in vf.cont) == buffer.nbytes
    assert buffer.nbytes + vf.averages.nbytes == valuation._table_bytes(horizon)


def test_packed_tables_fit_where_padded_ones_did_not(monkeypatch):
    # at N = 40 the tables take 0.55 MB, and took 1.08 MB padded to N + 1
    # coefficients a stage: 0.8 MB of memory now holds them
    tables = build_game_tables(ProblemConfig(horizon=40, priority=0.25))
    memory = 800_000
    assert valuation._table_bytes(40) < memory < 16 * 41 * (40 * 41 + 1)
    monkeypatch.setattr(errors, "_physical_memory", lambda: memory)
    _, pair = backward_induce(tables)
    want = game_value(tables)
    assert abs(pair.val1 - want.val1) <= 1e-12
    assert abs(pair.val2 - want.val2) <= 1e-12


def test_value_function_refuses_tables_beyond_physical_memory(monkeypatch):
    # 1.06 MB of tables at N = 50 against 1 MiB of memory; the refusal comes
    # before any table is allocated, so the refused call allocates less
    # than a tenth of them
    tables = build_game_tables(ProblemConfig(horizon=50, priority=0.25))
    need = valuation._table_bytes(50)
    assert need > 1 << 20
    monkeypatch.setattr(errors, "_physical_memory", lambda: 1 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="physical memory"):
            backward_induce(tables)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < need / 10


def test_one_memory_figure_gates_every_allocation(monkeypatch):
    # thresholds (64 bytes a lane), value tables (1.06 MB at N = 50) and a
    # region grid (48 bytes a cell) all read the one figure: 1 MiB here
    tables = build_game_tables(ProblemConfig(horizon=50, priority=0.25))
    monkeypatch.setattr(errors, "_physical_memory", lambda: 1 << 20)
    with pytest.raises(TooLarge, match="thresholds at horizon 20000 need"):
        fullinfo_thresholds(ProblemConfig(horizon=20_000))
    with pytest.raises(TooLarge, match="value tables at horizon 50 need"):
        ValueFunction(tables)
    with pytest.raises(TooLarge, match="regions at horizon 50 and xstep 0.0001 need"):
        region_map(tables, 1e-4)


def test_value_function_unchecked_without_memory_figure(monkeypatch):
    monkeypatch.delattr(os, "sysconf", raising=False)
    assert errors._physical_memory() is None
    tables = build_game_tables(ProblemConfig(horizon=5, priority=0.25))
    _, pair = backward_induce(tables)
    assert math.isfinite(pair.val1)


def _w2_before(n, x, horizon):
    """w2 as computed before the game tables carried its lists: 1/m and
    H_m built to degree d = N - n by the same operations, then one Horner
    pass from the leading coefficient 1 + H_d."""
    d = horizon - n
    inverse = [0.0] + [1.0 / m for m in range(1, d + 1)]
    harmonic = list(accumulate(inverse))
    acc = 1.0 + harmonic[d]
    for step in inverse[1 : d + 1]:
        acc = acc * x - step
    return acc


@pytest.mark.parametrize("horizon", [2, 10, 60, 400])
def test_game_constants_on_the_tables_change_no_bit(game_tables, horizon):
    # w2, bimatrix, value_at and stage_cells against 2p - 1 and the w2
    # lists computed per call, as before the tables carried them.  value_at
    # at a forgo-forgo state is the continuation, which reads the value
    # table and no game constant, so an unfilled table serves
    rng = np.random.default_rng(horizon)
    for priority in (0.0, 0.25, 1 / 3, 0.5):
        tables = game_tables(horizon, priority)
        vf = ValueFunction(tables)
        joint = 2.0 * priority - 1.0
        ns = rng.integers(1, horizon + 1, 300)
        ns[0] = horizon  # its threshold, x_N = 0, has the margin 1
        xs = rng.random(300)
        xs[:20] = tables.xthresholds.values[ns[:20] - 1]
        for n, x in zip(ns.tolist(), xs.tolist()):
            if x == 0.0 and n < horizon:
                continue  # no margin there
            w1n, w2n = tables.w1.item(n - 1), _w2_before(n, x, horizon)
            assert w2(RecordState(n, x), tables.config) == w2n
            cells = [_cell(s1, s2, joint, w1n, w2n) for s1, s2 in ((1, 1), (1, 0), (0, 1))]
            assert list(bimatrix(n, x, tables, (0.5, -0.5))) == [*cells, (0.5, -0.5)]
            kind = classify_state(n, x, tables)
            for player in (1, 2):
                if kind is EquilibriumKind.FF:
                    want = continuation(n, x, vf, player)
                else:
                    want = _cell(kind.stop1, kind.stop2, joint, w1n, w2n)[player - 1]
                assert vf.value_at(n, x, player) == want
        stop1, stop2 = stage_actions(ns, xs, tables)
        stop = stop1 | stop2
        n, s1, s2 = ns[stop], stop1[stop], stop2[stop]
        w2s = _w2_array(n, xs[stop], tables)
        s = np.where(s1, np.where(s2, joint, 1.0), -1.0)
        want = np.stack([s * tables.w1[n - 1], -(s * w2s)])
        assert stage_cells(n, s1, s2, w2s, tables).tobytes() == want.tobytes()


def test_pair_memo_interleavings(game_tables):
    # each answer is the state's own, whatever the last state asked was,
    # from a value function of its own, which no other test has read
    vf, _ = backward_induce(game_tables(10, 0.25))
    queries = [
        (4, 0.3, 2), (4, 0.3, 1),  # player 2 before player 1
        (4, 0.6, 1), (4, 0.6, 2),  # the same n with a new x
        (7, 0.6, 2), (7, 0.6, 1),  # the same x with a new n
        (0, 0.6, 1), (0, 0.6, 2), (0, 0.3, 2), (0, 0.3, 1),  # n = 0
        (4, 1.0, 1), (4, 0.3, 2),  # x = 1 answers 0 and keeps the memo
        (4, 0.0, 2), (4, 0.0, 1), (4, -0.0, 2),  # x = 0 and -0 share a segment
    ]
    for n, x, player in queries:
        assert continuation(n, x, vf, player) == _horner_reference(vf, n, x, player)
    # value_at reads the memo at forgo-forgo states and passes it by at
    # stopped ones
    for n, x in ((3, 0.2), (3, 0.2), (9, 0.99), (3, 0.2), (9, 0.2)):
        for player in (2, 1):
            assert vf.value_at(n, x, player) == _value_reference(vf, n, x, player)
            assert continuation(n, x, vf, player) == _horner_reference(vf, n, x, player)


class _YieldingTable:
    """A coefficient table whose every read first lets another thread run."""

    def __init__(self, table):
        self.table = table

    def __getitem__(self, key):
        time.sleep(0)
        return self.table[key]


def test_pair_memo_shared_by_two_threads(game_tables):
    # two threads query their own states on one value function, each state
    # for both players in turn, and get exactly the single-threaded
    # answers; the table read inside every pair read yields to the other
    # thread, so the threads switch there thousands of times; the value
    # function is its own, as its table is replaced
    vf, _ = backward_induce(game_tables(30, 0.25))
    rng = np.random.default_rng(13)
    plans = []
    for _ in range(2):
        ns, xs = rng.integers(0, 31, 2000).tolist(), rng.random(2000).tolist()
        firsts = rng.integers(1, 3, 2000).tolist()
        plans.append([(n, x, p) for n, x, f in zip(ns, xs, firsts) for p in (f, 3 - f)])
    want = [[continuation(n, x, vf, p) for n, x, p in plan] for plan in plans]
    vf.cont = _YieldingTable(vf.cont)
    got = [None, None]
    start = threading.Barrier(2)

    def run(i):
        start.wait()
        got[i] = [continuation(n, x, vf, p) for n, x, p in plans[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert got == want


@given(
    horizon=st.integers(2, 60),
    priority=st.floats(0.0, 0.5),
    data=st.data(),
)
@settings(max_examples=40, deadline=None, derandomize=True)
def test_point_queries_match_polyval_property(induced, horizon, priority, data):
    vf, _ = induced(horizon, priority)
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
def test_simulate_agrees_across_grid(induced, horizon, priority):
    vf, pair = induced(horizon, priority)
    tables = vf.tables
    mc, se = simulate(tables.config, tables, SimConfig(samples=100_000, seed=31))
    assert abs(mc.val1 - pair.val1) <= 3 * max(se[0], 1e-12)
    assert abs(mc.val2 - pair.val2) <= 3 * max(se[1], 1e-12)


def test_simulate_two_stage_matches_hand_value(game_tables):
    tables = game_tables(2, 0.5)
    cfg = tables.config
    mc, se = simulate(cfg, tables, SimConfig(samples=200_000, seed=13))
    assert abs(mc.val1 - 0.0) <= max(3 * se[0], 1e-12)
    assert abs(mc.val2 - 0.25) <= 3 * se[1]


@pytest.mark.parametrize("seed", [-1, 1 << 64])
def test_sim_config_refuses_seed_outside_64_bits(seed):
    # the stream keys read the seed modulo 2**64: -1 would replay
    # 2**64 - 1 and 2**64 would replay 0
    with pytest.raises(DomainError) as caught:
        SimConfig(samples=1, seed=seed)
    assert str(caught.value) == f"seed must be in [0, 2**64), got {seed}"


def test_sim_config_takes_the_ends_of_the_seed_range():
    assert SimConfig(samples=1, seed=0).seed == 0
    assert SimConfig(samples=1, seed=(1 << 64) - 1).seed == (1 << 64) - 1


def test_simulate_rejects_high_priority(game_tables):
    tables = game_tables(5, 0.8)
    with pytest.raises(UnsupportedPriority):
        simulate(tables.config, tables, SimConfig(samples=10, seed=1))


@pytest.mark.parametrize("horizon,priority", [(8, 0.25), (12, 0.25), (10, 0.5)])
def test_simulate_refuses_a_config_other_than_the_tables_game(
    monkeypatch, game_tables, horizon, priority
):
    # the tables are the game played: a shorter horizon used to play part
    # of it, a longer one ran off the tables, another priority was ignored
    tables = game_tables(10, 0.25)
    sim = SimConfig(samples=100)
    # an equal config that is another object plays the game
    equal = ProblemConfig(horizon=10, priority=0.25)
    assert simulate(equal, tables, sim) == simulate(tables.config, tables, sim)
    drawn = []
    monkeypatch.setattr(valuation, "batch_generator", lambda *args: drawn.append(args))
    cfg = ProblemConfig(horizon=horizon, priority=priority)
    with pytest.raises(DomainError):
        simulate(cfg, tables, SimConfig(samples=100_000, seed=1))
    assert drawn == []


def _word_uniforms(words, count):
    """The first ``count`` 32-bit uniforms u of Philox words, each word's
    low half first, as the doubles u 2**-32."""
    halves = np.empty((len(words), 2))
    halves[:, 0] = words & 0xFFFFFFFF
    halves[:, 1] = words >> 32
    halves *= 2.0**-32
    return halves.ravel()[:count]


def _serial_batch(tables, seed, batch_index, nb):
    """Payoff sum and sum of squares, a pair each, of one batch whose
    words are drawn in one piece and whose uniforms play as doubles."""
    big_n = tables.config.horizon
    count = nb * (big_n + 1)
    words = batch_generator(seed, batch_index).bit_generator.random_raw
    u = _word_uniforms(words(-(-count // 2)), count).reshape(nb, big_n + 1)
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
    wins = coin[rows][both] < tables.config.priority
    s1[both], s2[both] = wins, ~wins
    pay = np.zeros((nb, 2))
    w2s = _w2_array(j + 1, x[rows, j], tables)
    pay[rows] = stage_cells(j + 1, s1, s2, w2s, tables).T
    return pay.sum(axis=0), (pay**2).sum(axis=0)


def _serial_simulate(tables, sim):
    """Reference: the one-thread loop over ``_serial_batch``."""
    sums = np.zeros(2)
    sq_sums = np.zeros(2)
    remaining = sim.samples
    batch_index = 0
    while remaining > 0:
        nb = min(valuation._BATCH, remaining)
        batch_sum, batch_sq = _serial_batch(tables, sim.seed, batch_index, nb)
        sums += batch_sum
        sq_sums += batch_sq
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


@pytest.mark.parametrize(
    "horizon,priority",
    [(h, p) for p in (0.0, 0.25, 0.5) for h in (2, 10, 60)] + [(150, 0.25)],
)
def test_simulate_matches_serial_reference(monkeypatch, game_tables, horizon, priority):
    # threads, row chunks and tiles change no bit: three threads with
    # 700-row chunks (a partial last chunk in every batch) and with a
    # budget of 701 rows (chunks rounded up to 702 rows, tiles of 176, the
    # last of a chunk 174), and one thread with the default budget (at
    # 150000 samples, three batches, the last partial, refill its window of
    # two); on the short runs also a budget of one row (two-row chunks)
    # and of 3 rows, whose 3-sample batch is one chunk in a two-row and a
    # one-row tile
    tables = game_tables(horizon, priority)
    cfg = tables.config
    default, split = valuation._DRAW_BUDGET, 3 * (horizon + 1) * 700
    for samples in (1, 3, 150_000):
        sim = SimConfig(samples=samples, seed=17)
        want = _serial_simulate(tables, sim)
        runs = [(3, split), (3, 3 * (horizon + 1) * 701), (1, default)]
        if samples <= 3:
            runs += [(3, 1), (1, 3 * (horizon + 1))]
        for cpus, budget in runs:
            _use_cpus(monkeypatch, cpus)
            monkeypatch.setattr(valuation, "_DRAW_BUDGET", budget)
            got = simulate(cfg, tables, sim)
            assert got[0] == want[0], (samples, cpus, budget)
            assert got[1] == want[1], (samples, cpus, budget)


@pytest.mark.parametrize("priority", [0.0, 0.25, 0.5])
def test_batch_sums_carry_no_negative_zero(game_tables, priority):
    # at N = 2, w1_1 = 0, so a sequence the value player takes alone scores
    # -0.0 for the rank player (seed 9); the batch of that one stop sums to
    # +0.0, as a sum from 0 does
    tables = game_tables(2, priority)
    for seed in range(10):
        for total in valuation._play_batch(tables, seed, 0, 1, 1):
            assert not np.signbit(total[total == 0.0]).any(), seed


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


@pytest.mark.parametrize("horizon", [2, 10, 60, 400])
def test_simulate_memory_is_the_budget_and_a_block(horizon):
    # cold, with no warm-up call: one thread holds its share of the draw
    # budget and what ``_play_batch`` lays out beside it, whatever N; a
    # fresh interpreter, so that the lazy imports of the first ``simulate``
    # count whatever tests ran before
    code = (
        "import os, tracemalloc\n"
        "os.sched_getaffinity = lambda pid: {0}\n"
        "from bcgame import ProblemConfig, SimConfig, build_game_tables, simulate\n"
        f"tables = build_game_tables(ProblemConfig(horizon={horizon}, priority=0.25))\n"
        "tracemalloc.start()\n"
        "simulate(tables.config, tables, SimConfig(samples=1 << 17, seed=3))\n"
        "print(tracemalloc.get_traced_memory()[1])\n"
    )
    src = os.path.dirname(os.path.dirname(valuation.__file__))
    done = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert int(done.stdout) <= 8 * 2**20


@pytest.mark.parametrize("horizon", [2, 10, 60, 400])
def test_simulate_scores_stops_in_the_tile(monkeypatch, horizon):
    # after a warm-up call, one thread holds its share of the draw budget,
    # a tile of words and the scratch buffer, stop marks and block of
    # ``_play_batch`` (1.9-2.6 MiB; 2.8-3.7 MiB with the uniforms as
    # doubles, the scratch buffer holding the tile); one stage-major
    # buffer, a tile of a quarter of it and a block of stops took 3.9-4.9
    # MB, and with the draws kept row-major beside their stage-major copy
    # it took 5.3 MB at N = 2 and 6.1-6.4 MB at the others
    _use_cpus(monkeypatch, 1)
    tables = build_game_tables(ProblemConfig(horizon=horizon, priority=0.25))
    simulate(tables.config, tables, SimConfig(samples=1))  # loads the pool's modules
    tracemalloc.start()
    try:
        simulate(tables.config, tables, SimConfig(samples=1 << 17, seed=3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.8 * 2**20


@pytest.mark.parametrize(
    "horizon,priority,budget,samples",
    [
        (2, 0.25, None, 65536 + 777),
        (10, 0.25, 3200, 65536 + 777),
        (60, 0.5, 3200, 65536 + 777),
        (300, 0.1, 3200, 3000),
        (10, 0.25, 701 * 11, 65536 + 777),
        (5, 0.25, 3 * 6, 3000),
        (2, 0.25, 3, 3000),
        (3, 0.25, 4 * 4000, 65536 + 777),
    ],
)
def test_simulate_blocks_flushed_inside_a_batch_match_serial_reference(
    monkeypatch, game_tables, horizon, priority, budget, samples
):
    # one thread; at N = 2 one chunk holds the whole batch and its stops
    # fill several blocks, and a budget of 3200 uniforms makes blocks of
    # about 200 stops, so every batch is scored in many blocks; a budget
    # of 701 rows gives 702-row chunks drawn in tiles of 176 rows, the last
    # of a chunk 174, and budgets of 3 rows 4-row chunks in two-row tiles,
    # one stop a block.  A budget of 3 at N = 2 gives two-row chunks whose
    # weighted marks take less than a one-stop block's scoring scratch,
    # and 4000-row chunks at N = 3 fill blocks of 1000 stops three or four
    # times while they are gathered
    tables = game_tables(horizon, priority)
    cfg = tables.config
    sim = SimConfig(samples=samples, seed=23)
    want = _serial_simulate(tables, sim)
    blocks = []
    score = valuation._score_stops

    def counted(tables, stage, *rest):
        blocks.append(len(stage))
        score(tables, stage, *rest)

    monkeypatch.setattr(valuation, "_score_stops", counted)
    _use_cpus(monkeypatch, 1)
    if budget is not None:
        monkeypatch.setattr(valuation, "_DRAW_BUDGET", budget)
    got = simulate(cfg, tables, sim)
    assert got[0] == want[0]
    assert got[1] == want[1]
    n_batches = -(-samples // valuation._BATCH)
    assert len(blocks) >= 3 * n_batches


class _FixedDraws:
    """A batch stream that hands out the given rows, each value x in
    [0, 1) as the uniform floor(x 2**32), two a word, low half first."""

    def __init__(self, rows):
        values = np.array(rows, dtype=float).ravel()
        uniforms = np.floor(np.ldexp(values, 32)).astype(np.uint64)
        # padded to whole words
        self.uniforms = np.append(uniforms, np.zeros(len(uniforms) % 2, np.uint64))
        self.at = 0  # words handed out
        self.bit_generator = self

    def random_raw(self, size):
        pairs = self.uniforms[2 * self.at : 2 * (self.at + size)]
        self.at += size
        return pairs[0::2] | pairs[1::2] << np.uint64(32)


@pytest.mark.parametrize("horizon", [5, 300])
def test_play_batch_first_stop_edge_rows(monkeypatch, game_tables, horizon):
    # chunks of two rows: the first chunk has no stop (each row's first
    # value is below its bar and no later value is a record); in the
    # second, one row's only stop is its last stage (weight 1, at N = 300
    # in the 16-bit weights) and one row stops at once
    tables = game_tables(horizon, 0.25)
    assert tables.ntilde > 1

    def row(head, last, coin):
        return [head] + [0.0] * (horizon - 2) + [last, coin]

    x1 = math.floor(math.ldexp(0.9999, 32)) * 2.0**-32  # a uniform on the grid
    assert x1 >= tables.xthresholds.x(1) > 0.3
    rows = [row(0.3, 0.0, 0.5), row(0.2, 0.1, 0.5), row(0.1, 0.5, 0.1), row(x1, 0.0, 0.5)]
    monkeypatch.setattr(valuation, "batch_generator", lambda s, i: _FixedDraws(rows))
    sums, squares = valuation._play_batch(tables, 0, 0, len(rows), 2)
    # the stage-N row: both stop and the coin gives the rank player the
    # record, w1_N = 1 and w2_N = 1; the stage-1 row: the value player alone
    last = _cell(True, False, -0.5, tables.w1[-1], 1.0)
    assert last == (1.0, -1.0)
    w2 = _w2_array(np.array([1]), np.array([x1]), tables)[0]
    first = _cell(False, True, -0.5, tables.w1[0], w2)
    assert sums.tolist() == [last[0] + first[0], last[1] + first[1]]
    assert squares.tolist() == [1.0 + first[0] ** 2, 1.0 + first[1] ** 2]
    # a batch of rows that never stop sums to +0.0
    rows = rows[:2]
    sums, squares = valuation._play_batch(tables, 0, 0, len(rows), 2)
    assert sums.tolist() == squares.tolist() == [0.0, 0.0]
    assert not np.signbit(sums).any()


def test_play_batch_reads_each_word_low_half_first(monkeypatch, game_tables):
    # at N = 2 every row stops at stage 1 (ntilde = 1), so the blocks
    # scored hold each row's first value and its coin, uniforms 3r and
    # 3r + 2 of the batch's words: 1001 rows in 8-row chunks, an odd count
    # of uniforms, so the last word's high half is drawn and never read
    tables = game_tables(2, 0.25)
    assert tables.ntilde == 1
    size = 1001
    made, seen = [], []
    score = valuation._score_stops

    def recorded(tables, stage, value, coin, *rest):
        seen.append((stage.copy(), value.copy(), coin.copy()))
        score(tables, stage, value, coin, *rest)

    def kept(seed, batch_index):
        made.append(batch_generator(seed, batch_index))
        return made[-1]

    monkeypatch.setattr(valuation, "_score_stops", recorded)
    monkeypatch.setattr(valuation, "batch_generator", kept)
    valuation._play_batch(tables, 5, 3, size, 7)
    fresh = batch_generator(5, 3).bit_generator
    words = fresh.random_raw(-(-3 * size // 2))
    want = _word_uniforms(words, 3 * size).reshape(size, 3)
    stage, value, coin = (np.concatenate(parts) for parts in zip(*seen))
    assert (stage == 1).all()
    assert value.tolist() == want[:, 0].tolist()
    assert coin.tolist() == want[:, 2].tolist()
    # and no word more: both streams hand out the same next word
    assert made[0].bit_generator.random_raw() == fresh.random_raw()


def test_uniform_bars_are_the_double_rule_on_the_grid():
    # u >= bar where reachable, against u 2**-32 >= b in doubles, at the
    # grid neighbours of random bars, at bars within 2**-32 of 0 and of 1
    # and beyond them, and at the ends of the grid
    grid, top = 2.0**-32, 2**32 - 1
    near = [0.0, 2.0**-60, grid / 2, grid, 2 * grid, 1.0 - 2 * grid, 1.0 - grid]
    near += [1.0 - grid / 2, 1.0]
    bars = np.concatenate((near, np.nextafter(near, -1), np.nextafter(near, 2)))
    bars = np.concatenate((bars, np.random.default_rng(47).random(1000)))
    bar, reachable = valuation._uniform_bars(bars)
    assert bar.dtype == np.uint32
    for b, c, ok in zip(bars.tolist(), bar.tolist(), reachable.tolist()):
        centre = math.ceil(math.ldexp(b, 32))
        neighbours = {min(max(centre + d, 0), top) for d in (-2, -1, 0, 1)}
        for u in neighbours | {0, 1, top - 1, top}:
            assert (ok and u >= c) == (u * grid >= b), (b, u)


def test_play_batch_never_stops_at_a_bar_no_uniform_reaches(monkeypatch, game_tables):
    # a bar within 2**-32 of 1 stops no row, not even at the top uniform;
    # at the game's own bars that row stops at once
    tables = game_tables(5, 0.25)
    top = 1.0 - 2.0**-32
    rows = [[top, 0.0, 0.0, 0.0, 0.0, 0.5]] * 2
    monkeypatch.setattr(valuation, "batch_generator", lambda s, i: _FixedDraws(rows))
    sums, _ = valuation._play_batch(tables, 0, 0, 2, 2)
    w2 = _w2_array(np.array([1]), np.array([top]), tables)[0]
    first = _cell(False, True, -0.5, tables.w1[0], w2)
    assert sums.tolist() == [2 * first[0], 2 * first[1]]
    bars = valuation.stop_bars(tables)
    bars[:2] = 1.0 - 2.0**-33
    monkeypatch.setattr(valuation, "stop_bars", lambda tables: bars)
    sums, _ = valuation._play_batch(tables, 0, 0, 2, 2)
    assert sums.tolist() == [0.0, 0.0]


def test_simulate_error_cancels_remaining_batches(monkeypatch, game_tables):
    # batch 0 fails at once while the other threads hold slow batches, so
    # at most one more batch per thread starts before the rest is cancelled
    tables = game_tables(5, 0.25)
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


# The read paths against their references.  These tests hold the N = 150
# inductions at six priorities in ``induced``, about 170 MB, so they run
# after the Monte Carlo tests, whose serial reference takes about 200 MB
# at N = 150, and the first-stop grid, their last reader, releases them.

PARITY_PRIORITIES = (0.0, 0.1, 0.25, 1 / 3, math.exp(-1), 0.5)
PARITY_HORIZONS = (2, 5, 10, 30, 60, 150)


def _polyval_reference(vf, n, x, player):
    """C_player(n, x) by numpy's ``polyval`` on the stored coefficients of
    the segment that ``searchsorted(side="right")`` finds."""
    if x >= 1.0:
        return 0.0
    s = int(np.searchsorted(vf.breaks, x, side="right")) - 1
    s = min(max(s, 0), vf.n_segments - 1)
    lo, hi = vf.breaks[s], vf.breaks[s + 1]
    t = (x - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
    return float(polyval(t, vf.cont[n][player - 1, s]))


def _check_point_queries(vf, n, x):
    """``continuation`` is a Python float within 1e-15 of ``polyval`` on the
    stored coefficients; from n = 1 on, ``value_at`` is that continuation
    at forgo-forgo states and the array stage cell elsewhere.  Returns the
    state's kind, or None at n = 0."""
    tables = vf.tables
    for player in (1, 2):
        got = continuation(n, x, vf, player)
        assert type(got) is float
        want = _polyval_reference(vf, n, x, player)
        assert abs(got - want) <= 1e-15, (tables.config, n, x, player)
    if n == 0:
        return None
    kind = classify_state(n, x, tables)
    stop1, stop2 = kind.action1 == "S", kind.action2 == "S"
    w2n = _w2_scalar(tables.config.horizon - n, x, tables.inverses, tables.harmonics)
    for player in (1, 2):
        got = vf.value_at(n, x, player)
        assert type(got) is float
        if kind is EquilibriumKind.FF:
            want = continuation(n, x, vf, player)
        else:
            want = float(stage_cells(n, stop1, stop2, w2n, tables)[player - 1])
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
def test_scalar_read_path_matches_array_path(induced, horizon, priorities, interior):
    # continuation's Horner loop in Python floats against numpy's polyval,
    # and value_at against the array stage cells, at stage 0, 1, N/2, N - 1
    # and N
    stages = sorted({0, 1, horizon // 2, horizon - 1, horizon})
    for priority in priorities:
        vf, _ = induced(horizon, priority)
        kinds = set()
        for x in _parity_values(vf, seed=horizon, interior=interior):
            for n in stages:
                kinds.add(_check_point_queries(vf, n, x))
        # stopped cells ran, and forgo-forgo ones wherever the game has them
        assert kinds - {EquilibriumKind.FF, None}
        assert EquilibriumKind.FF in kinds or horizon < 5


def _horner_reference(vf, n, x, player):
    """C_player(n, x) by a Horner loop of its own for one player, without
    the pair read's shared loop: the same segment, t and operations in the
    same order."""
    if x >= 1.0:
        return 0.0
    s = int(np.searchsorted(vf.breaks, x, side="right")) - 1
    s = min(max(s, 0), vf.n_segments - 1)
    lo, hi = float(vf.breaks[s]), float(vf.breaks[s + 1])
    t = (x - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
    return _horner(vf.cont[n][player - 1, s].tolist(), t)


def _horner(coef, t):
    """sum_k coef[k] t**k by Horner's rule from the highest k."""
    value = 0.0
    for k in range(len(coef) - 1, -1, -1):
        value = value * t + coef[k]
    return value


def _value_reference(vf, n, x, player):
    """V_player(n, x) from ``_horner_reference`` and the array stage cells."""
    tables = vf.tables
    kind = classify_state(n, x, tables)
    if kind is EquilibriumKind.FF:
        return _horner_reference(vf, n, x, player)
    w2n = _w2_scalar(tables.config.horizon - n, x, tables.inverses, tables.harmonics)
    stop1, stop2 = kind.action1 == "S", kind.action2 == "S"
    return float(stage_cells(n, stop1, stop2, w2n, tables)[player - 1])


@pytest.mark.parametrize("horizon", PARITY_HORIZONS)
def test_pair_read_matches_one_loop_per_player(induced, horizon):
    # both players from one Horner loop, then the other player from the
    # memo, bit for bit the loop of each player on its own, at stage 0, 1,
    # N/2, N - 1 and N
    stages = sorted({0, 1, horizon // 2, horizon - 1, horizon})
    for priority in PARITY_PRIORITIES:
        vf, _ = induced(horizon, priority)
        for x in _parity_values(vf, seed=horizon):
            for n in stages:
                for player in (1, 2):
                    got = continuation(n, x, vf, player)
                    assert got == _horner_reference(vf, n, x, player), (n, x, player)
                if n == 0:
                    continue
                for player in (2, 1):
                    got = vf.value_at(n, x, player)
                    assert got == _value_reference(vf, n, x, player), (n, x, player)


AUDIT_HORIZONS = (2, 5, 10, 30, 40, 50, 60, 150)


def _pair_before(vf, n, x):
    """(C_1(n, x), C_2(n, x)) by the pair read as it was before the cached
    horizon: the segment clamped into range both ways, each player by a
    Horner loop of its own."""
    if x >= 1.0:
        return 0.0, 0.0
    s = bisect_right(vf.breaks.tolist(), x) - 1
    s = min(max(s, 0), vf.n_segments - 1)
    lo, hi = float(vf.breaks[s]), float(vf.breaks[s + 1])
    t = (x - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
    coef1, coef2 = vf.cont[n][:, s].tolist()
    return _horner(coef1, t), _horner(coef2, t)


def _is_pure_nash_before(cells, kind):
    """The Nash check as it was: cells on a grid [player 1 stops][player 2
    stops], indexed through the kind's action letters."""
    ss, sf, fs, ff = cells
    grid = ((ff, fs), (sf, ss))
    i, j = ("FS".index(a) for a in kind.value)
    here = grid[i][j]
    return grid[1 - i][j][0] <= here[0] and grid[i][1 - j][1] <= here[1]


def _audit_before(vf, n, x):
    """The audit row of a record state by the code before the tuple
    ``Bimatrix`` and the kind flags: kind, both continuations, the four
    cells, the Nash verdict and both players' values."""
    tables = vf.tables
    kind = classify_state(n, x, tables)
    c1, c2 = _pair_before(vf, n, x)
    w1n = tables.w1.item(n - 1)
    w2n = _w2_scalar(tables.config.horizon - n, x, tables.inverses, tables.harmonics)
    joint = 2.0 * tables.config.priority - 1.0
    cells = (
        _cell(True, True, joint, w1n, w2n),
        _cell(True, False, joint, w1n, w2n),
        _cell(False, True, joint, w1n, w2n),
        (c1, c2),
    )
    stop1, stop2 = kind.value[0] == "S", kind.value[1] == "S"
    if kind is EquilibriumKind.FF:
        values = (c1, c2)
    else:
        values = _cell(stop1, stop2, joint, w1n, w2n)
    return kind, c1, c2, cells, _is_pure_nash_before(cells, kind), values


@pytest.mark.parametrize("horizon", AUDIT_HORIZONS)
def test_audit_rows_match_code_before_tuple_bimatrix(induced, horizon):
    # classify_state, continuation for both players, bimatrix, is_pure_nash
    # and value_at equal the code before, value and type, at stage 1, 2,
    # N/2, N - 1 and N, over every priority
    stages = sorted({1, 2, horizon // 2, horizon - 1, horizon})
    for priority in PARITY_PRIORITIES:
        vf, _ = induced(horizon, priority)
        tables = vf.tables
        for x in _parity_values(vf, seed=horizon):
            for n in stages:
                if x == 0.0 and n < horizon:
                    continue  # bimatrix refuses it, as before
                kind = classify_state(n, x, tables)
                c1, c2 = continuation(n, x, vf, 1), continuation(n, x, vf, 2)
                bm = bimatrix(n, x, tables, (c1, c2))
                values = (vf.value_at(n, x, 1), vf.value_at(n, x, 2))
                row = (kind, c1, c2, tuple(bm), bm.is_pure_nash(kind), values)
                want = _audit_before(vf, n, x)
                assert row == want, (priority, n, x)
                assert type(bm) is Bimatrix and type(row[4]) is bool
                leaves = (c1, c2, *values, *(v for cell in bm for v in cell))
                assert all(type(v) is float for v in leaves)
        # the continuation at n = 0 reads the same segment too
        for x in _parity_values(vf, seed=horizon):
            got = (continuation(0, x, vf, 1), continuation(0, x, vf, 2))
            assert got == _pair_before(vf, 0, x)


# The first-stop grid: N = 2..60, 100 and 150 at the seven first-stop
# priorities, 427 games. It comes last, after every test that holds one
# of its games in ``induced``, takes each held game out of ``induced``
# as it reads it, and induces each other game once without holding it:
# its value tables would take about 450 MB.


def _legendre_integral_to_one(a):
    """Legendre coefficients (last axis) of int_t^1 f(u) du, one degree up:
    int_t^1 P_k = (P_{k-1} - P_{k+1}) / (2k+1), and 1 - t for k = 0."""
    q = a / (2 * np.arange(a.shape[-1]) + 1)
    out = np.zeros(a.shape[:-1] + (a.shape[-1] + 1,))
    out[..., :-2] = q[..., 1:]
    out[..., 0] += q[..., 0]
    out[..., 1:] -= q
    return out


def _legendre_times_x(a, breaks):
    """Legendre coefficients (last axis) of x f on every segment between
    consecutive ``breaks``, one degree up: x f = c f + h t f, with
    t P_k = ((k+1) P_{k+1} + k P_{k-1}) / (2k+1)."""
    k = np.arange(a.shape[-1])
    lo, hi = breaks[:-1, None], breaks[1:, None]
    out = np.zeros(a.shape[:-1] + (len(k) + 1,))
    out[..., 1:] = a * ((k + 1) / (2 * k + 1))
    out[..., :-2] += a[..., 1:] * (k[1:] / (2 * k[1:] + 1))
    out *= 0.5 * (hi - lo)
    out[..., :-1] += 0.5 * (hi + lo) * a
    return out


def _legendre_induce(tables, breaks):
    """Reference: the induction with the value tables in Legendre
    coefficients in t, as they were held before the monomial basis, on the
    segments between ``breaks``.  Returns C(0..N), each (2, S, N - n + 1),
    and the averages int_0^1 V_i(n, x) dx, (2, N + 1)."""
    big_n = tables.config.horizon
    segments = len(breaks) - 1
    half = 0.5 * np.diff(breaks)
    cont = [np.zeros((2, segments, big_n - n + 1)) for n in range(big_n + 1)]
    averages = np.zeros((2, big_n + 1))
    carry = np.zeros((2, segments, 1))  # x**d and S_d on the stopped segments
    carry[0] = 1.0
    for n in range(big_n, 0, -1):
        d = big_n - n
        stop1, stop2 = stage_actions(n, breaks[:-1], tables)
        stopped = np.count_nonzero(stop1 | stop2)
        first = segments - stopped
        carry = carry[:, carry.shape[1] - stopped :]
        if d:
            carry = _legendre_times_x(carry, breaks[first:])
            carry[1, :, 0] += tables.inverses[d]
        w2s = carry[0] * (1.0 + tables.harmonics[d]) - carry[1]
        cells = stage_cells(n, stop1[first:, None], stop2[first:, None], w2s, tables)
        cells[0, :, 1:] = 0.0
        values = np.concatenate((cont[n][:, :first], cells), axis=1)
        tail = np.zeros((2, segments + 1))  # int_{b_s}^1 V(n, x) dx
        seg_int = 2.0 * half * values[..., 0]
        tail[:, :-1] = np.cumsum(seg_int[:, ::-1], axis=1)[:, ::-1]
        averages[:, n] = tail[:, 0]
        upper = half[:, None] * _legendre_integral_to_one(values)
        upper[..., 0] += tail[:, 1:]
        cont[n - 1] = upper + _legendre_times_x(cont[n], breaks)
    return cont, averages


def _clenshaw_read(stage, breaks, xs):
    """(C_1, C_2) at every x of ``xs`` from a Legendre stage table by
    Clenshaw's recurrence, b_k = a_k + (2k+1)/(k+1) t b_{k+1}
    - (k+1)/(k+2) b_{k+2}, the read path before the monomial basis;
    0 at x = 1."""
    s = np.clip(np.searchsorted(breaks, xs, side="right") - 1, 0, len(breaks) - 2)
    lo, hi = breaks[s], breaks[s + 1]
    t = (xs - 0.5 * (hi + lo)) / (0.5 * (hi - lo))
    coef = stage[:, s]
    b1 = b2 = np.zeros(coef.shape[:-1])
    for k in range(coef.shape[-1] - 1, -1, -1):
        rise, fall = (2 * k + 1) / (k + 1), (k + 1) / (k + 2)
        b1, b2 = coef[..., k] + rise * t * b1 - fall * b2, b1
    return np.where(xs >= 1.0, 0.0, b1)


@pytest.mark.parametrize("horizon", [*range(2, 61), 150])
def test_value_tables_match_legendre_induction(induced, horizon):
    # continuation, value_at, stage_average and the induction pair within
    # 1e-13 of the induction in the Legendre basis, at stage 0, 1, N/2,
    # N - 1 and N, over the first-stop priorities; one induction a game,
    # whose pair test_game_value_matches_induction reads next
    stages = sorted({0, 1, horizon // 2, horizon - 1, horizon})
    for priority in FIRST_STOP_PRIORITIES:
        vf, pair = induced.unheld(horizon, priority)
        tables = vf.tables
        cont, averages = _legendre_induce(tables, vf.breaks)
        for n in range(1, horizon + 1):
            for player in (1, 2):
                got = vf.stage_average(n, player)
                assert abs(got - averages[player - 1, n]) <= 1e-13, (priority, n)
        assert abs(pair.val1 - averages[0, 1]) <= 1e-13, priority
        assert abs(pair.val2 - averages[1, 1]) <= 1e-13, priority
        xs = _parity_values(vf, seed=horizon)
        for n in stages:
            want = _clenshaw_read(cont[n], vf.breaks, np.array(xs)).T.tolist()
            for x, pair_want in zip(xs, want):
                for player in (1, 2):
                    got = continuation(n, x, vf, player)
                    assert abs(got - pair_want[player - 1]) <= 1e-13, (priority, n, x)
                if n == 0:
                    continue
                kind = classify_state(n, x, tables)
                if kind is EquilibriumKind.FF:
                    values = pair_want
                else:
                    w1n = tables.w1.item(n - 1)
                    w2n = _w2_scalar(horizon - n, x, tables.inverses, tables.harmonics)
                    values = _cell(kind.stop1, kind.stop2, tables.joint, w1n, w2n)
                for player in (1, 2):
                    got = vf.value_at(n, x, player)
                    assert abs(got - values[player - 1]) <= 1e-13, (priority, n, x)


@pytest.mark.parametrize("horizon", [*range(2, 61), 100, 150])
def test_game_value_matches_induction(game_tables, induced, horizon):
    # the closed form the CLI prints, against the induction that certifies
    # it: the pair of the induction test_value_tables_match_legendre_induction
    # read, or at N = 100 of one of its own, not held
    for priority in FIRST_STOP_PRIORITIES:
        want = induced.pair(horizon, priority)
        got = game_value(game_tables(horizon, priority))
        assert abs(got.val1 - want.val1) <= 1e-12, (horizon, priority)
        assert abs(got.val2 - want.val2) <= 1e-12, (horizon, priority)
