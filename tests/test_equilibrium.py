import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import fields
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcgame.equilibrium import (
    Bimatrix,
    GameTables,
    RegionGrid,
    _cell,
    _horner_lists,
    _w2_array,
    _w2_scalar,
    EquilibriumKind,
    bimatrix,
    build_game_tables,
    classify_state,
    fs_condition,
    region_map,
    shifted_cutoff,
    stage_actions,
    stage_cells,
    stop_bars,
    tv1,
    w1,
    w2,
)
from bcgame import equilibrium, errors
from bcgame.errors import DomainError, TooLarge, UnsupportedPriority
from bcgame.models import (
    ProblemConfig,
    RecordState,
    fullinfo_continue_reward,
    fullinfo_stop_reward,
    secretary_continue_reward,
    secretary_cutoff,
    secretary_stop_reward,
)

TABLE_PRIORITIES = (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5)


@pytest.fixture(scope="module")
def tables10(game_tables):
    return game_tables(10, 0.25)


def _tv1_given_x_array(n, xs, tables):
    """Rank player's expected one-step payoff after the records (n, xs) from
    stopping at the next candidate against the (stop if above threshold)
    opponent there: the interval below the threshold pays w1_k alone, the
    interval above pays the simultaneous-claim weight (2p-1) w1_k, both
    under the record-chain kernel x**(k-n-1).  Empty sum at n = N.  The
    term-by-term reference for the closed-form ``tv1``."""
    big_n = tables.config.horizon
    tilt = 2.0 * tables.config.priority - 1.0
    ks = np.arange(n + 1, big_n + 1)
    if len(ks) == 0:
        return np.zeros_like(np.asarray(xs, dtype=float))
    xk = tables.xthresholds.values[ks - 1]
    wk = tables.w1[ks - 1]
    x_col = np.asarray(xs, dtype=float)[:, None]
    hi = np.maximum(x_col, xk[None, :])
    kernel = x_col ** (ks - n - 1)[None, :]
    cells = kernel * ((hi - x_col) + (1.0 - hi) * tilt) * wk[None, :]
    return cells.sum(axis=1)


def tv1_given_x(n, x, tables):
    """``_tv1_given_x_array`` at one record (n, x)."""
    return float(_tv1_given_x_array(n, np.array([float(x)]), tables)[0])


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


def _w2_tables(game_tables, horizon):
    """The tables ``_w2_array`` reads at ``horizon``, those of the game at
    the default priority 0.5; at N = 1, below any game's horizon, a
    stand-in with the Horner lists ``GameTables`` holds."""
    if horizon >= 2:
        return game_tables(horizon, 0.5)
    inverses, harmonics = _horner_lists(horizon - 1)
    config = SimpleNamespace(horizon=horizon)
    return SimpleNamespace(config=config, inverses=inverses, harmonics=harmonics)


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
def test_w2_horner_matches_fsum_reference(game_tables, horizon, data):
    ns = data.draw(
        st.lists(st.integers(min_value=1, max_value=horizon), min_size=1, max_size=6)
    )
    xs = [0.0, 1e-300, 1.0] + data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=5)
    )
    want = np.array([[_w2_reference(n, x, horizon) for x in xs] for n in ns])
    tables = _w2_tables(game_tables, horizon)
    for row, n in enumerate(ns):  # one index, many values (the induction)
        got = _w2_array(n, np.array(xs), tables)
        assert np.max(np.abs(got - want[row])) <= 1e-12
    # one index per entry (the simulator)
    got = _w2_array(np.array(ns)[:, None], np.array(xs)[None, :], tables)
    assert np.max(np.abs(got - want)) <= 1e-12


@settings(max_examples=60, deadline=None)
@given(
    horizon=st.integers(min_value=1, max_value=400),
    data=st.data(),
)
def test_w2_scalar_path_matches_array_path(game_tables, horizon, data):
    # one state in Python floats must equal the array path on the same
    # state bit for bit
    n = data.draw(st.integers(min_value=1, max_value=horizon))
    xs = [0.0, 1e-300, 0.5, 1.0] + data.draw(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8)
    )
    lists = _horner_lists(horizon - n)
    tables = _w2_tables(game_tables, horizon)
    for x in xs:
        got = _w2_scalar(horizon - n, x, *lists)
        assert type(got) is float
        assert got == float(_w2_array(np.asarray(n), np.asarray(x), tables))


def _long_states(horizon, count=20_000):
    """``count`` random states (n, x) at ``horizon``, with x = 0, 1e-300
    and 1 among them, and d = 0 at each of those and at one more."""
    rng = np.random.default_rng(horizon)
    ns = rng.integers(1, horizon + 1, count)
    xs = rng.random(count)
    xs[:3] = (0.0, 1e-300, 1.0)
    ns[:4] = horizon
    return ns, xs


@pytest.mark.parametrize("horizon", [60, 400, 2000])
def test_w2_scalar_path_equals_long_array_path(game_tables, horizon):
    # both paths take only +, - and x, in the same order, so one state in
    # Python floats equals its entry of a long array bit for bit; after
    # the states of ``_long_states`` come the four draws its edge cases
    # replace, so that every state of default_rng(N) is checked
    ns, xs = _long_states(horizon)
    rng = np.random.default_rng(horizon)
    drawn_ns, drawn_xs = rng.integers(1, horizon + 1, 20_000), rng.random(20_000)
    ns, xs = np.concatenate((ns, drawn_ns[:4])), np.concatenate((xs, drawn_xs[:4]))
    array = _w2_array(ns, xs, _w2_tables(game_tables, horizon))
    lists = _horner_lists(horizon - 1)
    states = zip(ns.tolist(), xs.tolist())
    scalar = [_w2_scalar(horizon - n, x, *lists) for n, x in states]
    assert array.tobytes() == np.array(scalar).tobytes()


def _w2_power_formula(d, x, inverses, harmonics):
    """w2 by the former formula: numpy's power for the leading term times
    1 + H_d, less the Horner sum sum_{j=1}^{d} x**(d-j)/j."""
    acc = 0.0
    for step in inverses[1 : d + 1]:
        acc = acc * x + step
    return float(np.power(x, d)) * (1.0 + harmonics[d]) - acc


@pytest.mark.parametrize("horizon", [10, 60, 400, 2000])
def test_w2_within_rounding_of_the_power_formula(game_tables, horizon):
    # the one Horner pass moves w2 from the former formula by rounding
    # only: 1.3e-15 at N = 10 up to 2.7e-14 at N = 2000 (200,000 states)
    ns, xs = _long_states(horizon, count=5_000)
    got = _w2_array(ns, xs, _w2_tables(game_tables, horizon))
    lists = _horner_lists(horizon - 1)
    states = zip(ns.tolist(), xs.tolist())
    old = [_w2_power_formula(horizon - n, x, *lists) for n, x in states]
    assert np.max(np.abs(got - old)) <= 1e-13


def _w2_decimal(d, x):
    """w2 at degree d and value x by Horner's rule in 60-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = Decimal(x)
        inverses = [1 / Decimal(j) for j in range(1, d + 1)]
        acc = 1 + sum(inverses, Decimal(0))
        for step in inverses:
            acc = acc * x - step
        return float(acc)


@pytest.mark.parametrize("degree", [1, 10, 60, 400, 2000])
def test_w2_within_1e13_of_a_high_precision_reference(game_tables, degree):
    # random values and values within 3/d of 1, where the terms are
    # largest; over 300 such states at d <= 2000 the worst case measured
    # was 9.1e-15, near x = 1 (2.5e-14 by the power formula)
    horizon = degree + 1
    rng = np.random.default_rng(degree)
    near = 1.0 - min(3.0 / degree, 1.0) * rng.random(8)
    xs = np.concatenate((rng.random(8), near, [1.0]))
    ns = np.concatenate(([1] * len(xs), rng.integers(1, horizon + 1, 8)))
    xs = np.concatenate((xs, rng.random(8)))
    states = list(zip(ns.tolist(), xs.tolist()))
    want = np.array([_w2_decimal(horizon - n, x) for n, x in states])
    tables = _w2_tables(game_tables, horizon)
    lists = _horner_lists(degree)
    scalar = [_w2_scalar(horizon - n, x, *lists) for n, x in states]
    assert np.max(np.abs(np.array(scalar) - want)) <= 1e-13
    assert np.max(np.abs(_w2_array(ns, xs, tables) - want)) <= 1e-13


def test_w2_array_bits_do_not_follow_the_cpu_dispatch():
    # a fresh interpreter with numpy's dispatched kernels this host has
    # switched off (the variable acts on that child only) gives the same
    # bytes as one with the default dispatch
    from numpy._core import _multiarray_umath as umath

    features = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__.get(f)]
    code = (
        "import hashlib, numpy as np\n"
        "from bcgame.equilibrium import _w2_array, build_game_tables\n"
        "from bcgame.models import ProblemConfig\n"
        "rng = np.random.default_rng(400)\n"
        "ns, xs = rng.integers(1, 401, 20_000), rng.random(20_000)\n"
        "tables = build_game_tables(ProblemConfig(horizon=400))\n"
        "print(hashlib.sha256(_w2_array(ns, xs, tables).tobytes()).hexdigest())\n"
    )
    src = os.path.dirname(os.path.dirname(equilibrium.__file__))
    digests = []
    for disabled in (None, " ".join(features)):
        env = dict(os.environ, PYTHONPATH=src)
        env.pop("NPY_DISABLE_CPU_FEATURES", None)
        if disabled is not None:
            env["NPY_DISABLE_CPU_FEATURES"] = disabled
        done = subprocess.run(
            [sys.executable, "-c", code],
            env=env,
            capture_output=True,
            text=True,
            check=True,
        )
        digests.append(done.stdout.strip())
    assert len(digests[0]) == 64 and digests[1] == digests[0]


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


def test_tv1_given_x_half_priority_collapses_tilt(game_tables):
    t = game_tables(8, 0.5)
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


def _tv1_by_quadrature(n, tables):
    """Average of ``tv1_given_x`` over [0, x_n] by Gauss-Legendre, split at the
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
    vals = _tv1_given_x_array(n, xs.ravel(), tables).reshape(xs.shape)
    return math.fsum((half * vals * w[None, :]).ravel()) / xn


@pytest.mark.parametrize("horizon", [5, 10, 30, 50, 150])
def test_tv1_closed_form_matches_quadrature(game_tables, horizon):
    for p in (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5):
        tables = game_tables(horizon, p)
        ns = range(1, horizon + 1)
        if horizon > 50:  # the ends and the shift; every index takes seconds
            ns = (1, 2, horizon // 2, tables.ntilde - 1, tables.ntilde, horizon)
        for n in ns:
            assert tv1(n, tables) == pytest.approx(
                _tv1_by_quadrature(n, tables), abs=1e-12
            )


def test_tv1_crossing_matches_reference_shift(game_tables):
    t25 = game_tables(10, 0.25)
    first = next(n for n in range(t25.nstar, 11) if tv1(n, t25) <= t25.w1[n - 1])
    assert first == 5
    t50 = game_tables(10, 0.5)
    first = next(n for n in range(t50.nstar, 11) if tv1(n, t50) <= t50.w1[n - 1])
    assert first == 6


@pytest.mark.parametrize(
    "horizon,priority",
    [(2, 0.75), (5, 1.0), (10, 0.25), (50, 1 / 3), (150, 0.25), (400, 0.25), (400, 0.5)],
)
def test_tables_evaluate_tv1_only_up_to_the_crossing(horizon, priority, monkeypatch):
    # at (2, 0.75) and (5, 1.0) ntilde = N, so the scan ends at N - 1
    seen = []

    def counting_tv1(n, tables):
        seen.append(n)
        return tv1(n, tables)

    monkeypatch.setattr(equilibrium, "tv1", counting_tv1)
    t = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
    assert seen == list(range(t.nstar, min(t.ntilde, horizon - 1) + 1))


def _tv1_split(n, tables):
    """``tv1`` with its kernel integrated in four pieces split at each x_k:
    the pieces below x_k, w1_k x**e ((x_k - x) + (1 - x_k) t), and above
    it, w1_k x**e (1 - x) t, with e = k - n - 1 and t = 2p - 1: the
    reference for the closed form, which does not split."""
    xn = tables.xthresholds.x(n)
    if xn <= 0.0:
        return 0.0
    t = tables.joint
    e1 = np.arange(1, tables.config.horizon - n + 1, dtype=float)  # e + 1
    xk = tables.xthresholds.values[n:]
    below = xk ** (e1 + 1) / (e1 * (e1 + 1)) + t * (1.0 - xk) * xk**e1 / e1
    above = t * ((xn**e1 - xk**e1) / e1 - (xn ** (e1 + 1) - xk ** (e1 + 1)) / (e1 + 1))
    return math.fsum(tables.w1[n:] * (below + above)) / xn


SCAN_PRIORITIES = (0.0, 0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.45, 0.5, 0.75, 1.0)


def test_ntilde_matches_the_split_tv1_scan(game_tables):
    # tv1 at nstar..min(ntilde, N - 1), the indices the tables evaluate it
    # at (test_tables_evaluate_tv1_only_up_to_the_crossing), against the
    # split form; the split scan must cross at ntilde
    games = [(big_n, p) for big_n in (1000, 400) for p in (0.25, 0.5)]
    games += [(big_n, p) for p in SCAN_PRIORITIES for big_n in range(2, 151)]
    for big_n, p in games:
        tables = game_tables(big_n, p)
        crossed = []
        for n in range(tables.nstar, min(tables.ntilde, big_n - 1) + 1):
            got, split = tv1(n, tables), _tv1_split(n, tables)
            assert abs(got - split) <= 4e-15 * abs(split), (tables.config, n)
            crossed.append(split <= tables.w1[n - 1])
        assert crossed == [False] * (tables.ntilde - tables.nstar) + [True] * (
            tables.ntilde < big_n
        ), (big_n, p)


def _fs_condition_double_sum(n, x, cfg):
    """``fs_condition`` by the paper's double sum, times x**d, term by term."""
    d, p = cfg.horizon - n, cfg.priority
    xp = x ** np.arange(0, d + 1, dtype=float)
    lhs = 2.0 * p * math.fsum((xp[d - k] - xp[d]) / k for k in range(1, d + 1))
    inner = math.fsum(
        (j / k) * xp[d - k] - xp[d - j] / (k - j) + xp[d] / k
        for k in range(1, d + 1)
        for j in range(1, k)
    )
    return bool(lhs >= -(1.0 - 2.0 * p) * inner)


def test_fs_condition_matches_the_double_sum():
    rng = np.random.default_rng(33)
    priorities = (0.0, 0.25, 0.5, 0.5 + 1e-9, 0.6, 1.0)
    ends = (1e-9, 1e-4, 0.999, 1.0 - 1e-15)
    for _ in range(60):
        big_n = int(rng.integers(2, 81))
        cfg = ProblemConfig(horizon=big_n, priority=float(rng.choice(priorities)))
        for n in {1, big_n, *rng.integers(1, big_n + 1, size=2).tolist()}:
            for x in (*ends, *rng.random(2).tolist()):
                want = _fs_condition_double_sum(n, x, cfg)
                assert fs_condition(n, x, cfg) is want, (big_n, cfg.priority, n, x)


@pytest.mark.parametrize(
    "horizon,priority,want",
    [(10, 0.25, 5), (5, 0.1, 3), (5, 0.5, 3), (50, 0.5, 31)],
)
def test_shifted_cutoff_spot_values(game_tables, horizon, priority, want):
    t = game_tables(horizon, priority)
    assert shifted_cutoff(t) == want
    assert t.ntilde == want


def test_shifted_cutoff_monotone_in_priority(game_tables):
    for horizon in (5, 10, 20):
        shifts = [game_tables(horizon, p).ntilde for p in TABLE_PRIORITIES]
        assert shifts == sorted(shifts)
        nstar = game_tables(horizon, 0.1).nstar
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


def test_classify_guards(game_tables, tables10):
    with pytest.raises(DomainError):
        classify_state(3, 1.5, tables10)
    with pytest.raises(DomainError):
        classify_state(0, 0.5, tables10)
    hot = game_tables(6, 0.75)
    with pytest.raises(UnsupportedPriority):
        classify_state(2, 0.5, hot)


def test_classify_takes_python_and_numpy_scalars(tables10):
    # a record value may be a Python float or int or a numpy double, as
    # the suite's record states hold; only arrays of one or more
    # dimensions are refused (test_oracle's table of refusals)
    for x in (0.3, 1):
        kind = classify_state(3, x, tables10)
        assert classify_state(3, np.float64(x), tables10) is kind
        assert classify_state(3, np.array(x, dtype=float), tables10) is kind
        assert RecordState(3, np.float64(x)).value == x


def _w2_fixed_order(n, xs, horizon):
    """The Horner loop that ran max d steps over every entry, with a gather
    of each entry's coefficient per step: 0 until its degree starts, then
    1 + H_d and -1/j for j = 1..d."""
    xs = np.asarray(xs, dtype=float)
    d = horizon - np.asarray(n)
    top = int(np.max(d, initial=0))
    inverse = 1.0 / np.arange(1, top + 1)
    lead = 1.0 + np.cumsum(np.concatenate(([0.0], inverse)))[d]  # 1 + H_d
    tail = np.concatenate((np.zeros(top + 1), -inverse))  # at top + j: -1/j, j > 0
    acc = np.zeros(np.broadcast_shapes(xs.shape, d.shape))
    for k in range(top + 1):
        j = k - top + d  # the entry's own step, from 0 at its leading coefficient
        acc = acc * xs + np.where(j == 0, lead, tail[top + j])
    return acc


@pytest.mark.parametrize("horizon", [1, 2, 10, 60, 150, 400])
def test_w2_array_matches_fixed_order_horner(game_tables, horizon):
    # the degree-sorted loop does each entry's multiply-adds in the same
    # order as the fixed-order loop, so the two agree bit for bit: mixed
    # degrees with d = 0 among them, unsorted and repeated
    rng = np.random.default_rng(horizon)
    ns = rng.integers(1, horizon + 1, size=300)
    ns[:3] = (horizon, 1, horizon)
    xs = np.concatenate(([0.0, 1e-300, 1.0], rng.random(297)))
    rng.shuffle(xs)
    tables = _w2_tables(game_tables, horizon)
    got, want = _w2_array(ns, xs, tables), _w2_fixed_order(ns, xs, horizon)
    assert got.shape == want.shape == (300,)
    assert np.array_equal(got, want)
    # one index per row against a row of values, broadcast (N, 1) x (1, M)
    col = np.arange(1, horizon + 1)[:, None]
    row = np.concatenate(([0.0, 1e-300, 1.0], rng.random(20)))[None, :]
    got, want = _w2_array(col, row, tables), _w2_fixed_order(col, row, horizon)
    assert got.shape == want.shape == (horizon, 23)
    assert np.array_equal(got, want)
    # one index, many values; and nothing at all
    assert np.array_equal(_w2_array(1, xs, tables), _w2_fixed_order(1, xs, horizon))
    assert _w2_array(np.array([], dtype=int), np.array([]), tables).shape == (0,)


@pytest.mark.parametrize("horizon", [2, 10, 60])
def test_stop_bars_match_stage_actions(game_tables, horizon):
    # some player stops at (n, x) exactly when x >= b_n, on a region grid
    # and at every threshold, for the six priorities of Table 1
    for p in TABLE_PRIORITIES:
        tables = game_tables(horizon, p)
        bars = stop_bars(tables)
        assert bars.shape == (horizon,)
        grid = region_map(tables, 0.01)
        assert np.array_equal(grid.kinds != "FF", grid.xs[None, :] >= bars[:, None])
        xs = np.concatenate((grid.xs, tables.xthresholds.values))
        stop1, stop2 = stage_actions(grid.ns[:, None], xs[None, :], tables)
        assert np.array_equal(stop1 | stop2, xs[None, :] >= bars[:, None])
    hot = game_tables(5, 0.9)
    with pytest.raises(UnsupportedPriority):
        stop_bars(hot)


def test_region_map_refuses_over_memory_grid(monkeypatch, tables10):
    # 10 indices x (1e9 + 1) values at 48 bytes a cell is 480 GB; against
    # 1 GiB the grid is refused before its values are built
    monkeypatch.setattr(errors, "_physical_memory", lambda: 1 << 30)
    tracemalloc.start()
    try:
        with pytest.raises(TooLarge, match="regions at horizon 10 and xstep 1e-09 need 480.0 GB"):
            region_map(tables10, 1e-9)
        with pytest.raises(TooLarge, match="need inf GB"):
            region_map(tables10, 5e-324)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    # the model's edge: 1 GiB holds 10 x 2.2e6 cells of 48 bytes, not 2.3e6
    equilibrium._check_region_size(10, 1 / 2.2e6)
    with pytest.raises(TooLarge):
        equilibrium._check_region_size(10, 1 / 2.3e6)
    # the step is checked first, and an unknown memory figure refuses nothing
    with pytest.raises(DomainError):
        equilibrium._check_region_size(10, 0.0)
    monkeypatch.setattr(errors, "_physical_memory", lambda: None)
    equilibrium._check_region_size(10, 1e-9)


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


@pytest.mark.parametrize("xstep", [1 / (11 - 5e-10), 0.1, 0.03, 0.01, 1e-3])
def test_region_map_points_stay_in_the_unit_interval(tables10, xstep):
    # the count's slack takes 1 / (11 - 5e-10) to 12 points, the last of
    # them 11 steps, just above 1: it is clamped to 1, which
    # classify_state accepts; every other point keeps its step multiple
    grid = region_map(tables10, xstep)
    steps = np.arange(len(grid.xs)) * xstep
    assert grid.xs[-1] <= 1.0
    assert np.array_equal(grid.xs[:-1], steps[:-1])
    assert grid.xs[-1] == min(steps[-1], 1.0)
    if xstep == 1 / (11 - 5e-10):
        assert len(grid.xs) == 12 and grid.xs[-1] == 1.0
    for n in (1, 10):
        kind = classify_state(n, float(grid.xs[-1]), tables10)
        assert kind.value == grid.kinds[n - 1, -1]


def test_region_map_rejects_high_priority(game_tables):
    hot = game_tables(5, 0.9)
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


def test_region_map_small_horizon_shift_start(game_tables):
    for p in TABLE_PRIORITIES:
        t = game_tables(5, p)
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


def test_bimatrix_rejects_states_without_margin(tables10):
    # an index outside 1..N, a value outside [0, 1] or NaN, and x = 0 before
    # the last stage are refused as they were through ``RecordState``
    for n, x in ((0, 0.5), (11, 0.5), (3, -0.1), (3, 1.1), (3, math.nan), (3, 0.0), (9, 0.0)):
        with pytest.raises(ValueError):
            bimatrix(n, x, tables10, ff=(0.0, 0.0))
    # x = 0 at the last stage has the margin w2 = 1
    assert bimatrix(10, 0.0, tables10, ff=(0.0, 0.0)).sf == (tables10.w1[9], -1.0)


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


PARITY_PRIORITIES = (0.0, 0.1, 0.25, 1 / 3, math.exp(-1), 0.5)
PARITY_HORIZONS = (2, 5, 10, 30, 60, 150)


def _bimatrix_cells_reference(n, x, tables):
    """(S,S), (S,F) and (F,S) cells of the bimatrix by the array path."""
    w2n = w2(RecordState(index=n, value=x), tables.config)
    stop1 = np.array([True, True, False])
    stop2 = np.array([True, False, True])
    cells = stage_cells(n, stop1, stop2, w2n, tables).T.tolist()
    return [tuple(c) for c in cells]


def _is_pure_nash_reference(bm, kind):
    """``Bimatrix.is_pure_nash`` through a table keyed by action pairs."""
    cells = {("S", "S"): bm.ss, ("S", "F"): bm.sf, ("F", "S"): bm.fs, ("F", "F"): bm.ff}
    a1, a2 = kind.value
    here = cells[(a1, a2)]
    dev1 = cells[("F" if a1 == "S" else "S", a2)]
    dev2 = cells[(a1, "F" if a2 == "S" else "S")]
    return dev1[0] <= here[0] and dev2[1] <= here[1]


@pytest.mark.parametrize("horizon", PARITY_HORIZONS)
def test_stage_cells_scalar_path_matches_array_path(game_tables, horizon):
    # ``_cell`` scores one cell in two Python floats, bit for bit the
    # array path's
    rng = np.random.default_rng(horizon)
    margins = [0.0, -0.0, 1e-300, -1e-300, 1.0] + rng.uniform(-1, 1, 5).tolist()
    for priority in PARITY_PRIORITIES:
        tables = game_tables(horizon, priority)
        joint = 2.0 * priority - 1.0
        for n in range(1, horizon + 1):
            w1n = tables.w1.item(n - 1)
            for stop1, stop2 in ((True, True), (True, False), (False, True)):
                for w in margins:
                    got = _cell(stop1, stop2, joint, w1n, w)
                    assert type(got) is tuple
                    assert all(type(v) is float for v in got)
                    want = stage_cells(n, stop1, stop2, w, tables)
                    assert got == tuple(want.tolist())


@pytest.mark.parametrize("horizon", PARITY_HORIZONS)
def test_bimatrix_matches_array_path(game_tables, horizon):
    # cells equal the array path bit for bit, the (F,F) cell is passed
    # through as floats, and every Nash verdict is the one of a table keyed
    # by action pairs, ties included
    rng = np.random.default_rng(horizon)
    for priority in PARITY_PRIORITIES:
        tables = game_tables(horizon, priority)
        xs = tables.xthresholds.values.tolist() + [1.0, 1e-300]
        xs += rng.random(50).tolist()
        for n in sorted({1, horizon // 2, horizon - 1, horizon}):
            for x in xs + ([0.0] if n == horizon else []):
                if x == 0.0 and n < horizon:
                    continue  # w2 rejects it on both paths
                ss, sf, fs = _bimatrix_cells_reference(n, x, tables)
                for ff in ((0.0, 0.0), tuple(rng.uniform(-0.2, 0.2, 2)), (sf[0], fs[1])):
                    bm = bimatrix(n, x, tables, ff)
                    assert (bm.ss, bm.sf, bm.fs) == (ss, sf, fs)
                    assert bm.ff == ff
                    for cell in (bm.ss, bm.sf, bm.fs, bm.ff):
                        assert all(type(v) is float for v in cell)
                    for kind in EquilibriumKind:
                        assert bm.is_pure_nash(kind) == _is_pure_nash_reference(bm, kind)


def test_bimatrix_cell_layout():
    bm = Bimatrix(ss=(1.0, 2.0), sf=(3.0, 4.0), fs=(5.0, 6.0), ff=(7.0, 8.0))
    assert bm.cell("S", "S") == bm.ss
    assert bm.cell("S", "F") == bm.sf
    assert bm.cell("F", "S") == bm.fs
    assert bm.cell("F", "F") == bm.ff
    # an action outside {S, F} is out of the domain, as README says
    with pytest.raises(DomainError):
        bm.cell("S", "X")
    with pytest.raises(DomainError):
        bm.cell("X", "F")
    # each action is checked on its own, not their concatenation, and an
    # array or a list is no action, whatever it holds
    odd = (("SS", ""), ("", "FF"), ("SF", ""), (np.array(["S"]), "F"))
    for actions in (*odd, (np.array(["S", "F"]), "S"), (["S"], "F")):
        with pytest.raises(DomainError):
            bm.cell(*actions)
    for kind in EquilibriumKind:
        assert bm.cell(kind.action1, kind.action2) == bm[kind.position]


def test_bimatrix_is_an_immutable_named_tuple():
    cells = ((1.0, 2.0), (3.0, 4.0), (5.0, 6.0), (7.0, 8.0))
    bm = Bimatrix(*cells)
    assert bm == cells
    assert bm == Bimatrix(ss=cells[0], sf=cells[1], fs=cells[2], ff=cells[3])
    assert (bm.ss, bm.sf, bm.fs, bm.ff) == cells
    for name in ("ss", "sf", "fs", "ff"):
        with pytest.raises(AttributeError):
            setattr(bm, name, (0.0, 0.0))
    assert bm == cells  # the refused assignments changed nothing


def test_equilibrium_kind_round_trips_and_carries_its_stop_flags():
    for kind in EquilibriumKind:
        assert EquilibriumKind(kind.value) is kind
        first, second = kind.value
        assert (kind.action1, kind.action2) == (first, second)
        assert kind.stop1 is (first == "S")
        assert kind.stop2 is (second == "S")
    assert [kind.value for kind in EquilibriumKind] == ["SS", "SF", "FS", "FF"]
    # its position is the index of its cell in a Bimatrix
    assert [kind.position for kind in EquilibriumKind] == [0, 1, 2, 3]
    with pytest.raises(ValueError):
        EquilibriumKind("SX")


@pytest.mark.parametrize("horizon", (2, 3, 10, 50, 400, 1000))
def test_w1_values_match_scalar_w1(horizon):
    # the exact rank suffix gives math.fsum's correctly rounded sum, so
    # every entry is the scalar margin bit for bit
    cfg = ProblemConfig(horizon=horizon)
    got = equilibrium._w1_values(cfg)
    assert all(type(v) is float for v in got)
    assert got == [w1(n, cfg) for n in range(1, horizon + 1)]


def test_w1_values_match_scalar_w1_at_5000():
    # every 37th index and the ends: the scalar reference costs O(N) each
    cfg = ProblemConfig(horizon=5000)
    got = equilibrium._w1_values(cfg)
    for n in [*range(1, 5001, 37), 4999, 5000]:
        assert got[n - 1] == w1(n, cfg), n


def _running_sum_cutoff(horizon):
    """The cutoff by one running float sum of 1/n from n = N - 1 down."""
    acc = 0.0
    for n in range(horizon - 1, 0, -1):
        acc += 1.0 / n
        if acc > 1.0:
            return n + 1
    return 1


def test_cutoff_is_where_w1_turns_nonnegative(game_tables):
    # nstar and w1 read one correctly rounded suffix, so the sign of w1
    # switches exactly at nstar, where GameTables reads its nstar; the
    # cutoff is still the running sum's
    for horizon in [*range(2, 1001), 2000, 5000, 10**4]:
        cfg = ProblemConfig(horizon=horizon)
        nstar = secretary_cutoff(cfg)
        assert nstar == _running_sum_cutoff(horizon), horizon
        margins = equilibrium._w1_values(cfg)
        assert all((w >= 0) == (n >= nstar) for n, w in enumerate(margins, 1)), horizon
        if horizon <= 150:  # the tables' thresholds and ntilde scan cost more
            assert game_tables(horizon, cfg.priority).nstar == nstar, horizon


def test_game_tables_carry_the_game_constants(game_tables):
    # 2p - 1 and the w2 lists of every degree d = N - n of the game, built
    # once with the tables; w2 builds the lists of its own degree
    tables = game_tables(50, 1 / 3)
    assert tables.joint == 2.0 * (1 / 3) - 1.0
    assert len(tables.inverses) == len(tables.harmonics) == 50
    assert tables.inverses[:3] == (0.0, 1.0, 0.5)
    assert tables.harmonics[3] == 1.0 + 0.5 + 1 / 3


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_game_tables(ProblemConfig(horizon=10, priority=0.25)),
        lambda: build_game_tables(ProblemConfig(horizon=10)).xthresholds,
        lambda: region_map(build_game_tables(ProblemConfig(horizon=10)), 0.01),
    ],
    ids=["GameTables", "ThresholdVector", "RegionGrid"],
)
def test_array_holding_types_compare_and_hash_by_identity(build):
    # comparing their arrays field by field raised ValueError, and they
    # had no hash
    first, second = build(), build()
    assert first is not second
    assert first == first and first != second
    assert hash(first) == hash(first) != hash(second)
    assert len({first, second, first}) == 2


@pytest.mark.parametrize("horizon", [2, 10, 400])
def test_game_tables_derive_every_table_from_the_game(game_tables, horizon):
    # they took the thresholds, nstar and w1 from the caller, and took
    # another game's without complaint: at N = 10, p = 0.25, nstar = 1
    # moved the game value from (-0.00927, 0.27395) to (-0.02839, 0.21906)
    built = game_tables(horizon, 0.25)
    cfg = built.config
    with pytest.raises(TypeError):
        GameTables(config=cfg, xthresholds=built.xthresholds, nstar=1, w1=built.w1)
    tables = GameTables(cfg)
    for name in (f.name for f in fields(GameTables)):
        mine, want = getattr(tables, name), getattr(built, name)
        if name == "xthresholds":
            mine, want = mine.values, want.values
        if isinstance(mine, np.ndarray):
            assert mine.dtype == want.dtype and mine.tobytes() == want.tobytes(), name
        else:
            assert type(mine) is type(want) and mine == want, name
    assert not tables.w1.flags.writeable


def test_region_grid_holds_read_only_views():
    # it froze the caller's own arrays; a grid can be large, so it keeps
    # views of them, not copies
    ns, xs = np.arange(1, 4), np.linspace(0.0, 1.0, 5)
    kinds = np.full((3, 5), "FF")
    grid = RegionGrid(ns=ns, xs=xs, kinds=kinds)
    for mine, held in ((ns, grid.ns), (xs, grid.xs), (kinds, grid.kinds)):
        assert np.shares_memory(mine, held) and not held.flags.writeable
    ns[0], xs[0], kinds[0, 0] = 7, 0.5, "SS"  # the caller's arrays stay writable
    assert (grid.ns[0], grid.xs[0], grid.kinds[0, 0]) == (7, 0.5, "SS")
