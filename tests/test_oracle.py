import math
import tracemalloc
from fractions import Fraction
from itertools import accumulate, permutations
from types import SimpleNamespace

import numpy as np
import pytest

from bcgame import models, oracle
from bcgame._rng import batch_generator
from bcgame.equilibrium import (
    bimatrix,
    classify_state,
    fs_condition,
    region_map,
    tv1,
    w1,
)
from bcgame.errors import DomainError, TooLarge
from bcgame.models import (
    ProblemConfig,
    RecordState,
    ThresholdVector,
    fullinfo_threshold,
    fullinfo_thresholds,
    rank_transition,
    record_transition_density,
    secretary_stop_reward,
)
from bcgame.oracle import (
    OracleReport,
    _secretary_wins,
    fullinfo_mc_check,
    game_exhaustive_small,
    run_verification_suite,
    secretary_exhaustive,
)
from bcgame.valuation import continuation


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
    with pytest.raises(ValueError):
        secretary_exhaustive(5, 6)


def _wins_by_cutoff_loop(horizon, cutoff):
    # one enumeration per cutoff, stopping at the first record at an
    # index >= cutoff: the reference the one-pass count must reproduce
    wins = 0
    for perm in permutations(range(1, horizon + 1)):
        best = 0
        for i, v in enumerate(perm, start=1):
            if v > best:
                best = v
                if i >= cutoff:
                    wins += v == horizon
                    break
    return wins


def _secretary_wins_loop(horizon):
    # the one-pass count as a Python loop over the permutations
    diff = [0] * (horizon + 2)
    for perm in permutations(range(1, horizon + 1)):
        m = perm.index(horizon) + 1
        q = perm.index(max(perm[: m - 1])) + 1 if m > 1 else 0
        diff[q + 1] += 1
        diff[m + 1] -= 1
    return list(accumulate(diff[1 : horizon + 1]))


def _orders(horizon):
    *_, orders = oracle._rank_orders(horizon)
    return orders


@pytest.mark.parametrize("horizon", range(2, 8))
def test_secretary_wins_match_per_cutoff_enumeration(horizon):
    wins = _secretary_wins(_orders(horizon))
    assert all(type(w) is int for w in wins)
    assert wins == [_wins_by_cutoff_loop(horizon, r) for r in range(1, horizon + 1)]


@pytest.mark.parametrize("horizon", range(2, 9))
def test_secretary_wins_match_the_permutation_loop(horizon):
    orders = _orders(horizon)
    assert orders.dtype == np.int8
    assert sorted(map(tuple, orders.tolist())) == list(
        permutations(range(1, horizon + 1))
    )
    assert _secretary_wins(orders) == _secretary_wins_loop(horizon)


def test_suite_enumerates_each_horizon_once(monkeypatch):
    built, scored = [], []
    rank_orders, secretary_wins = oracle._rank_orders, oracle._secretary_wins

    def counting_orders(horizon):
        built.append(horizon)
        return rank_orders(horizon)

    def counting_wins(orders):
        scored.append(orders.shape[1])
        return secretary_wins(orders)

    monkeypatch.setattr(oracle, "_rank_orders", counting_orders)
    monkeypatch.setattr(oracle, "_secretary_wins", counting_wins)
    run_verification_suite(samples=2_000, seed=42)
    assert built == [8]
    assert scored == [5, 6, 7, 8]


def test_fullinfo_check_two_stage_value():
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=2))
    report = fullinfo_mc_check(thresholds, samples=50_000, seed=21)
    assert report.solver_value == pytest.approx(0.75, abs=1e-12)
    assert report.passed


def test_fullinfo_check_single_object():
    report = fullinfo_mc_check(ThresholdVector(np.array([0.0])), samples=10_000, seed=2)
    assert report.solver_value == 1.0
    assert report.oracle_value == 1.0
    assert report.passed


def test_fullinfo_check_ten_stage():
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=10))
    report = fullinfo_mc_check(thresholds, samples=100_000, seed=4)
    # classical full-information solo value at this horizon
    assert report.solver_value == pytest.approx(0.608699, abs=1e-6)
    assert report.passed


def test_bent_thresholds_lower_the_rule_value():
    base = fullinfo_thresholds(ProblemConfig(horizon=10))
    bent = ThresholdVector(np.clip(base.values + 0.2, 0.0, 0.999))
    assert oracle._rule_value(bent) < oracle._rule_value(base) - 1e-3
    # the Monte Carlo check still agrees with the closed form for the bent
    # rule: both sides evaluate the same (suboptimal) rule
    report = fullinfo_mc_check(bent, samples=100_000, seed=4)
    assert report.passed


def _rule_value_polys(horizon, thresholds):
    """Reference: the rule's win probability by exact piecewise-polynomial
    backward recursion on record states, for any table: U(n, .) is
    x^(N-n) above x_n and the sum over k > n of x^(k-n-1) times the
    integral of U(k, .) from x to 1 below it.  Stage n is one (segments x
    (N-n+1)) array of ascending coefficients, a row for each segment
    between breakpoints; O(N^3) memory."""
    breaks = np.unique(np.concatenate(([0.0, 1.0], thresholds.values)))
    ends = np.stack((breaks[1:], breaks[:-1]))  # b and a of each segment
    upper = {}  # int_x^1 U(k, t) dt, one row a segment
    for n in range(horizon, 0, -1):
        width = horizon - n + 1
        stage = np.zeros((ends.shape[1], width))
        for k in range(n + 1, horizon + 1):
            stage[:, k - n - 1 :] += upper[k]
        above = ends[1] >= thresholds.x(n)
        stage[above] = 0.0
        stage[above, -1] = 1.0
        anti = np.zeros((ends.shape[1], width + 1))
        np.divide(stage, np.arange(1, width + 1), out=anti[:, 1:])
        at = anti[:, -1] + ends * 0
        for j in range(width - 1, -1, -1):
            at = anti[:, j] + at * ends
        fulls = at[0] - at[1]
        tails = np.cumsum(fulls[::-1])[::-1]  # int_a^1 U(n, t) dt
        upper[n] = -anti
        upper[n][:, 0] += np.append(tails[1:], 0.0) + at[0]
    return math.fsum(fulls)


@pytest.mark.parametrize("horizon", [*range(2, 61), 100, 200])
def test_rule_value_matches_array_recursion(horizon):
    # solved, raised (clipped, so equal thresholds repeat) and zero tables
    base = fullinfo_thresholds(ProblemConfig(horizon=horizon)).values
    for values in (base, np.clip(base + 0.2, 0.0, 0.999), np.zeros(horizon)):
        thresholds = ThresholdVector(values)
        want = _rule_value_polys(horizon, thresholds)
        assert oracle._rule_value(thresholds) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("horizon", [100, 200])
def test_rule_value_memory_is_a_stage_row(horizon):
    # one stage row of addends at a time, about 50 bytes a lane; all the
    # N^2 addends at once would take 8 N^2 bytes or more
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=horizon))
    oracle._rule_value(thresholds)  # first-call imports
    tracemalloc.start()
    try:
        oracle._rule_value(thresholds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 128 * horizon + 4096


def _rule_value_fractions(x):
    """Reference: the closed form's sum done exactly in rationals on the
    same doubles, with m = n - 1: P = (1 - x_1^N)/N + sum_{n>=2} (1/m)
    sum_{j<n} [(x_j^N - x_n^N)/N + x_j^m (1 - x_j^(N-n+1))/(N-n+1)]."""
    x = [Fraction(v) for v in x]
    big_n = len(x)
    total = (1 - x[0] ** big_n) / big_n
    for n in range(2, big_n + 1):
        m, d = n - 1, big_n - n + 1
        xn = x[n - 1] ** big_n
        total += sum(
            ((xj**big_n - xn) / big_n + xj**m * (1 - xj**d) / d) / m for xj in x[:m]
        )
    return total


@pytest.mark.parametrize("horizon", [2, 3, 10, 25])
def test_rule_value_within_rounding_of_fractions(horizon):
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=horizon))
    want = _rule_value_fractions(thresholds.values.tolist())
    assert abs(Fraction(oracle._rule_value(thresholds)) - want) <= 1e-15


def _bend_gains(thresholds):
    """Reference: every bend of the optimality row by two full calls."""
    x = thresholds.values
    value = oracle._rule_value(thresholds)
    highs, lows = np.append(1.0, x[:-1]), np.append(x[1:], 0.0)
    gains = []
    for i, xi in enumerate(x):
        for y in (max(xi - oracle._BEND, lows[i]), min(xi + oracle._BEND, highs[i])):
            bent = x.copy()
            bent[i] = y
            gains.append(oracle._rule_value(ThresholdVector(bent)) - value)
    return gains


def test_rule_optimality_fails_a_bent_table_and_passes_the_solved_one():
    # the +0.2 table does not increase, so the closed form takes it, and
    # lowering its thresholds gains value; the change of the addends that
    # hold the bent threshold matches the change of the whole sum
    base = fullinfo_thresholds(ProblemConfig(horizon=10))
    bent = ThresholdVector(np.clip(base.values + 0.2, 0.0, 0.999))
    report = oracle._rule_optimality(bent)
    assert not report.passed
    assert report.quantity == "fullinfo.rule_value.optimality.N10"
    assert report.solver_value == pytest.approx(max(_bend_gains(bent)), abs=1e-15)
    assert report.solver_value > 9e-4
    report = oracle._rule_optimality(base)
    assert report.passed
    assert max(_bend_gains(base)) <= 1e-15
    # a table that rises fails without raising
    rising = ThresholdVector(np.random.default_rng(5).random(10))
    assert oracle._rule_optimality(rising).solver_value == math.inf


@pytest.mark.parametrize("horizon", [2, 3, 10, 50])
def test_rule_value_gradient_is_the_threshold_equation(horizon):
    # dP/dx_i = -x_i^(i-1) w2_i(x_i), d = N - i: the first-order condition
    # of the rule value is the indifference w2_i(x_i) = 0.  Checked by
    # central differences on tables bent off the solved one by a power,
    # which keeps them strictly decreasing; a difference quotient moves the
    # N or so addends that hold x_i, each below 1, so its rounding is at
    # most about N ulp over h, far above its h^2 term
    h = 1e-6
    bound = horizon * 2.0**-52 / h
    base = fullinfo_thresholds(ProblemConfig(horizon=horizon)).values
    for power in (0.9, 1.5):
        x = base**power
        for i in range(1, horizon):
            up, down = x.copy(), x.copy()
            up[i - 1] += h
            down[i - 1] -= h
            rise = oracle._rule_value(ThresholdVector(up))
            fall = oracle._rule_value(ThresholdVector(down))
            want = -(x[i - 1] ** (i - 1)) * oracle._w2_power_sum(i, x[i - 1], horizon)
            assert abs((rise - fall) / (2 * h) - want) <= bound, (power, i)


def test_threshold_residual_is_inf_where_a_power_is_not_finite():
    # 0.0 ** -1 divides by zero and 1e-300 ** -2 overflows: no threshold
    # there, so the residual row fails; at the root of d = 1 it is exact
    assert oracle._threshold_residual(0.0, 5) == math.inf
    assert oracle._threshold_residual(1e-300, 5) == math.inf
    assert oracle._threshold_residual(0.5, 1) == 0.0


@pytest.mark.parametrize(
    "thresholds", [10, ThresholdVector(np.array([]))], ids=["int", "empty"]
)
def test_fullinfo_check_refuses_anything_but_a_table(monkeypatch, thresholds):
    # a horizon where the table goes, or a table of no thresholds, is
    # refused before the exact value is computed or a stream is drawn
    def reached(*args):
        raise AssertionError("reached past the entry check")

    monkeypatch.setattr(oracle, "_rule_value", reached)
    monkeypatch.setattr(oracle, "batch_generator", reached)
    with pytest.raises(DomainError) as caught:
        fullinfo_mc_check(thresholds, samples=1000)
    assert str(caught.value) == (
        f"thresholds must be a non-empty ThresholdVector, got {thresholds!r}"
    )


def _fullinfo_mc_check_one_shot(horizon, thresholds, samples, seed):
    """Reference: the check drawing each batch whole, as (rows, N) arrays."""
    dp_value = oracle._rule_value(thresholds)
    thr = thresholds.values
    wins = 0
    remaining = samples
    batch_index = 0
    while remaining > 0:
        nb = min(oracle._MC_BATCH, remaining)
        x = batch_generator(seed, batch_index).random((nb, horizon))
        running = np.maximum.accumulate(x, axis=1)
        rec = np.empty((nb, horizon), dtype=bool)
        rec[:, 0] = True
        rec[:, 1:] = x[:, 1:] > running[:, :-1]
        stops = rec & (x >= thr[None, :])
        first = np.argmax(stops, axis=1)
        rows = np.nonzero(stops.any(axis=1))[0]
        wins += int(np.sum(x[rows, first[rows]] == running[rows, -1]))
        remaining -= nb
        batch_index += 1
    rate = wins / samples
    se = math.sqrt(max(rate * (1.0 - rate), 1e-300) / samples)
    return OracleReport(
        quantity=f"fullinfo.rule_win_rate.N{horizon}",
        oracle_value=rate,
        solver_value=dp_value,
        tolerance=4.0 * se,
        method=f"monte carlo ({samples} samples, seed {seed}) vs first-stop closed form",
    )


@pytest.mark.parametrize("horizon", [1, 2, 3, 10, 25])
def test_fullinfo_check_chunks_match_one_shot_draw(horizon):
    # chunk boundaries inside and across the 131072-sequence batches
    # change no sequence and no count
    chunk = max(1, oracle._MC_BUDGET // horizon)
    counts = {1, 7, chunk - 1, chunk, chunk + 1, 131_073, 200_000}
    values = [fullinfo_threshold(horizon - n) for n in range(1, horizon + 1)]
    thresholds = ThresholdVector(np.array(values))
    for samples in sorted(counts):
        for seed in (42, 7):
            want = _fullinfo_mc_check_one_shot(horizon, thresholds, samples, seed)
            assert fullinfo_mc_check(thresholds, samples=samples, seed=seed) == want


def test_fullinfo_check_chunks_match_one_shot_draw_tampered():
    base = fullinfo_thresholds(ProblemConfig(horizon=10)).values
    descending = np.sort(np.random.default_rng(5).random(10))[::-1]
    for values in (np.clip(base + 0.2, 0.0, 0.999), descending, np.zeros(10)):
        bent = ThresholdVector(values)
        for samples in (6_553, 131_073):
            want = _fullinfo_mc_check_one_shot(10, bent, samples, 3)
            assert fullinfo_mc_check(bent, samples=samples, seed=3) == want


def test_fullinfo_check_refuses_a_rising_table(monkeypatch):
    # a table that rises is outside the closed form's domain: the row
    # refuses it before a stream is drawn, and never passes it
    def never_called(*args):
        raise AssertionError("drew for a rising table")

    rising = ThresholdVector(np.random.default_rng(5).random(10))
    assert rising.x(2) > rising.x(1)
    monkeypatch.setattr(oracle, "batch_generator", never_called)
    with pytest.raises(DomainError) as caught:
        fullinfo_mc_check(rising, samples=1000)
    assert str(caught.value) == "thresholds must not increase, x_2 > x_1"


def test_fullinfo_check_memory_independent_of_horizon():
    # drawn whole, a batch at N = 10 holds 131072 x 10 draws and their
    # running maximum (21 MB), at N = 60 six times that; the chunk buffers
    # hold one budget of 65536 draws, 1.2 MB whatever N, and the exact
    # value one stage row of its sum
    first = fullinfo_thresholds(ProblemConfig(horizon=10))
    fullinfo_mc_check(first, samples=100)  # first-call imports
    for horizon in (10, 60):
        thresholds = fullinfo_thresholds(ProblemConfig(horizon=horizon))
        tracemalloc.start()
        try:
            fullinfo_mc_check(thresholds, samples=200_000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20, horizon


def _game_exhaustive_small_whole_arrays(tables):
    """Reference: the joint-grid value of the game of ``tables`` from
    whole-array temporaries."""
    horizon, priority = tables.config.horizon, tables.config.priority
    mesh = oracle._MESH
    mid = (np.arange(mesh) + 0.5) / mesh
    last1 = 2.0 * priority - 1.0
    last2 = 1.0 - 2.0 * priority
    pay1_1, pay2_1, stop1 = oracle._stop_payoffs(1, mid, tables)
    frac_above = (mesh - 1 - np.arange(mesh)) / mesh
    if horizon == 2:
        val1 = np.where(stop1, pay1_1, frac_above * last1)
        val2 = np.where(stop1, pay2_1, frac_above * last2)
        return val1.mean(), val2.mean()
    pay1_2, pay2_2, stop2 = oracle._stop_payoffs(2, mid, tables)
    record2 = mid[None, :] > mid[:, None]
    s2 = record2 & stop2[None, :]
    c2 = record2 & ~stop2[None, :]
    c1 = ~record2
    cont_from_x2 = frac_above[None, :]
    cont_from_x1 = frac_above[:, None]
    out = []
    for pay_1, pay_2, last in ((pay1_1, pay1_2, last1), (pay2_1, pay2_2, last2)):
        cont = np.where(
            stop1[:, None],
            pay_1[:, None],
            s2 * pay_2[None, :] + c2 * cont_from_x2 * last + c1 * cont_from_x1 * last,
        )
        out.append(cont.mean())
    return tuple(out)


@pytest.mark.parametrize("horizon", [2, 3])
def test_game_exhaustive_matches_whole_array_reference(game_tables, horizon):
    for priority in (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5):
        got = game_exhaustive_small(horizon, priority)
        want = _game_exhaustive_small_whole_arrays(game_tables(horizon, priority))
        assert repr(got.as_tuple()) == repr(tuple(float(v) for v in want)), priority


def test_game_exhaustive_memory_is_one_buffer_and_one_mask():
    # at horizon 3 the integrand buffer (8 MB) and the record mask (1 MB)
    # dominate; a mask per integrand term would add 1 MB each
    game_exhaustive_small(3, 0.25)  # first-call imports
    tracemalloc.start()
    try:
        game_exhaustive_small(3, 0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20


def test_game_exhaustive_guards():
    with pytest.raises(TooLarge):
        game_exhaustive_small(4, 0.25)


@pytest.mark.parametrize("priority", [0.0, 0.25, 0.5])
def test_game_exhaustive_matches_induction_two_stage(induced, priority):
    _, dp = induced(2, priority)
    grid = game_exhaustive_small(2, priority)
    assert grid.val1 == pytest.approx(dp.val1, abs=1e-4)
    assert grid.val2 == pytest.approx(dp.val2, abs=1e-4)


def test_game_exhaustive_matches_induction_three_stage(induced):
    _, dp = induced(3, 0.25)
    grid = game_exhaustive_small(3, 0.25)
    assert grid.val1 == pytest.approx(dp.val1, abs=1e-3)
    assert grid.val2 == pytest.approx(dp.val2, abs=1e-3)


def test_game_exhaustive_priority_probe():
    low = game_exhaustive_small(2, 0.0)
    high = game_exhaustive_small(2, 0.5)
    assert low.val2 >= high.val2


def test_package_loads_oracle_names_on_first_use():
    import bcgame

    assert bcgame.run_verification_suite is bcgame.oracle.run_verification_suite
    from bcgame import OracleReport as exported

    assert exported is OracleReport
    with pytest.raises(AttributeError, match="no attribute 'not_a_name'"):
        bcgame.not_a_name


def test_samples_below_one_are_refused_before_computing(monkeypatch):
    def never_called(*args, **kwargs):
        raise AssertionError("computed before the samples check")

    monkeypatch.setattr(oracle, "_secretary_wins", never_called)
    monkeypatch.setattr(oracle, "_rule_value", never_called)
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=10))
    for samples in (0, -5):
        message = f"samples must be >= 1, got {samples}"
        with pytest.raises(DomainError, match=message):
            run_verification_suite(samples=samples)
        with pytest.raises(DomainError, match=message):
            fullinfo_mc_check(thresholds, samples=samples)


def test_seeds_outside_the_stream_keys_are_refused_before_computing(monkeypatch):
    # the keys read a seed modulo 2**64, and the suite also plays seed + 1
    # and seed + 2, so its last seed is 2**64 - 3
    def never_called(*args, **kwargs):
        raise AssertionError("computed before the seed check")

    monkeypatch.setattr(oracle, "_secretary_wins", never_called)
    monkeypatch.setattr(oracle, "_rule_value", never_called)
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=10))
    for seed in (-1, (1 << 64) - 2, 1 << 64):
        with pytest.raises(DomainError) as caught:
            run_verification_suite(seed=seed)
        assert str(caught.value) == f"seed must be in [0, 2**64 - 2), got {seed}"
    for seed in (-1, 1 << 64):
        with pytest.raises(DomainError) as caught:
            fullinfo_mc_check(thresholds, seed=seed)
        assert str(caught.value) == f"seed must be in [0, 2**64), got {seed}"


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda game: ProblemConfig(horizon=1), "horizon must be >= 2, got 1"),
        (
            lambda game: ProblemConfig(horizon=5, priority=1.5),
            "priority must be in [0, 1], got 1.5",
        ),
        (lambda game: RecordState(index=0, value=0.5), "index must be >= 1, got 0"),
        (
            lambda game: RecordState(index=1, value=-0.1),
            "value must be in [0, 1], got -0.1",
        ),
        (lambda game: secretary_exhaustive(1, 1), "horizon must be >= 2, got 1"),
        (lambda game: secretary_exhaustive(5, 6), "cutoff 6 outside 1..5"),
        (lambda game: game_exhaustive_small(1, 0.25), "horizon must be >= 2, got 1"),
        (
            lambda game: fullinfo_mc_check(0),
            "thresholds must be a non-empty ThresholdVector, got 0",
        ),
        (lambda game: run_verification_suite(samples=0), "samples must be >= 1, got 0"),
        (
            lambda game: ProblemConfig(horizon=10, priority="0.25"),
            "priority must be in [0, 1], got '0.25'",
        ),
        (lambda game: RecordState(1, "0.5"), "value must be in [0, 1], got '0.5'"),
        (
            lambda game: classify_state(1, None, game.tables),
            "value must be in [0, 1], got None",
        ),
        (
            lambda game: continuation(1, None, game.vf, 1),
            "value must be in [0, 1], got None",
        ),
        (
            lambda game: region_map(game.tables, "0.1"),
            "xstep must lie in (0, 0.1], got '0.1'",
        ),
        (
            lambda game: fs_condition(
                1, "0.5", ProblemConfig(horizon=10, priority=0.25)
            ),
            "x must lie in (0, 1), got '0.5'",
        ),
        (
            lambda game: ThresholdVector(0.5),
            "thresholds must be a row in [0, 1], got 0.5",
        ),
        (
            lambda game: ThresholdVector("ab"),
            "thresholds must be a row in [0, 1], got 'ab'",
        ),
        (
            lambda game: ThresholdVector(np.zeros((2, 2))),
            "thresholds must be a row in [0, 1], got " + repr(np.zeros((2, 2))),
        ),
        (
            lambda game: ThresholdVector([1.5, 0.2]),
            "thresholds must be a row in [0, 1], got [1.5, 0.2]",
        ),
        (
            lambda game: ThresholdVector([0.7, -0.1]),
            "thresholds must be a row in [0, 1], got [0.7, -0.1]",
        ),
        (
            lambda game: ThresholdVector([0.5, math.nan]),
            "thresholds must be a row in [0, 1], got [0.5, nan]",
        ),
        (
            lambda game: continuation(2.0, 0.5, game.vf, 1),
            "index must be an integer, got 2.0",
        ),
        (
            lambda game: classify_state(2.0, 0.5, game.tables),
            "index must be an integer, got 2.0",
        ),
        (
            lambda game: game.vf.value_at(2.0, 0.5, 1),
            "index must be an integer, got 2.0",
        ),
        (lambda game: tv1(2.0, game.tables), "index must be an integer, got 2.0"),
        (
            lambda game: game.tables.xthresholds.x(2.0),
            "index must be an integer, got 2.0",
        ),
        (
            lambda game: game.vf.stage_average(2.0, 1),
            "index must be an integer, got 2.0",
        ),
        (
            lambda game: bimatrix(2.5, 0.5, game.tables, (0.0, 0.0)),
            "index must be an integer, got 2.5",
        ),
        (
            lambda game: w1(2.5, ProblemConfig(horizon=10)),
            "index must be an integer, got 2.5",
        ),
        (
            lambda game: secretary_stop_reward(2.5, ProblemConfig(horizon=10)),
            "index must be an integer, got 2.5",
        ),
        (
            lambda game: rank_transition(2.5, 4),
            "candidate index must be an integer, got 2.5",
        ),
        (
            lambda game: record_transition_density(RecordState(2, 0.5), 4.5),
            "index must be an integer, got 4.5",
        ),
        (
            lambda game: continuation(2, 0.5, game.vf, 1.0),
            "player must be an integer, got 1.0",
        ),
        (
            lambda game: game.vf.value_at(2, 0.5, 2.0),
            "player must be an integer, got 2.0",
        ),
        (
            lambda game: game.vf.stage_average(1, 1.0),
            "player must be an integer, got 1.0",
        ),
        (
            lambda game: secretary_exhaustive(5.0, 3),
            "horizon must be an integer, got 5.0",
        ),
        (
            lambda game: secretary_exhaustive(5, 3.0),
            "cutoff must be an integer, got 3.0",
        ),
        (
            lambda game: game.bimatrix.cell("X", "F"),
            """actions must be "S" or "F", got ('X', 'F')""",
        ),
        (
            lambda game: game.bimatrix.cell("s", "f"),
            """actions must be "S" or "F", got ('s', 'f')""",
        ),
        (
            lambda game: game.bimatrix.is_pure_nash("SS"),
            "kind must be an EquilibriumKind, got 'SS'",
        ),
        (
            lambda game: game.bimatrix.is_pure_nash(None),
            "kind must be an EquilibriumKind, got None",
        ),
        (
            lambda game: classify_state(3, np.array([0.5]), game.tables),
            "value must be in [0, 1], got array([0.5])",
        ),
        (
            lambda game: classify_state(3, np.array([0.5, 0.6]), game.tables),
            "value must be in [0, 1], got array([0.5, 0.6])",
        ),
    ],
    ids=[
        "config-horizon", "config-priority", "state-index", "state-value",
        "secretary-horizon", "secretary-cutoff", "joint-grid-horizon",
        "fullinfo-horizon", "suite-samples", "config-priority-string",
        "state-value-string", "classify-value-none", "continuation-value-none",
        "region-xstep-string", "fs-value-string", "thresholds-scalar",
        "thresholds-string", "thresholds-matrix", "thresholds-above-one",
        "thresholds-below-zero", "thresholds-nan", "continuation-index",
        "classify-index", "value-at-index", "tv1-index", "threshold-index",
        "stage-average-index", "bimatrix-index", "w1-index",
        "secretary-stop-index", "rank-transition-index", "record-density-index",
        "continuation-player", "value-at-player", "stage-average-player",
        "secretary-integer-horizon", "secretary-integer-cutoff",
        "bimatrix-cell-action", "bimatrix-cell-lowercase",
        "nash-kind-string", "nash-kind-none", "classify-value-one-element-array",
        "classify-value-two-element-array",
    ],
)
def test_out_of_domain_input_is_a_domain_error(induced, call, message):
    # a BcgameError, and a ValueError too, so callers catching that still
    # do; ``call`` reads the game at (10, 0.25) from ``game``
    vf, _ = induced(10, 0.25)
    bm = bimatrix(2, 0.5, vf.tables, (0.0, 0.0))
    game = SimpleNamespace(tables=vf.tables, vf=vf, bimatrix=bm)
    with pytest.raises(DomainError) as caught:
        call(game)
    assert str(caught.value) == message


def test_report_consistency():
    r = OracleReport("x", 1.0, 1.0 + 5e-13, 1e-12, "m")
    assert r.passed and r.abs_diff <= r.tolerance
    r2 = OracleReport("x", 1.0, 2.0, 1e-12, "m")
    assert not r2.passed
    # the suite passes fractions, bools and numpy doubles as they are; each
    # report stores plain floats, and its difference and verdict are exact
    r3 = OracleReport("q", Fraction(1, 3), True, 0.0, "m")
    assert (r3.oracle_value, r3.solver_value, r3.tolerance) == (1 / 3, 1.0, 0.0)
    assert r3.abs_diff == 2 / 3 and r3.passed is False
    r4 = OracleReport("q", np.float64(0.5), np.float64(0.75), np.float64(0.25), "m")
    assert (r4.oracle_value, r4.solver_value, r4.tolerance) == (0.5, 0.75, 0.25)
    assert r4.abs_diff == 0.25 and r4.passed is True
    for r in (r3, r4):
        values = (r.oracle_value, r.solver_value, r.abs_diff, r.tolerance)
        assert {type(v) for v in values} == {float}
    assert type(r4.passed) is bool


def test_suite_passes_and_is_large_enough():
    reports = run_verification_suite(samples=60_000, seed=42)
    assert len(reports) >= 10
    failed = [r.quantity for r in reports if not r.passed]
    assert failed == []


def test_suite_catches_tampered_thresholds(monkeypatch):
    solve = models.fullinfo_thresholds

    def bent(cfg):
        tv = solve(cfg)
        if cfg.horizon != 50:
            return tv
        values = tv.values.copy()
        values[4] = min(values[4] + 0.05, 0.999)
        return ThresholdVector(values)

    plain = run_verification_suite(samples=60_000, seed=42)
    # the suite fetches every table through the module attribute
    monkeypatch.setattr(models, "fullinfo_thresholds", bent)
    reports = run_verification_suite(samples=60_000, seed=42)
    assert any(not r.passed for r in reports)
    # the rows that hold the table to the threshold equation, and the
    # optimality row: the bent table rises (x_5 = 0.999 > x_4 = 0.98273)
    failed = {r.quantity for r in reports if not r.passed}
    assert failed == {
        "thresholds.residual.N50",
        "margins.value.indifference.N50",
        "fullinfo.rule_value.optimality.N50",
    }
    # the rule rows evaluate their table's rule on both sides and could not
    # catch a bend, so they play the solver's own table, bent or not
    rule = "fullinfo.rule_win_rate.N10"
    assert [r for r in reports if r.quantity == rule] == [
        r for r in plain if r.quantity == rule
    ]
