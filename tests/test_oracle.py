import math
import tracemalloc
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from bcgame import oracle
from bcgame._rng import batch_generator
from bcgame.equilibrium import build_game_tables
from bcgame.errors import DomainError, TooLarge
from bcgame.models import (
    ProblemConfig,
    RecordState,
    ThresholdVector,
    fullinfo_threshold,
    fullinfo_thresholds,
)
from bcgame.oracle import (
    OracleReport,
    _secretary_wins,
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


@pytest.mark.parametrize("horizon", range(2, 8))
def test_secretary_wins_match_per_cutoff_enumeration(horizon):
    wins = _secretary_wins(horizon)
    assert all(type(w) is int for w in wins)
    assert wins == [_wins_by_cutoff_loop(horizon, r) for r in range(1, horizon + 1)]


def test_suite_enumerates_each_horizon_once(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return permutations(*args)

    monkeypatch.setattr(oracle, "permutations", counting)
    run_verification_suite(samples=2_000, seed=42)
    assert len(calls) == 4


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
    from bcgame.oracle import _rule_value_polys

    base = fullinfo_thresholds(ProblemConfig(horizon=10))
    bent = ThresholdVector(np.clip(base.values + 0.2, 0.0, 0.999))
    assert _rule_value_polys(10, bent) < _rule_value_polys(10, base) - 1e-3
    # the Monte Carlo check still agrees with the recursion for the bent
    # rule: both sides evaluate the same (suboptimal) rule
    report = fullinfo_mc_check(bent, samples=100_000, seed=4)
    assert report.passed


def _rule_value_polys_polymul(horizon, thresholds):
    """Reference: the recursion with one ``polymul`` by a monomial and one
    ``polyadd`` per later stage, every stage kept."""
    P = np.polynomial.polynomial
    breaks = oracle._breakpoints(thresholds.values)
    segs = list(zip(breaks[:-1], breaks[1:]))

    def monomial(k):
        c = np.zeros(k + 1)
        c[k] = 1.0
        return c

    u, upper = {}, {}
    for n in range(horizon, 0, -1):
        stage = []
        for seg_idx, (a, b) in enumerate(segs):
            if a >= thresholds.x(n):
                stage.append(monomial(horizon - n))
            else:
                acc = np.zeros(1)
                for k in range(n + 1, horizon + 1):
                    term = P.polymul(monomial(k - n - 1), upper[k][seg_idx])
                    acc = P.polyadd(acc, term)
                stage.append(acc)
        u[n] = stage
        anti = [P.polyint(c) for c in stage]
        fulls = [
            float(P.polyval(b, f) - P.polyval(a, f)) for (a, b), f in zip(segs, anti)
        ]
        tails = np.concatenate((np.cumsum(fulls[::-1])[::-1], [0.0]))
        upper[n] = [
            P.polysub(np.array([tails[idx + 1] + float(P.polyval(b, f))]), f)
            for idx, ((a, b), f) in enumerate(zip(segs, anti))
        ]
    anti1 = [P.polyint(c) for c in u[1]]
    return math.fsum(
        float(P.polyval(b, f) - P.polyval(a, f)) for (a, b), f in zip(segs, anti1)
    )


@pytest.mark.parametrize("horizon", [2, 3, 10, 25])
def test_rule_value_polys_matches_polymul_recursion(horizon):
    # shifted slice additions are the additions polyadd made, in its order:
    # the same float for solved, raised, random (not monotone) and zero
    # thresholds
    base = fullinfo_thresholds(ProblemConfig(horizon=horizon)).values
    rng = np.random.default_rng(horizon)
    families = (
        base,
        np.clip(base + 0.2, 0.0, 0.999),
        rng.random(horizon),
        np.zeros(horizon),
    )
    for values in families:
        thresholds = ThresholdVector(values)
        got = oracle._rule_value_polys(horizon, thresholds)
        assert repr(got) == repr(_rule_value_polys_polymul(horizon, thresholds))


def _rule_value_closed_form(x):
    """Reference for thresholds that do not increase, where the density of
    the rule's first stop at (n, y) has a closed form and a stop there
    wins with probability y^(N-n): with m = n - 1,
    P = (1 - x_1^N)/N + sum_{n>=2} (1/m) sum_{j<n} [(x_j^N - x_n^N)/N
    + x_j^m (1 - x_j^(N-n+1))/(N-n+1)]."""
    big_n = len(x)
    terms = [(1.0 - x[0] ** big_n) / big_n]
    for n in range(2, big_n + 1):
        m, d = n - 1, big_n - n + 1
        xn = x[n - 1]
        terms += [
            ((xj**big_n - xn**big_n) / big_n + xj**m * (1.0 - xj**d) / d) / m
            for xj in x[: n - 1]
        ]
    return math.fsum(terms)


@pytest.mark.parametrize("horizon", [100, 200])
def test_rule_value_polys_matches_closed_form_at_large_horizon(horizon):
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=horizon))
    want = _rule_value_closed_form(thresholds.values.tolist())
    assert oracle._rule_value_polys(horizon, thresholds) == pytest.approx(want, abs=1e-14)


@pytest.mark.parametrize("horizon", [100, 200])
def test_rule_value_byte_model_covers_its_peak(horizon):
    # the model counts N + 1 segments where the solved thresholds give N,
    # and stays within a tenth of the traced peak
    thresholds = fullinfo_thresholds(ProblemConfig(horizon=horizon))
    tracemalloc.start()
    try:
        oracle._rule_value_polys(horizon, thresholds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= oracle._rule_value_bytes(horizon) <= 1.1 * peak


def test_fullinfo_check_refuses_rule_tables_beyond_physical_memory(monkeypatch):
    # the recursion's tables take 7.9 GB at N = 1250; against a memory
    # figure one byte short ``_rule_value_polys`` refuses them before it
    # reads the thresholds, and against the tables' own size it goes on.
    # Nothing of the size is allocated: the breakpoints are stubbed out
    def never_called(*args, **kwargs):
        raise AssertionError("computed past the memory check")

    need = oracle._rule_value_bytes(1250)
    thresholds = ThresholdVector(np.zeros(1250))
    monkeypatch.setattr(oracle, "_breakpoints", never_called)
    monkeypatch.setattr(oracle, "_physical_memory", lambda: need - 1)
    with pytest.raises(TooLarge) as caught:
        oracle._rule_value_polys(1250, thresholds)
    assert str(caught.value) == (
        "rule value tables at horizon 1250 need 7.9 GB, "
        "more than the 7.9 GB of physical memory"
    )
    monkeypatch.setattr(oracle, "_physical_memory", lambda: need)
    with pytest.raises(AssertionError, match="past the memory check"):
        oracle._rule_value_polys(1250, thresholds)


@pytest.mark.parametrize(
    "thresholds", [10, ThresholdVector(np.array([]))], ids=["int", "empty"]
)
def test_fullinfo_check_refuses_anything_but_a_table(monkeypatch, thresholds):
    # a horizon where the table goes, or a table of no thresholds, is
    # refused before the recursion runs or a stream is drawn
    def reached(*args):
        raise AssertionError("reached past the entry check")

    monkeypatch.setattr(oracle, "_rule_value_polys", reached)
    monkeypatch.setattr(oracle, "batch_generator", reached)
    with pytest.raises(DomainError) as caught:
        fullinfo_mc_check(thresholds, samples=1000)
    assert str(caught.value) == (
        f"thresholds must be a non-empty ThresholdVector, got {thresholds!r}"
    )


def _fullinfo_mc_check_one_shot(horizon, thresholds, samples, seed):
    """Reference: the check drawing each batch whole, as (rows, N) arrays."""
    dp_value = 1.0 if horizon == 1 else oracle._rule_value_polys(horizon, thresholds)
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
        method=f"monte carlo ({samples} samples, seed {seed}) vs exact recursion",
    )


@pytest.mark.parametrize("horizon", [1, 2, 3, 10, 25])
def test_fullinfo_check_chunks_match_one_shot_draw(monkeypatch, horizon):
    # chunk boundaries inside and across the 131072-sequence batches
    # change no sequence and no count; the recursion is computed once per
    # threshold table
    polys = oracle._rule_value_polys
    cache = {}

    def cached_polys(n, t):
        key = t.values.tobytes()
        if key not in cache:
            cache[key] = polys(n, t)
        return cache[key]

    monkeypatch.setattr(oracle, "_rule_value_polys", cached_polys)
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
    rng = np.random.default_rng(5)
    for values in (np.clip(base + 0.2, 0.0, 0.999), rng.random(10), np.zeros(10)):
        bent = ThresholdVector(values)
        for samples in (6_553, 131_073):
            want = _fullinfo_mc_check_one_shot(10, bent, samples, 3)
            assert fullinfo_mc_check(bent, samples=samples, seed=3) == want


def test_fullinfo_check_memory_independent_of_horizon(monkeypatch):
    # drawn whole, a batch at N = 10 holds 131072 x 10 draws and their
    # running maximum (21 MB), at N = 60 six times that; the chunk buffers
    # hold one budget of 65536 draws, 1.2 MB whatever N (the recursion is
    # stubbed out: its memory is not the Monte Carlo's)
    monkeypatch.setattr(oracle, "_rule_value_polys", lambda n, t: 0.5)
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


def _game_exhaustive_small_whole_arrays(horizon, priority):
    """Reference: the joint-grid value from whole-array temporaries."""
    tables = build_game_tables(ProblemConfig(horizon=horizon, priority=priority))
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
def test_game_exhaustive_matches_whole_array_reference(horizon):
    for priority in (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5):
        got = game_exhaustive_small(horizon, priority)
        want = _game_exhaustive_small_whole_arrays(horizon, priority)
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
    monkeypatch.setattr(oracle, "_rule_value_polys", never_called)
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
    monkeypatch.setattr(oracle, "_rule_value_polys", never_called)
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
        (lambda: ProblemConfig(horizon=1), "horizon must be >= 2, got 1"),
        (lambda: ProblemConfig(horizon=5, priority=1.5), "priority must be in [0, 1], got 1.5"),
        (lambda: RecordState(index=0, value=0.5), "index must be >= 1, got 0"),
        (lambda: RecordState(index=1, value=-0.1), "value must be in [0, 1], got -0.1"),
        (lambda: secretary_exhaustive(1, 1), "horizon must be >= 2, got 1"),
        (lambda: secretary_exhaustive(5, 6), "cutoff 6 outside 1..5"),
        (lambda: game_exhaustive_small(1, 0.25), "horizon must be >= 2, got 1"),
        (
            lambda: fullinfo_mc_check(0),
            "thresholds must be a non-empty ThresholdVector, got 0",
        ),
        (lambda: run_verification_suite(samples=0), "samples must be >= 1, got 0"),
    ],
    ids=[
        "config-horizon", "config-priority", "state-index", "state-value",
        "secretary-horizon", "secretary-cutoff", "joint-grid-horizon",
        "fullinfo-horizon", "suite-samples",
    ],
)
def test_out_of_domain_input_is_a_domain_error(call, message):
    # a BcgameError, and a ValueError too, so callers catching that still do
    with pytest.raises(DomainError) as caught:
        call()
    assert str(caught.value) == message


def test_report_consistency():
    r = OracleReport("x", 1.0, 1.0 + 5e-13, 1e-12, "m")
    assert r.passed and r.abs_diff <= r.tolerance
    r2 = OracleReport("x", 1.0, 2.0, 1e-12, "m")
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
    # the rows that hold the table to the threshold equation
    failed = {r.quantity for r in reports if not r.passed}
    assert failed == {"thresholds.residual.N50", "margins.value.indifference.N50"}
    # the rule rows evaluate their table's rule on both sides and could not
    # catch a bend, so they play the solver's own table, bent or not
    plain = run_verification_suite(samples=60_000, seed=42)
    rule = "fullinfo.rule_win_rate.N10"
    assert [r for r in reports if r.quantity == rule] == [
        r for r in plain if r.quantity == rule
    ]
