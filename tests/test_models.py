import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcgame import errors, models
from bcgame.equilibrium import fs_condition
from bcgame.errors import DomainError, TooLarge
from bcgame.models import (
    ProblemConfig,
    RecordState,
    ThresholdVector,
    fullinfo_continue_reward,
    fullinfo_stop_reward,
    fullinfo_threshold,
    fullinfo_thresholds,
    rank_transition,
    record_transition_density,
    secretary_continue_reward,
    secretary_cutoff,
    secretary_stop_reward,
)


def cfg(n, p=0.5):
    return ProblemConfig(horizon=n, priority=p)


def test_config_validation():
    with pytest.raises(ValueError):
        ProblemConfig(horizon=1)
    with pytest.raises(ValueError):
        ProblemConfig(horizon=5, priority=1.2)
    # an integral float is refused too: the threshold solve needs an int
    for bad in (10.0, 2.5, "10"):
        with pytest.raises(DomainError, match="horizon must be an integer"):
            ProblemConfig(horizon=bad)
    cfg = ProblemConfig(horizon=np.int64(10))
    assert type(cfg.horizon) is int and cfg == ProblemConfig(horizon=10)


def test_record_state_validation():
    with pytest.raises(ValueError):
        RecordState(index=0, value=0.5)
    with pytest.raises(ValueError):
        RecordState(index=1, value=1.5)
    for bad in (2.5, 2.0):
        with pytest.raises(DomainError, match="index must be an integer"):
            RecordState(index=bad, value=0.5)
    assert type(RecordState(index=np.int32(2), value=0.5).index) is int


@pytest.mark.parametrize(
    "call,index",
    [
        (lambda c: secretary_stop_reward(9, c), 9),
        (lambda c: secretary_stop_reward(0, c), 0),
        (lambda c: secretary_continue_reward(0, c), 0),
        (lambda c: secretary_continue_reward(6, c), 6),
        (lambda c: fullinfo_stop_reward(RecordState(9, 0.5), c), 9),
        (lambda c: fullinfo_stop_reward(RecordState(9, 0.0), c), 9),
        (lambda c: fullinfo_continue_reward(RecordState(9, 0.5), c), 9),
        (lambda c: fs_condition(0, 0.5, c), 0),
        (lambda c: fs_condition(6, 0.5, c), 6),
    ],
    ids=[
        "secretary-stop-9", "secretary-stop-0", "secretary-continue-0",
        "secretary-continue-6", "fullinfo-stop-9", "fullinfo-stop-9-at-0",
        "fullinfo-continue-9", "fs-condition-0", "fs-condition-6",
    ],
)
def test_rewards_refuse_an_index_outside_the_horizon(call, index):
    # at N = 5 these returned 1.8, 16.0 or 0.0, or raised ZeroDivisionError
    with pytest.raises(DomainError) as caught:
        call(cfg(5))
    assert str(caught.value) == f"index {index} outside 1..5"


def test_record_density_first_step_convention():
    # 0**0 = 1: the very first transition needs no intermediate observation
    assert record_transition_density(RecordState(1, 0.0), 2) == 1.0
    assert record_transition_density(RecordState(3, 0.5), 5) == 0.5
    assert record_transition_density(RecordState(3, 0.5), 3) == 0.0


def test_record_kernel_mass_identity():
    n, big_n, x = 2, 6, 0.3
    state = RecordState(n, x)
    mass = sum(
        record_transition_density(state, m) * (1 - x) for m in range(n + 1, big_n + 1)
    )
    assert mass + x ** (big_n - n) == pytest.approx(1.0, abs=1e-12)


@given(
    st.integers(min_value=1, max_value=99),
    st.floats(min_value=0.0, max_value=0.999999),
)
@settings(max_examples=60, derandomize=True)
def test_record_kernel_normalization_property(n, x):
    big_n = 100
    state = RecordState(n, x)
    mass = math.fsum(
        record_transition_density(state, m) * (1 - x) for m in range(n + 1, big_n + 1)
    ) + x ** (big_n - n)
    assert abs(mass - 1.0) < 1e-12


def test_rank_transition_values():
    assert rank_transition(1, 2) == pytest.approx(0.5)
    assert rank_transition(2, 4) == pytest.approx(1 / 6)
    assert rank_transition(4, 3) == 0.0
    with pytest.raises(DomainError):
        rank_transition(0, 2)


@given(st.integers(min_value=1, max_value=99))
@settings(max_examples=50, derandomize=True)
def test_rank_kernel_normalization_property(n):
    big_n = 100
    mass = math.fsum(rank_transition(n, m) for m in range(n + 1, big_n + 1))
    assert abs(mass + n / big_n - 1.0) < 1e-12


def test_rank_telescoping_example():
    assert math.fsum(rank_transition(3, m) for m in range(4, 11)) == pytest.approx(
        0.7, abs=1e-12
    )


def test_secretary_rewards():
    c = cfg(10)
    assert secretary_stop_reward(10, c) == 1.0
    assert secretary_stop_reward(4, c) == pytest.approx(0.4)
    assert secretary_stop_reward(1, c) == pytest.approx(0.1)
    assert secretary_continue_reward(10, c) == 0.0
    # exact rational oracles
    want3 = Fraction(3, 10) * sum(Fraction(1, k - 1) for k in range(4, 11))
    want4 = Fraction(4, 10) * sum(Fraction(1, k - 1) for k in range(5, 11))
    assert secretary_continue_reward(3, c) == pytest.approx(float(want3), abs=1e-12)
    assert secretary_continue_reward(4, c) == pytest.approx(float(want4), abs=1e-12)
    assert float(want3) == pytest.approx(0.398690, abs=1e-6)
    assert float(want4) == pytest.approx(0.398254, abs=1e-6)


@pytest.mark.parametrize("horizon,want", [(5, 3), (10, 4), (20, 8), (30, 12), (50, 19)])
def test_secretary_cutoff_table(horizon, want):
    assert secretary_cutoff(cfg(horizon)) == want


def test_secretary_cutoff_characterization():
    c = cfg(37)
    nstar = secretary_cutoff(c)
    for n in range(1, 38):
        stop = secretary_stop_reward(n, c)
        cont = secretary_continue_reward(n, c)
        if n < nstar:
            assert cont > stop
        else:
            assert cont <= stop


def test_secretary_cutoff_trend():
    assert 0.35 <= secretary_cutoff(cfg(50)) / 50 <= 0.40


def test_fullinfo_stop_reward():
    c = cfg(10)
    assert fullinfo_stop_reward(RecordState(10, 0.3), c) == 1.0
    assert fullinfo_stop_reward(RecordState(8, 0.5), c) == pytest.approx(0.25)
    assert fullinfo_stop_reward(RecordState(1, 0.0), c) == 0.0


def test_fullinfo_continue_reward_last_and_single_term():
    c = cfg(10)
    assert fullinfo_continue_reward(RecordState(10, 0.7), c) == 0.0
    # one remaining observation: win iff the last draw beats x, so 1 - x;
    # cross-checked against the kernel quadrature route below
    assert fullinfo_continue_reward(RecordState(9, 0.5), c) == pytest.approx(
        0.5, abs=1e-12
    )
    assert fullinfo_continue_reward(RecordState(9, 0.2), c) == pytest.approx(
        0.8, abs=1e-12
    )


def test_fullinfo_continue_reward_matches_kernel_quadrature():
    # independent route: integrate the stop reward against the record kernel
    # with an 8-point Gauss-Legendre rule on [0.4, 1], exact for y**(7-k)
    c = cfg(7)
    state = RecordState(3, 0.4)
    direct = fullinfo_continue_reward(state, c)
    t, w = np.polynomial.legendre.leggauss(8)
    ys, ws = 0.7 + 0.3 * t, 0.3 * w
    via_quad = sum(
        record_transition_density(state, k) * float(ws @ ys ** (7 - k))
        for k in range(4, 8)
    )
    assert direct == pytest.approx(via_quad, abs=1e-12)


def test_fullinfo_continue_reward_from_zero():
    assert fullinfo_continue_reward(RecordState(1, 0.0), cfg(3)) == pytest.approx(0.5)


def test_fullinfo_threshold_values():
    assert fullinfo_threshold(0) == 0.0
    assert fullinfo_threshold(1) == 0.5
    assert fullinfo_threshold(2) == pytest.approx(0.689898, abs=1e-5)
    with pytest.raises(DomainError):
        fullinfo_threshold(-1)
    with pytest.raises(DomainError, match="remaining must be an integer"):
        fullinfo_threshold(2.0)
    assert fullinfo_threshold(np.int64(1)) == 0.5


def test_fullinfo_threshold_residuals():
    for d in range(1, 50):
        x = fullinfo_threshold(d)
        residual = math.fsum((x**-k - 1.0) / k for k in range(1, d + 1)) - 1.0
        assert abs(residual) < 1e-9


def test_fullinfo_thresholds_vector():
    tv = fullinfo_thresholds(cfg(2))
    assert tv.x(1) == 0.5 and tv.x(2) == 0.0
    tv10 = fullinfo_thresholds(cfg(10))
    assert tv10.x(9) == 0.5
    assert tv10.x(8) == pytest.approx(0.689898, abs=1e-5)
    diffs = np.diff(tv10.values)
    assert np.all(diffs < 0)


def test_threshold_vector_index_outside_horizon():
    tv = fullinfo_thresholds(cfg(5))
    for n in (0, -1, 6):
        with pytest.raises(DomainError):
            tv.x(n)
    for ns in (np.array([0, 1]), np.array([5, 6]), np.array([[1], [6]])):
        with pytest.raises(DomainError):
            tv.x(ns)
    assert tv.x(np.array([1, 5])).tolist() == [tv.x(1), tv.x(5)]


def test_thresholds_beyond_physical_memory_refused_before_the_solve(monkeypatch):
    # 10**12 lanes of 64 bytes: refused with TooLarge by arithmetic alone,
    # where numpy's MemoryError used to report the first array
    with pytest.raises(TooLarge, match="thresholds at horizon 1000000000000 need 64000.0 GB"):
        fullinfo_thresholds(cfg(10**12))
    with pytest.raises(TooLarge, match="thresholds at horizon 1000000000000 need"):
        fullinfo_threshold(10**12 - 1)
    # the bound is 64 bytes a lane; a refused call allocates nothing
    def never(*args, **kwargs):
        raise AssertionError("allocated before the refusal")

    monkeypatch.setattr(errors, "_physical_memory", lambda: 64 * 999 - 1)
    with monkeypatch.context() as patched:
        patched.setattr(models.np, "empty", never)
        with pytest.raises(TooLarge, match="thresholds at horizon 1000 need"):
            fullinfo_thresholds(cfg(1000))
        with pytest.raises(TooLarge, match="thresholds at horizon 1000 need"):
            fullinfo_threshold(999)
    assert fullinfo_threshold(998) == fullinfo_thresholds(cfg(999)).x(1)


def _power_sum_thresholds(count):
    """Reference x_1..x_count: the power-sum Newton solve the rule replaced.
    Lane d solves sum_{k=1}^{d} (y**k - 1)/k - 1 = 0 in y = 1/x from
    y = 1 + 1/d, each sweep running k over the lanes d >= k, and stops
    when a step no longer lowers y."""
    y = 1.0 + 1.0 / np.arange(1, count + 1)
    live = np.ones(count, dtype=bool)
    while live.any():
        f = np.full(count, -1.0)
        slope = np.zeros(count)
        power = np.ones(count)  # y**(k-1)
        for k in range(1, count + 1):
            lanes = slice(k - 1, None)  # d >= k
            slope[lanes] += power[lanes]
            power[lanes] *= y[lanes]
            f[lanes] += (power[lanes] - 1.0) / k
        step = y - f / slope
        live &= step < y
        y = np.where(live, step, y)
    return 1.0 / y


def test_thresholds_within_two_ulps_of_the_power_sums():
    # the 12-point rule moves the last bits of a few lanes, from d = 4 on
    want = np.append(_power_sum_thresholds(10**4 - 1)[::-1], 0.0)
    for horizon in (*range(2, 2001), 10**4):
        got = fullinfo_thresholds(cfg(horizon)).values
        ref = want[-horizon:]
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(ref)), horizon


def test_threshold_lane_bits_are_the_lanes_own(monkeypatch):
    # alone, in a block of the solve, across a block boundary and at any
    # horizon: lanes never mix and each sums its terms in one order
    wide = fullinfo_thresholds(cfg(10**4))
    short = fullinfo_thresholds(cfg(6000))
    # the blocks of 4096 lanes end at d = 5904 and 1808 at N = 10**4,
    # at d = 1904 at N = 6000
    for d in (1, 2, 4, 15, 56, 1807, 1808, 1903, 1904, 5903, 5904, 5999):
        alone = fullinfo_threshold(d)
        assert alone == wide.x(10**4 - d) == short.x(6000 - d), d
        assert alone == fullinfo_thresholds(cfg(d + 1)).x(1), d
    monkeypatch.setattr(models, "_LANES", 7)
    assert np.array_equal(fullinfo_thresholds(cfg(10**4)).values, wide.values)


def test_threshold_solve_memory_is_64_bytes_a_lane():
    # the lanes run in fixed blocks, so the scratch is bounded and the
    # 64-byte-a-lane refusal model holds for the whole call
    fullinfo_thresholds(cfg(10))
    horizon = 10**5
    tracemalloc.start()
    try:
        fullinfo_thresholds(cfg(horizon))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * (horizon - 1)


def test_threshold_vector_immutable():
    tv = fullinfo_thresholds(cfg(5))
    with pytest.raises(ValueError):
        tv.values[0] = 0.9


def test_indifference_at_thresholds():
    c = cfg(12)
    tv = fullinfo_thresholds(c)
    for n in range(1, 12):
        state = RecordState(n, tv.x(n))
        gap = fullinfo_stop_reward(state, c) - fullinfo_continue_reward(state, c)
        assert abs(gap) < 1e-9


def _bisect_threshold(remaining):
    """Reference x_d: bisection of the threshold equation on [0, 1], as the
    solver once found it, run until the bracket is at floating-point
    resolution."""

    def residual(x):
        if x <= 0.0:
            return math.inf
        log_x = math.log(x)
        acc = -1.0
        for k in range(1, remaining + 1):
            e = -k * log_x
            if e > 700.0:  # x**-k overflows a double; sign is all that matters
                return math.inf
            acc += (math.exp(e) - 1.0) / k
        return acc

    lo, hi = 0.0, 1.0  # residual is +inf at 0 and decreasing in x
    while True:
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            return mid
        f = residual(mid)
        if f == 0.0:
            return mid
        if f > 0.0:
            lo = mid
        else:
            hi = mid


@given(
    st.integers(min_value=2, max_value=2000),
    st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=3),
)
@settings(max_examples=25, deadline=None, derandomize=True)
def test_large_horizon_thresholds_property(big_n, fractions):
    tv = fullinfo_thresholds(cfg(big_n))
    assert np.all(np.diff(tv.values) < 0)
    assert all(tv.x(n) == fullinfo_threshold(big_n - n) for n in range(1, big_n + 1))
    sampled = {1, big_n - 1} | {1 + round(f * (big_n - 2)) for f in fractions}
    for d in sampled:
        x = fullinfo_threshold(d)
        residual = math.fsum((x**-k - 1.0) / k for k in range(1, d + 1)) - 1.0
        assert abs(residual) <= 1e-12
        # two units in the last place below 1
        assert abs(x - _bisect_threshold(d)) <= 2.0**-52


def test_threshold_vector_holds_a_read_only_copy_of_its_horizon():
    # it froze the caller's own array; its horizon is the number of values
    values = np.array([0.5, 0.25, 0.0])
    tv = ThresholdVector(values)
    values[0] = 0.9  # the caller's array stays the caller's
    assert tv.values.tolist() == [0.5, 0.25, 0.0] and tv.x(1) == 0.5
    assert not tv.values.flags.writeable
    assert tv.horizon == len(tv) == 3
