import inspect
import math
import sys
import threading
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcgame import models
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


def test_thresholds_beyond_physical_memory_refused_before_the_solve():
    # 10**12 lanes of 64 bytes: refused with TooLarge by arithmetic alone,
    # where numpy's MemoryError used to report the first array; the solved
    # cache is kept
    solved = models._thresholds_upto(5)
    with pytest.raises(TooLarge, match="thresholds at horizon 1000000000000 need 64000.0 GB"):
        fullinfo_thresholds(cfg(10**12))
    with pytest.raises(TooLarge, match="thresholds at horizon 1000000000000 need"):
        fullinfo_threshold(10**12 - 1)
    assert np.array_equal(models._thresholds_upto(5), solved)


def test_thresholds_of_a_call_are_its_own_solve(monkeypatch):
    # a call read the shared cache again after storing its solve, so a
    # shorter solve stored in between by another thread came back in its
    # place: 19 thresholds where 99 were asked for
    solve = models._solve_thresholds
    short_solving, long_paused, short_done = (threading.Event() for _ in range(3))
    lines, start = inspect.getsourcelines(models._thresholds_upto)
    (return_line,) = [
        start + i for i, line in enumerate(lines) if line.strip().startswith("return ")
    ]

    def slow_short_solve(count):
        solved = solve(count)
        if count < 50:  # stored only after the long call's store
            short_solving.set()
            assert long_paused.wait(10)
        return solved

    def pause_at_return(frame, event, arg):
        if frame.f_code is not models._thresholds_upto.__code__:
            return None

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == return_line:
                long_paused.set()
                assert short_done.wait(10)
            return local

        return local

    got = {}

    def run(name, horizon, trace=None):
        sys.settrace(trace)
        try:
            got[name] = fullinfo_thresholds(cfg(horizon))
        except Exception as exc:
            got[name] = exc
        finally:
            sys.settrace(None)

    monkeypatch.setattr(models, "_solved", np.zeros(0))
    monkeypatch.setattr(models, "_solve_thresholds", slow_short_solve)
    short = threading.Thread(target=run, args=("short", 20))
    long = threading.Thread(target=run, args=("long", 100, pause_at_return))
    short.start()
    assert short_solving.wait(10)
    long.start()
    short.join(10)
    short_done.set()
    long.join(10)
    assert not short.is_alive() and not long.is_alive()
    assert len(got["short"]) == 20
    assert isinstance(got["long"], ThresholdVector), got["long"]
    assert got["long"].values.tolist() == np.append(solve(99)[::-1], 0.0).tolist()


def test_threshold_cache_never_shrinks(monkeypatch):
    # a shorter solve stored after a longer one replaced it in the shared
    # cache, so the next long call solved every lane again
    solve = models._solve_thresholds
    short_solving, long_stored = threading.Event(), threading.Event()

    def held_short_solve(count):
        solved = solve(count)
        if count < 50:  # stored only after the long call has stored
            short_solving.set()
            assert long_stored.wait(10)
        return solved

    monkeypatch.setattr(models, "_solved", np.zeros(0))
    monkeypatch.setattr(models, "_solve_thresholds", held_short_solve)
    short = threading.Thread(target=fullinfo_thresholds, args=(cfg(20),))
    short.start()
    assert short_solving.wait(10)
    fullinfo_thresholds(cfg(100))
    long_stored.set()
    short.join(10)
    assert not short.is_alive()
    assert len(models._solved) == 99


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
