import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bcgame.errors import NoBracket, NoConvergence
from bcgame.numerics import Tolerance, bisect_root


def test_tolerance_validation():
    for bad in (0.0, -1e-12, float("inf"), float("nan")):
        with pytest.raises(ValueError):
            Tolerance(abs_tol=bad)
    with pytest.raises(ValueError):
        Tolerance(max_iter=0)


def test_bisect_linear_root():
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0) == 0.5


def test_bisect_reciprocal_root():
    r = bisect_root(lambda x: 1.0 / x - 2.0, 0.1, 1.0)
    assert r == pytest.approx(0.5, abs=1e-12)


def test_bisect_threshold_style_equation():
    # (1/x - 1) + (x**-2 - 1)/2 = 1 on [0.5, 0.99]
    f = lambda x: (1.0 / x - 1.0) + (x**-2 - 1.0) / 2.0 - 1.0
    r = bisect_root(f, 0.5, 0.99)
    assert r == pytest.approx(0.689898, abs=1e-5)
    assert abs(f(r)) < 1e-9


def test_bisect_no_bracket():
    with pytest.raises(NoBracket):
        bisect_root(lambda x: x + 2.0, 0.0, 1.0)


def test_bisect_no_convergence():
    with pytest.raises(NoConvergence):
        bisect_root(lambda x: x - 0.3, 0.0, 1.0, Tolerance(abs_tol=1e-12, max_iter=3))


def test_bisect_rejects_empty_interval():
    with pytest.raises(ValueError):
        bisect_root(lambda x: x, 1.0, 0.0)


@given(st.floats(min_value=-5.0, max_value=5.0))
@settings(max_examples=30, derandomize=True)
def test_bisect_root_stays_inside_bracket(shift):
    f = lambda x: x**3 - shift
    lo, hi = -2.0, 2.0
    if not f(lo) < 0 < f(hi):
        return
    r = bisect_root(f, lo, hi)
    assert lo <= r <= hi


def test_purity_bit_identical():
    g = lambda x: x**3 - 0.2
    assert bisect_root(g, 0.0, 1.0) == bisect_root(g, 0.0, 1.0)
