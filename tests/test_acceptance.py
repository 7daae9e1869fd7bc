"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Criteria 2 and 8 are implemented exactly as stated and currently fail;
their tests emit detailed discrepancy reports before failing.
"""

import csv
import math
import time

import numpy as np
import pytest

import bcgame as bc
from bcgame import equilibrium as eq
from bcgame.equilibrium import EquilibriumKind
from bcgame.models import ProblemConfig, RecordState
from bcgame.valuation import ValueFunction

TABLE_PRIORITIES = (0.1, 0.2, 0.25, 1 / 3, math.exp(-1), 0.5)

REFERENCE_SHIFT_TABLE = {
    5: {0.1: 3, 0.2: 3, 0.25: 3, 1 / 3: 3, math.exp(-1): 3, 0.5: 3},
    10: {0.1: 4, 0.2: 5, 0.25: 5, 1 / 3: 5, math.exp(-1): 5, 0.5: 6},
    20: {0.1: 9, 0.2: 10, 0.25: 10, 1 / 3: 11, math.exp(-1): 11, 0.5: 12},
    30: {0.1: 14, 0.2: 15, 0.25: 15, 1 / 3: 16, math.exp(-1): 17, 0.5: 18},
    50: {0.1: 24, 0.2: 26, 0.25: 26, 1 / 3: 28, math.exp(-1): 28, 0.5: 31},
}
REFERENCE_CUTOFFS = {5: 3, 10: 4, 20: 8, 30: 12, 50: 19}

REFERENCE_VALUES_N10 = {
    0.1: (-0.00201, 0.19557),
    0.25: (0.03283, 0.12896),
    math.exp(-1): (0.06897, 0.08796),
    0.5: (0.13662, 0.03787),
}


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"CRITERION {num}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_1_shift_table_exact(tmp_path):
    from bcgame.cli import main as cli_main

    start = time.time()
    out = tmp_path / "table1.csv"
    assert cli_main(["table1", "--out", str(out)]) == 0
    with open(out, newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    assert len(rows) == 30
    mismatches = []
    for row in rows:
        horizon = int(row["N"])
        p = float(row["p"])
        want_p = min(TABLE_PRIORITIES, key=lambda q: abs(q - p))
        want = REFERENCE_SHIFT_TABLE[horizon][want_p]
        if int(row["ntilde"]) != want:
            mismatches.append((horizon, p, want, int(row["ntilde"])))
        if int(row["nstar"]) != REFERENCE_CUTOFFS[horizon]:
            mismatches.append((horizon, "nstar", REFERENCE_CUTOFFS[horizon], row["nstar"]))
    elapsed = time.time() - start
    ok = not mismatches and elapsed < 10.0
    _line(1, ok, f"30 shift cells + cutoff column exact, {elapsed:.1f}s (< 10s)")
    assert mismatches == []
    assert elapsed < 10.0


def _margin_dp_variant(tables, cells):
    """Backward induction with pluggable stop cells (diagnostic only).

    The cells are evaluated at N + 8 Gauss-Legendre nodes of each segment
    and projected onto the Legendre coefficients of degree <= N - n that
    the value function holds; the alternate continue series has degree
    2 (N - n) - 1, and its terms above N - n move its pairs by < 1e-6."""
    vf = ValueFunction(tables)
    big_n = tables.config.horizon
    p = tables.config.priority
    t, w = np.polynomial.legendre.leggauss(big_n + 8)
    lo, hi = vf.breaks[:-1], vf.breaks[1:]
    grid_x = 0.5 * (hi + lo)[:, None] + 0.5 * (hi - lo)[:, None] * t[None, :]
    for n in range(big_n, 0, -1):
        xn = tables.xthresholds.x(n)
        w1n = float(tables.w1[n - 1])
        width = big_n - n + 1
        # a_k = (2k + 1)/2 int_{-1}^{1} f P_k dt, by the Gauss rule
        project = np.polynomial.legendre.legvander(t, width - 1) * w[:, None]
        project *= (2 * np.arange(width) + 1) / 2
        coefficients = vf.cont[:, n, :, :width].copy()
        for s in range(vf.n_segments):
            xs = grid_x[s]
            w2s = eq._w2_values(n, xs, big_n)
            if vf.breaks[s] >= xn:
                kind = "SS" if n >= tables.nstar else "FS"
                v1, v2 = cells(kind, p, w1n, w2s, xs, n, big_n)
            elif n >= tables.ntilde:
                v1, v2 = cells("SF", p, w1n, w2s, xs, n, big_n)
            else:
                continue
            coefficients[0, s] = v1 @ project
            coefficients[1, s] = v2 @ project
        vf.finalize_stage(n, coefficients)
    return vf.stage_average(1, 1), vf.stage_average(1, 2)


def _w2_printed_series(n, xs, big_n):
    """Margin using the alternate continue series with a constant exponent."""
    xs = np.asarray(xs, float)
    d = big_n - n
    stop = xs**d
    cont = np.zeros_like(xs)
    for k in range(n + 1, big_n + 1):
        cont += xs ** (k - n - 1) * (1.0 - stop) / (big_n - k + 1)
    return stop - cont


def _alternative_accountings(p):
    tables = bc.build_game_tables(ProblemConfig(horizon=10, priority=p))

    def declared(kind, p, w1n, w2s, xs, n, big_n):
        m = np.full_like(w2s, w1n)
        if kind == "SS":
            return (2 * p - 1) * m, (1 - 2 * p) * w2s
        if kind == "SF":
            return m, -w2s
        return -m, w2s

    def printed_series(kind, p, w1n, w2s, xs, n, big_n):
        t = _w2_printed_series(n, xs, big_n)
        m = np.full_like(t, w1n)
        if kind == "SS":
            return (2 * p - 1) * m, (1 - 2 * p) * t
        if kind == "SF":
            return m, -t
        return -m, t

    def zero_to_loser(kind, p, w1n, w2s, xs, n, big_n):
        m = np.full_like(w2s, w1n)
        z = np.zeros_like(w2s)
        if kind == "SS":
            return p * m, (1 - p) * w2s
        if kind == "SF":
            return m, z
        return z, w2s

    return tables, {
        "declared (stage cells; opponent scores minus own margin)": declared,
        "alternate continue-series margins (constant exponent)": printed_series,
        "priority-coin split, zero to the non-taker": zero_to_loser,
    }


def test_criterion_2_reference_values():
    tol = 5e-3
    results = {}
    for p, want in REFERENCE_VALUES_N10.items():
        tables = bc.build_game_tables(ProblemConfig(horizon=10, priority=p))
        _, pair = bc.backward_induce(tables)
        results[p] = (pair, want)
    worst = max(
        max(abs(pair.val1 - want[0]), abs(pair.val2 - want[1]))
        for pair, want in results.values()
    )
    ok = worst <= tol
    _line(2, ok, f"reference value pairs at horizon 10, worst diff {worst:.3g} (tol {tol})")
    if not ok:
        print("DISCREPANCY REPORT: reference value pairs not reproduced")
        print("  the declared accounting is internally verified three ways")
        print("  (joint-grid oracle at N<=3, Monte Carlo at N=10, hand integral at N=2);")
        print("  accountings tried against the reference pairs:")
        for p, want in REFERENCE_VALUES_N10.items():
            tables, variants = _alternative_accountings(p)
            print(f"  p={p:.6f}: reference=({want[0]:+.5f}, {want[1]:+.5f})")
            for name, cells in variants.items():
                v1, v2 = _margin_dp_variant(tables, cells)
                print(
                    f"    {name}: ({v1:+.5f}, {v2:+.5f})"
                    f"  max diff {max(abs(v1 - want[0]), abs(v2 - want[1])):.3g}"
                )
        print(
            "  zero-sum difference scoring is ruled out without computation:"
            " it forces val1 = -val2, which the reference pairs violate."
        )
        print("  documented reproduction failure under the declared accounting")
    assert ok, f"worst component diff {worst:.4g} exceeds {tol}"


def test_criterion_3_threshold_fidelity():
    assert bc.fullinfo_threshold(1) == 0.5
    assert bc.fullinfo_threshold(2) == pytest.approx(0.689898, abs=1e-5)
    thresholds = bc.fullinfo_thresholds(ProblemConfig(horizon=50))
    worst_residual = 0.0
    for n in range(1, 50):
        x = thresholds.x(n)
        residual = abs(
            math.fsum((x**-k - 1.0) / k for k in range(1, 50 - n + 1)) - 1.0
        )
        worst_residual = max(worst_residual, residual)
    decreasing = bool(np.all(np.diff(thresholds.values) < 0))
    ok = worst_residual < 1e-9 and decreasing
    _line(3, ok, f"threshold roots exact/residual {worst_residual:.2g} (< 1e-9), strictly decreasing")
    assert worst_residual < 1e-9
    assert decreasing


def test_criterion_4_indifference_and_sign_flip():
    worst = 0.0
    for big_n in range(2, 51):
        cfg = ProblemConfig(horizon=big_n)
        thresholds = bc.fullinfo_thresholds(cfg)
        for n in range(1, big_n):
            worst = max(worst, abs(bc.w2(RecordState(n, thresholds.x(n)), cfg)))
    flips_ok = True
    for big_n in range(5, 201):
        cfg = ProblemConfig(horizon=big_n)
        nstar = bc.secretary_cutoff(cfg)
        for n in range(1, big_n + 1):
            if (bc.w1(n, cfg) >= 0) != (n >= nstar):
                flips_ok = False
    ok = worst < 1e-9 and flips_ok
    _line(4, ok, f"indifference margin {worst:.2g} (< 1e-9) for N<=50; sign flip at cutoff for N in 5..200")
    assert worst < 1e-9
    assert flips_ok


def test_criterion_5_oracle_equivalence():
    start = time.time()
    exact = bc.secretary_exhaustive(5, 3)
    formula_ok = exact == 13 / 30
    closed = (3 - 1) / 5 * math.fsum(1.0 / (k - 1) for k in range(3, 6))
    formula_ok = formula_ok and abs(exact - closed) < 1e-12
    worst = 0.0
    for big_n in (2, 3):
        for p in (0.0, 0.25, 0.5):
            tables = bc.build_game_tables(ProblemConfig(horizon=big_n, priority=p))
            _, dp = bc.backward_induce(tables)
            grid = bc.game_exhaustive_small(big_n, p)
            worst = max(worst, abs(dp.val1 - grid.val1), abs(dp.val2 - grid.val2))
    elapsed = time.time() - start
    ok = formula_ok and worst <= 1e-3 and elapsed < 60.0
    _line(5, ok, f"enumeration exact, joint-grid worst diff {worst:.2g} (<= 1e-3), {elapsed:.1f}s (< 60s)")
    assert formula_ok
    assert worst <= 1e-3
    assert elapsed < 60.0


def test_criterion_6_dp_mc_consistency():
    start = time.time()
    worst_z = 0.0
    for big_n in (10, 20):
        for p in (0.1, 0.25, 0.5):
            cfg = ProblemConfig(horizon=big_n, priority=p)
            tables = bc.build_game_tables(cfg)
            _, dp = bc.backward_induce(tables)
            mc, se = bc.simulate(cfg, tables, bc.SimConfig(samples=1_000_000, seed=1234))
            worst_z = max(
                worst_z,
                abs(dp.val1 - mc.val1) / se[0],
                abs(dp.val2 - mc.val2) / se[1],
            )
    elapsed = time.time() - start
    ok = worst_z <= 3.0 and elapsed < 120.0
    _line(6, ok, f"six configurations at 1e6 samples, worst z {worst_z:.2f} (<= 3), {elapsed:.0f}s (< 2min)")
    assert worst_z <= 3.0
    assert elapsed < 120.0


def test_criterion_7_kernel_normalizations():
    rng = np.random.default_rng(20260810)
    big_n = 100
    worst = 0.0
    for n in range(1, big_n + 1):
        for x in rng.random(16):
            state = RecordState(n, float(x))
            mass = math.fsum(
                bc.record_transition_density(state, m) * (1.0 - x)
                for m in range(n + 1, big_n + 1)
            ) + x ** (big_n - n)
            worst = max(worst, abs(mass - 1.0))
        rank_mass = math.fsum(
            bc.rank_transition(n, m) for m in range(n + 1, big_n + 1)
        ) + n / big_n
        worst = max(worst, abs(rank_mass - 1.0))
    ok = worst < 1e-12
    _line(7, ok, f"both kernels sum to one within {worst:.2g} (< 1e-12) for n <= N = 100")
    assert worst < 1e-12


def test_criterion_8_best_response_grid():
    violations = []
    for p in (0.1, 0.25, 0.5):
        cfg = ProblemConfig(horizon=10, priority=p)
        tables = bc.build_game_tables(cfg)
        vf, _ = bc.backward_induce(tables)
        for n in range(1, 11):
            for i in range(50):
                x = (i + 0.5) / 50
                kind = bc.classify_state(n, x, tables)
                ff = (
                    bc.continuation(n, x, vf, 1),
                    bc.continuation(n, x, vf, 2),
                )
                bm = eq.bimatrix(n, x, tables, ff)
                if not bm.is_pure_nash(kind):
                    violations.append((p, n, round(x, 3), kind.value, bm))
    ok = not violations
    _line(
        8,
        ok,
        f"bimatrix best-response over 50x10 grids at three priorities: {len(violations)} violations",
    )
    if violations:
        print("BEST-RESPONSE REPORT: deviations that improve the deviator")
        summary = {}
        for p, n, x, kind, _ in violations:
            summary.setdefault((p, kind), []).append((n, x))
        for (p, kind), states in sorted(summary.items()):
            stages = sorted({n for n, _ in states})
            print(f"  p={p}: kind {kind}: {len(states)} grid states, stages {stages}")
        p, n, x, kind, bm = violations[0]
        print(
            f"  example: p={p}, state (n={n}, x={x}), classified {kind}:"
            f" cells ss={bm.ss}, sf={bm.sf}, fs={bm.fs}, ff={bm.ff}"
        )
        print(
            "  structural: stage margins and sequential continuation values"
            " are on different scales, so forgo-side deviations can dominate"
        )
    assert ok, f"{len(violations)} best-response violations"


def test_criterion_9_persistence_condition_sweep():
    checked = 0
    all_true = True
    for big_n in (10, 20):
        for p in (0.1, 0.25, 0.5):
            cfg = ProblemConfig(horizon=big_n, priority=p)
            nstar = bc.secretary_cutoff(cfg)
            for n in range(1, nstar):
                for x in np.arange(0.05, 0.951, 0.05):
                    checked += 1
                    if not bc.fs_condition(n, float(x), cfg):
                        all_true = False
    _line(9, all_true, f"persistence inequality true at all {checked} sweep points")
    assert all_true
