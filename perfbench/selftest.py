"""Self-tests of the benchmark harness; they do not run bcgame.

    python3 perfbench/selftest.py
"""

import copy
import itertools
import json
import os
import subprocess
import sys
import tempfile
import unittest

import checks
import run
import spans
from workloads import (
    CLI_MIX_COUNTS,
    PRIORITIES,
    Request,
    audit_round,
    audit_states,
    cli_round,
)

REF = checks.load_reference()
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _csv(header, rows):
    return "\n".join([",".join(header)] + [",".join(map(str, r)) for r in rows]) + "\n"


class RequestGeneration(unittest.TestCase):
    def test_same_seed_same_requests(self):
        for workload in ("cli-mix", "mc-play"):
            for index in range(3):
                self.assertEqual(cli_round(workload, 7, index), cli_round(workload, 7, index))
            self.assertNotEqual(cli_round(workload, 7, 0), cli_round(workload, 8, 0))
        self.assertEqual(audit_round(7, 1), audit_round(7, 1))
        self.assertNotEqual(audit_round(7, 0), audit_round(8, 0))
        for session in audit_round(7, 0) + audit_round(7, 1):
            first = list(itertools.islice(audit_states(7, session), 50))
            self.assertEqual(first, list(itertools.islice(audit_states(7, session), 50)))
            self.assertTrue(all(1 <= n <= session.horizon and 0 < x <= 1 for n, x in first))

    def test_rounds_have_fixed_composition_and_stay_in_range(self):
        for seed in range(20):
            kinds = [r.kind for r in cli_round("cli-mix", seed, 0)]
            self.assertEqual({k: kinds.count(k) for k in kinds}, CLI_MIX_COUNTS)
            xsteps = [r.params["xstep"] for r in cli_round("cli-mix", seed, 0) if r.kind == "regions"]
            self.assertEqual(xsteps.count("0.01"), xsteps.count("0.001"))
            for r in cli_round("cli-mix", seed, 1):
                if r.kind == "thresholds":
                    self.assertTrue(200 <= r.params["horizon"] <= 800)
            play = cli_round("mc-play", seed, 0)
            self.assertEqual(sorted(r.params["priority"] for r in play), sorted(PRIORITIES))
            audit = audit_round(seed, 1)
            self.assertEqual(sorted(s.priority for s in audit), sorted(PRIORITIES))
            self.assertEqual([s.index for s in audit], list(range(6, 12)))
            for r in cli_round("cli-mix", seed, 0) + play:
                if "priority" in r.params:
                    self.assertIn(f"{r.params['horizon']}|{r.params['priority']}", REF["dp"])


class OutputChecks(unittest.TestCase):
    """Every check accepts a correct output and rejects a tampered one."""

    def assert_rejects(self, req, text, code=0):
        self.assertNotEqual(checks.check_cli(req, code, text, REF), [], text[:200])

    def test_exit_code(self):
        req = Request("t", "table1", ("table1",))
        self.assertEqual(checks.check_cli(req, 0, self.table1_text(), REF), [])
        self.assert_rejects(req, self.table1_text(), code=2)

    def thresholds_rows(self, horizon):
        thr = checks.thresholds(horizon)
        cut = checks.nstar(horizon)
        return [
            [n, repr(thr[n - 1]), repr(checks.w1(n, horizon)), "true" if n >= cut else "false"]
            for n in range(1, horizon + 1)
        ]

    def test_thresholds(self):
        req = Request("t", "thresholds", ("thresholds",), {"horizon": 40})
        header = ["n", "x_n", "w1", "is_at_or_after_nstar"]
        rows = self.thresholds_rows(40)
        self.assertEqual(checks.check_cli(req, 0, _csv(header, rows), REF), [])
        swapped = copy.deepcopy(rows)
        swapped[3][1], swapped[4][1] = swapped[4][1], swapped[3][1]
        nudged = copy.deepcopy(rows)
        nudged[10][1] = repr(float(nudged[10][1]) + 1e-7)
        flag = copy.deepcopy(rows)
        flag[0][3] = "true"
        margin = copy.deepcopy(rows)
        margin[5][2] = repr(float(margin[5][2]) + 1e-9)
        for bad in (swapped, nudged, flag, margin, rows[:-1]):
            self.assert_rejects(req, _csv(header, bad))

    def table1_rows(self):
        return [
            [n, checks.TABLE1_NSTAR[n], repr(PRIORITIES[label]), checks.TABLE1[n][label]]
            for n in checks.TABLE1
            for label in PRIORITIES
        ]

    def table1_text(self, rows=None):
        return _csv(["N", "nstar", "p", "ntilde"], rows or self.table1_rows())

    def test_table1(self):
        req = Request("t", "table1", ("table1",))
        rows = self.table1_rows()
        self.assertEqual(checks.check_cli(req, 0, self.table1_text(rows), REF), [])
        rows[7][3] += 1
        self.assert_rejects(req, self.table1_text(rows))
        self.assert_rejects(req, self.table1_text(self.table1_rows()[:-1]))

    def test_regions(self):
        params = {"horizon": 20, "priority": "0.25", "xstep": "0.01"}
        req = Request("t", "regions", ("regions",), params)
        thr = checks.thresholds(20)
        ns, nt = checks.nstar(20), REF["ntilde"]["20|0.25"]
        xs = [i * 0.01 for i in range(101)]
        rows = []
        for n in range(1, 21):
            for x in xs:
                kind = ("SS" if n >= ns else "FS") if x >= thr[n - 1] else ("SF" if n >= nt else "FF")
                rows.append([n, repr(x), kind])
        header = ["n", "x", "kind"]
        self.assertEqual(checks.check_cli(req, 0, _csv(header, rows), REF), [])
        for i in (0, len(rows) // 2, len(rows) - 1):
            bad = copy.deepcopy(rows)
            bad[i][2] = "FF" if bad[i][2] != "FF" else "SS"
            self.assert_rejects(req, _csv(header, bad))

    def test_values_and_monte_carlo(self):
        params = {"horizon": 25, "priority": "1/3", "samples": 100000}
        v1, v2 = REF["dp"]["25|1/3"]
        dp = Request("t", "values-dp", ("values",), params)
        self.assertEqual(checks.check_cli(dp, 0, _csv(["val1", "val2"], [[repr(v1), repr(v2)]]), REF), [])
        self.assert_rejects(dp, _csv(["val1", "val2"], [[repr(v1 + 1e-10), repr(v2)]]))
        header = ["val1", "val2", "mc_val1", "mc_val2", "se1", "se2"]
        se = 1e-3
        for kind in ("values-both", "simulate"):
            req = Request("t", kind, ("values",), params)
            good = [repr(v1), repr(v2), repr(v1 + 3 * se), repr(v2 - 1 * se), se, se]
            self.assertEqual(checks.check_cli(req, 0, _csv(header, [good]), REF), [])
            far = list(good)
            far[3] = repr(v2 - 4.5 * se)
            self.assert_rejects(req, _csv(header, [far]))
            off = list(good)
            off[1] = repr(v2 + 1e-11)
            self.assert_rejects(req, _csv(header, [off]))

    def test_verify(self):
        req = Request("t", "verify", ("verify",))
        header = ["quantity", "passed"]
        self.assertEqual(checks.check_cli(req, 0, _csv(header, [["a", "true"]]), REF), [])
        self.assert_rejects(req, _csv(header, [["a", "false"]]))
        self.assert_rejects(req, _csv(header, [["a", "true"]]), code=1)

    def test_audit(self):
        session = audit_round(REF["audit"]["seed"], 0)[2]
        recorded = REF["audit"]["sessions"][2]
        horizon, label = session.horizon, session.priority
        p = PRIORITIES[label]
        thr = checks.thresholds(horizon)
        ns, nt = checks.nstar(horizon), REF["ntilde"][f"{horizon}|{label}"]
        states = list(itertools.islice(audit_states(REF["audit"]["seed"], session), 30))
        for (n, x), cont in zip(states, recorded["cont"]):
            kind = ("SS" if n >= ns else "FS") if x >= thr[n - 1] else ("SF" if n >= nt else "FF")
            a, b = checks.w1(n, horizon), checks.w2(n, x, horizon)
            cells = [[(2 * p - 1) * a, (1 - 2 * p) * b], [a, -b], [-a, b], list(cont)]
            table = dict(zip(("SS", "SF", "FS", "FF"), cells))
            flip = {"S": "F", "F": "S"}
            here = table[kind]
            nash = (
                table[flip[kind[0]] + kind[1]][0] <= here[0]
                and table[kind[0] + flip[kind[1]]][1] <= here[1]
            )
            row = {"n": n, "x": x, "kind": kind, "cont": list(cont), "cells": cells, "nash": nash}
            self.assertEqual(checks.check_audit(row, horizon, label, (n, x), REF, cont), [])
            tampered = []
            for field, value in (
                ("kind", "FF" if kind != "FF" else "SS"),
                ("nash", not nash),
                ("cont", [cont[0] + 1e-9, cont[1]]),
            ):
                bad = copy.deepcopy(row)
                bad[field] = value
                tampered.append(bad)
            bad = copy.deepcopy(row)
            bad["cells"][1][0] += 1e-9
            tampered.append(bad)
            tampered.append({"n": n, "x": x, "error": "ValueError()"})
            for bad in tampered:
                self.assertNotEqual(checks.check_audit(bad, horizon, label, (n, x), REF, cont), [])
            self.assertNotEqual(checks.check_audit(row, horizon, label, (n, x / 2), REF, cont), [])


class SpanArithmetic(unittest.TestCase):
    def span(self, i, parent, start, end, **extra):
        return {"id": i, "name": extra.pop("name", "x"), "request": "r", "parent": parent,
                "start": start, "end": end, **extra}

    def test_self_time_subtracts_union_of_children(self):
        tree = [
            self.span(0, None, 0.0, 10.0),
            self.span(1, 0, 1.0, 3.0),
            self.span(2, 0, 2.0, 5.0),  # overlaps its sibling
            self.span(3, 1, 1.5, 2.5),  # grandchild: only its parent loses it
            self.span(4, 0, 8.0, 12.0),  # runs past the parent's end
        ]
        selfs = spans.self_times(tree)
        self.assertAlmostEqual(selfs[("r", 0)], 10.0 - (4.0 + 2.0))
        self.assertAlmostEqual(selfs[("r", 1)], 2.0 - 1.0)
        self.assertAlmostEqual(selfs[("r", 3)], 1.0)
        self.assertAlmostEqual(selfs[("r", 4)], 4.0)

    def test_layer_metrics(self):
        bi = "valuation.backward_induce"
        tree = [
            self.span(0, None, 0.0, 20.0, name="cli.main"),
            self.span(1, 0, 1.0, 1.0 + 2.0**3, name=bi, N=2, table_mb=3.0),
            self.span(2, 0, 10.0, 10.0 + 1.0, name=bi, N=1, table_mb=1.0),
        ]
        memory = [{"name": bi, "request": "r", "peak_mb": 5.0},
                  {"name": bi, "request": "r", "peak_mb": 7.0}]
        m, no_data = spans.layer_metrics(tree, memory)
        self.assertEqual(m[f"{bi}.calls"], 2)
        self.assertAlmostEqual(m[f"{bi}.busy_s"], 9.0)
        self.assertAlmostEqual(m[f"{bi}.exponent"], 3.0)
        self.assertEqual((m[f"{bi}.table_mb"], m[f"{bi}.peak_mb"]), (3.0, 7.0))
        self.assertAlmostEqual(m["cli.main.self_s"], 11.0)
        self.assertEqual(
            set(m) | {"trace.overhead_s", "fail_ratio"}, {name for name, _, _ in run.PER_LAYER}
        )
        # Derived figures of layers this tree never calls have no data; sums read 0.
        self.assertIn("oracle.run_verification_suite.passed_ratio", no_data)
        self.assertIn("valuation.continuation.p50_us", no_data)
        self.assertIn("equilibrium.build_game_tables.exponent", no_data)
        self.assertNotIn(f"{bi}.exponent", no_data)
        self.assertTrue(all(m[name] == 0 for name in no_data))
        self.assertEqual(m["valuation.simulate.calls"], 0)

    def test_tail_rule(self):
        lat = [float(i) for i in range(1, 31)]
        self.assertEqual(run.tail(lat)[:2], (18.0, 60))  # 12 beyond; p70 leaves 9
        self.assertEqual(run.tail([float(i) for i in range(1, 5001)])[:2], (4950.0, 99))
        self.assertEqual(run.tail(lat[:5])[:2], (5.0, 100.0))


class Results(unittest.TestCase):
    def test_a_pass_with_no_served_request_still_gives_a_result(self):
        failed = run.Pass(outcomes=[run.Outcome("s0", "audit", 0.0, ["session exit code 1"])])
        metrics, info = run.end_to_end(failed)
        self.assertEqual(info["fail_ratio"], 1.0)
        line = json.loads(run.result_line([failed], metrics, run.END_TO_END))
        self.assertEqual((line["correct"], line["attempted"], line["failed"]), (False, 1, 1))


class Contract(unittest.TestCase):
    def test_benchmark_json_matches_the_metrics(self):
        path = os.path.join(ROOT, "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("no BENCHMARK.json")
        with open(path, encoding="utf-8") as handle:
            spec = json.load(handle)
        self.assertEqual([w["name"] for w in spec["workloads"]], list(run.WORKLOADS))
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]], list(run.PER_LAYER)
        )

    def test_refuses_to_run_without_the_program(self):
        work = os.path.join(ROOT, ".perfbench")
        os.makedirs(work, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=work) as empty:
            proc = subprocess.run(
                [sys.executable, run.__file__, "--workload", "cli-mix", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=empty, capture_output=True, text=True, timeout=60,
            )
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
