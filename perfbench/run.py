"""bcgame benchmark: closed-loop workloads over the CLI and the API.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root; it uses the sources under ``src/``.  One
client issues requests one after another.  CLI workloads (cli-mix,
mc-play) run every request in a fresh interpreter through ``launch.py``;
br-audit runs sessions of ``session.py`` that query the value function
in-process.  Never more than two processes are alive.  Children run with
one BLAS thread and without BCGAME_TOL / BCGAME_SEED.

Requests come in whole rounds (see ``workloads.py``).  With --trace 0 a
run serves the rounds that take --seconds at the nominal round time, and
the last stdout line holds the end-to-end metrics.  With --trace 1 the
first round runs three times: untraced, with timed spans at the module
boundaries, and with memory spans (``spans.py``); the last line holds the
per-layer metrics, including the tracing overhead.  Every output is
checked (``checks.py``).  Reports and spans are written under
``.perfbench/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import checks
import spans
from workloads import AUDIT_STATES, DEFAULT_SEED, audit_round, audit_states, cli_round

HERE = Path(__file__).resolve().parent
WORKLOADS = ("cli-mix", "mc-play", "br-audit")
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
PINNED_AWAY = ("BCGAME_TOL", "BCGAME_SEED")
RUN_DEADLINE_S = 165.0  # every child is killed by then, so a run ends within 180 s
NO_NEW_ROUND_AFTER_S = 90.0
#: Seconds one round of each workload takes on two vCPUs at the commit that
#: introduced the benchmark.  A run serves ceil(--seconds / ROUND_S) rounds:
#: a fixed amount of work, so the request set and the tail percentile do not
#: change with the program's or the host's speed.
ROUND_S = {"cli-mix": 16.0, "mc-play": 18.0, "br-audit": 5.5}
TAIL_BEYOND = 10
# A coarse ladder keeps the tail off the last few samples, which on a shared
# host are scheduling hiccups rather than the program.
TAIL_LADDER = (50, 60, 70, 80, 90, 95, 99, 99.9, 99.99)

#: (name, unit, better); with --trace 0 a run reports exactly these.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("req_per_s", "1/s", "higher"),
    ("latency_p50_s", "s", "lower"),
    ("latency_tail_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_STAT_UNITS = {
    "calls": ("count", "higher"),
    "busy_s": ("s", "lower"),
    "errors": ("count", "lower"),
    "self_s": ("s", "lower"),
    "exponent": ("slope", "lower"),
    "cells": ("count", "higher"),
    "table_mb": ("MB", "lower"),
    "peak_mb": ("MB", "lower"),
    "p50_us": ("us", "lower"),
    "seq_per_s": ("1/s", "higher"),
    "uniforms": ("count", "lower"),
    "batches": ("count", "lower"),
    "passed_ratio": ("ratio", "higher"),
    "out_bytes": ("bytes", "lower"),
}
_EXTRA_STATS = (
    ("equilibrium.build_game_tables", ("self_s", "exponent")),
    ("equilibrium.region_map", ("cells",)),
    ("valuation.backward_induce", ("self_s", "exponent", "table_mb", "peak_mb")),
    ("valuation.continuation", ("p50_us",)),
    ("valuation.simulate", ("seq_per_s", "uniforms", "batches", "peak_mb")),
    ("oracle.run_verification_suite", ("self_s", "passed_ratio")),
    ("cli.main", ("self_s", "out_bytes")),
)
#: (name, unit, better); with --trace 1 a run reports exactly these.
PER_LAYER = tuple(
    (f"{layer}.{stat}", *_STAT_UNITS[stat])
    for layer in spans.LAYER_NAMES
    for stat in ("calls", "busy_s", "errors")
) + tuple(
    (f"{layer}.{stat}", *_STAT_UNITS[stat]) for layer, stats in _EXTRA_STATS for stat in stats
) + (("trace.overhead_s", "s", "lower"), ("fail_ratio", "ratio", "lower"))


@dataclass
class Outcome:
    """One served request: its latency and whether its output was correct."""

    label: str
    kind: str
    latency: float
    problems: list = field(default_factory=list)


@dataclass
class Pass:
    """The requests of one pass, plus per-process figures."""

    outcomes: list = field(default_factory=list)
    setups: list = field(default_factory=list)
    rss_mb: list = field(default_factory=list)
    spans: list = field(default_factory=list)
    served_s: float = 0.0  # wall time of the children that served it


class Context:
    """Settings shared by the requests of one run: paths, reference data,
    the children's environment, and the clock the run deadline counts from."""

    def __init__(self, root: Path, seed: int):
        self.root = root
        self.seed = seed
        self.work = root / ".perfbench"
        self.work.mkdir(exist_ok=True)
        self.tag = str(os.getpid())  # scratch files of concurrent runs stay apart
        self.ref = checks.load_reference()
        self.started = time.monotonic()
        self.env = dict(os.environ)
        for name in PINNED_AWAY:
            self.env.pop(name, None)
        self.env.update(BLAS_THREADS)
        self.env["PYTHONPATH"] = str(root / "src")

    def scratch(self, name: str) -> Path:
        return self.work / f"{self.tag}.{name}"

    def remove_scratch(self) -> None:
        for path in self.work.glob(f"{self.tag}.*"):
            path.unlink()

    def spawn(self, cmd: list[str], run: Pass | None = None):
        """Run one child to its end: (exit code, wall seconds, seconds to
        its ready stamp, peak RSS in MB from its own rusage, stderr).  The
        wall time is added to ``run.served_s``."""
        err_path = self.scratch("stderr")
        timeout = max(1.0, RUN_DEADLINE_S - (time.monotonic() - self.started))
        start = time.monotonic_ns()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(
                cmd, env=self.env, cwd=self.root, stdout=subprocess.DEVNULL, stderr=err
            )
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        end = time.monotonic_ns()
        proc.returncode = os.waitstatus_to_exitcode(status)
        text = err_path.read_text(encoding="utf-8", errors="replace")
        ready = None
        for line in text.splitlines():
            if line.startswith("perfbench-ready "):
                ready = (int(line.split()[1]) - start) / 1e9
        if run is not None:
            run.served_s += (end - start) / 1e9
        return proc.returncode, (end - start) / 1e9, ready, usage.ru_maxrss / 1024.0, text


def _read_trace(path: Path, run: Pass, mode: str) -> None:
    if mode != "off" and path.exists():
        run.spans.extend(spans.read_spans(str(path)))


# ---- CLI workloads ----------------------------------------------------------


def _cli_request(ctx: Context, req, run: Pass, mode: str) -> None:
    out = ctx.scratch("out.csv")
    trace = ctx.scratch("trace")
    for stale in (out, trace):
        stale.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "launch.py"), req.rid, mode, str(trace),
        *req.argv, "--out", str(out),
    ]
    code, latency, ready, rss, err = ctx.spawn(cmd, run)
    text = out.read_text(encoding="utf-8") if out.exists() else ""
    problems = checks.check_cli(req, code, text, ctx.ref)
    if problems and err.strip():
        problems.append(err.strip().splitlines()[-1])
    if ready is None:
        problems.append("no ready stamp")
    else:
        run.setups.append(ready)
    _read_trace(trace, run, mode)
    run.rss_mb.append(rss)
    run.outcomes.append(Outcome(" ".join(req.argv), req.kind, latency, problems))


# ---- br-audit ---------------------------------------------------------------


def _audit_reference(ctx: Context, session) -> list | None:
    ref = ctx.ref["audit"]
    if ref["seed"] != ctx.seed or session.index >= len(ref["sessions"]):
        return None
    recorded = ref["sessions"][session.index]
    if (recorded["horizon"], recorded["priority"]) != (session.horizon, session.priority):
        return None
    return recorded["cont"]


def _audit_session(ctx: Context, session, run: Pass, mode: str) -> None:
    """One session: set-up, then AUDIT_STATES audited states."""
    record = ctx.scratch("audit.json")
    trace = ctx.scratch("trace")
    for stale in (record, trace):
        stale.unlink(missing_ok=True)
    cmd = [
        sys.executable, str(HERE / "session.py"), "--seed", str(ctx.seed),
        "--session", str(session.index), "--horizon", str(session.horizon),
        "--priority", session.priority, "--count", str(AUDIT_STATES),
        "--record", str(record), "--trace", mode, "--trace-out", str(trace),
    ]
    code, _, ready, rss, err = ctx.spawn(cmd, run)
    label = " ".join(cmd[2:12])
    if code != 0 or ready is None or not record.exists():
        tail = err.strip().splitlines()[-1:] if err.strip() else []
        run.outcomes.append(Outcome(label, "audit", 0.0, [f"session exit code {code}", *tail]))
        return
    run.setups.append(ready)
    run.rss_mb.append(rss)
    rows = json.loads(record.read_text(encoding="utf-8"))["rows"]
    want = _audit_reference(ctx, session)
    if len(rows) != AUDIT_STATES:
        run.outcomes.append(Outcome(label, "audit", 0.0, [f"{len(rows)} rows"]))
    for j, (row, state) in enumerate(zip(rows, audit_states(ctx.seed, session))):
        cont = want[j] if want is not None and j < len(want) else None
        problems = checks.check_audit(row, session.horizon, session.priority, state, ctx.ref, cont)
        run.outcomes.append(Outcome(f"{label} #{j}", "audit", row["latency"], problems))
    _read_trace(trace, run, mode)


# ---- rounds -----------------------------------------------------------------


def serve_round(ctx: Context, workload: str, index: int, run: Pass, mode: str) -> None:
    """Serve round ``index`` of the workload; ``mode`` is off, spans or memory."""
    if workload == "br-audit":
        for session in audit_round(ctx.seed, index):
            _audit_session(ctx, session, run, mode)
    else:
        for req in cli_round(workload, ctx.seed, index):
            _cli_request(ctx, req, run, mode)


def measured_pass(ctx: Context, workload: str, seconds: float) -> Pass:
    """Untraced whole rounds: as many as take ``seconds`` at ROUND_S, so
    every commit serves the same requests for a given seed and --seconds."""
    run = Pass()
    for index in range(max(1, math.ceil(seconds / ROUND_S[workload]))):
        if time.monotonic() - ctx.started > NO_NEW_ROUND_AFTER_S:
            run.outcomes.append(Outcome(f"round {index}", "round", 0.0, ["run out of time"]))
            break
        serve_round(ctx, workload, index, run, "off")
    return run


def traced_passes(ctx: Context, workload: str) -> list[Pass]:
    """The first round three times: untraced, with timed spans, and with
    memory spans.  It is a fixed set of requests, so the per-layer figures
    do not depend on the program's speed."""
    passes = [Pass(), Pass(), Pass()]
    for run, mode in zip(passes, ("off", "spans", "memory")):
        serve_round(ctx, workload, 0, run, mode)
    return passes


# ---- metrics and the result line --------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float, str]:
    """Latency at the highest TAIL_LADDER percentile (nearest rank) with at
    least TAIL_BEYOND samples beyond it: (value, percentile, rule).  With
    too few samples for any of them, the maximum."""
    ordered = sorted(latencies)
    count = len(ordered)
    for pct in reversed(TAIL_LADDER):
        rank = math.ceil(pct / 100.0 * count) - 1
        if count - 1 - rank >= TAIL_BEYOND:
            return ordered[rank], pct, f"p{pct:g}: {count - 1 - rank} of {count} samples beyond"
    return ordered[-1], 100.0, f"maximum: {count} samples, too few for any percentile"


def end_to_end(run: Pass) -> tuple[dict, dict]:
    """The end-to-end metrics of an untraced pass, and facts about them.
    A figure with no sample (every request failed) reads 0; the run then
    reports correct: false."""
    latencies = [o.latency for o in run.outcomes]
    correct = sum(1 for o in run.outcomes if not o.problems)
    value, pct, rule = tail(latencies)
    total = sum(latencies)
    metrics = {
        "setup_s": statistics.median(run.setups) if run.setups else 0.0,
        "req_per_s": correct / total if total > 0 else 0.0,
        "latency_p50_s": statistics.median(latencies),
        "latency_tail_s": value,
        "peak_rss_mb": max(run.rss_mb, default=0.0),
    }
    kinds: dict[str, float] = {}
    for o in run.outcomes:
        kinds[o.kind] = kinds.get(o.kind, 0.0) + o.latency
    info = {
        "requests": len(latencies),
        "latency_tail_percentile": pct,
        "latency_tail_rule": rule,
        "setup_samples": len(run.setups),
        "fail_ratio": (len(latencies) - correct) / len(latencies),
        "kind_share": {k: v / total for k, v in sorted(kinds.items())} if total > 0 else {},
    }
    return metrics, info


def _git_commit(root: Path) -> str | None:
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def stamp(ctx: Context, args, run: Pass) -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted((ctx.root / "src" / "bcgame").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _git_commit(ctx.root),
        "source_sha256": digest.hexdigest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "child_blas_threads": BLAS_THREADS,
        "child_env_removed": list(PINNED_AWAY),
        "requests": [o.label for o in run.outcomes] if args.workload != "br-audit"
        else {"sessions": sorted({o.label.split(" #")[0] for o in run.outcomes})},
    }


def latency_table(run: Pass) -> list:
    """(request, seconds) of a CLI pass; per-state rows of br-audit are
    summarised by the end-to-end metrics instead."""
    if len(run.outcomes) > 200:
        return []
    return [[o.label, o.latency] for o in run.outcomes]


def result_line(runs: list[Pass], metrics: dict, table) -> str:
    outcomes = [o for r in runs for o in r.outcomes]
    failed = sum(1 for o in outcomes if o.problems)
    if set(metrics) != {name for name, _, _ in table}:
        raise RuntimeError(f"metrics out of step with the table: {sorted(metrics)}")
    return json.dumps(
        {
            "correct": failed == 0,
            "attempted": len(outcomes),
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in table},
        }
    )


def per_layer(runs: list[Pass]) -> tuple[dict, dict]:
    """Per-layer metrics of the three passes of a traced run, and facts
    about them: the figures with no data and each layer's busy time as a
    share of the time the traced pass's children ran (set-up included)."""
    plain, timed, memory = runs
    layer, no_data = spans.layer_metrics(timed.spans, memory.spans)
    layer["trace.overhead_s"] = sum(o.latency for o in timed.outcomes) - sum(
        o.latency for o in plain.outcomes
    )
    outcomes = [o for r in runs for o in r.outcomes]
    layer["fail_ratio"] = sum(1 for o in outcomes if o.problems) / len(outcomes)
    share = {name: layer[f"{name}.busy_s"] / timed.served_s for name in spans.LAYER_NAMES}
    return layer, {"no_data": no_data, "busy_share": share}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # Turn SIGTERM into SystemExit so that spawn() kills and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    root = Path.cwd()
    if not (root / "src" / "bcgame" / "cli.py").is_file():
        print("perfbench: no bcgame sources at src/bcgame; run from the repository root",
              file=sys.stderr)
        return 2
    ctx = Context(root, args.seed)
    try:
        return measure(ctx, args)
    finally:
        ctx.remove_scratch()


def measure(ctx: Context, args) -> int:
    """Warm up, run the passes, write the report and print the result."""
    warm = ctx.spawn([sys.executable, str(HERE / "launch.py"), "warmup", "off", "-", "--help"])
    if warm[0] != 0:
        print(f"perfbench: bcgame does not start: {warm[4].strip()}", file=sys.stderr)
        return 2

    if args.trace:
        runs = traced_passes(ctx, args.workload)
    else:
        runs = [measured_pass(ctx, args.workload, args.seconds)]
    metrics, info = end_to_end(runs[0])
    report = {
        "stamp": stamp(ctx, args, runs[0]),
        "untraced": {"metrics": metrics, **info},
        "latencies": latency_table(runs[0]),
    }
    failures = [(o.label, o.problems) for r in runs for o in r.outcomes if o.problems]
    report["failures"] = failures[:20]
    if args.trace:
        layer, facts = per_layer(runs)
        report["per_layer"] = {"metrics": layer, **facts}
        span_file = ctx.work / f"spans-{args.workload}-s{args.seed}.jsonl"
        with open(span_file, "w", encoding="utf-8") as handle:
            for s in runs[1].spans + runs[2].spans:
                handle.write(json.dumps(s) + "\n")
        line = result_line(runs, layer, PER_LAYER)
    else:
        line = result_line(runs, metrics, END_TO_END)
    report_file = ctx.work / f"report-{args.workload}-s{args.seed}-t{args.trace}.json"
    report_file.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for label, problems in failures[:5]:
        print(f"perfbench: FAILED {label}: {'; '.join(problems)}", file=sys.stderr)
    info = {"stamp": report["stamp"], "untraced": report["untraced"]}
    if args.trace:
        info["trace.overhead_s"] = layer["trace.overhead_s"]
        info["no_data"] = facts["no_data"]
    print(json.dumps(info))
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
