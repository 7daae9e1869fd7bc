"""Request generation for the benchmark workloads.

Every workload is a closed loop with one client.  Requests come in
rounds: each round holds a fixed multiset of request kinds, and every
numeric parameter is drawn by stratified sampling, one draw per stratum of
its range, close to the stratum centre.  The seed therefore changes the
inputs (horizons, priorities, Monte Carlo seeds, order, audited states)
while the work in a round stays nearly the same, so runs with different
seeds are comparable.  The measured part of a run holds whole rounds, and
a traced run traces exactly the first round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

DEFAULT_SEED = 1

#: The six priorities of the paper's Table 1, as CLI literals and values.
PRIORITIES = {
    "0.1": 0.1,
    "0.2": 0.2,
    "0.25": 0.25,
    "1/3": 1 / 3,
    "e^-1": math.exp(-1),
    "0.5": 0.5,
}

#: Share of a stratum's width by which a draw may leave the stratum centre.
JITTER = 0.1

MC_SAMPLES_CLI = 100_000
MC_SAMPLES_PLAY = 2_000_000

#: Horizon range of the br-audit sessions.
AUDIT_RANGE = (40, 60)
#: Record states audited per br-audit session.  A run of three rounds then
#: serves 990 queries, fewer than the 1000 that would put its tail at p99:
#: the ten slowest of about a thousand millisecond queries are this host's
#: scheduling stalls (in one ten-run set p99 doubled while p50 rose 15%),
#: while p95 stays on the program.
AUDIT_STATES = 55
#: Every horizon whose DP values a workload can request: cli-mix values
#: (10-40) and mc-play simulate (10-60).
DP_HORIZONS = range(10, 61)


@dataclass(frozen=True)
class Request:
    """One CLI call: ``argv`` is what follows ``bcgame`` (``--out`` is added
    when the request runs); ``params`` holds what the output check needs."""

    rid: str
    kind: str
    argv: tuple[str, ...]
    params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Session:
    """One br-audit session: a game (horizon, priority label) whose value
    function is built once and then queried state by state."""

    index: int
    horizon: int
    priority: str


def _rng(*parts) -> random.Random:
    # A str seed is hashed with SHA-512, so the stream does not depend on
    # PYTHONHASHSEED or the platform.
    return random.Random("/".join(str(p) for p in parts))


def strata(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """One integer per equal-width stratum of [lo, hi], each within
    ``JITTER`` stratum widths of its stratum centre."""
    width = (hi - lo) / count
    return [
        math.floor(lo + (i + 0.5 + JITTER * rng.uniform(-1.0, 1.0)) * width + 0.5)
        for i in range(count)
    ]


def _priority(rng: random.Random) -> str:
    return rng.choice(list(PRIORITIES))


def _values(rid, horizon, label, method, rng, samples=None) -> Request:
    argv = ["values", "--horizon", str(horizon), "--priority", label, "--method", method]
    params = {"horizon": horizon, "priority": label}
    if method != "dp":
        seed = rng.randrange(1 << 31)
        argv += ["--samples", str(samples), "--seed", str(seed)]
        params["samples"] = samples
    return Request(rid, f"values-{method}", tuple(argv), params)


#: Requests of each cli-mix kind per round.  Each kind takes about the same
#: share of request time: the counts are inversely proportional to the
#: kinds' mean latencies at the commit that introduced the benchmark
#: (thresholds 1.4 s over its range, table1 1.5 s, verify 0.7 s, regions
#: 0.3 s, values dp 0.26 s, values both 0.36 s, interpreter start
#: included).  Equal counts would put the median between the cheap and the
#: dear kinds, each half of the requests.
CLI_MIX_COUNTS = {
    "thresholds": 2,
    "table1": 2,
    "verify": 4,
    "regions": 8,
    "values-dp": 10,
    "values-both": 8,
}


def _cli_mix_round(rng: random.Random, tag: str) -> list[Request]:
    reqs: list[Request] = []
    count = CLI_MIX_COUNTS

    def rid() -> str:
        return f"{tag}.{len(reqs)}"

    for n in strata(rng, 200, 800, count["thresholds"]):
        reqs.append(
            Request(rid(), "thresholds", ("thresholds", "--horizon", str(n)), {"horizon": n})
        )
    for _ in range(count["table1"]):
        reqs.append(Request(rid(), "table1", ("table1",), {}))
    xsteps = ["0.01", "0.001"] * (count["regions"] // 2)
    rng.shuffle(xsteps)
    for n, xstep in zip(strata(rng, 10, 50, count["regions"]), xsteps):
        label = _priority(rng)
        argv = ("regions", "--horizon", str(n), "--priority", label, "--xstep", xstep)
        reqs.append(
            Request(rid(), "regions", argv, {"horizon": n, "priority": label, "xstep": xstep})
        )
    for n in strata(rng, 10, 40, count["values-dp"]):
        reqs.append(_values(rid(), n, _priority(rng), "dp", rng))
    for n in strata(rng, 10, 30, count["values-both"]):
        reqs.append(_values(rid(), n, _priority(rng), "both", rng, MC_SAMPLES_CLI))
    # verify runs with its own default seed: its Monte Carlo checks are
    # certified at that seed, and a drawn seed would make them flaky.
    for _ in range(count["verify"]):
        reqs.append(Request(rid(), "verify", ("verify",), {}))
    rng.shuffle(reqs)
    return reqs


def _each_priority(rng: random.Random, lo: int, hi: int) -> list[tuple[int, str]]:
    """Every priority once, each at a horizon from its own stratum of
    [lo, hi]: the priority changes the cost of a solve by up to a third,
    so a round that holds all six costs nearly the same for every seed."""
    labels = list(PRIORITIES)
    rng.shuffle(labels)
    return list(zip(strata(rng, lo, hi, len(labels)), labels))


def _mc_play_round(rng: random.Random, tag: str) -> list[Request]:
    reqs = []
    for i, (n, label) in enumerate(_each_priority(rng, 10, 60)):
        seed = rng.randrange(1 << 31)
        argv = (
            "simulate", "--horizon", str(n), "--priority", label,
            "--samples", str(MC_SAMPLES_PLAY), "--seed", str(seed),
        )
        params = {"horizon": n, "priority": label, "samples": MC_SAMPLES_PLAY}
        reqs.append(Request(f"{tag}.{i}", "simulate", argv, params))
    return reqs


CLI_ROUNDS = {
    "cli-mix": _cli_mix_round,
    "mc-play": _mc_play_round,
}


def cli_round(workload: str, seed: int, index: int) -> list[Request]:
    """Round ``index`` of a CLI workload; a pure function of its arguments."""
    return CLI_ROUNDS[workload](_rng(workload, seed, index), f"r{index}")


def audit_round(seed: int, index: int) -> list[Session]:
    """Round ``index`` of br-audit: one session per priority, each at a
    horizon from its own stratum of AUDIT_RANGE."""
    pairs = _each_priority(_rng("br-audit", seed, index), *AUDIT_RANGE)
    first = index * len(PRIORITIES)
    return [Session(first + i, n, label) for i, (n, label) in enumerate(pairs)]


def audit_states(seed: int, session: Session):
    """Endless stream of record states (n, x) audited in one session."""
    rng = _rng("br-audit", seed, "session", session.index)
    while True:
        n = rng.randint(1, session.horizon)
        x = 1.0 - rng.random()  # in (0, 1]: w2 is undefined at x = 0 before N
        yield n, x
