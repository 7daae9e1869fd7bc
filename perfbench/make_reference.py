"""Record ``reference.json`` from the program as it stands.

    python3 perfbench/make_reference.py      # from the repository root

It stores, for every horizon and priority a workload can request, the
shifted cutoff ntilde and the game values (val1, val2) by backward
induction, plus the continuation values of the audited states of every
session in the first br-audit round of the default seed.  The committed
file was recorded at the commit that introduced the benchmark; later
changes to the program must keep matching it to within checks.DP_TOL.  Takes
about a minute on two cores.
"""

from __future__ import annotations

import itertools
import json
import multiprocessing
import os
import sys
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from checks import REFERENCE_PATH, key  # noqa: E402
from workloads import (  # noqa: E402
    AUDIT_STATES,
    DEFAULT_SEED,
    DP_HORIZONS,
    PRIORITIES,
    audit_round,
    audit_states,
)


def _solve(horizon: int, label: str):
    import bcgame

    tables = bcgame.build_game_tables(bcgame.ProblemConfig(horizon, PRIORITIES[label]))
    _, pair = bcgame.backward_induce(tables)
    return key(horizon, label), tables.ntilde, [pair.val1, pair.val2]


def _audit(session):
    import bcgame

    tables = bcgame.build_game_tables(
        bcgame.ProblemConfig(session.horizon, PRIORITIES[session.priority])
    )
    vf, _ = bcgame.backward_induce(tables)
    states = itertools.islice(audit_states(DEFAULT_SEED, session), AUDIT_STATES)
    cont = [[bcgame.continuation(n, x, vf, 1), bcgame.continuation(n, x, vf, 2)] for n, x in states]
    return {
        "index": session.index,
        "horizon": session.horizon,
        "priority": session.priority,
        "cont": cont,
    }


def main() -> None:
    jobs = [(n, label) for n in reversed(DP_HORIZONS) for label in PRIORITIES]
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
        solved = list(pool.map(_solve, *zip(*jobs)))
        sessions = list(pool.map(_audit, audit_round(DEFAULT_SEED, 0)))
    ref = {
        "ntilde": {k: nt for k, nt, _ in solved},
        "dp": {k: vals for k, _, vals in solved},
        "audit": {"seed": DEFAULT_SEED, "count": AUDIT_STATES, "sessions": sessions},
    }
    with open(REFERENCE_PATH, "w", encoding="utf-8") as handle:
        json.dump(ref, handle, indent=0, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
