"""Child process of one br-audit session, driven through the public API.

Set-up builds the game tables and the value function of one game, then
writes ``perfbench-ready <monotonic ns>`` to stderr.  Each of the --count
requests then audits one record state (n, x) from
``workloads.audit_states``: classify_state, continuation for both players,
bimatrix and is_pure_nash.  The answers go to --record as JSON for the
parent to check.  With --trace spans|memory the wrappers of ``spans.py``
record in that mode and write to --trace-out.

    python session.py --seed S --session K --horizon N --priority P --count C
                      --record PATH [--trace spans|memory --trace-out PATH]
"""

import argparse
import json
import sys
import time


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--session", type=int, required=True)
    ap.add_argument("--horizon", type=int, required=True)
    ap.add_argument("--priority", required=True)
    ap.add_argument("--count", type=int, required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--trace", choices=("off", "spans", "memory"), default="off")
    ap.add_argument("--trace-out")
    args = ap.parse_args()

    import bcgame
    from workloads import PRIORITIES, Session, audit_states

    recorder = None
    if args.trace != "off":
        import spans

        recorder = spans.Recorder(f"s{args.session}.setup")
        spans.install(recorder, memory=args.trace == "memory")
    eq, val = bcgame.equilibrium, bcgame.valuation
    cfg = bcgame.ProblemConfig(horizon=args.horizon, priority=PRIORITIES[args.priority])
    tables = eq.build_game_tables(cfg)
    vf, _ = val.backward_induce(tables)
    sys.stderr.write(f"perfbench-ready {time.monotonic_ns()}\n")
    sys.stderr.flush()

    session = Session(args.session, args.horizon, args.priority)
    rows = []
    for i, (n, x) in zip(range(args.count), audit_states(args.seed, session)):
        if recorder is not None:
            recorder.request = f"s{args.session}.{i}"
        start = time.perf_counter()
        try:
            kind = eq.classify_state(n, x, tables)
            c1 = val.continuation(n, x, vf, 1)
            c2 = val.continuation(n, x, vf, 2)
            bm = eq.bimatrix(n, x, tables, (c1, c2))
            nash = bm.is_pure_nash(kind)
        except Exception as exc:  # a failed request is counted, not fatal
            rows.append({"n": n, "x": x, "error": repr(exc), "latency": time.perf_counter() - start})
            continue
        elapsed = time.perf_counter() - start
        rows.append(
            {
                "n": n,
                "x": x,
                "kind": kind.value,
                "cont": [c1, c2],
                "cells": [list(bm.ss), list(bm.sf), list(bm.fs), list(bm.ff)],
                "nash": nash,
                "latency": elapsed,
            }
        )
    if recorder is not None:
        recorder.write(args.trace_out)
    with open(args.record, "w", encoding="utf-8") as handle:
        json.dump({"rows": rows}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
