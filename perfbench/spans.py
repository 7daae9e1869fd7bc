"""Spans at the module boundaries of bcgame, recorded from outside.

``install`` rebinds the public functions listed in LAYERS, in their
modules and in the package namespace, to wrappers that record one span
per call: name, start, end, parent span, request id, an error flag and the
sizes of the work (horizon N, cells, samples).  Calls from ``cli`` into
the layers and between layers go through module attributes, so they nest
as parent/child spans.  Spans stay in memory until the process writes
them.

With ``memory=True`` only MEMORY_LAYERS are wrapped, and each call
records the tracemalloc peak of its allocations and no times: tracemalloc
slows the calls it watches by a factor that grows with their allocation
count, so memory comes from a run of its own.

``layer_metrics`` turns the spans of a timed run and those of a memory run
into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import math
import os
import statistics
import time
import tracemalloc

_MB = float(1 << 20)


def _config_horizon(args, kwargs, result):
    return {"N": args[0].horizon}


def _tables_horizon(args, kwargs, result):
    tables = args[0]
    vf = result[0]
    arrays = [v for v in vars(vf).values() if hasattr(v, "nbytes")]
    return {
        "N": tables.config.horizon,
        "table_mb": sum(a.nbytes for a in arrays) / _MB,
    }


def _region_cells(args, kwargs, result):
    return {"cells": int(result.kinds.size)}


def _simulate_sizes(args, kwargs, result):
    cfg, _, sim = args[:3]
    return {"N": cfg.horizon, "samples": sim.samples}


def _suite_sizes(args, kwargs, result):
    return {"reports": len(result), "passed": sum(1 for r in result if r.passed)}


def _cli_sizes(args, kwargs, result):
    argv = list(args[0]) if args else []
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if path != "-" and os.path.exists(path):
            return {"out_bytes": os.path.getsize(path)}
    return {"out_bytes": 0}


def _no_sizes(args, kwargs, result):
    return {}


#: (module, function, sizes-from-call) for every wrapped public function.
LAYERS = (
    ("models", "fullinfo_thresholds", _config_horizon),
    ("equilibrium", "build_game_tables", _config_horizon),
    ("equilibrium", "region_map", _region_cells),
    ("equilibrium", "bimatrix", _no_sizes),
    ("valuation", "backward_induce", _tables_horizon),
    ("valuation", "continuation", _no_sizes),
    ("valuation", "simulate", _simulate_sizes),
    ("oracle", "run_verification_suite", _suite_sizes),
    ("cli", "main", _cli_sizes),
)
LAYER_NAMES = tuple(f"{m}.{f}" for m, f, _ in LAYERS)

#: Layers whose peak memory a memory run records.
MEMORY_LAYERS = ("valuation.backward_induce", "valuation.simulate")


class Recorder:
    """Holds the spans of one process; ``request`` tags new spans."""

    def __init__(self, request: str | None = None):
        self.spans: list[dict] = []
        self.request = request
        self._stack: list[dict] = []

    def _open(self, name: str) -> dict:
        parent = self._stack[-1] if self._stack else None
        span = {
            "id": len(self.spans),
            "name": name,
            "request": self.request,
            "parent": parent["id"] if parent else None,
        }
        self.spans.append(span)
        self._stack.append(span)
        span["start"] = time.perf_counter()
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, sizes):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                self._close(span)
            span.update(sizes(args, kwargs, result))
            return result

        return wrapper

    def wrap_memory(self, name: str, fn):
        """Record the tracemalloc peak of one call, in MB; a call inside
        another watched call is part of the outer call's peak."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracemalloc.is_tracing():
                return fn(*args, **kwargs)
            tracemalloc.start()
            try:
                return fn(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1] / _MB
                tracemalloc.stop()
                self.spans.append({"name": name, "request": self.request, "peak_mb": peak})

        return wrapper

    def count_generators(self, make):
        """Wrap a batch-generator factory so that the 64-bit words each
        generator hands out are added to the innermost open ``simulate``
        span when it closes (measured from the Philox counter)."""

        @functools.wraps(make)
        def wrapper(*args, **kwargs):
            gen = make(*args, **kwargs)
            for span in reversed(self._stack):
                if span["name"] == "valuation.simulate":
                    span.setdefault("_gens", []).append(gen)
                    break
            return gen

        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                gens = span.pop("_gens", None)
                if gens is not None:
                    span["batches"] = len(gens)
                    span["words"] = sum(_words_drawn(g) for g in gens)
                handle.write(json.dumps(span) + "\n")


def _words_drawn(gen) -> int:
    state = gen.bit_generator.state
    blocks = int(state["state"]["counter"][0])
    return 4 * blocks - (4 - int(state["buffer_pos"])) if blocks else 0


def install(recorder: Recorder, memory: bool = False) -> None:
    """Rebind every LAYERS function (with ``memory``, every MEMORY_LAYERS
    function), in its module and in the package."""
    import importlib

    package = importlib.import_module("bcgame")
    for module_name, attr, sizes in LAYERS:
        name = f"{module_name}.{attr}"
        if memory and name not in MEMORY_LAYERS:
            continue
        module = importlib.import_module(f"bcgame.{module_name}")
        original = getattr(module, attr)
        if memory:
            wrapped = recorder.wrap_memory(name, original)
        else:
            wrapped = recorder.wrap(name, original, sizes)
        setattr(module, attr, wrapped)
        if getattr(package, attr, None) is original:
            setattr(package, attr, wrapped)
    if not memory:
        valuation = importlib.import_module("bcgame.valuation")
        valuation.batch_generator = recorder.count_generators(valuation.batch_generator)


def read_spans(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> dict[tuple, float]:
    """Self time of every span, keyed by (request, id): its duration minus
    the part of its interval that its direct children cover."""
    children: dict[tuple, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault((s["request"], s["parent"]), []).append(s)
    out = {}
    for s in spans:
        key = (s["request"], s["id"])
        covered = 0.0
        cursor = s["start"]
        for c in sorted(children.get(key, []), key=lambda c: c["start"]):
            lo, hi = max(c["start"], cursor), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[key] = (s["end"] - s["start"]) - covered
    return out


def _slope(points: list[tuple[float, float]]) -> float | None:
    """Least-squares slope of log y against log x; None without two x values."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({p[0] for p in pts}) < 2:
        return None
    mx = statistics.fmean(p[0] for p in pts)
    my = statistics.fmean(p[1] for p in pts)
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    return sum((p[0] - mx) * (p[1] - my) for p in pts) / sxx


def layer_metrics(spans: list[dict], memory_spans: list[dict]) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, named ``<module>.<function>.<stat>``, from the
    spans of a timed run and of a memory run over the same requests, and
    the names of the figures that had no data.

    Sums over calls (calls, busy_s, errors, self_s, cells, uniforms,
    batches, out_bytes) read 0 when the workload makes no such call.  The
    other figures are derived from calls (a slope, a median, a rate, a
    ratio, a size); where there is nothing to derive them from they read 0
    and are named in the list.
    """
    selfs = self_times(spans)
    by_name: dict[str, list[dict]] = {name: [] for name in LAYER_NAMES}
    for s in spans:
        if s["name"] in by_name:
            by_name[s["name"]].append(s)
    m: dict[str, float] = {}
    no_data: list[str] = []

    def derived(metric: str, value: float | None) -> None:
        if value is None:
            no_data.append(metric)
        m[metric] = 0.0 if value is None else value

    for name, ss in by_name.items():
        m[f"{name}.calls"] = len(ss)
        m[f"{name}.busy_s"] = sum(s["end"] - s["start"] for s in ss)
        m[f"{name}.errors"] = sum(1 for s in ss if s.get("error"))

    def self_s(name):
        return sum(selfs[(s["request"], s["id"])] for s in by_name[name])

    def exponent(name):
        return _slope([(s["N"], s["end"] - s["start"]) for s in by_name[name] if "N" in s])

    def peak(name):
        return max((s["peak_mb"] for s in memory_spans if s["name"] == name), default=None)

    tables, bi = "equilibrium.build_game_tables", "valuation.backward_induce"
    m[f"{tables}.self_s"] = self_s(tables)
    derived(f"{tables}.exponent", exponent(tables))
    m["equilibrium.region_map.cells"] = sum(s.get("cells", 0) for s in by_name["equilibrium.region_map"])
    m[f"{bi}.self_s"] = self_s(bi)
    derived(f"{bi}.exponent", exponent(bi))
    derived(f"{bi}.table_mb", max((s["table_mb"] for s in by_name[bi] if "table_mb" in s), default=None))
    derived(f"{bi}.peak_mb", peak(bi))
    cont = [s["end"] - s["start"] for s in by_name["valuation.continuation"]]
    derived("valuation.continuation.p50_us", statistics.median(cont) * 1e6 if cont else None)
    sim = by_name["valuation.simulate"]
    sim_busy = m["valuation.simulate.busy_s"]
    samples = sum(s.get("samples", 0) for s in sim)
    derived("valuation.simulate.seq_per_s", samples / sim_busy if sim_busy > 0 else None)
    m["valuation.simulate.uniforms"] = sum(s.get("words", 0) for s in sim)
    m["valuation.simulate.batches"] = sum(s.get("batches", 0) for s in sim)
    derived("valuation.simulate.peak_mb", peak("valuation.simulate"))
    suite = "oracle.run_verification_suite"
    m[f"{suite}.self_s"] = self_s(suite)
    reports = sum(s.get("reports", 0) for s in by_name[suite])
    passed = sum(s.get("passed", 0) for s in by_name[suite])
    derived(f"{suite}.passed_ratio", passed / reports if reports else None)
    m["cli.main.self_s"] = self_s("cli.main")
    m["cli.main.out_bytes"] = sum(s.get("out_bytes", 0) for s in by_name["cli.main"])
    return m, no_data
