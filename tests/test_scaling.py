"""The case table of ``tools/scaling.py``: every entry renders a child
that compiles, one case runs end to end, and the rows keep their
fields."""

import importlib.util
import json
import os
import resource

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "scaling", os.path.join(ROOT, "tools", "scaling.py")
)
scaling = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(scaling)


def test_every_case_renders_a_child_that_compiles():
    for name, (_, _, horizons, _) in scaling.LAYERS.items():
        for n, calls in horizons.items():
            compile(scaling._layer_script(name, n, calls), f"{name}-{n}", "exec")


def test_value_case_runs_in_a_fresh_interpreter():
    script = scaling._layer_script("value", 10, 1)
    row = scaling._layer_case(os.path.join(ROOT, "src"), "value", script)
    assert list(row) == ["wall_s", "maxrss_mb"]
    assert 0.0 < row["wall_s"] < 1.0 and row["maxrss_mb"] > 0.0


def test_rows_keep_their_fields(monkeypatch):
    usage = resource.getrusage(resource.RUSAGE_SELF)

    def child(src, argv, **kwargs):
        printed = {"wall_s": 0.5}
        if "tracemalloc" in argv[1]:
            printed["tracemalloc_mb"] = 3.0
        return 0.0, 1.0, json.dumps(printed).encode(), usage

    monkeypatch.setattr(scaling, "_child", child)
    fields = {
        "simulate": ["wall_s", "seq_per_s", "tracemalloc_mb", "maxrss_mb"],
        "audit": ["us_per_state", "states_per_s", "maxrss_mb"],
        "suite": ["wall_s", "tracemalloc_mb", "maxrss_mb"],
        "rule": ["wall_s", "maxrss_mb"],
    }
    for name, expected in fields.items():
        _, _, horizons, _ = scaling.LAYERS[name]
        n, calls = next(iter(horizons.items()))
        row = scaling._layer_case("src", name, scaling._layer_script(name, n, calls))
        assert list(row) == expected, name
    row = scaling._layer_case("src", "simulate", scaling._layer_script("simulate", 10, 1))
    assert row["seq_per_s"] == scaling.SEQUENCES / 0.5
    row = scaling._layer_case("src", "audit", scaling._layer_script("audit", 10, 5))
    assert row["us_per_state"] == 0.5 / scaling.AUDIT_STATES * 1e6


def test_tier1_counts_collection_errors(monkeypatch):
    usage = resource.getrusage(resource.RUSAGE_SELF)
    summaries = {
        "2 failed, 581 passed in 48.50s": (581, 2, 0),
        "1 failed, 570 passed, 1 error in 40.00s": (570, 1, 1),
        "3 passed, 2 errors in 1.00s": (3, 0, 2),
    }
    for summary, (passed, failed, errors) in summaries.items():
        out = f"....\n{summary}\n".encode()
        monkeypatch.setattr(scaling, "_child", lambda *_, **__: (0.0, 1.0, out, usage))
        row = scaling._tier1_case("src")
        assert (row["passed"], row["failed"], row["errors"]) == (passed, failed, errors)
