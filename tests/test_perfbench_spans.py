"""The benchmark's per-layer spans wrap package attributes by name
(perfbench/spans.py). A rename of any wrapped function would turn its
per-layer metrics into `missing`; this test fails first.
"""

import importlib.util
from pathlib import Path

from uavloc.io_cli import main

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_exists_and_fires(tmp_path):
    obs = tmp_path / "obs.csv"
    assert main(["simulate", "--seed", "7", "--duration", "1500", "--out", str(obs)]) == 0
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert main(["estimate", "--obs", str(obs), "--ma", "20", "--min-rssi", "-46",
                     "--r-thresh", "1", "--out", str(tmp_path / "run.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert tracer.broken_counts == set()
    calls = {name: c[0] for name, c in tracer.totals().items()}
    assert sorted(calls) == sorted(tracer.names)
    assert all(n > 0 for n in calls.values()), calls
