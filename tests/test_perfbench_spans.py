"""The benchmark's per-layer spans wrap package attributes by name
(perfbench/spans.py). A rename of any wrapped function would turn its
per-layer metrics into `missing`; this test fails first. The counts are read
from the wrapped calls' arguments and results (`ClusterSet.clusters`, say),
so a change to those shapes would put the span in `broken_counts`.
"""

import importlib.util
from pathlib import Path

from uavloc import cluster
from uavloc.io_cli import main, read_report

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_estimate(tmp_path, flags):
    """Trace `uavloc estimate` with flags on a 1500 s gtu-sim log; check
    that every span target exists, fires and gives readable counts."""
    obs = tmp_path / "obs.csv"
    assert main(["simulate", "--seed", "7", "--duration", "1500", "--out", str(obs)]) == 0
    tracer = load_spans().Tracer()
    tracer.install()
    try:
        assert main(["estimate", "--obs", str(obs), *flags,
                     "--out", str(tmp_path / "run.json")]) == 0
    finally:
        tracer.uninstall()
    assert tracer.missing == set()
    assert tracer.broken_counts == set()
    calls = {name: c[0] for name, c in tracer.totals().items()}
    assert sorted(calls) == sorted(tracer.names)
    assert all(n > 0 for n in calls.values()), calls
    return tracer


def span_counts(tracer, name):
    """The counts of each span of that name that recorded them, in start order."""
    return [tracer.counts[sid] for sid, i in enumerate(tracer.name_col)
            if tracer.names[i] == name and sid in tracer.counts]


def test_every_span_target_exists_and_fires(tmp_path):
    tracer = traced_estimate(tmp_path, ["--ma", "20", "--min-rssi", "-46", "--r-thresh", "1"])
    # a solve records counts only when it returns, so the solve spans with
    # counts are the ok iterations, in order, and each counts the anchors
    # that iteration reports
    used = [r["n_clusters_used"] for r in read_report(str(tmp_path / "run.json")).iterations
            if r["status"] == "ok"]
    anchors = [c["anchors"] for c in span_counts(tracer, "lateration.solve")]
    assert len(used) > 10 and anchors == used


def test_default_flags_trace_takes_the_pruned_path(tmp_path):
    # the paper's default flags keep every row, so windows pass 64 points
    # after two batches, and ma 130 asks for more than three clusters: Lloyd
    # runs pruned, and the filter counts read the label-based ClusterSet
    tracer = traced_estimate(tmp_path, ["--ma", "130"])
    filtered = span_counts(tracer, "cluster.filter")
    assert len(filtered) == 30
    assert all(c["clusters_after"] <= c["clusters_before"] for c in filtered)
    assert max(c["clusters_before"] for c in filtered[2:]) > cluster.LLOYD_DENSE_MAX_K
