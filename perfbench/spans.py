"""Spans around the module attributes the estimate pipeline calls through.

The benchmark installs the wrappers only for its traced passes; the package
itself is not instrumented. Each span records its name, start, end, parent
span and the log it belongs to, plus the counts listed in TARGETS. Spans stay
in memory (compact columns) until `write` is called at exit.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from time import perf_counter

import numpy as np

from uavloc import cluster, estimator, io_cli


def _counts_threshold(args, result):
    return {"kept": len(result)}


def _counts_compute_k(args, result):
    return {"diameter_pairs": len(args[0]) ** 2}


def _counts_lloyd(args, result):
    iters = len(result[2])
    return {"lloyd_iters": iters, "lloyd_evals": iters * len(args[0]) * len(args[1])}


def _counts_filter(args, result):
    return {"clusters_before": len(args[0].clusters), "clusters_after": len(result.clusters)}


def _counts_solve(args, result):
    return {"anchors": len(args[0]), "exact": int(len(args[0]) == 3)}


def _counts_iteration(args, result):
    return {"skipped": int(not result.ok)}


def _counts_parse(args, result):
    return {"log_bytes": os.path.getsize(args[0])}


def _counts_report(args, result):
    return {"report_bytes": os.path.getsize(args[1])}


# (owner, attribute, span name, counts from (args, result) or None)
TARGETS = [
    (cluster, "threshold_rssi", "cluster.threshold", _counts_threshold),
    (cluster, "compute_k", "cluster.compute_k", _counts_compute_k),
    (cluster, "_kmeans_pp_init", "cluster.kmeans_init", None),
    (cluster, "_lloyd", "cluster.lloyd", _counts_lloyd),
    (cluster, "filter_clusters", "cluster.filter", _counts_filter),
    (cluster, "select_reference_nodes", "cluster.select_refs", None),
    (estimator, "project", "geo.project", None),
    (estimator, "estimate_position", "lateration.solve", _counts_solve),
    (estimator.Estimator, "run_iteration", "estimator.iteration", _counts_iteration),
    (io_cli, "parse_log", "io_cli.parse_log", _counts_parse),
    (io_cli, "write_report", "io_cli.write_report", _counts_report),
]


class Tracer:
    def __init__(self):
        self.names = [name for _, _, name, _ in TARGETS]
        self.name_col = array("i")
        self.parent = array("i")
        self.log = array("q")
        self.pass_col = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts = {}            # span id -> counts dict
        self.missing = set()        # span names whose target no longer exists
        self.broken_counts = set()  # span names whose counts could not be read
        self.log_id = -1
        self.pass_id = -1
        self._stack = [-1]
        self._patches = []

    def install(self):
        for idx, (owner, attr, name, counts) in enumerate(TARGETS):
            fn = getattr(owner, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self._patches.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(idx, fn, counts))

    def uninstall(self):
        while self._patches:
            owner, attr, fn = self._patches.pop()
            setattr(owner, attr, fn)

    def _wrap(self, idx, fn, counts):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.start)
            self.name_col.append(idx)
            self.parent.append(self._stack[-1])
            self.log.append(self.log_id)
            self.pass_col.append(self.pass_id)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = perf_counter()
                self._stack.pop()
            if counts is not None:
                try:
                    self.counts[sid] = counts(args, result)
                except (AttributeError, IndexError, KeyError, TypeError, OSError):
                    self.broken_counts.add(self.names[idx])
            return result
        return traced

    def totals(self):
        """Per span name: (calls, total seconds, self seconds, summed counts).

        The counts' "_n" is the number of spans that recorded counts.
        Self time is a span's duration minus that of its direct children.
        """
        name = np.frombuffer(self.name_col, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        n = len(self.names)
        calls = np.bincount(name, minlength=n)
        total = np.bincount(name, weights=dur, minlength=n)
        own = np.bincount(name, weights=dur - child, minlength=n)
        summed = [{} for _ in range(n)]
        for sid, c in self.counts.items():
            acc = summed[self.name_col[sid]]
            acc["_n"] = acc.get("_n", 0) + 1
            for k, v in c.items():
                acc[k] = acc.get(k, 0) + v
        return {self.names[i]: (int(calls[i]), float(total[i]), float(own[i]), summed[i])
                for i in range(n) if self.names[i] not in self.missing}

    def write(self, path: str) -> None:
        """One JSON object per span, in start order."""
        t0 = self.start[0] if self.start else 0.0
        with open(path, "w", encoding="utf-8") as f:
            for sid in range(len(self.start)):
                rec = {"id": sid, "name": self.names[self.name_col[sid]],
                       "start": self.start[sid] - t0, "end": self.end[sid] - t0,
                       "parent": self.parent[sid] if self.parent[sid] >= 0 else None,
                       "log": self.log[sid], "pass": self.pass_col[sid]}
                rec.update(self.counts.get(sid, {}))
                f.write(json.dumps(rec) + "\n")
