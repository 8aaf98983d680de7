#!/usr/bin/env python3
"""uavloc benchmark: one workload, one closed-loop client, one process.

    python3 perfbench/run.py --workload gtu-accept --seed 0 --seconds 20 --trace 0

Set-up simulates the workload's seeded survey logs and writes them with
`io_cli.write_log`. The timed loop then does what `uavloc estimate` does, log
after log: `parse_log` -> `Estimator.ingest` per row -> `best_estimate` ->
`write_report`. It cycles through the log set, a whole log at a time, until
--seconds have elapsed and every log has run at least once. Before it, an
untimed pass over the workload's reference logs gives the accuracy metrics and
serves as warm-up.

Outputs are checked: every log must give an estimate; each log's report must
be byte-identical on every pass; and for the first reference log the best
estimate must equal, bit for bit, the `best` block that `uavloc estimate`
(`io_cli.main`) writes for the same log and flags. A log that fails a check
counts as failed and its timings are dropped; a failed check also makes the
run incorrect. A log on which `best_estimate` finds no successful iteration
counts as failed but not as incorrect: `uavloc estimate` reports the same.

Timings are in reference seconds: the timed work is cut into short segments
with a fixed calibration job between them, and each segment is scaled by the
machine's speed the job measured around it (perfbench/calib.py). The wall-clock
figures are printed beside the metrics.

--trace 0 prints the end-to-end metrics. --trace 1 alternates untraced and
traced passes, prints the per-layer metrics from the spans of perfbench/spans.py,
and writes the spans to perfbench/out/spans_<workload>.jsonl. The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "perfbench", "out")
SETUP_REPEATS = 3


def die(message: str):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "uavloc", "__init__.py")):
    die(f"no uavloc package under {SRC}; run from a full checkout")
sys.path.insert(0, SRC)

import uavloc  # noqa: E402

if os.path.dirname(os.path.abspath(uavloc.__file__)) != os.path.join(SRC, "uavloc"):
    die(f"imported uavloc from {uavloc.__file__}, not from {SRC}")

from uavloc import io_cli  # noqa: E402
from uavloc.errors import LocalizationError  # noqa: E402
from uavloc.estimator import Estimator  # noqa: E402
from uavloc.geo import GeoPoint, haversine  # noqa: E402

from calib import REF_S, Clock  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, write_survey_log  # noqa: E402

BEST_KEYS = ("index", "lat", "lon", "residual_rms", "error_m")


class CheckError(Exception):
    """A log's output failed the benchmark's correctness check."""


def _truth(log) -> GeoPoint:
    lat, lon = log.meta["target"].split(",")
    return GeoPoint(float(lat), float(lon))


def _record(r, truth: GeoPoint) -> dict:
    rec = {"index": r.index, "n_obs": r.n_obs, "n_clusters_used": r.n_clusters_used,
           "status": r.status}
    if r.ok:
        rec.update({"estimate_lat": r.estimate.lat, "estimate_lon": r.estimate.lon,
                    "residual_rms": r.residual_rms, "condition": r.condition,
                    "error_m": haversine(r.estimate, truth)})
    else:
        rec["reason"] = r.reason
    return rec


def estimate_log(wl, seed: int, path: str, report_path: str, clock: Clock):
    """`uavloc estimate --truth <log target>` for one log.

    The log's timed work is booked to clock piece by piece, and the clock may
    calibrate between `ingest` calls. Returns (observations, best block of the
    report, pieces of the whole log, pieces of the batch-closing `ingest` calls).
    """
    pieces, iter_pieces = [], []
    t0 = perf_counter()
    log = io_cli.parse_log(path)
    truth = _truth(log)
    est = Estimator(wl.config(log.cal, seed))
    clock.add(perf_counter() - t0, pieces)
    for o in log.rows:
        t0 = perf_counter()
        closed = est.ingest(o) is not None
        piece = clock.add(perf_counter() - t0, pieces)
        if closed:
            iter_pieces.append(piece)
        clock.checkpoint()
    t0 = perf_counter()
    estimate, best = est.best_estimate()
    report = io_cli.RunReport(
        config={"workload": wl.name, "seed": seed, "flags": wl.cli_flags()},
        iterations=[_record(r, truth) for r in est.history],
        best={"index": best.index, "lat": estimate.lat, "lon": estimate.lon,
              "residual_rms": best.residual_rms, "error_m": haversine(estimate, truth)})
    io_cli.write_report(report, report_path)
    clock.add(perf_counter() - t0, pieces)
    return len(log.rows), report.best, pieces, iter_pieces


def cli_best(wl, seed: int, path: str, report_path: str) -> dict:
    """The `best` block that `uavloc estimate` writes for this log."""
    argv = (["estimate", "--obs", path, "--out", report_path, "--seed", str(seed),
             "--truth", io_cli.parse_log(path).meta["target"]] + wl.cli_flags())
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        status = io_cli.main(argv)
    if status != 0:
        raise CheckError(f"uavloc estimate exited with {status}")
    return io_cli.read_report(report_path).best


def same_bits(a, b) -> bool:
    return type(a) is type(b) and (a.hex() == b.hex() if isinstance(a, float) else a == b)


class Run:
    """Logs of one benchmark run, their outputs and the failures seen."""

    def __init__(self, wl, work: str, clock: Clock):
        self.wl = wl
        self.work = work
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0  # failed output checks; any makes the run incorrect
        self.failed_seeds = set()
        self.digests = {}   # log seed -> sha256 of its report
        self.samples = []   # (log seed, pieces, observations, iteration pieces, best)

    def path(self, seed: int) -> str:
        return os.path.join(self.work, f"log_{seed}.csv")

    def report_path(self, seed: int) -> str:
        return os.path.join(self.work, f"report_{seed}.json")

    def _fail(self, seed: int, e: Exception):
        self.failed += 1
        self.mismatches += isinstance(e, CheckError)
        self.failed_seeds.add(seed)
        print(f"perfbench: log seed {seed}: {type(e).__name__}: {e}", file=sys.stderr)

    def estimate(self, seed: int):
        """Estimate one log and check its report.

        Returns (pieces, obs, iteration pieces, best), or None if it failed."""
        self.attempted += 1
        try:
            n_obs, best, pieces, iters = estimate_log(self.wl, seed, self.path(seed),
                                                      self.report_path(seed), self.clock)
            with open(self.report_path(seed), "rb") as f:
                digest = hashlib.sha256(f.read()).hexdigest()
            if self.digests.setdefault(seed, digest) != digest:
                raise CheckError("report differs from an earlier pass over the same log")
        except (LocalizationError, ValueError, OSError, CheckError) as e:
            self._fail(seed, e)
            return None
        return pieces, n_obs, iters, best

    def timed_log(self, seed: int, tracer=None) -> list:
        """Estimate one log as a timed sample; returns its pieces ([] if it failed)."""
        if tracer is not None:
            tracer.log_id = seed
        res = self.estimate(seed)
        if res is None:
            return []
        self.samples.append((seed,) + res)
        return res[0]

    def timed_pass(self, seeds, tracer=None) -> list:
        """One pass over the log set; returns the pieces of its timed work."""
        return [p for seed in seeds for p in self.timed_log(seed, tracer)]

    def check_against_cli(self, seed: int, best: dict):
        self.attempted += 1
        try:
            expected = cli_best(self.wl, seed, self.path(seed),
                                os.path.join(self.work, f"cli_{seed}.json"))
            if expected is None or not all(same_bits(best.get(k), expected.get(k))
                                           for k in BEST_KEYS):
                raise CheckError(f"best {best} != uavloc estimate best {expected}")
        except (LocalizationError, ValueError, OSError, CheckError) as e:
            self._fail(seed, e)

    def timed(self):
        """Samples of logs that passed every check."""
        return [s for s in self.samples if s[0] not in self.failed_seeds]


def time_import() -> float:
    """Seconds for a fresh interpreter to import the CLI module."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c",
                    f"import sys; sys.path.insert(0, {SRC!r}); import uavloc.io_cli"],
                   check=True)
    return perf_counter() - t0


def setup(wl, run: Run, seeds):
    """Write the seed set's logs SETUP_REPEATS times; returns per-repeat
    (set-up piece including a fresh import, simulate seconds, write_log seconds)."""
    repeats = []
    for _ in range(SETUP_REPEATS):
        t_import = time_import()
        t0 = perf_counter()
        sim = write = 0.0
        for seed in seeds:
            s, w = write_survey_log(wl, seed, run.path(seed))
            sim += s
            write += w
        repeats.append((run.clock.add(t_import + perf_counter() - t0, []), sim, write))
        run.clock.cut()
    return repeats


def quantile(values, q: int) -> float:
    """q-th percentile (q a multiple of 10), inclusive method."""
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def end_to_end(run: Run, reference, repeats):
    """Metrics as (value, unit, note); timings in reference seconds (calib.py)."""
    clock = run.clock
    timed = run.timed()
    pieces = [p for s in timed for p in s[1]]
    seconds = clock.scaled(pieces)
    wall = sum(t for _, t in pieces)
    obs = sum(s[2] for s in timed)
    iters = [clock.scaled([p]) for s in timed for p in s[3]]
    errors = [best["error_m"] for _, _, _, best in reference]
    p50, p90 = quantile(iters, 50), quantile(iters, 90)
    wall_iters = [t for s in timed for _, t in s[3]]
    wall_p50, wall_p90 = quantile(wall_iters, 50), quantile(wall_iters, 90)
    setups = [clock.scaled([r[0]]) for r in repeats]
    return {
        "setup_s": (statistics.median(setups), "s",
                    f"median of {len(setups)} set-ups; "
                    f"wall {statistics.median(r[0][1] for r in repeats):.6g} s"),
        "obs_per_s": (obs / seconds, "1/s",
                      f"{obs} observations in {len(timed)} log runs, {seconds:.3f} s timed; "
                      f"wall {obs / wall:.6g} 1/s over {wall:.3f} s"),
        "iter_p50_ms": (p50 * 1e3, "ms",
                        f"n={len(iters)}; wall {wall_p50 * 1e3:.6g} ms"),
        "iter_p90_ms": (p90 * 1e3, "ms",
                        f"n={len(iters)}, {sum(t > p90 for t in iters)} beyond; "
                        f"wall {wall_p90 * 1e3:.6g} ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB",
                        "ru_maxrss of this process"),
        "median_error_m": (statistics.median(errors), "m",
                           f"over {len(errors)} reference logs"),
        "max_error_m": (max(errors), "m", f"over {len(errors)} reference logs"),
    }


def per_layer(tracer: Tracer, passes: int, traced_s: float, overhead: float, repeats):
    tot = tracer.totals()

    def span(name):
        """Totals of a span that fired; a removed or uncalled target is missing."""
        t = tot.get(name)
        return t if t is not None and t[0] > 0 else None

    def counted(name):
        return None if name in tracer.broken_counts else span(name)

    def self_s(name):
        t = span(name)
        return None if t is None else t[2] / passes

    def count(name, key):
        t = counted(name)
        return None if t is None or key not in t[3] else t[3][key] / passes

    def ratio(name, num, den):
        t = counted(name)
        if t is None or not t[3].get(den):
            return None
        return t[3].get(num, 0) / t[3][den]

    def calls(name):
        t = span(name)
        return None if t is None else t[0] / passes

    it = span("estimator.iteration")
    covered = sum(t[2] for t in tot.values())
    metrics = [
        ("cluster.threshold_s", self_s("cluster.threshold"), "s"),
        ("cluster.kept", count("cluster.threshold", "kept"), "count"),
        ("cluster.compute_k_s", self_s("cluster.compute_k"), "s"),
        ("cluster.diameter_pairs", count("cluster.compute_k", "diameter_pairs"), "count"),
        ("cluster.kmeans_init_s", self_s("cluster.kmeans_init"), "s"),
        ("cluster.lloyd_s", self_s("cluster.lloyd"), "s"),
        ("cluster.lloyd_iters", count("cluster.lloyd", "lloyd_iters"), "count"),
        ("cluster.lloyd_evals", count("cluster.lloyd", "lloyd_evals"), "count"),
        ("cluster.filter_s", self_s("cluster.filter"), "s"),
        ("cluster.clusters_kept_ratio",
         ratio("cluster.filter", "clusters_after", "clusters_before"), "ratio"),
        ("cluster.select_refs_s", self_s("cluster.select_refs"), "s"),
        ("geo.project_s", self_s("geo.project"), "s"),
        ("geo.project_calls", calls("geo.project"), "count"),
        ("lateration.solve_s", self_s("lateration.solve"), "s"),
        ("lateration.solves", calls("lateration.solve"), "count"),
        ("lateration.anchors_mean", ratio("lateration.solve", "anchors", "_n"), "count"),
        ("lateration.exact_ratio", ratio("lateration.solve", "exact", "_n"), "ratio"),
        ("estimator.iteration_s", None if it is None else it[1] / passes, "s"),
        ("estimator.self_s", self_s("estimator.iteration"), "s"),
        ("estimator.iterations", calls("estimator.iteration"), "count"),
        ("estimator.skipped_ratio", ratio("estimator.iteration", "skipped", "_n"), "ratio"),
        ("io_cli.parse_log_s", self_s("io_cli.parse_log"), "s"),
        ("io_cli.write_report_s", self_s("io_cli.write_report"), "s"),
        ("io_cli.log_bytes", count("io_cli.parse_log", "log_bytes"), "bytes"),
        ("io_cli.report_bytes", count("io_cli.write_report", "report_bytes"), "bytes"),
        ("simulator.simulate_s", statistics.median(r[1] for r in repeats), "s"),
        ("io_cli.write_log_s", statistics.median(r[2] for r in repeats), "s"),
        ("trace.overhead_ratio", overhead, "ratio"),
        ("trace.coverage_ratio", covered / traced_s, "ratio"),
    ]
    return metrics, traced_s / passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    wl = WORKLOADS[args.workload]
    work = os.path.join(OUT, wl.name)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    run = Run(wl, work, Clock())

    seeds = wl.log_seeds(args.seed)
    repeats = setup(wl, run, seeds)
    for seed in wl.reference_seeds():
        if seed not in seeds:
            write_survey_log(wl, seed, run.path(seed))

    # Untimed: reference pass (accuracy, warm-up), then the output checks.
    reference = [r for r in map(run.estimate, wl.reference_seeds()) if r is not None]
    r0 = wl.reference_seeds()[0]
    if reference and r0 not in run.failed_seeds:
        run.check_against_cli(r0, reference[0][3])
        run.estimate(r0)

    tracer = Tracer() if args.trace else None
    untraced, traced = [], []
    done = passes = 0
    t_loop = perf_counter()
    if tracer is None:
        # Whole logs, cycling through the set, until one pass and --seconds are done.
        while done < len(seeds) or perf_counter() - t_loop < args.seconds:
            run.timed_log(seeds[done % len(seeds)])
            done += 1
    else:
        # Untraced and traced whole passes alternate; per-layer figures are per pass.
        while passes == 0 or perf_counter() - t_loop < args.seconds:
            untraced += run.timed_pass(seeds)
            tracer.pass_id = passes
            tracer.install()
            try:
                traced += run.timed_pass(seeds, tracer)
            finally:
                tracer.uninstall()
            passes += 1
            done += 2 * len(seeds)
    run.clock.cut()  # closes the last timed segment

    print(f"workload {wl.name}: closed loop, 1 client; log seeds {seeds[0]}-{seeds[-1]} "
          f"({len(seeds)} logs), flags {' '.join(wl.cli_flags())}; {done} timed log runs "
          f"in {perf_counter() - t_loop:.1f} s; reference seeds "
          f"{wl.reference_seeds()[0]}-{wl.reference_seeds()[-1]}")
    cal = run.clock.cal
    print(f"calibration: {len(cal)} job runs, median {statistics.median(cal) * 1e3:.4g} ms, "
          f"quartiles {', '.join(f'{q * 1e3:.4g}' for q in statistics.quantiles(cal, n=4))} ms; "
          f"reference {REF_S * 1e3:g} ms")
    metrics = {}
    if not run.timed() or not reference:
        print("perfbench: no log passed the checks", file=sys.stderr)
    elif tracer is None:
        for name, (value, unit, note) in end_to_end(run, reference, repeats).items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value:.6g} {unit} ({note})")
        errors = list({s[0]: s[4]["error_m"] for s in run.timed()}.values())
        print(f"seed-set error (not a metric): median {statistics.median(errors):.6g} m, "
              f"max {max(errors):.6g} m over {len(errors)} logs")
    else:
        # Spans are wall-clock, so shares use the traced passes' wall time; the
        # overhead compares the passes in reference seconds.
        overhead = run.clock.scaled(traced) / run.clock.scaled(untraced) - 1.0
        layer, loop_s = per_layer(tracer, passes, sum(t for _, t in traced), overhead, repeats)
        for name, value, unit in layer:
            if value is None:
                print(f"{name} missing")
                continue
            metrics[name] = {"value": value, "unit": unit}
            share = f" ({value / loop_s:.1%} of traced loop)" if unit == "s" and \
                not name.startswith(("simulator.", "io_cli.write_log")) else ""
            print(f"{name} {value:.6g} {unit}{share}")
        spans_path = os.path.join(OUT, f"spans_{wl.name}.jsonl")
        tracer.write(spans_path)
        print(f"spans: {len(tracer.start)} written to {os.path.relpath(spans_path, ROOT)}; "
              f"per-pass figures over {passes} traced passes of {loop_s:.3f} s")
    print(f"failed_ratio {run.failed / run.attempted:.6g} ({run.failed}/{run.attempted})")
    print(json.dumps({"correct": run.mismatches == 0 and bool(metrics),
                      "attempted": run.attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
