"""Accuracy of the estimator on the benchmark's three workloads, computed in
memory: each survey is simulated and fed to an `Estimator`, with no log file.

    python3 tools/accuracy.py

prints, for each workload, the median and max error over its logs in metres,
the number of logs with no estimate, and the best possible pick: the median
and max over logs of the ok iteration nearest the truth, which bounds what
any rule for choosing the iteration can do. Then it prints each workload's
error-by-iteration curve: for each iteration index, how many logs have an ok
iteration there and the median of their errors.

Each log is the full survey of `simulator.SCENARIOS[scenario](seed)`, with
the calibration `# cal` line of `uavloc simulate`, and the estimator's seed
is the log's. The errors differ from those of the log path (`uavloc
simulate` then `estimate`), which rounds every logged number to 9
significant digits.
"""

from __future__ import annotations

import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from uavloc.estimator import EstimatorConfig  # noqa: E402
from uavloc.geo import haversine  # noqa: E402
from uavloc.pathloss import calibration_from_tx  # noqa: E402
from uavloc.simulator import SCENARIOS, run_estimator, simulate_observations  # noqa: E402

# name -> (scenario, log seeds, EstimatorConfig fields other than cal and seed)
WORKLOADS = {
    "gtu-accept": ("gtu-sim", range(20), {"ma": 20.0, "min_dbm": -46.0, "r_thresh": 1}),
    "loiter": ("loiter", range(20), {"ma": 130.0, "r_thresh": 1}),
    "gtu-default": ("gtu-sim", range(10), {"ma": 130.0}),
}


def errors(scenario: str, seed: int, fields: dict):
    """The error of each ok iteration by its index, and the index of the best
    estimate (None when no iteration is ok)."""
    sc = SCENARIOS[scenario](seed=seed)
    obs = simulate_observations(sc, sc.plan.path_length() / sc.plan.speed)
    cal = calibration_from_tx(sc.tx, 100.0, sc.sigma_db)
    est = run_estimator(obs, EstimatorConfig(cal=cal, seed=seed, **fields))
    curve = {r.index: haversine(r.estimate, sc.target) for r in est.history if r.ok}
    return curve, est.best_estimate()[1].index if curve else None


def workload(name: str) -> dict:
    """One workload's row: the median and max error of the logs' best
    estimates, the count of logs without one, the median and max error of
    each log's nearest ok iteration, and the curve as {index: (logs ok,
    median error)}."""
    scenario, seeds, fields = WORKLOADS[name]
    best, nearest, by_index = [], [], {}
    for seed in seeds:
        curve, best_index = errors(scenario, seed, fields)
        if curve:
            best.append(curve[best_index])
            nearest.append(min(curve.values()))
        for index, e in curve.items():
            by_index.setdefault(index, []).append(e)
    return {"median": statistics.median(best), "max": max(best),
            "no_estimate": len(seeds) - len(best),
            "best_median": statistics.median(nearest), "best_max": max(nearest),
            "curve": {i: (len(v), statistics.median(v)) for i, v in sorted(by_index.items())}}


def main() -> int:
    rows = {name: workload(name) for name in WORKLOADS}
    print("workload     logs no_estimate   median      max best_median best_max")
    for name, r in rows.items():
        print(f"{name:<12} {len(WORKLOADS[name][1]):4d} {r['no_estimate']:11d} "
              f"{r['median']:8.2f} {r['max']:8.2f}    {r['best_median']:8.2f} {r['best_max']:8.2f}")
    for name, r in rows.items():
        print(f"\n{name}: iteration, logs ok, median error (m)")
        for index, (ok, median) in r["curve"].items():
            print(f"{index:4d} {ok:4d} {median:8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
