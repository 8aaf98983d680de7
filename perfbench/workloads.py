"""Benchmark workloads: seeded survey logs and the `uavloc estimate` flags
each one runs with.

A workload seed n selects the log seeds n*L .. n*L+L-1, where L is the
workload's log count, so seed 0 is the reference set its accuracy is read
from (gtu-accept's seed set 0 is acceptance criterion 2's seeds 0-19).
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from uavloc import io_cli
from uavloc.estimator import R_THRESH_ITERATION, EstimatorConfig
from uavloc.geo import PlanarPoint, unproject
from uavloc.pathloss import calibration_from_tx
from uavloc.simulator import (FlightPlan, SimScenario, gtu_sim_scenario,
                              simulate_observations)


def loiter_scenario(seed: int) -> SimScenario:
    """10-turn, 150 m loiter about a point 50 m east of the gtu-sim target.

    The survey diameter is constant (300 m), so at ma=130 every iteration
    clusters into k=3 and solves an exactly determined 3-anchor system.
    """
    gtu = gtu_sim_scenario(seed=seed)
    plan = FlightPlan(kind="loiter", center=unproject(gtu.target, PlanarPoint(50.0, 0.0)),
                      speed=gtu.plan.speed, radius=150.0, turns=10.0)
    return SimScenario(plan=plan, target=gtu.target, tx=gtu.tx,
                       sigma_db=gtu.sigma_db, seed=seed)


@dataclass(frozen=True)
class Workload:
    name: str
    scenario: Callable[[int], SimScenario]
    logs: int             # logs per seed set
    reference_logs: int   # logs of seed set 0 that give the accuracy metrics
    ma: float
    min_rssi: float | None = None
    r_thresh: object = R_THRESH_ITERATION

    def log_seeds(self, seed: int) -> list[int]:
        return list(range(seed * self.logs, (seed + 1) * self.logs))

    def reference_seeds(self) -> list[int]:
        return self.log_seeds(0)[:self.reference_logs]

    def config(self, cal, seed: int) -> EstimatorConfig:
        return EstimatorConfig(
            ma=self.ma, cal=cal,
            min_dbm=self.min_rssi if self.min_rssi is not None else float("-inf"),
            r_thresh=self.r_thresh, seed=seed)

    def cli_flags(self) -> list[str]:
        flags = ["--ma", format(self.ma, "g"), "--r-thresh", str(self.r_thresh)]
        if self.min_rssi is not None:
            flags += ["--min-rssi", format(self.min_rssi, "g")]
        return flags


WORKLOADS = {w.name: w for w in (
    Workload("gtu-accept", gtu_sim_scenario, logs=20, reference_logs=20,
             ma=20.0, min_rssi=-46.0, r_thresh=1),
    Workload("gtu-default", gtu_sim_scenario, logs=3, reference_logs=1, ma=130.0),
    Workload("loiter", loiter_scenario, logs=20, reference_logs=20,
             ma=130.0, r_thresh=1),
)}


def write_survey_log(wl: Workload, seed: int, path: str) -> tuple[float, float]:
    """Simulate one full survey and write it as `uavloc simulate` does.

    Returns (simulate seconds, write_log seconds).
    """
    t0 = perf_counter()
    sc = wl.scenario(seed)
    obs = simulate_observations(sc, sc.plan.path_length() / sc.plan.speed)
    t1 = perf_counter()
    log = io_cli.ObservationLog(
        rows=obs, survey_id=f"{wl.name} seed={seed}",
        cal=calibration_from_tx(sc.tx, d0=100.0, sigma_db=sc.sigma_db),
        meta={"target": f"{sc.target.lat:.9g},{sc.target.lon:.9g}"})
    io_cli.write_log(log, path)
    return t1 - t0, perf_counter() - t1
