"""Kinematic fixed-wing flight simulator and RF measurement generation.

Trajectories are waypoint-following at constant speed (no aerodynamics);
RSSI samples come from the free-space model plus log-normal shadowing, one
every SAMPLE_PERIOD_S seconds (1 Hz). Also hosts the plain-SVD baseline and
the cluster granularity sweep used for evaluation.

A survey is computed as columns (time, position, distance to the target,
RSSI), one call per stage over all samples, and its `Observation` rows are
built once, at the end, by `cluster.observations`: one numpy pass screens
the columns by the checks of GeoPoint and Observation, so a survey that
strays out of range (past a pole, say) raises the constructors' own error
for its first bad row, and the rows are then written without a constructor
call each. Every row gets the bits a per-sample loop of the
scalar `unproject`, `haversine` and `sample_shadowed_rssi` gives: the
transcendental row operations (sin, cos, asin, log10 and squares) go
through libm row by row, because numpy's SIMD kernels round some rows
differently (see `geo`). Anything added to the simulated measurements acts
on these columns before the rows are built, under the same rule.
"""

from __future__ import annotations

import dataclasses
import logging
import math
from dataclasses import dataclass

import numpy as np

from .cluster import anchor_rows, observations
from .errors import NoEstimateError
from .estimator import Estimator, EstimatorConfig
from .geo import (GeoPoint, PlanarPoint, haversine, haversine_columns, libm, project,
                  unproject, unproject_columns)
from .lateration import estimate_position
from .pathloss import Calibration, TxParams, sample_shadowed_rssi

log = logging.getLogger(__name__)

SPEED_OF_LIGHT = 299_792_458.0
SAMPLE_PERIOD_S = 1.0


@dataclass(frozen=True)
class FlightPlan:
    """Survey path geometry about a center point.

    kind "loiter": circle of `radius` meters (`turns` only informs
    default durations). kind "lawnmower": boustrophedon lanes covering a
    width x height box centered on `center`, lanes `spacing` meters apart.
    Each kind's own fields must be positive and finite.
    """

    kind: str
    center: GeoPoint
    speed: float
    radius: float = 0.0
    turns: float = 1.0
    width: float = 0.0
    height: float = 0.0
    spacing: float = 0.0

    def __post_init__(self):
        if not 1.0 < self.speed <= 60.0:
            raise ValueError(f"speed {self.speed} m/s outside (1, 60]")
        if self.kind == "loiter":
            if not (0 < self.radius < math.inf and 0 < self.turns < math.inf):
                raise ValueError("loiter requires finite radius, turns > 0")
        elif self.kind == "lawnmower":
            if not all(0 < v < math.inf for v in (self.width, self.height, self.spacing)):
                raise ValueError("lawnmower requires finite width, height, spacing > 0")
        else:
            raise ValueError(f"unknown plan kind {self.kind!r}")

    def path_length(self) -> float:
        if self.kind == "loiter":
            return 2.0 * math.pi * self.radius * self.turns
        return self._lanes[2]

    @property
    def _lanes(self):
        """Lawnmower lane y offsets, lane gap and path length."""
        n_lanes = max(2, int(round(self.height / self.spacing)) + 1)
        ys = np.linspace(-self.height / 2.0, self.height / 2.0, n_lanes)
        gap = abs(ys[1] - ys[0])
        return ys, gap, len(ys) * self.width + (len(ys) - 1) * gap

    def position_at(self, s):
        """Planar (x, y) columns at the arc lengths s (a column, meters) along the path."""
        if self.kind == "loiter":
            phi = s / self.radius
            return self.radius * libm(math.cos, phi), self.radius * libm(math.sin, phi)
        lanes, gap, length = self._lanes
        leg = self.width + gap  # one lane plus the transition to the next
        s = np.minimum(s, length)
        lane = np.minimum(s // leg, len(lanes) - 1).astype(np.intp)
        r = s - lane * leg
        x1 = np.where(lane % 2 == 0, self.width / 2.0, -self.width / 2.0)  # the lane's far end
        x0 = -x1
        y = lanes[lane]
        on_lane = r <= self.width
        x = np.where(on_lane, x0 + (x1 - x0) * (r / self.width), x1)
        # climbing to the next lane at the lane's far end
        frac = (r - self.width) / gap if gap > 0 else 1.0
        y_next = lanes[np.minimum(lane + 1, len(lanes) - 1)]
        return x, np.where(on_lane, y, y + (y_next - y) * np.minimum(1.0, frac))


@dataclass(frozen=True)
class SimScenario:
    plan: FlightPlan
    target: GeoPoint
    tx: TxParams
    sigma_db: float
    seed: int


def generate_trajectory(plan: FlightPlan, duration: float):
    """(t, lat, lon) columns of waypoints sampled every SAMPLE_PERIOD_S at constant speed."""
    if not duration > 0:
        raise ValueError("duration must be positive")
    t = np.arange(max(1, int(math.floor(duration / SAMPLE_PERIOD_S)))) * SAMPLE_PERIOD_S
    return (t, *unproject_columns(plan.center, *plan.position_at(plan.speed * t)))


def simulate_observations(sc: SimScenario, duration: float):
    """One shadowed RSSI observation every SAMPLE_PERIOD_S; deterministic per seed.

    Samples coincident with the target (distance 0) are skipped with a
    warning, since the free-space model is singular there.
    """
    t, lat, lon = generate_trajectory(sc.plan, duration)
    d = haversine_columns(lat, lon, sc.target)
    keep = d != 0.0
    if not keep.all():
        log.warning("skipped %d samples coincident with the target", len(d) - keep.sum())
        t, lat, lon, d = t[keep], lat[keep], lon[keep], d[keep]
    rssi = sample_shadowed_rssi(sc.tx, d, sc.sigma_db, np.random.default_rng(sc.seed))
    return observations(t, lat, lon, rssi)


def evaluate(estimate: GeoPoint, truth: GeoPoint) -> float:
    """Haversine error between an estimate and the true target, meters."""
    return haversine(estimate, truth)


def run_baseline_svd(obs, cal: Calibration, origin: GeoPoint) -> GeoPoint:
    """Plain-SVD baseline: every observation becomes a reference node."""
    xy = np.column_stack(project(origin, [o.pos.lat for o in obs], [o.pos.lon for o in obs]))
    return estimate_position(anchor_rows(xy, [o.rssi for o in obs], cal), origin)[0]


def run_estimator(obs, config: EstimatorConfig) -> Estimator:
    """Feed a full observation log through a fresh estimator."""
    est = Estimator(config)
    for o in obs:
        est.ingest(o)
    return est


def sweep_ma(sc: SimScenario, duration: float, ma_values, cfg_template: EstimatorConfig):
    """Best-estimate error per cluster granularity, on one shared log.

    Returns (ma, error_m) pairs; error is None when no iteration succeeded.
    """
    if not ma_values:
        raise ValueError("ma_values must be non-empty")
    obs = simulate_observations(sc, duration)
    return sweep_ma_log(obs, sc.target, ma_values, cfg_template)


def sweep_ma_log(obs, truth: GeoPoint, ma_values, cfg_template: EstimatorConfig):
    rows = []
    for ma in ma_values:
        est = run_estimator(obs, dataclasses.replace(cfg_template, ma=ma))
        try:
            estimate, _ = est.best_estimate()
            rows.append((ma, evaluate(estimate, truth)))
        except NoEstimateError:
            rows.append((ma, None))
    return rows


def gtu_sim_scenario(seed: int = 0, sigma_db: float = 3.0) -> SimScenario:
    """Default desk-scale survey: ~3.14 km^2 lawnmower with an interior target.

    The target sits midway between two survey lanes, so consecutive passes
    bracket it from both sides.
    """
    center = GeoPoint(40.8081, 29.3560)
    plan = FlightPlan(kind="lawnmower", center=center, speed=12.0,
                      width=2000.0, height=1570.0, spacing=120.0)
    tx = TxParams(pt_dbm=20.0, gt_db=0.0, gr_db=0.0,
                  wavelength_m=SPEED_OF_LIGHT / 435e6)
    target = unproject(center, PlanarPoint(244.0, -235.0))
    return SimScenario(plan=plan, target=target, tx=tx,
                       sigma_db=sigma_db, seed=seed)


def loiter_scenario(seed: int = 0, sigma_db: float = 3.0) -> SimScenario:
    """10-turn, 150 m loiter about a point 50 m east of the gtu-sim target.

    The paper's circular survey: its diameter is constant (300 m), so at
    ma=130 every iteration clusters into k=3 and solves an exactly
    determined 3-anchor system.
    """
    gtu = gtu_sim_scenario(seed=seed, sigma_db=sigma_db)
    return dataclasses.replace(gtu, plan=FlightPlan(
        kind="loiter", center=unproject(gtu.target, PlanarPoint(50.0, 0.0)),
        speed=gtu.plan.speed, radius=150.0, turns=10.0))


SCENARIOS = {
    "gtu-sim": gtu_sim_scenario,
    "loiter": loiter_scenario,
}
