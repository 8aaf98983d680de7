import math

import numpy as np
import pytest

from uavloc.errors import NoEstimateError
from uavloc.estimator import Estimator, EstimatorConfig
from uavloc.geo import GeoPoint, haversine, project
from uavloc.pathloss import calibration_from_tx, friis_rssi
from uavloc.simulator import (SPEED_OF_LIGHT, FlightPlan, SimScenario, TxParams,
                              evaluate, generate_trajectory, gtu_sim_scenario,
                              run_baseline_svd, simulate_observations, sweep_ma,
                              sweep_ma_log)

CENTER = GeoPoint(40.8081, 29.3560)
TX = TxParams(pt_dbm=20.0, gt_db=0.0, gr_db=0.0, wavelength_m=SPEED_OF_LIGHT / 435e6)


def loiter(radius=300.0, speed=20.0):
    return FlightPlan(kind="loiter", center=CENTER, speed=speed, radius=radius)


def lawnmower(width=1000.0, height=800.0, spacing=100.0, speed=20.0):
    return FlightPlan(kind="lawnmower", center=CENTER, speed=speed,
                      width=width, height=height, spacing=spacing)


def test_loiter_geometry():
    plan = loiter(radius=300.0, speed=20.0)
    traj = generate_trajectory(plan, 90.0, 1.0)
    for _, p in traj:
        assert haversine(CENTER, p) == pytest.approx(300.0, abs=0.1)
    steps = [haversine(a[1], b[1]) for a, b in zip(traj, traj[1:])]
    for s in steps:
        assert s == pytest.approx(20.0, rel=0.01)


def test_lawnmower_bounding_box():
    plan = lawnmower(width=1000.0, height=800.0, spacing=100.0)
    dur = plan.path_length() / plan.speed
    traj = generate_trajectory(plan, dur, 1.0)
    xs, ys = project(CENTER, [p.lat for _, p in traj], [p.lon for _, p in traj])
    assert max(xs) - min(xs) == pytest.approx(1000.0, abs=1.0)
    assert max(ys) - min(ys) == pytest.approx(800.0, abs=1.0)


def test_short_duration_single_point():
    traj = generate_trajectory(loiter(), 0.5, 1.0)
    assert len(traj) == 1
    assert traj[0][0] == 0.0


def test_trajectory_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_trajectory(loiter(), -1.0, 1.0)
    with pytest.raises(ValueError):
        FlightPlan(kind="loiter", center=CENTER, speed=0.5, radius=100.0)
    with pytest.raises(ValueError):
        FlightPlan(kind="lawnmower", center=CENTER, speed=20.0, width=0.0,
                   height=100.0, spacing=10.0)
    with pytest.raises(ValueError):
        FlightPlan(kind="zigzag", center=CENTER, speed=20.0)


def test_observation_cadence():
    sc = SimScenario(plan=loiter(), target=GeoPoint(40.8100, 29.3600), tx=TX,
                     sigma_db=0.0, seed=0)
    obs = simulate_observations(sc, 600.0)
    assert len(obs) == 600
    assert [o.t for o in obs[:3]] == [0.0, 1.0, 2.0]


def test_zero_sigma_matches_friis():
    target = GeoPoint(40.8100, 29.3600)
    sc = SimScenario(plan=loiter(), target=target, tx=TX, sigma_db=0.0, seed=0)
    for o in simulate_observations(sc, 30.0):
        assert o.rssi == friis_rssi(TX, haversine(o.pos, target))


def test_observations_deterministic():
    sc = SimScenario(plan=loiter(), target=GeoPoint(40.8100, 29.3600), tx=TX,
                     sigma_db=3.0, seed=77)
    assert simulate_observations(sc, 120.0) == simulate_observations(sc, 120.0)


def test_target_on_trajectory_skipped():
    plan = loiter()
    first_pos = generate_trajectory(plan, 10.0, 1.0)[0][1]
    sc = SimScenario(plan=plan, target=first_pos, tx=TX, sigma_db=0.0, seed=0)
    obs = simulate_observations(sc, 10.0)
    assert len(obs) == 9  # the coincident sample is dropped


def test_evaluate():
    assert evaluate(CENTER, CENTER) == 0.0
    d = evaluate(GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.001))
    assert d == pytest.approx(111.19, abs=0.1)


def test_baseline_zero_noise():
    sc = gtu_sim_scenario(seed=2, sigma_db=0.0)
    obs = simulate_observations(sc, 600.0)
    cal = calibration_from_tx(sc.tx, 100.0)
    est = run_baseline_svd(obs, cal, obs[0].pos)
    assert evaluate(est, sc.target) < 1.0


def test_baseline_degenerate_geometry():
    from uavloc.errors import DegenerateGeometryError
    from uavloc.cluster import Observation
    cal = calibration_from_tx(TX, 100.0)
    obs = [Observation(t=float(i), pos=GeoPoint(40.8081, 29.3560 + 1e-4 * i), rssi=-60.0)
           for i in range(5)]
    with pytest.raises(DegenerateGeometryError):
        run_baseline_svd(obs, cal, obs[0].pos)


def test_sweep_ma_rows_and_determinism():
    sc = gtu_sim_scenario(seed=4, sigma_db=3.0)
    cal = calibration_from_tx(sc.tx, 100.0)
    template = EstimatorConfig(ma=130.0, cal=cal, seed=4, min_dbm=-46.0, r_thresh=1)
    values = [50.0, 90.0, 130.0]
    rows = sweep_ma(sc, 1500.0, values, template)
    assert [ma for ma, _ in rows] == values
    assert rows == sweep_ma(sc, 1500.0, values, template)


def test_sweep_ma_single_value():
    sc = gtu_sim_scenario(seed=4, sigma_db=3.0)
    cal = calibration_from_tx(sc.tx, 100.0)
    template = EstimatorConfig(ma=130.0, cal=cal, seed=4)
    assert len(sweep_ma(sc, 900.0, [130.0], template)) == 1


def test_sweep_ma_empty_values_rejected():
    sc = gtu_sim_scenario(seed=4, sigma_db=3.0)
    cal = calibration_from_tx(sc.tx, 100.0)
    with pytest.raises(ValueError):
        sweep_ma(sc, 900.0, [], EstimatorConfig(ma=130.0, cal=cal, seed=4))


def test_gtu_sim_area():
    sc = gtu_sim_scenario()
    area_km2 = sc.plan.width * sc.plan.height / 1e6
    assert area_km2 == pytest.approx(3.14, abs=0.01)


def test_sweep_ma_log_failed_row_only_for_no_estimate(monkeypatch):
    sc = gtu_sim_scenario(seed=4, sigma_db=3.0)
    obs = simulate_observations(sc, 300.0)
    template = EstimatorConfig(ma=130.0, cal=calibration_from_tx(sc.tx, 100.0), seed=4)

    def no_estimate(self):
        raise NoEstimateError("no successful iterations in history")

    monkeypatch.setattr(Estimator, "best_estimate", no_estimate)
    assert sweep_ma_log(obs, sc.target, [130.0], template) == [(130.0, None)]

    def broken(self):
        raise RuntimeError("boom")

    monkeypatch.setattr(Estimator, "best_estimate", broken)
    with pytest.raises(RuntimeError, match="boom"):
        sweep_ma_log(obs, sc.target, [130.0], template)
