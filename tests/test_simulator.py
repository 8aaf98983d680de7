import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavloc.cluster import Observation
from uavloc.errors import NoEstimateError
from uavloc.estimator import Estimator, EstimatorConfig
from uavloc.geo import GeoPoint, PlanarPoint, haversine, project, unproject
from uavloc.pathloss import calibration_from_tx, friis_rssi, sample_shadowed_rssi
from uavloc.simulator import (SAMPLE_PERIOD_S, SPEED_OF_LIGHT, FlightPlan, SimScenario,
                              TxParams, evaluate, generate_trajectory, gtu_sim_scenario,
                              run_baseline_svd, run_estimator, simulate_observations, sweep_ma,
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
    _, lat, lon = generate_trajectory(plan, 90.0)
    traj = [GeoPoint(a, b) for a, b in zip(lat.tolist(), lon.tolist())]
    for p in traj:
        assert haversine(CENTER, p) == pytest.approx(300.0, abs=0.1)
    steps = [haversine(a, b) for a, b in zip(traj, traj[1:])]
    for s in steps:
        assert s == pytest.approx(20.0, rel=0.01)


def test_lawnmower_bounding_box():
    plan = lawnmower(width=1000.0, height=800.0, spacing=100.0)
    dur = plan.path_length() / plan.speed
    _, lat, lon = generate_trajectory(plan, dur)
    xs, ys = project(CENTER, lat, lon)
    assert max(xs) - min(xs) == pytest.approx(1000.0, abs=1.0)
    assert max(ys) - min(ys) == pytest.approx(800.0, abs=1.0)


def test_short_duration_single_point():
    t, lat, lon = generate_trajectory(loiter(), 0.5)
    assert len(t) == len(lat) == len(lon) == 1
    assert t[0] == 0.0


def test_trajectory_rejects_bad_args():
    with pytest.raises(ValueError):
        generate_trajectory(loiter(), -1.0)
    with pytest.raises(ValueError):
        FlightPlan(kind="loiter", center=CENTER, speed=0.5, radius=100.0)
    with pytest.raises(ValueError):
        FlightPlan(kind="lawnmower", center=CENTER, speed=20.0, width=0.0,
                   height=100.0, spacing=10.0)
    with pytest.raises(ValueError):
        FlightPlan(kind="zigzag", center=CENTER, speed=20.0)


@pytest.mark.parametrize("kind, field, value", [
    ("loiter", "radius", 0.0), ("loiter", "radius", -300.0), ("loiter", "radius", math.inf),
    ("loiter", "radius", math.nan), ("loiter", "turns", 0.0), ("loiter", "turns", -1.0),
    ("loiter", "turns", math.inf), ("loiter", "turns", math.nan),
    ("lawnmower", "width", math.inf), ("lawnmower", "height", math.inf),
    ("lawnmower", "spacing", math.inf), ("lawnmower", "spacing", -100.0),
    ("lawnmower", "height", math.nan)])
def test_flight_plan_rejects_non_finite_or_non_positive_geometry(kind, field, value):
    # each would construct and go wrong later: an infinite width or height
    # overflows int() in path_length, an infinite spacing flies two lanes, and
    # a negative or nan turns count gives a negative or nan path length
    plan = loiter() if kind == "loiter" else lawnmower()
    with pytest.raises(ValueError, match=f"{kind} requires finite .*{field}"):
        dataclasses.replace(plan, **{field: value})


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
    _, lat, lon = generate_trajectory(plan, 10.0)
    first_pos = GeoPoint(float(lat[0]), float(lon[0]))
    sc = SimScenario(plan=plan, target=first_pos, tx=TX, sigma_db=0.0, seed=0)
    obs = simulate_observations(sc, 10.0)
    assert len(obs) == 9  # the coincident sample is dropped


def position_at_oracle(plan, s):
    """Planar position after arc length s: the per-sample path the simulator
    replaced with columns."""
    if plan.kind == "loiter":
        phi = s / plan.radius
        return PlanarPoint(plan.radius * math.cos(phi), plan.radius * math.sin(phi))
    lanes, gap, length = plan._lanes
    leg = plan.width + gap
    s = min(s, length)
    i = min(int(s // leg), len(lanes) - 1)
    r = s - i * leg
    y = lanes[i]
    x0, x1 = (-plan.width / 2.0, plan.width / 2.0) if i % 2 == 0 else (plan.width / 2.0, -plan.width / 2.0)
    if r <= plan.width:
        return PlanarPoint(x0 + (x1 - x0) * (r / plan.width), y)
    frac = (r - plan.width) / gap if gap > 0 else 1.0
    y_next = lanes[min(i + 1, len(lanes) - 1)]
    return PlanarPoint(x1, y + (y_next - y) * min(1.0, frac))


def simulate_oracle(sc, duration):
    """The per-sample loop: scalar position, unproject, haversine and one
    shadowing draw per sample that does not coincide with the target."""
    rng = np.random.default_rng(sc.seed)
    obs = []
    for k in range(max(1, int(math.floor(duration / SAMPLE_PERIOD_S)))):
        t = k * SAMPLE_PERIOD_S
        pos = unproject(sc.plan.center, position_at_oracle(sc.plan, sc.plan.speed * t))
        d = haversine(pos, sc.target)
        if d == 0.0:
            continue
        obs.append(Observation(t=t, pos=pos, rssi=sample_shadowed_rssi(sc.tx, d, sc.sigma_db, rng)))
    return obs


def hex_rows(obs):
    return [tuple(float.hex(v) for v in (o.t, o.pos.lat, o.pos.lon, o.rssi)) for o in obs]


@st.composite
def scenarios(draw):
    """A lawnmower or loiter plan about a random centre, a duration from
    0.5 s to 1.5x the path's flight time (the lawnmower holds its last
    point past the end), sigma 0 or 3, and a target off the path or on one
    of its samples."""
    center = GeoPoint(draw(st.floats(-60.0, 60.0)), draw(st.floats(-179.0, 179.0)))
    speed = draw(st.floats(2.0, 60.0))
    if draw(st.booleans()):
        plan = FlightPlan(kind="loiter", center=center, speed=speed,
                          radius=draw(st.floats(20.0, 2000.0)))
    else:
        height = draw(st.floats(20.0, 2000.0))
        plan = FlightPlan(kind="lawnmower", center=center, speed=speed,
                          width=draw(st.floats(20.0, 2000.0)), height=height,
                          spacing=draw(st.floats(height / 12.0, height)))
    flight_s = plan.path_length() / plan.speed
    duration = max(0.5, draw(st.floats(0.0, 1.5)) * min(flight_s, 3000.0))
    n = max(1, int(math.floor(duration / SAMPLE_PERIOD_S)))
    on_path = draw(st.integers(0, n - 1)) if draw(st.booleans()) else None
    if on_path is None:
        target = unproject(center, PlanarPoint(draw(st.floats(-3000.0, 3000.0)),
                                               draw(st.floats(-3000.0, 3000.0))))
    else:
        target = unproject(center, position_at_oracle(plan, plan.speed * on_path * SAMPLE_PERIOD_S))
    sc = SimScenario(plan=plan, target=target, tx=TX, sigma_db=draw(st.sampled_from([0.0, 3.0])),
                     seed=draw(st.integers(0, 2**32 - 1)))
    return sc, duration, on_path is not None


# A loiter whose row 185 distance differs when squares are taken as x * x
# rather than through libm's pow; random scenarios hit such a row rarely.
SQUARE_SENSITIVE = SimScenario(
    plan=FlightPlan(kind="loiter", center=GeoPoint(-40.44095661847026, -129.94867409975154),
                    speed=14.568364840350606, radius=1126.6352890570113),
    target=GeoPoint(-40.444663756886825, -129.9360878533061), tx=TX, sigma_db=3.0, seed=1)


# An off-path target 1 um from the first sample: Friis gives +114.8 dBm
# there, past the +50 dBm bound, so both forms raise the same ValueError.
TOO_CLOSE = SimScenario(
    plan=FlightPlan(kind="loiter", center=GeoPoint(0.0, 0.0), speed=2.0, radius=20.0),
    target=GeoPoint(8.993216059187304e-12, 0.00017986432118374611), tx=TX, sigma_db=0.0, seed=0)


def outcome(simulate, sc, duration):
    """The rows as hex, or the message of the ValueError raised."""
    try:
        return hex_rows(simulate(sc, duration))
    except ValueError as e:
        return str(e)


@settings(max_examples=300, deadline=None)
@given(scenarios())
@example((gtu_sim_scenario(seed=5), 2464.0 * 1.5, False))
@example((SQUARE_SENSITIVE, 271.4531906457933, False))
@example((TOO_CLOSE, 0.5, False))
def test_simulate_observations_matches_per_sample_loop(case):
    sc, duration, target_on_path = case
    got = outcome(simulate_observations, sc, duration)
    assert got == outcome(simulate_oracle, sc, duration)
    if target_on_path and not isinstance(got, str):
        assert len(got) < max(1, int(math.floor(duration / SAMPLE_PERIOD_S)))


def test_simulated_rows_hold_python_floats():
    # the columns reach the rows as Python floats, which logs format as such
    for o in simulate_observations(gtu_sim_scenario(seed=1), 30.0):
        assert {type(v) for v in (o.t, o.pos.lat, o.pos.lon, o.rssi)} == {float}


def test_too_close_target_raises_the_rssi_bound():
    with pytest.raises(ValueError, match=r"rssi 114\.78\d* dBm outside \[-200, 50\]"):
        simulate_observations(TOO_CLOSE, 0.5)


def test_survey_past_the_pole_raises_as_the_per_sample_loop():
    # a 2 km loiter about 89.99 degrees north reaches latitude 90.008; the
    # first row past 90 raises the ValueError the per-sample loop raises
    sc = SimScenario(plan=FlightPlan(kind="loiter", center=GeoPoint(89.99, 10.0), speed=20.0,
                                     radius=2000.0),
                     target=GeoPoint(89.98, 10.0), tx=TX, sigma_db=3.0, seed=0)
    with pytest.raises(ValueError) as want:
        simulate_oracle(sc, 600.0)
    with pytest.raises(ValueError) as got:
        simulate_observations(sc, 600.0)
    assert str(got.value) == str(want.value)
    assert str(want.value).startswith("latitude 90.00")


def test_evaluate():
    # the acceptance gate's name for the error of an estimate is haversine itself
    assert evaluate is haversine
    assert haversine(CENTER, CENTER) == 0.0
    d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 0.001))
    assert d == pytest.approx(111.19, abs=0.1)


def test_baseline_zero_noise():
    sc = gtu_sim_scenario(seed=2, sigma_db=0.0)
    obs = simulate_observations(sc, 600.0)
    cal = calibration_from_tx(sc.tx, 100.0)
    est = run_baseline_svd(obs, cal, obs[0].pos)
    assert haversine(est, sc.target) < 1.0


@pytest.mark.parametrize("lon", [179.999, -179.999, 179.99])
def test_zero_noise_survey_across_antimeridian(lon):
    # criterion 1's zero-noise survey with its plan centred by the
    # antimeridian, so its lanes cross +-180 degrees; it is found as well
    sc = gtu_sim_scenario(seed=0, sigma_db=0.0)
    center = GeoPoint(sc.plan.center.lat, lon)
    sc = dataclasses.replace(sc, plan=dataclasses.replace(sc.plan, center=center),
                             target=unproject(center, PlanarPoint(244.0, -235.0)))
    obs = simulate_observations(sc, 600.0)
    lons = [o.pos.lon for o in obs]
    assert min(lons) < -179.99 and max(lons) > 179.99
    est = run_estimator(obs, EstimatorConfig(ma=130.0, cal=calibration_from_tx(sc.tx, 100.0),
                                             seed=0))
    estimate, _ = est.best_estimate()
    assert haversine(estimate, sc.target) < 1.0


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
