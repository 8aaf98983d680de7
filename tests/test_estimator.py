import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc import cluster
from uavloc.cluster import Observation
from uavloc.errors import NoEstimateError, ObservationOrderError
from uavloc.estimator import Estimator, EstimatorConfig, IterationResult
from uavloc.geo import GeoPoint, PlanarPoint, haversine, unproject
from uavloc.pathloss import Calibration, calibration_from_tx
from uavloc.simulator import gtu_sim_scenario, run_estimator, simulate_observations

CAL = Calibration(d0=100.0, p0_dbm=-45.211, n=2.0)
ORIGIN = GeoPoint(40.8081, 29.3560)


def config(**kw):
    kw.setdefault("ma", 130.0)
    kw.setdefault("cal", CAL)
    return EstimatorConfig(**kw)


def obs_at(t, x, y, rssi):
    return Observation(t=float(t), pos=unproject(ORIGIN, PlanarPoint(x, y)), rssi=rssi)


def test_no_iteration_before_batch_full():
    est = Estimator(config(batch_size=50))
    for i in range(49):
        assert est.ingest(obs_at(i, i * 10.0, 0.0, -60.0)) is None
    assert est.history == []


def test_iteration_on_batch_boundary():
    est = Estimator(config(batch_size=50))
    results = [est.ingest(obs_at(i, i * 10.0, (i % 7) * 30.0, -60.0)) for i in range(50)]
    assert all(r is None for r in results[:49])
    r = results[49]
    assert isinstance(r, IterationResult)
    assert r.index == 1 and r.n_obs == 50
    assert len(est.history) == 1


def test_cumulative_batching():
    est = Estimator(config(batch_size=10))
    for i in range(100):
        est.ingest(obs_at(i, i * 5.0, (i % 9) * 20.0, -60.0))
    assert len(est.history) == 10
    assert [r.index for r in est.history] == list(range(1, 11))
    assert [r.n_obs for r in est.history] == [10 * i for i in range(1, 11)]


def test_out_of_order_rejected():
    est = Estimator(config())
    est.ingest(obs_at(5.0, 0.0, 0.0, -60.0))
    with pytest.raises(ObservationOrderError):
        est.ingest(obs_at(4.0, 10.0, 0.0, -60.0))
    # equal timestamps are allowed
    est.ingest(obs_at(5.0, 10.0, 0.0, -60.0))


def test_identical_positions_skipped():
    est = Estimator(config(batch_size=5))
    for i in range(5):
        est.ingest(obs_at(i, 0.0, 0.0, -60.0))
    r = est.history[0]
    assert r.status == "skipped"


def test_zero_noise_recovery():
    sc = gtu_sim_scenario(seed=3, sigma_db=0.0)
    obs = simulate_observations(sc, 900.0)
    est = Estimator(config(cal=calibration_from_tx(sc.tx, 100.0), seed=3))
    for o in obs:
        est.ingest(o)
    estimate, best = est.best_estimate()
    assert haversine(estimate, sc.target) < 1.0


def test_best_estimate_argmin():
    est = Estimator(config())
    est.origin = ORIGIN
    p = ORIGIN
    mk = lambda i, r: IterationResult(index=i, n_obs=50 * i, n_clusters_used=4,
                                      estimate=p, residual_rms=r, condition=10.0,
                                      status="ok")
    est.history = [mk(1, 0.9), mk(2, 0.2), mk(3, 0.5)]
    _, best = est.best_estimate()
    assert best.index == 2


def test_best_estimate_tie_earliest():
    est = Estimator(config())
    p = ORIGIN
    mk = lambda i, r: IterationResult(index=i, n_obs=50 * i, n_clusters_used=4,
                                      estimate=p, residual_rms=r, condition=10.0,
                                      status="ok")
    est.history = [mk(1, 0.5), mk(2, 0.5)]
    _, best = est.best_estimate()
    assert best.index == 1


def test_best_estimate_empty_history():
    est = Estimator(config())
    with pytest.raises(NoEstimateError):
        est.best_estimate()
    est.history = [IterationResult(index=1, n_obs=50, n_clusters_used=0, estimate=None,
                                   residual_rms=None, condition=None, status="skipped",
                                   reason="x")]
    with pytest.raises(NoEstimateError):
        est.best_estimate()


def test_end_to_end_determinism():
    sc = gtu_sim_scenario(seed=5, sigma_db=3.0)
    obs = simulate_observations(sc, 1200.0)

    def run():
        est = Estimator(config(ma=30.0, min_dbm=-50.0, r_thresh=1, seed=5))
        for o in obs:
            est.ingest(o)
        return est.history

    assert run() == run()


def test_history_input_supersets():
    # iteration i's window is the first batch_size*i observations
    sc = gtu_sim_scenario(seed=6, sigma_db=3.0)
    obs = simulate_observations(sc, 400.0)
    est = Estimator(config(batch_size=100, seed=6))
    for o in obs:
        est.ingest(o)
    assert [r.n_obs for r in est.history] == [100, 200, 300, 400]


def test_config_validation():
    with pytest.raises(ValueError):
        config(ma=0.0)
    with pytest.raises(ValueError):
        config(batch_size=0)
    with pytest.raises(ValueError):
        config(r_thresh=-1)
    with pytest.raises(ValueError):
        config(r_thresh="bogus")
    with pytest.raises(ValueError, match="nan"):
        config(min_dbm=math.nan)
    assert config(min_dbm=-math.inf).min_dbm == -math.inf
    assert config(r_thresh="iteration").r_thresh_for(7) == 7
    assert config(r_thresh=2).r_thresh_for(7) == 2


@pytest.mark.parametrize("field, value", [("seed", 1.5), ("batch_size", 2.5),
                                          ("batch_size", True), ("r_thresh", True),
                                          ("cal", None), ("ma", math.inf), ("ma", True),
                                          ("min_dbm", True)])
def test_config_rejects_non_integers_and_bools(field, value):
    # each would otherwise run: seed=1.5 until _iteration_seed raises a
    # TypeError mid-stream, batch_size=2.5 every 5 rows, True as 1, cal=None
    # until the first anchor range raises an AttributeError mid-stream; ma=inf
    # and ma=True skip every iteration, min_dbm=True is a 1 dBm floor
    with pytest.raises(ValueError, match=field):
        config(**{field: value})
    assert config(seed=np.int64(3), batch_size=np.int32(5)).batch_size == 5
    assert config(r_thresh=np.int64(1)).r_thresh_for(7) == 1


def test_far_sample_mid_stream_skips_instead_of_raising():
    sc = gtu_sim_scenario(seed=7, sigma_db=3.0)
    obs = simulate_observations(sc, 600.0)
    cal = Calibration(d0=100.0, p0_dbm=-45.211, n=2.0)
    clean = Estimator(config(cal=cal, seed=7))
    for o in obs[:300]:
        clean.ingest(o)
    # ~220 km north of the survey: beyond the projection range
    far = Observation(t=obs[320].t, pos=GeoPoint(obs[320].pos.lat + 2.0, obs[320].pos.lon),
                      rssi=-60.0)
    est = Estimator(config(cal=cal, seed=7))
    for o in obs[:320] + [far] + obs[320:]:
        est.ingest(o)
    assert est.history[:6] == clean.history
    assert len(est.history) > 7
    for r in est.history[6:]:
        assert r.status == "skipped" and "projection range" in r.reason
    assert est.best_estimate() == clean.best_estimate()


def test_far_svd_solution_skips_instead_of_raising():
    # three 10-sample groups 1 km apart on a line, the last 1 cm off it: the
    # anchors have rank 3 but put the solution about 1e8 m north
    obs = [obs_at(10 * g + i, x, y, -60.0 - i)
           for g, (x, y) in enumerate([(0.0, 0.0), (1000.0, 0.0), (2000.0, 0.01)])
           for i in range(10)]
    est = Estimator(config(ma=800.0, r_thresh=0, batch_size=30))
    results = [est.ingest(o) for o in obs]
    r = results[-1]
    assert r.status == "skipped" and r.n_obs == 30
    assert "condition" in r.reason and "latitude" in r.reason
    with pytest.raises(NoEstimateError):
        est.best_estimate()


def test_reference_selection_sees_time_ordered_rows(monkeypatch):
    # four tight groups 1 km apart, visited in turn; eight rows share each
    # timestamp, and each group's strongest RSSI is an equal pair: rows
    # m = 2 and 3 (same timestamp) in group 0, m = 2 and 7 in the others.
    # m = 0 falls below min_dbm, so kept rows are a subset of ingested rows.
    calls = []
    select = cluster.select_reference_nodes

    def recording(cs, obs, xy, rssi, cal):
        refs = select(cs, obs, xy, rssi, cal)
        calls.append((list(obs), rssi, refs))
        return refs

    monkeypatch.setattr(cluster, "select_reference_nodes", recording)
    corners = [(0.0, 0.0), (1000.0, 0.0), (0.0, 1000.0), (1000.0, 1000.0)]
    rows = {}
    for j in range(40):
        g, m = j % 4, j // 4
        pair = (2, 3) if g == 0 else (2, 7)
        rssi = -95.0 if m == 0 else -60.0 if m in pair else -70.0 - m
        rows[g, m] = obs_at(j // 8, corners[g][0] + m, corners[g][1], rssi)
    est = Estimator(config(ma=400.0, batch_size=20, min_dbm=-80.0, r_thresh=1))
    for j in range(40):
        est.ingest(rows[j % 4, j // 4])
    assert len(calls) == 2
    for obs, rssi, refs in calls:
        times = [o.t for o in obs]
        assert times == sorted(times)
        assert rssi.tolist() == [o.rssi for o in obs]
        # the earlier row of each pair is its group's anchor
        anchors = {(r.pos_geo.lat, r.pos_geo.lon) for r in refs}
        assert anchors == {(rows[g, 2].pos.lat, rows[g, 2].pos.lon) for g in range(4)}


@pytest.mark.parametrize("p0", [1e300, -1e300])
def test_anchor_range_out_of_float_range_skips_instead_of_raising(p0):
    # with this P0 every anchor's range overflows (+) or underflows to zero
    # (-); each iteration that reaches reference selection is skipped with a
    # reason naming the RSSI, and the stream runs on to its end
    cal = Calibration(d0=100.0, p0_dbm=p0, n=2.0)
    est = Estimator(config(ma=20.0, cal=cal, min_dbm=-46.0, r_thresh=1))
    for o in simulate_observations(gtu_sim_scenario(seed=3), 1500.0):
        est.ingest(o)
    assert len(est.history) == 30
    assert not any(r.ok for r in est.history)
    ranged = [r.reason for r in est.history if "range" in r.reason]
    assert ranged
    assert all(reason.startswith("rssi -") and reason.endswith(
        f"dBm inverts to range {'inf' if p0 > 0 else '0.0'} m, not a positive finite distance")
        for reason in ranged)
    with pytest.raises(NoEstimateError):
        est.best_estimate()


SURVEY = gtu_sim_scenario(seed=2)
SURVEY_ROWS = simulate_observations(SURVEY, 600.0)
SURVEY_CAL = calibration_from_tx(SURVEY.tx, d0=100.0)


def mostly(typical, extreme):
    """Draws from typical about twice as often as from extreme, so that many
    runs get past the threshold and the size filter to the anchor ranges and
    the solve."""
    return st.one_of(typical, typical, extreme)


# few examples: a batch of 1 runs 600 iterations, the costliest draw
@settings(max_examples=12, deadline=None)
@given(ma=mostly(st.floats(10.0, 300.0), st.floats(1e-300, 1e300)),
       batch_size=st.integers(1, 200),
       min_dbm=mostly(st.floats(-75.0, -45.0), st.floats(allow_nan=False)),
       r_thresh=st.one_of(st.integers(0, 3), st.just("iteration"), st.integers(min_value=0)),
       seed=st.integers(),
       p0_offset=st.one_of(st.floats(-5.0, 5.0), st.floats(-1e300, 1e300)))
def test_every_config_that_constructs_runs_the_stream_to_its_end(ma, batch_size, min_dbm,
                                                                 r_thresh, seed, p0_offset):
    # failures inside an iteration become skipped results, never exceptions
    cal = replace(SURVEY_CAL, p0_dbm=SURVEY_CAL.p0_dbm + p0_offset)
    est = run_estimator(SURVEY_ROWS, config(ma=ma, cal=cal, batch_size=batch_size,
                                            min_dbm=min_dbm, r_thresh=r_thresh, seed=seed))
    assert [r.n_obs for r in est.history] == list(range(batch_size, 601, batch_size))
    assert all(r.ok or r.reason for r in est.history)
