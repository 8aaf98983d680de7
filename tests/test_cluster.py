import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc.cluster import (ClusterSet, Observation, SurveyDiameter, _kmeans_pp_init,
                            _lloyd, compute_k, filter_clusters, kmeans, observations,
                            select_reference_nodes, threshold_rssi)
from uavloc.geo import GeoPoint, PlanarPoint, project, unproject
from uavloc.pathloss import Calibration

ORIGIN = GeoPoint(40.8081, 29.3560)
CAL = Calibration(d0=100.0, p0_dbm=-45.0, n=2.0)


def obs_at(x, y, rssi, t=0.0):
    return Observation(t=t, pos=unproject(ORIGIN, PlanarPoint(x, y)), rssi=rssi)


def columns(obs):
    """Planar positions and RSSI of obs, as the estimator carries them."""
    xy = np.column_stack(project(ORIGIN, [o.pos.lat for o in obs], [o.pos.lon for o in obs]))
    return xy, np.array([o.rssi for o in obs])


def test_threshold_disabled():
    obs = [obs_at(0, 0, -90.0), obs_at(1, 0, -121.0)]
    assert threshold_rssi(obs, float("-inf")) == obs


def test_threshold_all_below():
    obs = [obs_at(0, 0, -90.0), obs_at(1, 0, -121.0)]
    assert threshold_rssi(obs, -50.0) == []


def test_threshold_mixed():
    obs = [obs_at(0, 0, -90.0), obs_at(1, 0, -121.0), obs_at(2, 0, -70.0)]
    assert [o.rssi for o in threshold_rssi(obs, -120.0)] == [-90.0, -70.0]


def test_compute_k_single_point():
    assert compute_k([obs_at(0, 0, -50.0)] * 5, ma=130.0) == 1


def test_compute_k_exact_division():
    # north-south displacement: haversine is exactly R * dlat = 650 m
    obs = [obs_at(0, 0, -50.0)] + [obs_at(0, 650, -50.0)] * 9
    assert compute_k(obs, ma=130.0) == 5


def test_compute_k_ceil():
    obs = [obs_at(0, 0, -50.0)] + [obs_at(0, 651, -50.0)] * 9
    assert compute_k(obs, ma=130.0) == 6


def test_compute_k_clamped_to_n():
    obs = [obs_at(0, 0, -50.0), obs_at(0, 5000, -50.0)]
    assert compute_k(obs, ma=10.0) == 2


def test_compute_k_monotone():
    rng = np.random.default_rng(3)
    obs = [obs_at(rng.uniform(0, 2000), rng.uniform(0, 2000), -50.0) for _ in range(40)]
    ks = [compute_k(obs, ma) for ma in (50, 100, 200, 400)]
    assert ks == sorted(ks, reverse=True)


def test_max_pairwise_distance_matches_scalar():
    from uavloc.geo import haversine
    rng = np.random.default_rng(4)
    obs = [obs_at(rng.uniform(0, 3000), rng.uniform(0, 3000), -50.0) for _ in range(25)]
    expect = max(haversine(a.pos, b.pos) for a in obs for b in obs)
    assert SurveyDiameter().update(obs) == pytest.approx(expect, rel=1e-9)


def test_kmeans_k_equals_n():
    pts = np.array([(float(i * 100), 0.0) for i in range(6)])
    cs = kmeans(pts, 6, seed=0)
    assert len(cs.clusters) == 6
    assert all(len(c) == 1 for c in cs.clusters)


def test_kmeans_two_blobs():
    rng = np.random.default_rng(8)
    blob_a = [(rng.normal(0, 5), rng.normal(0, 5)) for _ in range(30)]
    blob_b = [(rng.normal(2000, 5), rng.normal(0, 5)) for _ in range(30)]
    cs = kmeans(np.array(blob_a + blob_b), 2, seed=1)
    groups = sorted(tuple(sorted(c)) for c in cs.clusters)
    assert groups == [tuple(range(30)), tuple(range(30, 60))]


def test_kmeans_deterministic():
    rng = np.random.default_rng(9)
    pts = np.array([(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(80)])
    assert kmeans(pts, 5, seed=42) == kmeans(pts, 5, seed=42)


def test_kmeans_partition():
    rng = np.random.default_rng(10)
    pts = np.array([(rng.uniform(0, 1000), rng.uniform(0, 1000)) for _ in range(100)])
    cs = kmeans(pts, 7, seed=3)
    all_members = sorted(i for c in cs.clusters for i in c)
    assert all_members == list(range(100))


def test_kmeans_rejects_bad_k():
    pts = np.array([(0.0, 0.0), (1.0, 1.0)])
    with pytest.raises(ValueError):
        kmeans(pts, 3, seed=0)
    with pytest.raises(ValueError):
        kmeans(pts, 0, seed=0)


def test_lloyd_sse_non_increasing():
    rng = np.random.default_rng(12)
    pts = rng.uniform(0, 1000, size=(120, 2))
    centers = _kmeans_pp_init(pts, 6, rng)
    _, _, sse = _lloyd(pts, centers)
    assert all(a >= b - 1e-9 for a, b in zip(sse, sse[1:]))


def test_filter_clusters():
    cs = ClusterSet((
        tuple(range(0, 3)),
        tuple(range(3, 11)),
        tuple(range(11, 23)),
    ))
    assert len(filter_clusters(cs, 0).clusters) == 3
    kept = filter_clusters(cs, 8).clusters
    assert len(kept) == 1 and len(kept[0]) == 12
    assert filter_clusters(cs, 12).clusters == ()


def test_select_reference_nodes_max_rssi():
    obs = [obs_at(0, 0, -80.0, t=0), obs_at(10, 0, -60.0, t=1), obs_at(20, 0, -75.0, t=2)]
    cs = ClusterSet(((0, 1, 2),))
    refs = select_reference_nodes(cs, obs, *columns(obs), CAL)
    assert len(refs) == 1
    assert refs[0].rssi == -60.0
    assert refs[0].pos_geo == obs[1].pos


def test_select_reference_nodes_tie_breaks_earliest():
    obs = [obs_at(0, 0, -60.0, t=3.0), obs_at(10, 0, -60.0, t=9.0)]
    cs = ClusterSet(((0, 1),))
    refs = select_reference_nodes(cs, obs, *columns(obs), CAL)
    assert refs[0].pos_geo == obs[0].pos


def test_select_reference_nodes_singletons():
    obs = [obs_at(0, 0, -70.0, t=0), obs_at(500, 0, -65.0, t=1)]
    cs = ClusterSet(((0,), (1,)))
    refs = select_reference_nodes(cs, obs, *columns(obs), CAL)
    assert [r.rssi for r in refs] == [-70.0, -65.0]
    # distance comes straight from the inversion
    assert refs[0].distance == pytest.approx(10.0 ** (25.0 / 20.0) * 100.0, rel=1e-12)


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation(t=0.0, pos=ORIGIN, rssi=60.0)
    with pytest.raises(ValueError):
        Observation(t=float("nan"), pos=ORIGIN, rssi=-60.0)


def edges(*bounds):
    """Non-finite values, signed zeros, subnormals, each bound and one ulp
    either side of it."""
    near = [math.nextafter(b, d) for b in bounds for d in (-math.inf, math.inf)]
    return [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324,
            2.2250738585072014e-308, *bounds, *near]


def column_values(lo, hi):
    return st.one_of(st.floats(lo, hi), st.sampled_from(edges(lo, hi)), st.floats())


@st.composite
def row_columns(draw):
    n = draw(st.integers(1, 4))
    return [draw(st.lists(values, min_size=n, max_size=n))
            for values in (column_values(0.0, 1e4), column_values(-90.0, 90.0),
                           column_values(-180.0, 180.0), column_values(-200.0, 50.0))]


def built_one_by_one(t, lat, lon, rssi):
    """The rows the constructors build, or the message of the first they reject."""
    try:
        return [Observation(ti, GeoPoint(la, lo), r) for ti, la, lo, r in zip(t, lat, lon, rssi)]
    except ValueError as e:
        return str(e)


@settings(max_examples=500, deadline=None)
@given(row_columns())
def test_observations_screen_rejects_exactly_what_the_constructors_reject(cols):
    want = built_one_by_one(*cols)
    try:
        got = observations(*cols)
    except ValueError as e:
        got = str(e)
    assert type(got) is type(want) and got == want
    if not isinstance(want, str):
        hexes = [[float.hex(v) for v in (o.t, o.pos.lat, o.pos.lon, o.rssi)] for o in got]
        assert hexes == [[float.hex(v) for v in row] for row in zip(*cols)]
