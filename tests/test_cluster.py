import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc.cluster import (ClusterSet, Observation, ReferenceNode, SurveyDiameter,
                            _kmeans_pp_init, _lloyd, compute_k, filter_clusters, kmeans,
                            observations, select_reference_nodes, threshold_rssi)
from uavloc.geo import GeoPoint, PlanarPoint, project, unproject
from uavloc.pathloss import Calibration, rssi_to_distance

ORIGIN = GeoPoint(40.8081, 29.3560)
CAL = Calibration(d0=100.0, p0_dbm=-45.0, n=2.0)


def obs_at(x, y, rssi, t=0.0):
    return Observation(t=t, pos=unproject(ORIGIN, PlanarPoint(x, y)), rssi=rssi)


def cluster_set(*members):
    """The ClusterSet kmeans would return for these member tuples, which
    partition the rows, with cluster c holding members[c]."""
    labels = np.empty(sum(map(len, members)), dtype=np.intp)
    for c, rows in enumerate(members):
        labels[list(rows)] = c
    counts = np.bincount(labels, minlength=len(members))
    return ClusterSet(labels, counts, np.flatnonzero(counts))


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


@pytest.mark.parametrize("ma", [1e-310, 5e-324])
def test_compute_k_tiny_ma_is_clamped_to_n(ma):
    # d_max / ma overflows to inf, which math.ceil cannot take
    obs = [obs_at(0, 0, -50.0), obs_at(0, 5000, -50.0), obs_at(0, 10, -50.0)]
    assert compute_k(obs, ma=ma) == 3
    assert compute_k([obs_at(0, 0, -50.0)] * 4, ma=ma) == 1


@pytest.mark.parametrize("obs, ma, match", [([], 130.0, "at least one observation"),
                                             ([obs_at(0, 0, -50.0)], 0.0, "ma must be positive"),
                                             ([obs_at(0, 0, -50.0)], -1.0, "ma must be positive"),
                                             ([obs_at(0, 0, -50.0)], math.nan, "ma must be")])
def test_compute_k_rejects_no_rows_and_non_positive_ma(obs, ma, match):
    with pytest.raises(ValueError, match=match):
        compute_k(obs, ma)


def test_compute_k_monotone():
    rng = np.random.default_rng(3)
    obs = [obs_at(rng.uniform(0, 2000), rng.uniform(0, 2000), -50.0) for _ in range(40)]
    ks = [compute_k(obs, ma) for ma in (50, 100, 200, 400)]
    assert ks == sorted(ks, reverse=True)


def test_compute_k_of_no_new_rows_is_the_held_rows_k():
    # a diameter that holds rows answers for them when no row is new; a
    # fresh one holds none, so an empty call still raises
    obs = [obs_at(65.0 * i, 0, -50.0) for i in range(11)]  # 650 m across
    d = SurveyDiameter()
    assert compute_k(obs[:4], 130.0, d) == 2
    assert compute_k(obs[4:], 130.0, d) == compute_k(obs, 130.0) == 5
    assert compute_k([], 130.0, d) == 5
    assert compute_k([], 10.0, d) == 11  # clamped to the 11 rows held
    with pytest.raises(ValueError, match="at least one observation"):
        compute_k([], 130.0, SurveyDiameter())


def test_survey_diameter_matches_scalar_haversine():
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
    a, b = kmeans(pts, 5, seed=42), kmeans(pts, 5, seed=42)
    assert a.clusters == b.clusters and np.array_equal(a.labels, b.labels)


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
    cs = cluster_set(
        tuple(range(0, 3)),
        tuple(range(3, 11)),
        tuple(range(11, 23)),
    )
    assert len(filter_clusters(cs, 0).clusters) == 3
    kept = filter_clusters(cs, 8).clusters
    assert len(kept) == 1 and len(kept[0]) == 12
    assert filter_clusters(cs, 12).clusters == ()


def test_select_reference_nodes_max_rssi():
    obs = [obs_at(0, 0, -80.0, t=0), obs_at(10, 0, -60.0, t=1), obs_at(20, 0, -75.0, t=2)]
    cs = cluster_set((0, 1, 2))
    xy, rssi = columns(obs)
    anchors = select_reference_nodes(cs, xy, rssi, CAL)
    assert anchors.shape == (1, 3)
    assert anchors[0].tolist() == [*xy[1].tolist(), rssi_to_distance(-60.0, CAL)]


def test_select_reference_nodes_tie_breaks_earliest():
    obs = [obs_at(0, 0, -60.0, t=3.0), obs_at(10, 0, -60.0, t=9.0)]
    cs = cluster_set((0, 1))
    xy, rssi = columns(obs)
    anchors = select_reference_nodes(cs, xy, rssi, CAL)
    assert anchors[:, :2].tolist() == [xy[0].tolist()]


def test_select_reference_nodes_singletons():
    obs = [obs_at(0, 0, -70.0, t=0), obs_at(500, 0, -65.0, t=1)]
    cs = cluster_set((0,), (1,))
    xy, rssi = columns(obs)
    anchors = select_reference_nodes(cs, xy, rssi, CAL)
    assert anchors[:, :2].tolist() == xy.tolist()
    assert anchors[:, 2].tolist() == [rssi_to_distance(-70.0, CAL), rssi_to_distance(-65.0, CAL)]
    # distance comes straight from the inversion
    assert anchors[0, 2] == pytest.approx(10.0 ** (25.0 / 20.0) * 100.0, rel=1e-12)


def test_observation_validation():
    with pytest.raises(ValueError):
        Observation(t=0.0, pos=ORIGIN, rssi=60.0)
    with pytest.raises(ValueError):
        Observation(t=float("nan"), pos=ORIGIN, rssi=-60.0)
    for distance in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="reference distance must be positive"):
            ReferenceNode(pos_planar=PlanarPoint(0.0, 0.0), pos_geo=ORIGIN, rssi=-60.0,
                          distance=distance)


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
@given(row_columns(), st.tuples(*[st.sampled_from([list, np.array])] * 4))
def test_observations_screen_rejects_exactly_what_the_constructors_reject(cols, kinds):
    # each column is passed as a list of floats or as a float array
    want = built_one_by_one(*cols)
    try:
        got = observations(*(kind(c) for kind, c in zip(kinds, cols)))
    except ValueError as e:
        got = str(e)
    assert type(got) is type(want) and got == want
    if not isinstance(want, str):
        hexes = [[float.hex(v) for v in (o.t, o.pos.lat, o.pos.lon, o.rssi)] for o in got]
        assert hexes == [[float.hex(v) for v in row] for row in zip(*cols)]


# RSSI values that tie within and across clusters, both signed zeros, and
# any other reading in range
anchor_rssi = st.one_of(st.sampled_from([-70.0, -60.0, 0.0, -0.0]), st.floats(-200.0, 50.0))


@st.composite
def labellings(draw):
    """Labels of n rows over k clusters, some of them empty, an RSSI per
    row, and two size thresholds."""
    k = draw(st.integers(1, 6))
    n = draw(st.integers(1, 30))
    labels = draw(st.lists(st.integers(0, k - 1), min_size=n, max_size=n))
    rssi = draw(st.lists(anchor_rssi, min_size=n, max_size=n))
    return (np.asarray(labels, dtype=np.intp), k, rssi,
            draw(st.integers(0, 5)), draw(st.integers(0, 5)),
            draw(st.sampled_from([np.uint8, np.uint16, np.intp])))


@settings(max_examples=500, deadline=None)
@given(labellings())
def test_cluster_views_and_anchors_match_member_loops(case):
    # kmeans's ClusterSet from labels (intp, as kmeans stores them, or a
    # narrower unsigned type), its tuple view, two size filters and the
    # anchors, against per-cluster loops over member tuples
    labels, k, rssi, r1, r2, dtype = case
    counts = np.bincount(labels, minlength=k)
    cs = ClusterSet(labels.astype(dtype), counts, np.flatnonzero(counts))
    members = [tuple(i for i, c in enumerate(labels.tolist()) if c == cid) for cid in range(k)]
    assert cs.clusters == tuple(m for m in members if m)
    kept = filter_clusters(filter_clusters(cs, r1), r2)
    want = [m for m in members if len(m) > max(r1, r2)]
    assert kept.clusters == tuple(want)
    xy = np.arange(2.0 * len(rssi)).reshape(-1, 2)
    col = np.array(rssi)
    anchors = [m[int(np.argmax(col[list(m)]))] for m in want]
    got = select_reference_nodes(kept, xy, col, CAL)
    assert got.shape == (len(want), 3)
    assert [[v.hex() for v in row] for row in got.tolist()] == [
        [v.hex() for v in (*xy[i].tolist(), rssi_to_distance(rssi[i], CAL))] for i in anchors]


def test_select_reference_nodes_zero_dbm_ties_keep_the_first_sign():
    # +0.0 and -0.0 are equally strong, so each cluster's first member is
    # the anchor, whichever sign it reads
    obs = [obs_at(0, 0, -0.0, t=0), obs_at(10, 0, 0.0, t=1), obs_at(20, 0, 0.0, t=2),
           obs_at(30, 0, -0.0, t=3)]
    xy, rssi = columns(obs)
    anchors = select_reference_nodes(cluster_set((0, 2), (1, 3)), xy, rssi, CAL)
    assert anchors[:, :2].tolist() == xy[:2].tolist()
