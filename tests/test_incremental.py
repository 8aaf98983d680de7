"""Bit-exact properties of the incremental estimator core.

The survey diameter is folded in batch by batch and Lloyd's centres come from
bincount sums; both must give exactly the bits of a full recompute. The
oracles below are the full-recompute implementations they replaced.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc.cluster import (KMEANS_MAX_ITER, KMEANS_TOL_M, Observation, SurveyDiameter,
                            _lloyd, max_pairwise_distance)
from uavloc.geo import EARTH_RADIUS_M, GeoPoint


def diameter_oracle(obs) -> float:
    """Full N x N haversine matrix, then max."""
    lat = np.radians([o.pos.lat for o in obs])
    lon = np.radians([o.pos.lon for o in obs])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    h = (np.sin(dlat / 2.0) ** 2
         + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2)
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, h))).max())


def lloyd_oracle(pts, centers):
    """Per-cluster mask-and-mean Lloyd loop with an (n, k, 2) distance temporary."""
    k = len(centers)
    sse_history = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
        labels = np.argmin(d2, axis=1)
        sse_history.append(float(d2[np.arange(len(pts)), labels].sum()))
        new_centers = centers.copy()
        for j in range(k):
            mask = labels == j
            if mask.any():
                new_centers[j] = pts[mask].mean(axis=0)
            else:
                far = np.argmax(d2[np.arange(len(pts)), labels])
                new_centers[j] = pts[far]
        shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
        centers = new_centers
        if shift < KMEANS_TOL_M:
            break
    d2 = np.sum((pts[:, None, :] - centers[None, :, :]) ** 2, axis=2)
    labels = np.argmin(d2, axis=1)
    return centers, labels, sse_history


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_lloyd(got, want):
    (gc, gl, gs), (wc, wl, ws) = got, want
    assert np.array_equal(bits(gc), bits(wc))
    assert np.array_equal(gl, wl)
    assert [s.hex() for s in gs] == [s.hex() for s in ws]


positions = st.lists(
    st.tuples(st.floats(40.70, 40.90), st.floats(29.25, 29.45)), min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(positions, st.lists(st.integers(0, 20), max_size=8))
def test_incremental_diameter_equals_full_recompute(latlon, cuts):
    obs = [Observation(t=float(i), pos=GeoPoint(lat, lon), rssi=-60.0)
           for i, (lat, lon) in enumerate(latlon)]
    full = max_pairwise_distance(obs)
    assert full.hex() == diameter_oracle(obs).hex()
    d = SurveyDiameter()
    kept, end = [], 0
    for step in cuts + [len(obs)]:
        end = min(len(obs), end + step)
        kept += obs[len(kept):end]
        d.update(kept)
        assert d.value.hex() == max_pairwise_distance(kept).hex()
    assert d.value.hex() == full.hex()


coords = st.floats(-5000.0, 5000.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(coords, coords), min_size=n, max_size=n),
    st.lists(st.tuples(coords, coords), min_size=1, max_size=min(n, 8)))))
def test_lloyd_matches_mask_and_mean_loop(case):
    pts, centers = (np.asarray(a, dtype=float) for a in case)
    assert_same_lloyd(_lloyd(pts, centers.copy()), lloyd_oracle(pts, centers.copy()))


def test_lloyd_reseeds_empty_cluster_like_the_loop():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [10.0, 10.0]])
    centers = np.array([[0.0, 0.0], [1000.0, 1000.0], [-900.0, 50.0]])
    got = _lloyd(pts, centers.copy())
    assert_same_lloyd(got, lloyd_oracle(pts, centers.copy()))
    # both far centres start empty and are reseeded at the farthest point
    assert (got[0] == [10.0, 10.0]).all(axis=1).any()
