"""Bit-exact properties of the incremental, pruned estimator core.

The survey diameter is folded in batch by batch and pruned by chord length,
Lloyd skips the distance rows its bounds rule out, takes centres from
bincount sums and, on its dense path, stops at a fixed point, and reference
selection takes each cluster's first strongest member in row order; all
must give exactly the bits of the full computation. k-means++ takes each
draw from a running sum only where a bound certifies it is the exact CDF's
index, so its tests also script the uniform onto the CDF's boundaries.
The oracles below are the full-computation implementations they replaced.
k-means++ seeding has a dense path for windows of at most KMEANS_DENSE_MAX_N
points, and Lloyd for those and for at most LLOYD_DENSE_MAX_K centres, so
their oracle tests run each case on both paths.
"""

import contextlib
import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from uavloc import cluster
from uavloc.cluster import (CHORD2_MARGIN, KMEANS_MAX_ITER, KMEANS_TOL_M, ClusterSet,
                            Observation, SurveyDiameter, _kmeans_pp_init, _lloyd,
                            kmeans, select_reference_nodes)
from uavloc.estimator import Estimator, EstimatorConfig
from uavloc.geo import EARTH_RADIUS_M, GeoPoint
from uavloc.pathloss import Calibration, calibration_from_tx, rssi_to_distance
from uavloc.simulator import gtu_sim_scenario, simulate_observations


def batches(obs, cuts):
    """Cut obs by the given steps, then take the rest: yields each batch's
    new rows, which an update folds in, and the prefix they complete."""
    end = 0
    for step in cuts + [len(obs)]:
        new = obs[end:end + step]
        end += len(new)
        yield new, obs[:end]


def diameter_oracle(obs) -> float:
    """Full N x N haversine matrix, then max."""
    lat = np.radians([o.pos.lat for o in obs])
    lon = np.radians([o.pos.lon for o in obs])
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    h = (np.sin(dlat / 2.0) ** 2
         + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2)
    return float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, h))).max())


def lloyd_oracle(pts, centers, max_iter=KMEANS_MAX_ITER):
    """Per-cluster mask-and-mean Lloyd loop with an (n, k, 2) distance temporary."""
    k = len(centers)
    sse_history = []
    for _ in range(max_iter):
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


def kmeans_pp_oracle(pts, k, rng):
    """k-means++ seeding with d^2 as a row sum of squares over an (n, 2) array."""
    n = len(pts)
    centers = np.empty((k, 2))
    centers[0] = pts[rng.integers(n)]
    d2 = np.sum((pts - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[j] = pts[rng.integers(n)]
        else:
            centers[j] = pts[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((pts - centers[j]) ** 2, axis=1))
    return centers


def bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def assert_same_lloyd(got, want):
    (gc, gl, gs), (wc, wl, ws) = got, want
    assert np.array_equal(bits(gc), bits(wc))
    assert np.array_equal(gl, wl)
    assert [s.hex() for s in gs] == [s.hex() for s in ws]


# dense-path bounds that put every window on the pruned path, then every
# window on the dense path
PATH_BOUNDS = (0, math.inf)


@contextlib.contextmanager
def kmeans_path(bound):
    """Windows of at most `bound` points or centres take the dense k-means path."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "KMEANS_DENSE_MAX_N", bound)
        mp.setattr(cluster, "LLOYD_DENSE_MAX_K", bound)
        yield


class StubRng:
    """Stands in for a Generator: integers() is gen's, and random() returns
    the scripted uniforms in turn, or gen's when none are given."""

    def __init__(self, gen, uniforms=None):
        self.gen, self.uniforms = gen, uniforms
        self.randoms = 0

    def integers(self, n):
        return self.gen.integers(n)

    def random(self):
        self.randoms += 1
        return self.gen.random() if self.uniforms is None else self.uniforms.pop(0)


def choice_index(d2, u):
    """The index rng.choice(len(d2), p=d2 / d2.sum()) picks with the uniform u,
    by the steps numpy's Generator.choice takes."""
    cdf = (d2 / d2.sum()).cumsum()
    cdf /= cdf[-1]
    return cdf.searchsorted(u, side="right")


@contextlib.contextmanager
def exact_draws():
    """Yields a list that grows by one for each draw that runs the exact CDF."""
    calls = []
    draw = cluster._cdf_draw
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cluster, "_cdf_draw", lambda *a: calls.append(1) or draw(*a))
        yield calls


def survey(centre, box, offsets):
    """Observations at centre + box * offset (degrees), longitude wrapped."""
    lat0, lon0 = centre
    return [Observation(t=float(i), pos=GeoPoint(lat0 + box * a,
                                                 (lon0 + box * b + 180.0) % 360.0 - 180.0),
                        rssi=-60.0) for i, (a, b) in enumerate(offsets)]


# survey boxes from 1e-5 degree (about 1 m) to 10 degrees (about 1000 km)
boxes = st.floats(-5.0, 1.0).map(lambda e: 10.0 ** e)
centres = st.tuples(st.floats(-75.0, 75.0), st.floats(-180.0, 180.0))
offsets = st.lists(st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5)),
                   min_size=1, max_size=60)


@settings(max_examples=300, deadline=None)
@given(centres, boxes, offsets, st.lists(st.integers(0, 20), max_size=8))
@example((40.8, 29.35), 0.2, [(-0.5, -0.5), (0.5, 0.5), (0.1, -0.3), (0.5, 0.5)], [1, 2])
@example((-10.0, 180.0), 8.0, [(0.0, -0.4), (0.2, 0.45), (-0.5, 0.1), (0.3, -0.5)], [1, 0, 2])
@example((60.0, 180.0), 1e-5, [(0.5, 0.5), (-0.5, -0.5), (0.0, 0.2)], [2])
def test_incremental_diameter_equals_full_recompute(centre, box, offsets, cuts):
    # the last two examples straddle the antimeridian
    obs = survey(centre, box, offsets)
    full = SurveyDiameter().update(obs)
    assert full.hex() == diameter_oracle(obs).hex()
    d = SurveyDiameter()
    for new, kept in batches(obs, cuts):
        d.update(new)
        assert len(d.lat) == len(kept)
        assert d.value.hex() == SurveyDiameter().update(kept).hex()
    assert d.value.hex() == full.hex()


@settings(max_examples=500, deadline=None)
@given(st.lists(st.tuples(st.floats(-90.0, 90.0), st.floats(-180.0, 180.0)),
                min_size=2, max_size=20))
def test_dot_product_chord_within_quarter_margin(latlon):
    # 2 - 2 u.v, as the prefilter takes the squared chord, against the
    # squared difference of the same rounded unit vectors: the dot product
    # rounding and the unit-norm defect that the margin proof bounds
    d = SurveyDiameter()
    d.update([Observation(t=0.0, pos=GeoPoint(lat, lon), rssi=-60.0) for lat, lon in latlon])
    u = d.unit
    by_dot = 2.0 - 2.0 * (u @ u.T)
    by_diff = ((u[:, None, :] - u[None, :, :]) ** 2).sum(axis=2)
    assert np.abs(by_dot - by_diff).max() < CHORD2_MARGIN / 4


coords = st.floats(-5000.0, 5000.0, allow_nan=False, allow_infinity=False)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(coords, coords), min_size=n, max_size=n),
    st.lists(st.tuples(coords, coords), min_size=1, max_size=min(n, 8)))))
def test_lloyd_matches_mask_and_mean_loop(case):
    pts, centers = (np.asarray(a, dtype=float) for a in case)
    for bound in PATH_BOUNDS:
        with kmeans_path(bound):
            assert_same_lloyd(_lloyd(pts, centers.copy()), lloyd_oracle(pts, centers.copy()))


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(coords, coords), min_size=n, max_size=n),
    st.integers(1, n), st.integers(0, 2**32 - 1))))
def test_kmeans_pp_init_matches_row_sum_oracle(case):
    pts, k, seed = case
    pts = np.asarray(pts, dtype=float)
    want = kmeans_pp_oracle(pts, k, np.random.default_rng(seed))
    for bound in PATH_BOUNDS:
        with kmeans_path(bound):
            got = _kmeans_pp_init(pts, k, np.random.default_rng(seed))
        assert np.array_equal(bits(got), bits(want))


def test_lloyd_reseeds_empty_cluster_like_the_loop():
    pts = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [10.0, 10.0]])
    centers = np.array([[0.0, 0.0], [1000.0, 1000.0], [-900.0, 50.0]])
    for bound in PATH_BOUNDS:
        with kmeans_path(bound):
            got = _lloyd(pts, centers.copy())
        assert_same_lloyd(got, lloyd_oracle(pts, centers.copy()))
        # both far centres start empty and are reseeded at the farthest point
        assert (got[0] == [10.0, 10.0]).all(axis=1).any()


@pytest.mark.parametrize("bound", PATH_BOUNDS)
def test_lloyd_runs_on_past_unchanged_labels_after_a_reseed(bound):
    # Lloyd may stop early on a step that changes no label only when the last
    # update reseeded no cluster: a reseeded centre is not its members' mean.
    # Here every update reseeds an empty third cluster and no step after the
    # second changes a label, so the loop runs on until that centre settles.
    pts = np.array([[0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    centers = np.zeros((3, 2))
    with kmeans_path(bound):
        got = _lloyd(pts, centers.copy())
    assert_same_lloyd(got, lloyd_oracle(pts, centers.copy()))


grid = st.integers(-6, 6).map(float)


@settings(max_examples=500, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(grid, grid), min_size=n, max_size=n),
    st.lists(st.tuples(grid, grid), min_size=1, max_size=min(n, 6)))))
def test_lloyd_exact_ties_on_integer_grid(case):
    # integer coordinates give exactly equal distances, so argmin's
    # first-index rule decides labels; both paths must reproduce it
    pts, centers = (np.asarray(a, dtype=float) for a in case)
    for bound in PATH_BOUNDS:
        with kmeans_path(bound):
            assert_same_lloyd(_lloyd(pts, centers.copy()), lloyd_oracle(pts, centers.copy()))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 30).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(grid, grid), min_size=n, max_size=n),
    st.integers(1, n), st.integers(0, 2**32 - 1))))
def test_kmeans_pp_draw_matches_rng_choice(case):
    # grid points repeat, so many weights are zero and some draws have total 0;
    # the draw must pick what rng.choice picks and use the same randomness,
    # leaving the generator in the same state. A margin of 1 certifies no
    # running-sum draw, so every weighted draw runs the exact CDF alone.
    pts, k, seed = case
    pts = np.asarray(pts, dtype=float)
    want_rng = np.random.default_rng(seed)
    want = kmeans_pp_oracle(pts, k, want_rng)
    for bound, margin in itertools.product(PATH_BOUNDS, (cluster.KMEANS_PP_MARGIN, 1.0)):
        rng = StubRng(np.random.default_rng(seed))
        with kmeans_path(bound), pytest.MonkeyPatch.context() as mp, exact_draws() as exact:
            mp.setattr(cluster, "KMEANS_PP_MARGIN", margin)
            got = _kmeans_pp_init(pts, k, rng)
        assert np.array_equal(bits(got), bits(want))
        assert rng.gen.bit_generator.state == want_rng.bit_generator.state
        if margin == 1.0:
            assert len(exact) == rng.randoms


@pytest.mark.parametrize("k", [1, 2, 7])
def test_kmeans_pp_init_computes_no_row_for_the_last_centre(monkeypatch, k):
    # on the pruned path each chosen centre's row is folded in just before the
    # next draw, so k centres take k - 1 rows: the last one no draw reads
    rows = []
    sq_dist = cluster._sq_dist
    monkeypatch.setattr(cluster, "_sq_dist", lambda *a: rows.append(a) or sq_dist(*a))
    pts = np.random.default_rng(k).uniform(-1000.0, 1000.0, size=(2, 100)).T
    with kmeans_path(0):
        _kmeans_pp_init(pts, k, np.random.default_rng(k))
    assert len(rows) == k - 1


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 40).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(coords, coords), min_size=n, max_size=n), st.integers(0, 2**32 - 1))))
def test_kmeans_pp_draw_at_every_cdf_boundary(case):
    # a uniform equal to a CDF entry, or one float either side of it, is where
    # the running-sum draw can disagree with the CDF; the index drawn must be
    # the CDF's (with KMEANS_PP_MARGIN = 0, this test fails)
    pts, seed = case
    pts = np.asarray(pts, dtype=float)
    first = np.random.default_rng(seed).integers(len(pts))
    d2 = np.sum((pts - pts[first]) ** 2, axis=1)
    if d2.sum() == 0.0:
        return
    cdf = (d2 / d2.sum()).cumsum()
    cdf /= cdf[-1]
    uniforms = {u for c in cdf.tolist() for u in (np.nextafter(c, -1.0), c, np.nextafter(c, 2.0))
                if 0.0 <= u < 1.0}
    for u in sorted(uniforms):
        want = pts[[first, choice_index(d2, u)]]
        for bound in PATH_BOUNDS:
            with kmeans_path(bound):
                got = _kmeans_pp_init(pts, 2, StubRng(np.random.default_rng(seed), [u]))
            assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("bound", PATH_BOUNDS)
def test_kmeans_pp_total_past_the_headroom_takes_the_exact_draw(bound):
    # weights near 1e302 sum to a finite total above KMEANS_PP_MAX_SUM: every
    # weighted draw runs the exact CDF, and picks what rng.choice picks
    pts = np.random.default_rng(5).uniform(-1e151, 1e151, size=(40, 2))
    want_rng = np.random.default_rng(5)
    want = kmeans_pp_oracle(pts, 5, want_rng)
    rng = StubRng(np.random.default_rng(5))
    with kmeans_path(bound), exact_draws() as exact:
        got = _kmeans_pp_init(pts, 5, rng)
    assert np.array_equal(bits(got), bits(want))
    assert rng.gen.bit_generator.state == want_rng.bit_generator.state
    assert len(exact) == rng.randoms == 4


@pytest.mark.parametrize("bound", PATH_BOUNDS)
def test_kmeans_pp_infinite_total_takes_the_exact_draw(bound):
    # squared distances past the float range make the total inf (numpy warns
    # of the overflow and of inf / inf): the draw runs the exact CDF, whose
    # nan entries put it at index 0, as before
    pts = np.random.default_rng(6).uniform(-1e155, 1e155, size=(40, 2))
    first = np.random.default_rng(6).integers(40)
    for u in (0.0, 0.5, np.nextafter(1.0, 0.0)):
        with np.errstate(over="ignore", invalid="ignore"):
            d2 = np.sum((pts - pts[first]) ** 2, axis=1)
            want = pts[[first, choice_index(d2, u)]]
            with kmeans_path(bound), exact_draws() as exact:
                got = _kmeans_pp_init(pts, 2, StubRng(np.random.default_rng(6), [u]))
        assert np.isinf(d2).any()
        assert np.array_equal(bits(got), bits(want))
        assert len(exact) == 1


@pytest.mark.parametrize("bound", PATH_BOUNDS)
def test_kmeans_reads_the_estimators_window_in_place_and_leaves_it(bound):
    # the kernels take x and y as views of the window the estimator carries as
    # (2, n) rows: they must not write into it, and must cluster it as they do
    # a contiguous (n, 2) copy
    xy = np.random.default_rng(5).uniform(-1000.0, 1000.0, size=(2, 150))
    before = xy.copy()
    with kmeans_path(bound):
        got = kmeans(xy.T, 9, 11)
        want = kmeans(np.ascontiguousarray(xy.T), 9, 11)
    assert np.array_equal(bits(xy), bits(before))
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.counts, want.counts)


# Scales whose squared distances are subnormal (1e-160 and 1e-156 m), meet
# the pruning floor (1e-150 m), or span about 1e6 m, and a survey-sized one.
scales = st.sampled_from([1e-160, 1e-156, 1e-152, 1e-150, 1e-148, 1e3, 1e6])
unit = st.one_of(st.floats(-1.0, 1.0), grid.map(lambda v: v / 6.0))


@settings(max_examples=300, deadline=None)
@given(scales, st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(unit, unit), min_size=n, max_size=n),
    st.lists(st.tuples(unit, unit), min_size=1, max_size=min(n, 8)))))
@example(1e-160, ([(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)] * 14,
                  [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (0.5, 0.5)]))
@example(1e6, ([(-1.0, -1.0), (1.0, 1.0), (0.25, -0.5), (-0.75, 0.5)] * 17,
               [(-1.0, -1.0), (1.0, 1.0), (0.25, -0.5), (-0.75, 0.5)]))
def test_lloyd_matches_loop_at_subnormal_and_continental_scales(scale, case):
    # squares that underflow to subnormals or zero, where only the floor
    # keeps the pruning test exact, and spreads of about 1e6 m, where the
    # relative margin must cover rounding of large distances and shifts
    pts, centers = (scale * np.asarray(a, dtype=float) for a in case)
    for bound in PATH_BOUNDS:
        with kmeans_path(bound):
            assert_same_lloyd(_lloyd(pts, centers.copy()), lloyd_oracle(pts, centers.copy()))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coords, coords), min_size=1, max_size=40),
       st.tuples(coords, coords))
def test_lloyd_single_centre(pts, center):
    pts, centers = np.asarray(pts, dtype=float), np.asarray([center], dtype=float)
    for bound in PATH_BOUNDS:
        with kmeans_path(bound):
            assert_same_lloyd(_lloyd(pts, centers.copy()), lloyd_oracle(pts, centers.copy()))


@pytest.mark.parametrize("cap", [1, 2, 3])
def test_lloyd_iteration_cap_matches_loop(monkeypatch, cap):
    # most random draws do not converge within the cap, so both loops stop
    # there and return the labels of the capped centres
    monkeypatch.setattr(cluster, "KMEANS_MAX_ITER", cap)
    rng = np.random.default_rng(cap)
    capped = 0
    for trial in range(40):
        n = int(rng.integers(2, 80))
        pts = rng.uniform(-1000.0, 1000.0, size=(n, 2))
        if trial % 2:
            pts = np.round(pts / 250.0)  # integer grid: exact ties
        centers = pts[rng.choice(n, size=int(rng.integers(1, min(n, 8) + 1)), replace=False)]
        want = lloyd_oracle(pts, centers.copy(), max_iter=cap)
        for bound in PATH_BOUNDS:
            with kmeans_path(bound):
                got = _lloyd(pts, centers.copy())
            assert_same_lloyd(got, want)
        capped += len(got[2]) == cap
    assert capped >= 20


@settings(max_examples=1000, deadline=None)
@given(st.sampled_from([1e-3, 1e-4, 1e-5, 1e-6, 1e-7, 1e-8, 1e-9, 1e-10]),
       st.lists(st.tuples(st.integers(-40, 40), st.integers(-40, 40)), min_size=1, max_size=40),
       st.lists(st.integers(0, 12), max_size=8))
def test_pruned_diameter_equals_full_matrix_at_fine_spacings(spacing, steps, cuts):
    # points on a fine lattice repeat exactly (duplicates) and give many
    # near-equal chords, the cases where chord pruning could cut too deep
    obs = [Observation(t=float(i), pos=GeoPoint(40.8 + a * spacing, 29.35 + b * spacing),
                       rssi=-60.0) for i, (a, b) in enumerate(steps)]
    d = SurveyDiameter()
    for new, kept in batches(obs, cuts):
        d.update(new)
        assert len(d.lat) == len(kept)
        if kept:
            assert d.value.hex() == diameter_oracle(kept).hex()


@pytest.mark.parametrize("fields, iterations, no_new_rows, clamped", [
    ({"ma": 20.0, "min_dbm": -46.0, "r_thresh": 1}, 38, 33, 5),  # acceptance flags
    ({"ma": 130.0}, 49, 0, 0)])
def test_estimator_k_equals_full_recompute_over_kept_rows(monkeypatch, fields, iterations,
                                                          no_new_rows, clamped):
    # the estimator folds each batch's new kept rows into its diameter; every
    # k-means call must still get the whole kept window and the k of a fresh
    # compute_k over it, also on iterations that keep no new row and where k
    # is clamped to the window's size
    sc = gtu_sim_scenario(seed=3)
    obs = simulate_observations(sc, sc.plan.path_length() / sc.plan.speed)
    cfg = EstimatorConfig(cal=calibration_from_tx(sc.tx, 100.0, sc.sigma_db), seed=3, **fields)
    est = Estimator(cfg)
    kmeans = cluster.kmeans
    calls = []

    def recorded(pts, k, seed):
        kept = [o for o in est.observations if o.rssi >= cfg.min_dbm]
        calls.append(((len(pts), k), (len(kept), cluster.compute_k(kept, cfg.ma))))
        return kmeans(pts, k, seed)

    monkeypatch.setattr(cluster, "kmeans", recorded)
    for o in obs:
        est.ingest(o)
    assert [got for got, _ in calls] == [want for _, want in calls]
    sizes = [n for (n, _), _ in calls]
    assert len(calls) == iterations
    assert sum(a == b for a, b in zip(sizes, sizes[1:])) == no_new_rows
    assert sum(k == n for (n, k), _ in calls) == clamped


def select_oracle(cs, obs, cal):
    """Per-cluster min over members, keyed by (-rssi, t)."""
    refs = []
    for c in cs.clusters:
        best = min(c, key=lambda i: (-obs[i].rssi, obs[i].t))
        refs.append((best, rssi_to_distance(obs[best].rssi, cal)))
    return refs


CAL = Calibration(d0=100.0, p0_dbm=-45.0, n=2.0)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 40).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(st.integers(-70, -60).map(float), st.integers(0, 2).map(float)),
             min_size=n, max_size=n),
    st.lists(st.integers(0, 4), min_size=n, max_size=n))))
def test_first_strongest_reference_selection_matches_min_loop(case):
    # rows in time order, as the estimator keeps them: timestamps advance by
    # 0, 1 or 2, and few distinct RSSI values force ties on both keys
    samples, assign = case
    times = np.cumsum([step for _, step in samples])
    obs = [Observation(t=float(t), pos=GeoPoint(40.8, 29.35), rssi=rssi)
           for (rssi, _), t in zip(samples, times)]
    labels = np.asarray(assign, dtype=np.intp)
    counts = np.bincount(labels, minlength=5)
    cs = ClusterSet(labels, counts, np.flatnonzero(counts))
    xy = np.arange(2.0 * len(obs)).reshape(-1, 2)
    rssi = np.array([o.rssi for o in obs])
    got = select_reference_nodes(cs, xy, rssi, CAL)
    want = select_oracle(cs, obs, CAL)
    assert got.tolist() == [[*xy[best].tolist(), distance] for best, distance in want]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 60).flatmap(lambda n: st.tuples(
    st.lists(st.tuples(coords, coords), min_size=n, max_size=n),
    st.integers(1, n), st.integers(0, 2**32 - 1))))
def test_kmeans_returns_a_partition(case):
    pts, k, seed = case
    for bound in PATH_BOUNDS:
        with kmeans_path(bound):
            cs = kmeans(np.asarray(pts, dtype=float), k, seed)
        members = [i for c in cs.clusters for i in c]
        assert sorted(members) == list(range(len(pts)))
        assert all(c and list(c) == sorted(c) for c in cs.clusters)
