"""Measurement pre-processing: RSSI thresholding, dynamic K-means over
observation positions, small-cluster elimination, and max-power
reference-node selection, which returns each iteration's anchors as one
(m, 3) array of (x, y, range) rows."""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .geo import EARTH_RADIUS_M, GeoPoint, PlanarPoint
from .pathloss import Calibration, rssi_to_distance

KMEANS_TOL_M = 1e-6
KMEANS_MAX_ITER = 100
# Relative and absolute widening of the Lloyd pruning test (see _lloyd). The
# floor keeps the test exact where squared distances would be subnormal.
LLOYD_MARGIN = 1e-9
LLOYD_FLOOR_M = 1e-150
# Windows of at most this many points cluster densely: k-means++ takes its
# rows from one n x n matrix and Lloyd gives every point a full row each step,
# unpruned. On small windows numpy's fixed cost per call outweighs the
# arithmetic the dense forms add; measured on estimator windows, the dense
# init + Lloyd is faster up to about 100 points and slower from 150 on. At 64
# the matrix stays within 32 KB. End to end, gtu-accept runs 1.11x slower per
# log without this rule (in-process, benchmark seed set 1, every iteration
# history bit-identical).
KMEANS_DENSE_MAX_N = 64
# Lloyd also runs dense, on any n, with at most this many centres: a full row
# is then so short that the pruning bookkeeping costs as much as the distances
# it saves, or more. Dense / pruned Lloyd time from k-means++ centres on 35
# gtu-sim and loiter estimator windows of more than 64 points (2 vCPUs,
# Python 3.11, numpy 2.4): k=2 0.80, k=3 0.99, k=4 1.03, k=5 1.05, k=8 1.30;
# on the loiter survey's own k=3 windows, 0.76. End to end (in-process,
# benchmark seed set 1), loiter runs 1.12x slower per log without this rule,
# and gtu-default 1.56x slower with Lloyd dense everywhere, unpruned.
LLOYD_DENSE_MAX_K = 3
# Squared-chord slack of the survey-diameter pruning, on the unit sphere
# (at least 0.16 um on the ground; see SurveyDiameter).
CHORD2_MARGIN = 1e-13


@dataclass(frozen=True, slots=True)
class Observation:
    """One telemetry sample: timestamp, GPS position, RSSI reading."""

    t: float
    pos: GeoPoint
    rssi: float

    def __post_init__(self):
        if not math.isfinite(self.t):
            raise ValueError(f"non-finite timestamp {self.t}")
        if not -200.0 <= self.rssi <= 50.0:
            raise ValueError(f"rssi {self.rssi} dBm outside [-200, 50]")


def rejected(t, lat, lon, rssi):
    """Mask of the rows of float columns that `Observation(t, GeoPoint(lat,
    lon), rssi)` rejects: the checks of both constructors in one numpy pass.
    |v| <= bound is false for nan and +-inf, so it also checks finiteness.
    It must change with those checks; tests/test_cluster.py holds it to them
    on every bound and one ulp past it."""
    return ~(np.isfinite(t) & (np.abs(lat) <= 90.0) & (np.abs(lon) <= 180.0)
             & (rssi >= -200.0) & (rssi <= 50.0))


def observations(t, lat, lon, rssi) -> list:
    """`Observation(t[i], GeoPoint(lat[i], lon[i]), rssi[i])` for every row of
    four columns, built without a constructor call per row. Each column is
    any 1-D float sequence, a list or an array; the rows store its values as
    Python floats (`np.asarray(...).tolist()`).

    The columns are screened first (`rejected`), and the first row flagged
    goes through the constructors, so the ValueError raised is theirs.
    Otherwise every row passes their checks, and its slots are written
    directly: a slot's descriptor sets it past the frozen dataclass's
    __setattr__, one C-level map per field.
    """
    cols = [np.asarray(c) for c in (t, lat, lon, rssi)]
    flagged = np.flatnonzero(rejected(*cols))
    t, lat, lon, rssi = (c.tolist() for c in cols)
    for i in flagged[:1]:
        Observation(t[i], GeoPoint(lat[i], lon[i]), rssi[i])  # raises
    pos, rows = (list(map(object.__new__, [cls] * len(t))) for cls in (GeoPoint, Observation))
    for slot, objs, col in ((GeoPoint.lat, pos, lat), (GeoPoint.lon, pos, lon),
                            (Observation.t, rows, t), (Observation.pos, rows, pos),
                            (Observation.rssi, rows, rssi)):
        deque(map(slot.__set__, objs, col), maxlen=0)
    return rows


@dataclass(frozen=True, eq=False)
class ClusterSet:
    """A k-means labelling and the clusters kept from it.

    labels[i] is row i's cluster id and counts[c] the size of cluster c;
    ids lists the kept clusters' ids, ascending. `kmeans` keeps every
    non-empty cluster, and `filter_clusters` narrows ids by count. Labels and
    counts are never copied or changed.
    """

    labels: np.ndarray
    counts: np.ndarray
    ids: np.ndarray

    @property
    def clusters(self) -> tuple:
        """One ascending tuple of member rows per kept cluster, in id order:
        a view derived from the labels, not used by the estimator."""
        return tuple(tuple(np.flatnonzero(self.labels == c).tolist()) for c in self.ids)


@dataclass(frozen=True)
class ReferenceNode:
    """One anchor as an object: its planar and geodetic position, RSSI and
    inverted distance. The estimator carries anchors as array rows instead
    (`select_reference_nodes`); this type is the input of
    `lateration.build_system`."""

    pos_planar: PlanarPoint
    pos_geo: GeoPoint
    rssi: float
    distance: float

    def __post_init__(self):
        if not self.distance > 0:
            raise ValueError(f"reference distance must be positive, got {self.distance}")


def threshold_rssi(obs, min_dbm: float):
    """Keep observations with rssi >= min_dbm, preserving order."""
    return [o for o in obs if o.rssi >= min_dbm]


class SurveyDiameter:
    """Running maximum pairwise haversine distance of every row folded in.

    `update(rows)` folds in exactly the rows it is given, and keeps no cursor
    into the caller's list: a caller whose window grows by appending passes
    each call only the rows appended since the last, and a row passed twice
    is held twice (it cannot raise the maximum, but it counts in `len(lat)`).
    Max is order-free and the haversine expression gives the same bits for
    (i, j) and (j, i), so only the new rows' pairs need looking at. Most of
    those are pruned by squared chord length: each row is carried as a unit
    vector, one matmul gives the new x kept cosines g, and 2 - 2g is the
    squared chord, which is monotone in great-circle distance. A batch whose
    largest squared chord falls short of the running largest by more than
    CHORD2_MARGIN cannot raise the maximum, and returns at once. Otherwise
    only the pairs within CHORD2_MARGIN of the largest are passed to the
    haversine expression, and only the new rows whose own largest squared
    chord comes that close are searched for them. fl(2 - 2g) is monotone in
    g, so a row's largest squared chord is that of its smallest cosine, and
    the rows skipped hold no such pair.

    The margin bounds the error of a computed squared chord c2 against the
    exact |u - v|^2 of the radian coordinates, with eps = 2^-53. Each unit
    vector component is a product of sin/cos values within 4 ulp (8 eps
    relative) with one rounding, so it is within 17.01 eps relative, and the
    rounded vector u' is within 17.01 eps of u.
    (a) The 3-term dot product, in any order and with or without FMA, is
        within 3.01 eps |u'| |v'| of u'.v', so 2g is within 6.03 eps of
        2 u'.v', and 2 - 2g adds at most 4 eps of rounding: under 11 eps.
    (b) 2 - 2 u'.v' = |u' - v'|^2 + (1 - |u'|^2) + (1 - |v'|^2), and the
        unit-norm defect |1 - |u'|^2| is at most 2 (17.01 eps) + (17.01 eps)^2
        for each vector: under 69 eps.
    (c) | |u' - v'|^2 - |u - v|^2 | <= (|u' - u| + |v' - v|) (2 |u - v| + 34.02 eps)
        <= 34.02 eps (4 + 34.02 eps): under 137 eps.
    So c2 is off by less than 217 eps = 2.5e-14, and two such errors leave
    at least 5e-14 of the 1e-13 margin. Since the squared chord 4 sin^2(d / 2R)
    grows by at most 2/R per unit of ground distance d, a pruned pair is
    shorter than the pair holding the largest squared chord by more than
    R * 5e-14 / 2 = 0.16 um on the ground, far above the rounding of the
    haversine expression for any survey short of about 10 000 km. So a pruned
    pair never holds the maximum, and the result equals a full recompute over
    every row folded in bit for bit, whatever order or threading BLAS uses
    for g.
    """

    def __init__(self):
        self.lat = np.empty(0)
        self.lon = np.empty(0)
        self.unit = np.empty((0, 3))
        self.chord2 = 0.0  # largest squared chord seen, on the unit sphere
        self.value = 0.0

    def update(self, rows) -> float:
        if not rows:
            return self.value
        new_lat = np.radians([o.pos.lat for o in rows])
        new_lon = np.radians([o.pos.lon for o in rows])
        cos_lat = np.cos(new_lat)
        new_unit = np.column_stack([cos_lat * np.cos(new_lon), cos_lat * np.sin(new_lon),
                                    np.sin(new_lat)])
        lat = self.lat = np.concatenate([self.lat, new_lat])
        lon = self.lon = np.concatenate([self.lon, new_lon])
        unit = self.unit = np.concatenate([self.unit, new_unit])
        g = new_unit @ unit.T  # cosines, new rows x all rows
        row_chord2 = 2.0 - 2.0 * g.min(axis=1)  # each new row's largest squared chord
        self.chord2 = max(self.chord2, float(row_chord2.max()))
        rows = np.flatnonzero(row_chord2 >= self.chord2 - CHORD2_MARGIN)
        if not len(rows):
            return self.value
        r, j = np.nonzero(2.0 - 2.0 * g[rows] >= self.chord2 - CHORD2_MARGIN)
        i = rows[r]
        dlat = new_lat[i] - lat[j]
        dlon = new_lon[i] - lon[j]
        h = (np.sin(dlat / 2.0) ** 2
             + np.cos(new_lat[i]) * np.cos(lat[j]) * np.sin(dlon / 2.0) ** 2)
        d = float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, h))).max())
        self.value = max(self.value, d)
        return self.value


def compute_k(obs, ma: float, diameter: SurveyDiameter | None = None) -> int:
    """Cluster count: ceil(max pairwise distance / ma), clamped to [1, N].

    obs is folded into `diameter` (a fresh one when None), and the distance
    and N are over every row the diameter then holds. A caller whose window
    grows by appending passes the same `diameter` on every call with only the
    rows appended since the last, so each call pays only for those; with
    none, the call returns the window's k again. Raises when the diameter
    would hold no rows.
    """
    if diameter is None:
        diameter = SurveyDiameter()
    if not (obs or len(diameter.lat)):
        raise ValueError("need at least one observation")
    if not ma > 0:
        raise ValueError(f"ma must be positive, got {ma}")
    d_max = diameter.update(obs)
    # an ma small enough makes the quotient inf, which has no ceiling
    return max(1, math.ceil(min(d_max / ma, len(diameter.lat))))


def _sq_dist(ax, ay, bx, by, dx=None, dy=None):
    """Squared planar distance (ax - bx)^2 + (ay - by)^2, broadcast elementwise.

    The squares and their sum are taken in place, in the differences' arrays:
    new ones, or the buffers dx and dy when given (they may be bx and by).
    The result is in dx.
    """
    dx = np.subtract(ax, bx, out=dx)
    dx *= dx
    dy = np.subtract(ay, by, out=dy)
    dy *= dy
    dx += dy
    return dx


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of initial centers.

    Each weighted draw is rng.choice(n, p=d2 / d2.sum()) written out without
    re-validating p: the same CDF (add.accumulate is the sequential sum cumsum
    runs), built in one reused buffer, and the same single uniform, so the same
    index and the same generator state afterwards.

    The running minimum d2 starts at +inf, and each chosen centre's row is
    folded into it just before the next draw (min(inf, d) is d), so the last
    centre's row, which no draw reads, is never computed. A window of at most
    KMEANS_DENSE_MAX_N points takes each row from one n x n matrix; (x_c - x)^2
    has the bits of (x - x_c)^2. A larger window writes each row into one
    reused buffer.
    """
    n = len(pts)
    x, y = pts.T
    if n <= KMEANS_DENSE_MAX_N:
        row = _sq_dist(x[:, None], y[:, None], x, y).__getitem__
    else:
        buf, dy = np.empty(n), np.empty(n)

        def row(c):
            return _sq_dist(x, y, *pts[c].tolist(), buf, dy)
    chosen = [rng.integers(n)]
    d2 = np.full(n, np.inf)
    cdf = np.empty(n)
    for _ in range(1, k):
        np.minimum(d2, row(chosen[-1]), out=d2)
        total = d2.sum()
        if total == 0.0:
            c = rng.integers(n)
        else:
            np.divide(d2, total, out=cdf)
            np.add.accumulate(cdf, out=cdf)
            cdf /= cdf[-1]
            c = cdf.searchsorted(rng.random(), side="right")
        chosen.append(c)
    return pts[chosen]


def _lloyd(pts: np.ndarray, centers: np.ndarray):
    """Lloyd iterations; returns (centers, labels, sse_history).

    Each step labels every point against the current centres and stops once
    the last move was below KMEANS_TOL_M or KMEANS_MAX_ITER moves were made;
    otherwise it records the SSE and moves each centre to its members' mean.
    So the labels returned are those of the centres returned.

    Each point carries its exact squared distance to its own centre and a
    limit lim = (lower - LLOYD_FLOOR_M) / (1 + LLOYD_MARGIN), where lower is
    a lower bound on its distance to every other centre: the square root of
    its runner-up entry when it last got a full row of k distances. Each
    step lowers lim by the last move's largest centre shift times
    (1 + LLOYD_MARGIN). A point gets a full row only on the first step or
    when the square root of its own squared distance reaches lim; the others
    keep their labels. lim stays conservative: every distance, root, quotient
    and decrement in it rounds by about 1e-16 relative, far inside the 1e-9
    margin; the true bound falls by at most the true shift per step, and a
    decrement of shift alone would keep lim's scaling, so decrementing by
    shift * (1 + LLOYD_MARGIN) only widens the margin. Near-ties take the
    full row, so labels, centres and SSE are those of the plain loop bit for
    bit (argmin's first-index rule). The floor keeps the test exact where
    squared distances would be subnormal: a bound below it gives a negative
    lim, so the point gets a full row.

    The own distances, their roots and the test mask live in buffers made
    once per call and filled in place. The full rows are laid out (k, m),
    centres down and points along the contiguous axis, so argmin and min
    reduce over the k rows, and each point's own entry is reached by its
    flat index; (c - p)^2 has the bits of (p - c)^2.

    A window of at most KMEANS_DENSE_MAX_N points, or with at most
    LLOYD_DENSE_MAX_K centres, skips the bounds and their buffers: every
    point gets a full row on every step. There a step after the first that
    changes no label, where the last move emptied no cluster, stops once it
    has recorded its SSE: the next move would be zero and the next step would
    label alike, so the result and sse_history are those of running on, bit
    for bit.
    """
    k = len(centers)
    n = len(pts)
    x, y = pts.T
    cx, cy = centers.T
    dense = n <= KMEANS_DENSE_MAX_N or k <= LLOYD_DENSE_MAX_K
    if not dense:
        labels = np.empty(n, dtype=np.intp)
        nearest, root, lim = np.empty(n), np.empty(n), np.empty(n)
        mask = np.empty(n, dtype=bool)
        stale = cols = np.arange(n)
    settled = False
    sse_history = []
    shift = math.inf
    for step in range(KMEANS_MAX_ITER + 1):
        if dense:
            d2 = _sq_dist(cx[:, None], cy[:, None], x, y)
            own = d2.argmin(axis=0)
            # settled: no label moves, and the last update (its counts) emptied no cluster
            settled = step and counts.all() and (own == labels).all()
            labels = own
            nearest = d2.min(axis=0)
        else:
            if step:
                lim -= shift * (1.0 + LLOYD_MARGIN)
                cx.take(labels, out=nearest)
                cy.take(labels, out=root)
                _sq_dist(x, y, nearest, root, nearest, root)
                np.sqrt(nearest, out=root)
                stale = np.flatnonzero(np.greater_equal(root, lim, out=mask))
            m = len(stale)
            d2 = _sq_dist(cx[:, None], cy[:, None], x[stale], y[stale])
            own = d2.argmin(axis=0)
            labels[stale] = own
            flat = d2.reshape(-1)
            own *= m
            own += cols[:m]  # each point's own entry, as a flat index
            nearest[stale] = flat[own]
            flat[own] = np.inf
            lim[stale] = (np.sqrt(d2.min(axis=0)) - LLOYD_FLOOR_M) / (1.0 + LLOYD_MARGIN)
        if shift < KMEANS_TOL_M or step == KMEANS_MAX_ITER:
            break
        sse_history.append(float(nearest.sum()))
        if settled:
            # A fixed point: the centres are these very labels' means, so the
            # next update gives them again bit for bit, and its step these labels.
            break
        # bincount sums members in index order, as a per-cluster mean does
        counts = np.bincount(labels, minlength=k)
        sum_x = np.bincount(labels, weights=x, minlength=k)
        sum_y = np.bincount(labels, weights=y, minlength=k)
        # an empty cluster divides its zero sums by 1 and is reseeded below
        divisor = np.maximum(counts, 1)
        new_cx = sum_x / divisor
        new_cy = sum_y / divisor
        if not counts.all():
            # reseed empty clusters at the point farthest from its centroid
            empty = counts == 0
            far = np.argmax(nearest)
            new_cx[empty] = x[far]
            new_cy[empty] = y[far]
        shift = math.sqrt(_sq_dist(new_cx, new_cy, cx, cy).max())
        cx, cy = new_cx, new_cy
    return np.column_stack([cx, cy]), labels, sse_history


def kmeans(pts: np.ndarray, k: int, seed: int) -> ClusterSet:
    """Deterministic K-means over (n, 2) planar points (k-means++ init, Lloyd).

    Returns row i's cluster id as labels[i], each cluster's size, and every
    non-empty cluster kept. The kernels read the x and y columns as views,
    `x, y = pts.T`, so they are contiguous when pts is the transpose of a
    (2, n) array of x and y rows, as the estimator passes its window.
    """
    n = len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    _, labels, _ = _lloyd(pts, _kmeans_pp_init(pts, k, rng))
    counts = np.bincount(labels, minlength=k)
    return ClusterSet(labels, counts, np.flatnonzero(counts))


def filter_clusters(cs: ClusterSet, r_thresh: int) -> ClusterSet:
    """Keep the kept clusters with strictly more than r_thresh members."""
    return ClusterSet(cs.labels, cs.counts, cs.ids[cs.counts[cs.ids] > r_thresh])


def anchor_rows(xy: np.ndarray, rssi: list, cal: Calibration) -> np.ndarray:
    """The (m, 3) array of (x, y, range) anchor rows that `lateration`
    solves: the planar points xy, (m, 2), beside the ranges that the RSSI
    values, Python floats, invert to, taken in order.

    Raises ValueError at the first range that is not a positive finite float
    (see `rssi_to_distance`).
    """
    return np.column_stack([xy, [rssi_to_distance(r, cal) for r in rssi]])


def select_reference_nodes(cs: ClusterSet, xy: np.ndarray, rssi: np.ndarray,
                           cal: Calibration) -> np.ndarray:
    """One anchor row per kept cluster, in id order: its first strongest-RSSI
    member, as an (m, 3) array of (x, y, range) rows (see `anchor_rows`).

    Row i of the xy and rssi columns is one kept sample; xy holds the planar
    projections the clustering ran on. Rows must be in time order (t never
    decreasing), as the estimator keeps them. `np.maximum.at` by label gives
    each cluster's strongest RSSI, and `np.minimum.at` over the rows that
    equal it gives the first of them, with no sort. So among equally strong
    members the anchor is the earliest, and on equal timestamps the first in
    row order; +0.0 and -0.0 compare equal, so either sign matches.

    Raises ValueError when an anchor's RSSI inverts to a range that is not a
    positive finite float (see `rssi_to_distance`).
    """
    top = np.full(len(cs.counts), -np.inf)
    np.maximum.at(top, cs.labels, rssi)
    hits = np.flatnonzero(rssi == top[cs.labels])
    first = np.full(len(cs.counts), len(rssi))
    np.minimum.at(first, cs.labels[hits], hits)
    rows = first[cs.ids]
    return anchor_rows(xy[rows], rssi[rows].tolist(), cal)
