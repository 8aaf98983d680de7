"""Measurement pre-processing: RSSI thresholding, dynamic K-means over
observation positions, small-cluster elimination, and max-power
reference-node selection."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .geo import EARTH_RADIUS_M, GeoPoint, PlanarPoint
from .pathloss import Calibration, rssi_to_distance

KMEANS_TOL_M = 1e-6
KMEANS_MAX_ITER = 100
# Relative and absolute widening of the Lloyd pruning test (see _lloyd). The
# floor keeps the test exact where squared distances would be subnormal.
LLOYD_MARGIN = 1e-9
LLOYD_FLOOR_M = 1e-150
# Chord-length slack of the survey-diameter pruning, on the unit sphere
# (about 64 nm on the ground; see SurveyDiameter).
CHORD_MARGIN = 1e-14


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple  # one ascending tuple of member indices per cluster


@dataclass(frozen=True)
class ReferenceNode:
    """Strongest-RSSI member of a cluster, with its inverted distance."""

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
    """Running maximum pairwise haversine distance of an append-only
    observation list.

    `update(obs)` folds in obs[seen:], the rows appended since the last call.
    Max is order-free and the haversine expression gives the same bits for
    (i, j) and (j, i), so only the new rows' pairs need looking at. Most of
    those are pruned by chord length: each row is carried as a unit vector,
    and the chord between two unit vectors is monotone in their great-circle
    distance. A batch whose longest chord falls short of the running longest
    chord by more than CHORD_MARGIN cannot raise the maximum, and returns at
    once. Otherwise only the pairs within CHORD_MARGIN of the longest chord
    are passed to the haversine expression. The margin (about 64 nm on the
    ground) is above the rounding of both distances: a chord computed from
    sin/cos within 4 ulp is off by less than 4e-15, and the haversine rounding
    is far smaller for any survey short of about 10 000 km. So a pruned pair
    never holds the maximum, and the result equals a full recompute over obs
    bit for bit.
    """

    def __init__(self):
        self.lat = np.empty(0)
        self.lon = np.empty(0)
        self.unit = np.empty((3, 0))
        self.chord = 0.0  # longest chord seen, on the unit sphere
        self.value = 0.0

    def update(self, obs) -> float:
        seen = len(self.lat)
        if seen == len(obs):
            return self.value
        new_lat = np.radians([o.pos.lat for o in obs[seen:]])
        new_lon = np.radians([o.pos.lon for o in obs[seen:]])
        cos_lat = np.cos(new_lat)
        new_unit = np.stack([cos_lat * np.cos(new_lon), cos_lat * np.sin(new_lon),
                             np.sin(new_lat)])
        lat = self.lat = np.concatenate([self.lat, new_lat])
        lon = self.lon = np.concatenate([self.lon, new_lon])
        unit = self.unit = np.concatenate([self.unit, new_unit], axis=1)
        # squared chords, new rows x all rows, in two preallocated buffers
        c2 = np.zeros((len(new_lat), len(lat)))
        diff = np.empty_like(c2)
        for axis in range(3):
            np.subtract(new_unit[axis][:, None], unit[axis], out=diff)
            diff *= diff
            c2 += diff
        batch_chord = math.sqrt(c2.max())
        if batch_chord < self.chord - CHORD_MARGIN:
            return self.value
        self.chord = max(self.chord, batch_chord)
        i, j = np.nonzero(c2 >= max(0.0, self.chord - CHORD_MARGIN) ** 2)
        dlat = new_lat[i] - lat[j]
        dlon = new_lon[i] - lon[j]
        h = (np.sin(dlat / 2.0) ** 2
             + np.cos(new_lat[i]) * np.cos(lat[j]) * np.sin(dlon / 2.0) ** 2)
        d = float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, h))).max())
        self.value = max(self.value, d)
        return self.value


def compute_k(obs, ma: float, diameter: SurveyDiameter | None = None) -> int:
    """Cluster count: ceil(max pairwise distance / ma), clamped to [1, N].

    A caller whose obs only grows by appending passes the same `diameter`
    on every call, so each call pays only for the rows added since the last.
    """
    if not obs:
        raise ValueError("need at least one observation")
    if not ma > 0:
        raise ValueError(f"ma must be positive, got {ma}")
    if diameter is None:
        diameter = SurveyDiameter()
    d_max = diameter.update(obs)
    return max(1, min(len(obs), math.ceil(d_max / ma)))


def _columns(pts: np.ndarray):
    """Contiguous x and y columns of an (n, 2) array."""
    return np.ascontiguousarray(pts[:, 0]), np.ascontiguousarray(pts[:, 1])


def _sq_dist(ax, ay, bx, by):
    """Squared planar distance (ax - bx)^2 + (ay - by)^2, broadcast elementwise."""
    dx = ax - bx
    dy = ay - by
    return dx * dx + dy * dy


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of initial centers."""
    n = len(pts)
    x, y = _columns(pts)
    centers = np.empty((k, 2))
    centers[0] = pts[rng.integers(n)]
    d2 = _sq_dist(x, y, *centers[0])
    for j in range(1, k):
        total = d2.sum()
        if total == 0.0:
            centers[j] = pts[rng.integers(n)]
        else:
            # rng.choice(n, p=d2 / total) without re-validating p on every draw:
            # the same CDF and the same single uniform, so the same index and state
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            centers[j] = pts[cdf.searchsorted(rng.random(), side="right")]
        d2 = np.minimum(d2, _sq_dist(x, y, *centers[j]))
    return centers


def _lloyd(pts: np.ndarray, centers: np.ndarray):
    """Lloyd iterations; returns (centers, labels, sse_history).

    Each step labels every point against the current centres and stops once
    the last move was below KMEANS_TOL_M or KMEANS_MAX_ITER moves were made;
    otherwise it records the SSE and moves each centre to its members' mean.
    So the labels returned are those of the centres returned.

    Each point carries its exact distance to its own centre and a lower bound
    on its distance to every other one, lowered each step by the last move's
    largest centre shift. A point gets a full row of k distances only on the
    first step or when its own distance, widened by LLOYD_MARGIN, reaches the
    bound. The margin is far above the rounding of the distances and of the
    bound updates, and near-ties take the full row, so labels, centres and
    SSE are those of the plain loop bit for bit (argmin's first-index rule).
    """
    k = len(centers)
    n = len(pts)
    x, y = _columns(pts)
    cx, cy = _columns(centers)
    labels = np.empty(n, dtype=np.intp)
    nearest = np.empty(n)
    lower = np.empty(n)
    stale = np.arange(n)
    sse_history = []
    shift = math.inf
    for step in range(KMEANS_MAX_ITER + 1):
        if step:
            lower -= shift * (1.0 + LLOYD_MARGIN)
            nearest = _sq_dist(x, y, cx[labels], cy[labels])
            stale = np.flatnonzero(np.sqrt(nearest) * (1.0 + LLOYD_MARGIN) + LLOYD_FLOOR_M >= lower)
        if len(stale):
            d2 = _sq_dist(x[stale, None], y[stale, None], cx, cy)
            own = np.argmin(d2, axis=1)
            rows = np.arange(len(stale))
            labels[stale] = own
            nearest[stale] = d2[rows, own]
            d2[rows, own] = np.inf
            lower[stale] = np.sqrt(d2.min(axis=1))
        if shift < KMEANS_TOL_M or step == KMEANS_MAX_ITER:
            break
        sse_history.append(float(nearest.sum()))
        # bincount sums members in index order, as a per-cluster mean does
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        new_cx, new_cy = (np.divide(np.bincount(labels, weights=col, minlength=k), counts,
                                    out=np.empty(k), where=filled) for col in (x, y))
        if not filled.all():
            # reseed empty clusters at the point farthest from its centroid
            far = np.argmax(nearest)
            new_cx[~filled] = x[far]
            new_cy[~filled] = y[far]
        shift = np.sqrt(_sq_dist(new_cx, new_cy, cx, cy)).max()
        cx, cy = new_cx, new_cy
    return np.column_stack([cx, cy]), labels, sse_history


def kmeans(pts: np.ndarray, k: int, seed: int) -> ClusterSet:
    """Deterministic K-means over (n, 2) planar points (k-means++ init, Lloyd).

    Cluster members are ascending row indices into pts.
    """
    n = len(pts)
    if not 1 <= k <= n:
        raise ValueError(f"k={k} outside [1, {n}]")
    rng = np.random.default_rng(seed)
    _, labels, _ = _lloyd(pts, _kmeans_pp_init(pts, k, rng))
    # one stable argsort lists every cluster's members in index order
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels, minlength=k)).tolist()
    return ClusterSet(tuple(tuple(order[start:end])
                            for start, end in zip([0] + ends, ends) if end > start))


def filter_clusters(cs: ClusterSet, r_thresh: int) -> ClusterSet:
    """Keep clusters with strictly more than r_thresh members."""
    return ClusterSet(tuple(c for c in cs.clusters if len(c) > r_thresh))


def select_reference_nodes(cs: ClusterSet, obs, xy: np.ndarray, rssi: np.ndarray,
                           t: np.ndarray, cal: Calibration):
    """One reference node per cluster: the strongest-RSSI member.

    Ties are broken by earliest timestamp, then by member order. Row i of the
    xy, rssi and t columns belongs to obs[i]; xy holds the planar projections
    the clustering ran on. One lexsort over all members of all clusters, keyed
    by cluster, then -rssi, then t, puts each cluster's choice first in its
    run of members.
    """
    sizes = np.array([len(c) for c in cs.clusters], dtype=np.intp)
    idx = np.fromiter(chain.from_iterable(cs.clusters),
                      dtype=np.intp, count=int(sizes.sum()))
    group = np.repeat(np.arange(len(sizes)), sizes)
    order = np.lexsort((t[idx], -rssi[idx], group))
    best = idx[order[np.cumsum(sizes) - sizes]]
    refs = []
    for i, pos in zip(best.tolist(), xy[best].tolist()):
        o = obs[i]
        refs.append(ReferenceNode(
            pos_planar=PlanarPoint(*pos),
            pos_geo=o.pos,
            rssi=o.rssi,
            distance=rssi_to_distance(o.rssi, cal),
        ))
    return refs
