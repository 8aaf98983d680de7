"""Measurement pre-processing: RSSI thresholding, dynamic K-means over
observation positions, small-cluster elimination, and max-power
reference-node selection."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geo import EARTH_RADIUS_M, GeoPoint, PlanarPoint
from .pathloss import Calibration, rssi_to_distance

KMEANS_TOL_M = 1e-6
KMEANS_MAX_ITER = 100


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
class Cluster:
    centroid: PlanarPoint
    members: tuple  # indices into the clustered observation list


@dataclass(frozen=True)
class ClusterSet:
    clusters: tuple


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

    `update(obs)` folds in obs[seen:], the rows appended since the last call,
    by computing only their distances to every row. Max is order-free and the
    haversine expression gives the same bits for (i, j) and (j, i), so the
    result equals a full recompute over obs bit for bit.
    """

    def __init__(self):
        self.lat = np.empty(0)
        self.lon = np.empty(0)
        self.value = 0.0

    def update(self, obs) -> float:
        seen = len(self.lat)
        if seen == len(obs):
            return self.value
        new_lat = np.radians([o.pos.lat for o in obs[seen:]])
        new_lon = np.radians([o.pos.lon for o in obs[seen:]])
        lat = self.lat = np.concatenate([self.lat, new_lat])
        lon = self.lon = np.concatenate([self.lon, new_lon])
        dlat = new_lat[:, None] - lat[None, :]
        dlon = new_lon[:, None] - lon[None, :]
        h = (np.sin(dlat / 2.0) ** 2
             + np.cos(new_lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2)
        d = float(2.0 * EARTH_RADIUS_M * np.arcsin(np.sqrt(np.minimum(1.0, h))).max())
        self.value = max(self.value, d)
        return self.value


def max_pairwise_distance(obs) -> float:
    """Maximum pairwise haversine distance over observation positions."""
    return SurveyDiameter().update(obs)


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


def _kmeans_pp_init(pts: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: D^2-weighted sampling of initial centers."""
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


def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from each point to each center."""
    dx = pts[:, 0:1] - centers[:, 0]
    dy = pts[:, 1:2] - centers[:, 1]
    return dx * dx + dy * dy


def _lloyd(pts: np.ndarray, centers: np.ndarray):
    """Lloyd iterations; returns (centers, labels, sse_history)."""
    k = len(centers)
    rows = np.arange(len(pts))
    sse_history = []
    for _ in range(KMEANS_MAX_ITER):
        d2 = _sq_dists(pts, centers)
        labels = np.argmin(d2, axis=1)
        nearest = d2[rows, labels]
        sse_history.append(float(nearest.sum()))
        # bincount sums members in index order, as a per-cluster mean does
        counts = np.bincount(labels, minlength=k)
        filled = counts > 0
        new_centers = np.empty_like(centers)
        for axis in (0, 1):
            sums = np.bincount(labels, weights=pts[:, axis], minlength=k)
            new_centers[filled, axis] = sums[filled] / counts[filled]
        if not filled.all():
            # reseed empty clusters at the point farthest from its centroid
            new_centers[~filled] = pts[np.argmax(nearest)]
        shift = np.sqrt(np.sum((new_centers - centers) ** 2, axis=1)).max()
        centers = new_centers
        if shift < KMEANS_TOL_M:
            break
    labels = np.argmin(_sq_dists(pts, centers), axis=1)
    return centers, labels, sse_history


def kmeans(points, k: int, seed: int) -> ClusterSet:
    """Deterministic K-means over planar points (k-means++ init, Lloyd)."""
    if not 1 <= k <= len(points):
        raise ValueError(f"k={k} outside [1, {len(points)}]")
    pts = np.asarray([(p.x, p.y) for p in points], dtype=float)
    rng = np.random.default_rng(seed)
    centers, labels, _ = _lloyd(pts, _kmeans_pp_init(pts, k, rng))
    clusters = []
    for j in range(k):
        members = tuple(int(i) for i in np.flatnonzero(labels == j))
        if members:
            clusters.append(Cluster(PlanarPoint(*centers[j]), members))
    return ClusterSet(tuple(clusters))


def filter_clusters(cs: ClusterSet, r_thresh: int) -> ClusterSet:
    """Keep clusters with strictly more than r_thresh members."""
    return ClusterSet(tuple(c for c in cs.clusters if len(c.members) > r_thresh))


def select_reference_nodes(cs: ClusterSet, obs, points, cal: Calibration):
    """One reference node per cluster: the strongest-RSSI member.

    Ties are broken by earliest timestamp. points[i] must be the planar
    projection of obs[i] (the same coordinates the clustering ran on).
    """
    refs = []
    for c in cs.clusters:
        best = min(c.members, key=lambda i: (-obs[i].rssi, obs[i].t))
        o = obs[best]
        refs.append(ReferenceNode(
            pos_planar=points[best],
            pos_geo=o.pos,
            rssi=o.rssi,
            distance=rssi_to_distance(o.rssi, cal),
        ))
    return refs
