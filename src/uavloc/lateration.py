"""Linearized multilateration solved by SVD least squares.

Each reference node with planar position (x_i, y_i) and distance d_i
contributes one circle equation (x - x_i)^2 + (y - y_i)^2 = d_i^2.
Expanding and lifting s = x^2 + y^2 gives the linear row

    (1, -2 x_i, -2 y_i) . (s, x, y) = d_i^2 - x_i^2 - y_i^2

which is solved in the least-squares sense for all rows at once.

The estimator carries each iteration's anchors as one (m, 3) float array of
(x, y, range) rows, and `estimate_position` solves from its columns with no
per-anchor object; `build_system` takes a list of `ReferenceNode`s instead,
and both go through `lifted_system`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, InsufficientReferencesError
from .geo import GeoPoint, PlanarPoint, unproject

SV_CUTOFF = 1e-10  # singular values below cutoff * s_max count as zero


@dataclass(frozen=True)
class LinearSystem:
    a: np.ndarray  # (M, 3)
    b: np.ndarray  # (M,)


@dataclass(frozen=True)
class LaterationSolution:
    """Solution vector (s, x, y) plus solve diagnostics.

    s is the lifted unknown x^2 + y^2; kept only as a consistency check,
    never used to re-derive the position. residual_rms is ||A v - b||_2 / sqrt(M)
    so that solves over different row counts are comparable.
    """

    s: float
    x: float
    y: float
    residual_rms: float
    condition: float


def lifted_system(anchors: np.ndarray) -> LinearSystem:
    """The lifted system of an (m, 3) array of (x, y, range) anchor rows, one
    row (1, -2 x, -2 y) = d^2 - x^2 - y^2 per anchor; every solve builds its
    system here. At least three anchors are needed."""
    if len(anchors) < 3:
        raise InsufficientReferencesError(
            f"multilateration needs >= 3 reference nodes, got {len(anchors)}")
    a = np.ones((len(anchors), 3))
    np.multiply(anchors[:, :2], -2.0, out=a[:, 1:])
    sq = anchors * anchors
    return LinearSystem(a=a, b=sq[:, 2] - sq[:, 0] - sq[:, 1])


def build_system(refs) -> LinearSystem:
    """Assemble the linear system from at least three ReferenceNodes."""
    return lifted_system(np.array([(r.pos_planar.x, r.pos_planar.y, r.distance) for r in refs],
                                  dtype=float))


def solve_svd(sys: LinearSystem) -> LaterationSolution:
    """Minimum-norm least-squares solution of A v = b via SVD.

    The rank, condition and residual norm are taken on Python floats; the
    norm is sqrt(r . r), which is what np.linalg.norm computes for a 1-D
    float vector.
    """
    u, sv, vt = np.linalg.svd(sys.a, full_matrices=False)
    s = sv.tolist()
    condition = s[0] / s[-1] if s[-1] > 0 else math.inf
    rank = sum(v > SV_CUTOFF * s[0] for v in s)
    if rank < 3:
        raise DegenerateGeometryError(
            f"reference geometry rank {rank} < 3 (collinear anchors?), "
            f"condition {condition:.3g}", condition=condition)
    v = vt.T @ ((u.T @ sys.b) / sv)
    r = sys.a @ v - sys.b
    return LaterationSolution(*v.tolist(), math.sqrt(r.dot(r)) / math.sqrt(len(r)), condition)


def estimate_position(anchors: np.ndarray, origin: GeoPoint):
    """Solve the multilateration system of an (m, 3) array of (x, y, range)
    anchor rows and map the result back to WGS84.

    Returns (estimate, residual_rms, condition). A solution that does not map
    to a valid coordinate (far off through ill-conditioned anchors) raises
    DegenerateGeometryError, as a rank-deficient system does.
    """
    sol = solve_svd(lifted_system(anchors))
    try:
        estimate = unproject(origin, PlanarPoint(sol.x, sol.y))
    except ValueError as e:
        raise DegenerateGeometryError(
            f"solution ({sol.x:.6g}, {sol.y:.6g}) m off the map ({e}), "
            f"condition {sol.condition:.3g}", condition=sol.condition) from e
    return estimate, sol.residual_rms, sol.condition
