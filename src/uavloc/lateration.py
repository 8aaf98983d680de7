"""Linearized multilateration solved by SVD least squares.

Each reference node with planar position (x_i, y_i) and distance d_i
contributes one circle equation (x - x_i)^2 + (y - y_i)^2 = d_i^2.
Expanding and lifting s = x^2 + y^2 gives the linear row

    (1, -2 x_i, -2 y_i) . (s, x, y) = d_i^2 - x_i^2 - y_i^2

which is solved in the least-squares sense for all rows at once.
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


def build_system(refs) -> LinearSystem:
    """Assemble the linear system from at least three reference nodes."""
    if len(refs) < 3:
        raise InsufficientReferencesError(
            f"multilateration needs >= 3 reference nodes, got {len(refs)}")
    xs = np.asarray([r.pos_planar.x for r in refs], dtype=float)
    ys = np.asarray([r.pos_planar.y for r in refs], dtype=float)
    ds = np.asarray([r.distance for r in refs], dtype=float)
    a = np.column_stack([np.ones_like(xs), -2.0 * xs, -2.0 * ys])
    b = ds ** 2 - xs ** 2 - ys ** 2
    return LinearSystem(a=a, b=b)


def solve_svd(sys: LinearSystem) -> LaterationSolution:
    """Minimum-norm least-squares solution of A v = b via SVD."""
    u, sv, vt = np.linalg.svd(sys.a, full_matrices=False)
    condition = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    rank = int(np.sum(sv > SV_CUTOFF * sv[0]))
    if rank < 3:
        raise DegenerateGeometryError(
            f"reference geometry rank {rank} < 3 (collinear anchors?), "
            f"condition {condition:.3g}", condition=condition)
    v = vt.T @ ((u.T @ sys.b) / sv)
    residual_rms = float(np.linalg.norm(sys.a @ v - sys.b) / math.sqrt(len(sys.b)))
    return LaterationSolution(s=float(v[0]), x=float(v[1]), y=float(v[2]),
                              residual_rms=residual_rms, condition=condition)


def estimate_position(refs, origin: GeoPoint):
    """Solve the multilateration system and map the result back to WGS84.

    Returns (estimate, residual_rms, condition). A solution that does not map
    to a valid coordinate (far off through ill-conditioned anchors) raises
    DegenerateGeometryError, as a rank-deficient system does.
    """
    sol = solve_svd(build_system(refs))
    try:
        estimate = unproject(origin, PlanarPoint(sol.x, sol.y))
    except ValueError as e:
        raise DegenerateGeometryError(
            f"solution ({sol.x:.6g}, {sol.y:.6g}) m off the map ({e}), "
            f"condition {sol.condition:.3g}", condition=sol.condition) from e
    return estimate, sol.residual_rms, sol.condition
