"""WGS84 geodesy helpers: haversine distance and a local planar projection.

All distances are in meters on a spherical Earth of radius 6 371 000 m.
The projection is a local equirectangular plane about a survey origin,
accurate to well under 0.1% inside the survey areas this pipeline targets.
It takes latitude and longitude columns in degrees and returns x and y
columns, so a batch of samples is projected in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# project() refuses points beyond this range; the small-area linearization
# breaks down long before the numbers do.
MAX_PROJECTION_RANGE_M = 100_000.0


@dataclass(frozen=True)
class GeoPoint:
    """WGS84 latitude/longitude pair in degrees."""

    lat: float
    lon: float

    def __post_init__(self):
        if not (math.isfinite(self.lat) and math.isfinite(self.lon)):
            raise ValueError(f"non-finite coordinates: ({self.lat}, {self.lon})")
        if not -90.0 <= self.lat <= 90.0:
            raise ValueError(f"latitude {self.lat} out of [-90, 90]")
        if not -180.0 <= self.lon <= 180.0:
            raise ValueError(f"longitude {self.lon} out of [-180, 180]")


@dataclass(frozen=True)
class PlanarPoint:
    """Local planar coordinates: x meters east, y meters north of the origin."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError(f"non-finite planar point: ({self.x}, {self.y})")


def haversine(a: GeoPoint, b: GeoPoint) -> float:
    """Great-circle distance between two points in meters."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def project(origin: GeoPoint, lat, lon):
    """Project degree coordinates onto the local tangent plane about origin.

    lat and lon are scalars or 1-D columns of equal length; returns (x, y),
    meters east and north, of the same shape. Each row gets the bits of the
    scalar formula (np.radians and math.radians round alike).

    Raises ValueError if a row is more than 100 km from origin, where the
    small-area assumption no longer holds. R (|dlat| + |dlon|) is at least
    the length of a path along the meridian and then the parallel, so at
    least the great-circle distance; a row where it stays 1e-9 relative
    below the limit is within range. Every other row is decided by
    `haversine` itself, in row order, so the error names the first far row
    with the distance `haversine` gives.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    dlat = np.radians(lat - origin.lat)
    dlon = np.radians(lon - origin.lon)
    reach = np.abs(dlat) + np.abs(dlon)
    for i in np.flatnonzero(reach * EARTH_RADIUS_M >= MAX_PROJECTION_RANGE_M * (1.0 - 1e-9)):
        d = haversine(origin, GeoPoint(float(lat.flat[i]), float(lon.flat[i])))
        if d > MAX_PROJECTION_RANGE_M:
            raise ValueError(
                f"point {d:.0f} m from origin exceeds projection range "
                f"({MAX_PROJECTION_RANGE_M:.0f} m)")
    return EARTH_RADIUS_M * dlon * math.cos(math.radians(origin.lat)), EARTH_RADIUS_M * dlat


def unproject(origin: GeoPoint, q: PlanarPoint) -> GeoPoint:
    """Exact inverse of project() for the same origin."""
    lat = origin.lat + math.degrees(q.y / EARTH_RADIUS_M)
    lon = origin.lon + math.degrees(q.x / (EARTH_RADIUS_M * math.cos(math.radians(origin.lat))))
    return GeoPoint(lat, lon)
