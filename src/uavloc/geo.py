"""WGS84 geodesy helpers: haversine distance and a local planar projection.

All distances are in meters on a spherical Earth of radius 6 371 000 m.
The projection is a local equirectangular plane about a survey origin,
accurate to well under 0.1% inside the survey areas this pipeline targets.
It takes latitude and longitude columns in degrees and returns x and y
columns, so a batch of samples is projected in one call.

`haversine` and `unproject` also have column forms, `haversine_columns` and
`unproject_columns`, that give every row the bits of the scalar call. The
formula of each has one owner that serves both. Each row's sin, cos, asin
and square goes through libm, as the scalar form does: numpy's own SIMD
kernels (np.arcsin, np.log10, and x * x for x ** 2, which Python takes from
libm's pow) round some rows differently. Only + - * /, sqrt, min and the
degree/radian products run in numpy; v * _DEG and v * _RAD are the very
products math.degrees and math.radians compute.

`cluster.SurveyDiameter` keeps its own radians-first numpy haversine on
purpose: acceptance criterion 6 and the `diameter_oracle` of
tests/test_incremental.py pin its bits, which differ from this module's, so
it must not be merged into `_haversine`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from itertools import repeat

import numpy as np

EARTH_RADIUS_M = 6_371_000.0

# project() refuses points beyond this range; the small-area linearization
# breaks down long before the numbers do.
MAX_PROJECTION_RANGE_M = 100_000.0

_DEG = 180.0 / math.pi  # v * _DEG is math.degrees(v)
_RAD = math.pi / 180.0  # v * _RAD is math.radians(v)
_EARTH_DIAMETER_M = 2.0 * EARTH_RADIUS_M


def libm(f, v, *args):
    """f(row, *args) for each row of the float column v, as a float column.

    f is a libm function from math, or pow for a square, so each row gets
    the bits of the scalar call (see the module docstring).
    """
    return np.fromiter(map(f, v.tolist(), *map(repeat, args)), float, len(v))


# The haversine formula's row operations on columns; its scalar form takes
# math's own as defaults.
_COLUMN_OPS = dict(sin=partial(libm, math.sin), cos=partial(libm, math.cos),
                   asin=partial(libm, math.asin), pow=partial(libm, pow),
                   sqrt=np.sqrt, min=np.minimum)


@dataclass(frozen=True, slots=True)
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
    return _haversine(a.lat, a.lon, b)


def haversine_columns(lat, lon, b: GeoPoint):
    """haversine(GeoPoint(lat[i], lon[i]), b) for every row of the degree
    columns lat and lon, bit for bit."""
    return _haversine(lat, lon, b, **_COLUMN_OPS)


def _haversine(lat, lon, b: GeoPoint, sin=math.sin, cos=math.cos, asin=math.asin, pow=pow,
               sqrt=math.sqrt, min=min):
    """The haversine formula from (lat, lon) to b. The row operations are
    arguments, so that columns can pass theirs; as defaults they are also
    the scalar form's fastest lookups."""
    dlat = (b.lat - lat) * _RAD
    dlon = (b.lon - lon) * _RAD
    h = (pow(sin(dlat / 2.0), 2)
         + cos(lat * _RAD) * math.cos(b.lat * _RAD) * pow(sin(dlon / 2.0), 2))
    return _EARTH_DIAMETER_M * asin(min(1.0, sqrt(h)))


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
    with the distance `haversine` gives. A row in range across the
    antimeridian from origin, more than half a turn east or west of it, is
    projected the short way round; every other row keeps its bits.
    """
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    dlat = np.radians(lat - origin.lat)
    dlon = np.radians(lon - origin.lon)
    reach = np.abs(dlat) + np.abs(dlon)
    far = np.flatnonzero(reach * EARTH_RADIUS_M >= MAX_PROJECTION_RANGE_M * (1.0 - 1e-9))
    for i in far:
        d = haversine(origin, GeoPoint(float(lat.flat[i]), float(lon.flat[i])))
        if d > MAX_PROJECTION_RANGE_M:
            raise ValueError(
                f"point {d:.0f} m from origin exceeds projection range "
                f"({MAX_PROJECTION_RANGE_M:.0f} m)")
    if len(far):
        dlon = np.where(np.abs(dlon) > math.pi, dlon - np.copysign(2.0 * math.pi, dlon), dlon)
    return EARTH_RADIUS_M * dlon * math.cos(math.radians(origin.lat)), EARTH_RADIUS_M * dlat


def unproject(origin: GeoPoint, q: PlanarPoint) -> GeoPoint:
    """Exact inverse of project() for the same origin."""
    return GeoPoint(*unproject_columns(origin, q.x, q.y))


def unproject_columns(origin: GeoPoint, x, y):
    """(lat, lon) in degrees of planar x and y, floats or columns alike.

    A point within the projection range whose longitude lands past +-180
    degrees lies across the antimeridian and comes back by one turn; a point
    farther off keeps its longitude, so GeoPoint rejects it. Every other
    row keeps its bits, since lon - 0.0 is lon.
    """
    lon = origin.lon + x / (EARTH_RADIUS_M * math.cos(origin.lat * _RAD)) * _DEG
    turns = ((lon > 180.0) * 1 - (lon < -180.0)) * (x * x + y * y <= MAX_PROJECTION_RANGE_M ** 2)
    return origin.lat + y / EARTH_RADIUS_M * _DEG, lon - 360.0 * turns
