import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uavloc.geo import (EARTH_RADIUS_M, MAX_PROJECTION_RANGE_M, GeoPoint, PlanarPoint,
                        haversine, haversine_columns, project, unproject, unproject_columns)


def test_geopoint_bounds():
    with pytest.raises(ValueError):
        GeoPoint(91.0, 0.0)
    with pytest.raises(ValueError):
        GeoPoint(0.0, 181.0)
    with pytest.raises(ValueError):
        GeoPoint(float("nan"), 0.0)
    for x, y in ((math.nan, 0.0), (0.0, math.inf), (-math.inf, 1.0)):
        with pytest.raises(ValueError, match="non-finite planar point"):
            PlanarPoint(x, y)


def test_haversine_identity():
    p = GeoPoint(40.8, 29.35)
    assert haversine(p, p) == 0.0


def test_haversine_one_degree_equator():
    # oracle: spherical law of cosines, R = 6 371 000 m -> 111 194.9266 m
    d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 1.0))
    assert abs(d - 111194.9266) < 1.0


def test_haversine_antipodal():
    d = haversine(GeoPoint(0.0, 0.0), GeoPoint(0.0, 180.0))
    assert abs(d - math.pi * EARTH_RADIUS_M) < 1.0


def test_haversine_symmetric():
    rng = np.random.default_rng(7)
    for _ in range(50):
        a = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        b = GeoPoint(rng.uniform(-80, 80), rng.uniform(-179, 179))
        assert haversine(a, b) == haversine(b, a)
        assert haversine(a, b) >= 0.0


def test_project_origin_is_zero():
    o = GeoPoint(40.8, 29.35)
    x, y = project(o, o.lat, o.lon)
    assert x == 0.0 and y == 0.0


def test_project_equator_milli_degree():
    x, y = project(GeoPoint(0.0, 0.0), 0.0, 0.001)
    assert abs(x - 111.19492664) < 1e-3
    assert abs(y) < 1e-9


def test_project_cos_scaling_at_60deg():
    x, y = project(GeoPoint(60.0, 0.0), 60.0, 0.001)
    assert abs(x - 55.59746332) < 1e-3
    assert abs(y) < 1e-9


def test_project_rejects_far_points():
    with pytest.raises(ValueError):
        project(GeoPoint(0.0, 0.0), 0.0, 2.0)


def test_unproject_origin():
    o = GeoPoint(40.8, 29.35)
    p = unproject(o, PlanarPoint(0.0, 0.0))
    assert p == o


def test_unproject_one_degree():
    p = unproject(GeoPoint(0.0, 0.0), PlanarPoint(111194.9266, 0.0))
    assert abs(p.lat) < 1e-9
    assert abs(p.lon - 1.0) < 1e-5


def test_round_trip_within_10km():
    o = GeoPoint(40.8081, 29.3560)
    rng = np.random.default_rng(11)
    for _ in range(200):
        p = GeoPoint(o.lat + rng.uniform(-0.05, 0.05), o.lon + rng.uniform(-0.05, 0.05))
        back = unproject(o, PlanarPoint(*project(o, p.lat, p.lon)))
        assert abs(back.lat - p.lat) < 1e-9
        assert abs(back.lon - p.lon) < 1e-9


@pytest.mark.parametrize("lon0", [179.9995, -179.9995])
def test_round_trip_across_antimeridian(lon0):
    # rows on both sides of +-180 degrees project the short way round, as far
    # from the origin as haversine puts them, and come back to themselves
    o = GeoPoint(10.0, lon0)
    rng = np.random.default_rng(19)
    lat = o.lat + rng.uniform(-0.01, 0.01, 200)
    lon = (lon0 + rng.uniform(-0.01, 0.01, 200) + 180.0) % 360.0 - 180.0
    assert (lon < 0.0).any() and (lon > 0.0).any()
    x, y = project(o, lat, lon)
    for la, lo, xi, yi in zip(lat.tolist(), lon.tolist(), x.tolist(), y.tolist()):
        h = haversine(o, GeoPoint(la, lo))
        assert abs(math.hypot(xi, yi) - h) <= 1e-3 * h
        back = unproject(o, PlanarPoint(xi, yi))
        assert abs(back.lat - la) < 1e-9
        assert abs(back.lon - lo) < 1e-9
    # near rows keep the scalar formula's bits, alone and beside a row across
    # the antimeridian (-lon0); by the pole, near rows lie up to half a turn
    # away in longitude
    inward = -math.copysign(1.0, lon0)
    pole = GeoPoint(89.99, lon0)
    for c, near in ((o, [(o.lat + 0.001, lon0), (o.lat - 0.002, lon0 + 0.003 * inward)]),
                    (pole, [(pole.lat, lon0 + turn * inward) for turn in (100.0, 150.0, 179.0)])):
        want = [tuple(v.hex() for v in scalar_project(c, *p)) for p in near]
        for rows in (near, near + [(c.lat, -lon0)]):
            x, y = project(c, *zip(*rows))
            assert [(a.hex(), b.hex()) for a, b in zip(x.tolist(), y.tolist())][:len(near)] == want
    # a point off the projection range past +-180 degrees is still refused
    with pytest.raises(ValueError, match="longitude"):
        unproject(o, PlanarPoint(math.copysign(2.0 * MAX_PROJECTION_RANGE_M, lon0), 0.0))


def test_planar_norm_tracks_haversine():
    # within 10 km of the origin, planar distance and haversine agree to 0.1%
    o = GeoPoint(40.8081, 29.3560)
    rng = np.random.default_rng(13)
    for _ in range(200):
        p = GeoPoint(o.lat + rng.uniform(-0.05, 0.05), o.lon + rng.uniform(-0.05, 0.05))
        h = haversine(o, p)
        if h < 1.0:
            continue
        x, y = project(o, p.lat, p.lon)
        assert abs(math.hypot(x, y) - h) / h < 1e-3


def scalar_project(o, lat, lon):
    """The one-point formula project() must reproduce on every row."""
    x = EARTH_RADIUS_M * math.radians(lon - o.lon) * math.cos(math.radians(o.lat))
    y = EARTH_RADIUS_M * math.radians(lat - o.lat)
    return x, y


# offsets up to 0.5 degree, all within 100 km of the origin below 60 degrees
offsets = st.floats(-0.5, 0.5)


@settings(max_examples=300, deadline=None)
@given(st.floats(-60.0, 60.0), st.floats(-179.0, 179.0),
       st.lists(st.tuples(offsets, offsets), min_size=1, max_size=40))
def test_batch_project_equals_scalar_formula_bitwise(lat0, lon0, rows):
    o = GeoPoint(lat0, lon0)
    lat = [lat0 + a for a, _ in rows]
    lon = [lon0 + b for _, b in rows]
    x, y = project(o, lat, lon)
    assert x.shape == y.shape == (len(rows),)
    for i, (la, lo) in enumerate(zip(lat, lon)):
        want = scalar_project(o, la, lo)
        assert (x[i].hex(), y[i].hex()) == (want[0].hex(), want[1].hex())
        one = project(o, la, lo)
        assert (float(one[0]).hex(), float(one[1]).hex()) == (want[0].hex(), want[1].hex())


def haversine_oracle(a, b):
    """The one-pair haversine formula, in math's scalar operations."""
    lat1 = math.radians(a.lat)
    lat2 = math.radians(b.lat)
    dlat = math.radians(b.lat - a.lat)
    dlon = math.radians(b.lon - a.lon)
    h = (math.sin(dlat / 2.0) ** 2
         + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2)
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(h)))


def unproject_oracle(o, x, y):
    """The one-point inverse projection, in math's scalar operations."""
    return (o.lat + math.degrees(y / EARTH_RADIUS_M),
            o.lon + math.degrees(x / (EARTH_RADIUS_M * math.cos(math.radians(o.lat)))))


@pytest.mark.parametrize("scale", [1e-4, 1e-2, 1.0, 30.0])
def test_column_forms_equal_scalar_formulas_bitwise(scale):
    # 10 000 rows per scale: numpy's SIMD arcsin, or x * x for a square,
    # gives some of them other bits than libm does
    rng = np.random.default_rng(17)
    b = GeoPoint(40.81, 29.36)
    lat = np.clip(b.lat + rng.uniform(-scale, scale, 10_000), -90.0, 90.0)
    lon = np.clip(b.lon + rng.uniform(-scale, scale, 10_000), -180.0, 180.0)
    want = [haversine_oracle(GeoPoint(la, lo), b).hex()
            for la, lo in zip(lat.tolist(), lon.tolist())]
    assert [v.hex() for v in haversine_columns(lat, lon, b).tolist()] == want
    assert [haversine(GeoPoint(la, lo), b).hex()
            for la, lo in zip(lat.tolist(), lon.tolist())] == want
    x, y = rng.uniform(-1e5, 1e5, (2, 1000)) * scale / 30.0
    got = unproject_columns(b, x, y)
    for i, (xi, yi) in enumerate(zip(x.tolist(), y.tolist())):
        want = tuple(v.hex() for v in unproject_oracle(b, xi, yi))
        assert (got[0][i].hex(), got[1][i].hex()) == want
        p = unproject(b, PlanarPoint(xi, yi))
        assert (p.lat.hex(), p.lon.hex()) == want


def test_projection_guard_names_first_far_row():
    # along the equator and the meridian from (0, 0), haversine is R * angle:
    # rows within 1 mm of the limit on either side, one far row among them
    # and a second, farther one after it
    o = GeoPoint(0.0, 0.0)

    def at(d, east):
        deg = math.degrees(d / EARTH_RADIUS_M)
        return (0.0, deg) if east else (deg, 0.0)

    limit = MAX_PROJECTION_RANGE_M
    inside = [at(limit - dd, east) for dd in (1e-3, 1e-6, 1e-9) for east in (True, False)]
    # about 90 km north-east: in range, though |dlat| + |dlon| reaches 127 km
    inside.append((math.degrees(63.6e3 / EARTH_RADIUS_M),) * 2)
    first_far, second_far = at(limit + 4e-4, False), at(1.2 * limit, True)
    assert all(haversine(o, GeoPoint(*p)) <= limit for p in inside)
    assert haversine(o, GeoPoint(*first_far)) > limit
    x, _ = project(o, *zip(*inside))
    assert len(x) == len(inside)
    rows = inside[:3] + [first_far] + inside[3:] + [second_far]
    d = haversine(o, GeoPoint(*first_far))
    with pytest.raises(ValueError) as exc:
        project(o, *zip(*rows))
    assert str(exc.value) == (f"point {d:.0f} m from origin exceeds projection range "
                              f"({limit:.0f} m)")
    with pytest.raises(ValueError, match="point 120000 m"):
        project(o, *zip(*(inside + [second_far])))
