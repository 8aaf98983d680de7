import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from uavloc.cluster import ReferenceNode
from uavloc.errors import (DegenerateGeometryError, InsufficientReferencesError,
                           LocalizationError)
from uavloc.geo import GeoPoint, PlanarPoint, haversine, unproject
from uavloc.lateration import (SV_CUTOFF, build_system, estimate_position, lifted_system,
                               solve_svd)

ORIGIN = GeoPoint(40.8081, 29.3560)


def ref(x, y, d):
    return ReferenceNode(pos_planar=PlanarPoint(float(x), float(y)),
                         pos_geo=unproject(ORIGIN, PlanarPoint(float(x), float(y))),
                         rssi=-60.0, distance=float(d))


def anchor_array(refs):
    """The (m, 3) array of (x, y, range) rows that the estimator solves."""
    return np.array([(r.pos_planar.x, r.pos_planar.y, r.distance) for r in refs])


def refs_for_target(anchors, target):
    tx, ty = target
    return [ref(x, y, math.hypot(tx - x, ty - y)) for x, y in anchors]


def test_build_system_hand_expansion():
    refs = [ref(0, 0, math.sqrt(2)), ref(1, 0, 1), ref(0, 1, 1)]
    sys = build_system(refs)
    np.testing.assert_allclose(sys.a, [[1, 0, 0], [1, -2, 0], [1, 0, -2]], atol=1e-12)
    np.testing.assert_allclose(sys.b, [2, 0, 0], atol=1e-12)


def test_build_system_needs_three():
    with pytest.raises(InsufficientReferencesError):
        build_system([ref(0, 0, 1), ref(1, 0, 1)])


def test_solve_unit_square_target():
    refs = [ref(0, 0, math.sqrt(2)), ref(1, 0, 1), ref(0, 1, 1)]
    sol = solve_svd(build_system(refs))
    assert sol.x == pytest.approx(1.0, abs=1e-9)
    assert sol.y == pytest.approx(1.0, abs=1e-9)
    assert sol.s == pytest.approx(2.0, abs=1e-9)
    assert sol.residual_rms < 1e-9


def test_exact_square_system_zero_residual():
    refs = refs_for_target([(0, 0), (500, 0), (100, 400)], (200, 150))
    sol = solve_svd(build_system(refs))
    assert sol.residual_rms < 1e-9
    assert sol.x == pytest.approx(200.0, abs=1e-6)
    assert sol.y == pytest.approx(150.0, abs=1e-6)
    # lifted unknown consistency
    assert sol.s - (sol.x ** 2 + sol.y ** 2) == pytest.approx(0.0, abs=1e-6)


def test_collinear_anchors_degenerate():
    refs = refs_for_target([(0, 0), (1, 0), (2, 0)], (1, 1))
    with pytest.raises(DegenerateGeometryError) as exc:
        solve_svd(build_system(refs))
    assert exc.value.condition > 1e6


def test_duplicate_rows_harmless():
    anchors = [(0, 0), (500, 0), (100, 400)]
    refs = refs_for_target(anchors + anchors, (200, 150))
    sol = solve_svd(build_system(refs))
    assert sol.x == pytest.approx(200.0, abs=1e-6)
    assert sol.y == pytest.approx(150.0, abs=1e-6)


def test_translation_equivariance():
    anchors = [(0, 0), (500, 0), (100, 400), (300, 350)]
    target = (180, 220)
    sol = solve_svd(build_system(refs_for_target(anchors, target)))
    dx, dy = 1234.0, -789.0
    shifted = [(x + dx, y + dy) for x, y in anchors]
    sol2 = solve_svd(build_system(refs_for_target(shifted, (target[0] + dx, target[1] + dy))))
    assert sol2.x - sol.x == pytest.approx(dx, abs=1e-6)
    assert sol2.y - sol.y == pytest.approx(dy, abs=1e-6)


def test_random_exact_recovery():
    rng = np.random.default_rng(20)
    for _ in range(25):
        m = rng.integers(3, 9)
        anchors = rng.uniform(-1000, 1000, size=(m, 2))
        # reject nearly-collinear draws
        if np.linalg.matrix_rank(np.column_stack([np.ones(m), anchors]), tol=1e-6) < 3:
            continue
        target = rng.uniform(-800, 800, size=2)
        refs = refs_for_target(anchors, target)
        try:
            sol = solve_svd(build_system(refs))
        except DegenerateGeometryError:
            continue
        assert sol.x == pytest.approx(target[0], abs=1e-6)
        assert sol.y == pytest.approx(target[1], abs=1e-6)
        assert abs(sol.s - (sol.x ** 2 + sol.y ** 2)) < 1e-6


def test_residual_is_global_minimum():
    rng = np.random.default_rng(21)
    anchors = rng.uniform(-500, 500, size=(6, 2))
    refs = [ref(x, y, d) for (x, y), d in zip(anchors, rng.uniform(100, 800, 6))]
    sys = build_system(refs)
    sol = solve_svd(sys)
    v = np.array([sol.s, sol.x, sol.y])
    base = np.linalg.norm(sys.a @ v - sys.b)
    for _ in range(100):
        delta = rng.normal(0, 10, 3)
        assert np.linalg.norm(sys.a @ (v + delta) - sys.b) >= base - 1e-9


def test_estimate_position_round_trip():
    target_planar = (320.0, -210.0)
    anchors = [(0, 0), (600, 50), (150, 500), (-400, -300), (500, -450)]
    refs = refs_for_target(anchors, target_planar)
    est, residual, cond = estimate_position(anchor_array(refs), ORIGIN)
    truth = unproject(ORIGIN, PlanarPoint(*target_planar))
    assert haversine(est, truth) < 1.0
    assert residual < 1e-6
    assert cond >= 1.0


def test_estimate_position_insufficient():
    refs = refs_for_target([(0, 0), (500, 0)], (100, 100))
    with pytest.raises(InsufficientReferencesError):
        estimate_position(anchor_array(refs), ORIGIN)


def test_perturbed_distance_gives_positive_residual():
    anchors = [(0, 0), (500, 0), (100, 400), (300, 350)]
    refs = refs_for_target(anchors, (180, 220))
    bad = refs[:-1] + [ref(300, 350, refs[-1].distance * 1.1)]
    sol = solve_svd(build_system(bad))
    assert sol.residual_rms > 0.0


def test_printed_row_sign_variant_mirrors_y():
    # the row form (1, -2x, +2y) recovers the y-mirrored target; the
    # implemented form (1, -2x, -2y) recovers the true one
    anchors = [(0, 0), (500, 0), (100, 400), (-200, 300)]
    target = (180, 220)
    refs = refs_for_target(anchors, target)
    sys = build_system(refs)
    flipped = sys.a.copy()
    flipped[:, 2] = -flipped[:, 2]
    v = np.linalg.lstsq(flipped, sys.b, rcond=None)[0]
    assert v[1] == pytest.approx(target[0], abs=1e-6)
    assert v[2] == pytest.approx(-target[1], abs=1e-6)
    sol = solve_svd(sys)
    assert sol.y == pytest.approx(target[1], abs=1e-6)


def test_far_solution_is_degenerate_geometry():
    # three anchors 1 km apart on a line, the last 1 cm off it, all at one
    # range: rank 3, but the circumcentre lands about 1e8 m north, off the globe
    refs = [ref(0, 0, 548.0), ref(1000, 0, 548.0), ref(2000, 0.01, 548.0)]
    sol = solve_svd(build_system(refs))
    assert abs(sol.y) > 1e7
    with pytest.raises(DegenerateGeometryError, match="condition") as exc:
        estimate_position(anchor_array(refs), ORIGIN)
    assert exc.value.condition == sol.condition
    assert "latitude" in str(exc.value)


# Anchors and target lie in a box of half-width BOX_M, so every coordinate
# is at most BOX_M and every range at most 2 sqrt(2) BOX_M. To first order in
# eps = 2^-52, with kappa the condition number the solve reports:
# - b_i = d_i^2 - x_i^2 - y_i^2 carries at most 6 eps (d_i^2 + x_i^2 + y_i^2)
#   <= 60 eps BOX_M^2 of rounding (hypot, three squares, two subtractions).
#   The ones column gives sigma_max >= sqrt(m), so A's pseudo-inverse maps
#   it to at most 60 kappa eps BOX_M^2 in (s, x, y).
# - The SVD solve is backward stable, within 30 m eps ||A|| for m <= 8 rows,
#   which moves v = (s, x, y), |v| <= 3 BOX_M^2, by at most 720 kappa eps BOX_M^2.
# So the planar error is under 1000 kappa eps BOX_M^2. A solve that does not
# raise has kappa < 1 / SV_CUTOFF = 1e10, where kappa eps << 1 and the first
# order holds. unproject and haversine add under 1e-8 m near ORIGIN.
BOX_M = 1000.0
box = st.one_of(st.floats(-BOX_M, BOX_M),
                st.integers(-4, 4).map(lambda v: v * BOX_M / 4))  # collinear, repeated


@settings(max_examples=400, deadline=None)
@given(st.lists(st.tuples(box, box), min_size=3, max_size=8), st.tuples(box, box))
@example([(0.0, 0.0), (500.0, 0.0), (1000.0, 0.0)], (200.0, 300.0))
@example([(0.0, 0.0), (500.0, 0.0), (500.0, 0.0), (0.0, 0.0)], (200.0, 300.0))
@example([(-1000.0, -1000.0), (1000.0, -1000.0), (0.0, 1000.0)], (1000.0, 1000.0))
def test_exact_ranges_recover_target_or_raise(anchors, target):
    assume(all(tuple(a) != tuple(target) for a in anchors))  # ranges must be positive
    refs = refs_for_target(anchors, target)
    try:
        est, _, cond = estimate_position(anchor_array(refs), ORIGIN)
    except DegenerateGeometryError:
        return
    err = haversine(est, unproject(ORIGIN, PlanarPoint(*map(float, target))))
    assert err <= 1000.0 * cond * 2.0 ** -52 * BOX_M ** 2 + 1e-6


# Anchors near the origin, on a coarse grid (collinear and repeated rows) and
# far off; each range is the distance to a target near the origin, exact or
# scaled (solutions off the map among them), and positive.
near = st.floats(-2000.0, 2000.0)
coord = st.one_of(near, st.integers(-4, 4).map(lambda v: v * 500.0), st.floats(-1e7, 1e7))


@st.composite
def anchor_rows(draw):
    anchors = draw(st.lists(st.tuples(coord, coord), min_size=3, max_size=40))
    tx, ty = draw(near), draw(near)
    scale = st.one_of(st.just(1.0), st.floats(0.5, 2.0))
    return [(x, y, math.hypot(tx - x, ty - y) * draw(scale) or 1.0) for x, y in anchors]


def outcome(solve, rows):
    """The bits of (lat, lon, residual_rms, condition), or the error's type and text."""
    try:
        return [v.hex() for v in solve(rows)]
    except (LocalizationError, ValueError) as e:
        return type(e).__name__, str(e)


def via_array(rows):
    try:
        est, residual, cond = estimate_position(np.array(rows), ORIGIN)
    except DegenerateGeometryError as e:
        # an off-map solution wraps unproject's ValueError
        raise e.__cause__ or e
    return est.lat, est.lon, residual, cond


def via_nodes(rows):
    sol = solve_svd(build_system([ReferenceNode(PlanarPoint(x, y), ORIGIN, -60.0, d)
                                  for x, y, d in rows]))
    est = unproject(ORIGIN, PlanarPoint(sol.x, sol.y))
    return est.lat, est.lon, sol.residual_rms, sol.condition


@settings(max_examples=300, deadline=None)
@given(anchor_rows())
@example([(0.0, 0.0, 100.0), (500.0, 0.0, 200.0), (1000.0, 0.0, 300.0)])
@example([(0.0, 0.0, 548.0), (1000.0, 0.0, 548.0), (2000.0, 0.01, 548.0)])
def test_anchor_array_solves_like_reference_nodes(rows):
    # the estimator's array path against the gate's ReferenceNode path, bit
    # for bit or error for error
    assert outcome(via_array, rows) == outcome(via_nodes, rows)
    # the system and the solve's rank and residual against the same formulas
    # written with whole-array numpy calls
    anchors = np.array(rows)
    x, y, d = anchors.T
    sys_ = lifted_system(anchors)
    assert sys_.a.tobytes() == np.column_stack([np.ones_like(x), -2.0 * x, -2.0 * y]).tobytes()
    assert sys_.b.tobytes() == (d ** 2 - x ** 2 - y ** 2).tobytes()
    u, sv, vt = np.linalg.svd(sys_.a, full_matrices=False)
    rank = int(np.sum(sv > SV_CUTOFF * sv[0]))
    if rank < 3:
        with pytest.raises(DegenerateGeometryError, match=f"rank {rank} < 3"):
            solve_svd(sys_)
        return
    v = vt.T @ ((u.T @ sys_.b) / sv)
    residual = float(np.linalg.norm(sys_.a @ v - sys_.b) / math.sqrt(len(rows)))
    assert solve_svd(sys_).residual_rms.hex() == residual.hex()
