import math
import re
import warnings

import numpy as np
import pytest

from uavloc.errors import DegenerateFitError
from uavloc.pathloss import (Calibration, TxParams, calibration_from_tx, fit_exponent,
                             friis_rssi, rssi_to_distance,
                             sample_shadowed_rssi)

TX_435 = TxParams(pt_dbm=20.0, gt_db=0.0, gr_db=0.0, wavelength_m=0.6897)


def test_friis_unit_log_argument():
    tx = TxParams(pt_dbm=0.0, gt_db=0.0, gr_db=0.0, wavelength_m=4.0 * math.pi)
    assert friis_rssi(tx, 1.0) == pytest.approx(0.0, abs=1e-12)


def test_friis_inverse_square_slope():
    drop = friis_rssi(TX_435, 100.0) - friis_rssi(TX_435, 200.0)
    assert drop == pytest.approx(20.0 * math.log10(2.0), abs=1e-12)


def test_friis_435mhz_at_100m():
    # hand evaluation: 20 + 20*log10(0.6897 / (400 pi)) = -45.211 dBm
    assert friis_rssi(TX_435, 100.0) == pytest.approx(-45.211, abs=0.1)


def test_friis_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        friis_rssi(TX_435, 0.0)
    with pytest.raises(ValueError):
        friis_rssi(TX_435, -5.0)


def test_inversion_at_reference_distance():
    cal = Calibration(d0=100.0, p0_dbm=-45.0, n=2.0)
    assert rssi_to_distance(-45.0, cal) == pytest.approx(100.0, rel=1e-12)


def test_inversion_decade():
    cal = Calibration(d0=10.0, p0_dbm=-40.0, n=2.0)
    assert rssi_to_distance(-60.0, cal) == pytest.approx(100.0, rel=1e-12)


def test_forward_inverse_round_trip():
    cal = calibration_from_tx(TX_435, d0=100.0)
    for d in np.logspace(1, 4, 50):
        d_back = rssi_to_distance(friis_rssi(TX_435, d), cal)
        assert d_back == pytest.approx(d, rel=1e-9)


def test_friis_strictly_decreasing():
    ds = np.logspace(0, 4, 100)
    rs = [friis_rssi(TX_435, d) for d in ds]
    assert all(a > b for a, b in zip(rs, rs[1:]))


def test_shadowing_sigma_zero_is_exact():
    # N(0, 0) draws are +0.0, and no Friis value is -0.0: friis_rssi's bits,
    # for a scalar and for every row of a column
    rng = np.random.default_rng(0)
    assert (sample_shadowed_rssi(TX_435, 250.0, 0.0, rng).hex()
            == friis_rssi(TX_435, 250.0).hex())
    d = np.random.default_rng(7).uniform(1e-3, 5e4, 2_000)
    got = sample_shadowed_rssi(TX_435, d, 0.0, rng)
    assert [v.hex() for v in got.tolist()] == [v.hex() for v in friis_rssi(TX_435, d).tolist()]


@pytest.mark.parametrize("sigma", [-1.0, math.nan])
def test_shadowing_rejects_negative_or_nan_sigma(sigma):
    with pytest.raises(ValueError, match="sigma"):
        sample_shadowed_rssi(TX_435, 250.0, sigma, np.random.default_rng(0))


def test_shadowing_deterministic_per_seed():
    a = sample_shadowed_rssi(TX_435, 250.0, 3.0, np.random.default_rng(99))
    b = sample_shadowed_rssi(TX_435, 250.0, 3.0, np.random.default_rng(99))
    assert a == b


def test_shadowing_sample_mean():
    rng = np.random.default_rng(5)
    sigma = 3.0
    vals = [sample_shadowed_rssi(TX_435, 250.0, sigma, rng) for _ in range(10_000)]
    mean_err = abs(np.mean(vals) - friis_rssi(TX_435, 250.0))
    assert mean_err < 3.0 * sigma / math.sqrt(10_000)


def test_column_forms_equal_scalar_calls_bitwise():
    # numpy's SIMD log10 gives some of these rows other bits than libm does
    d = np.random.default_rng(8).uniform(1e-3, 5e4, 20_000)
    want = [friis_rssi(TX_435, v).hex() for v in d.tolist()]
    assert [v.hex() for v in friis_rssi(TX_435, d).tolist()] == want
    for sigma in (0.0, 3.0):
        rng = np.random.default_rng(9)
        want = [sample_shadowed_rssi(TX_435, v, sigma, rng).hex() for v in d.tolist()]
        rng = np.random.default_rng(9)
        got = sample_shadowed_rssi(TX_435, d, sigma, rng)
        assert [v.hex() for v in got.tolist()] == want


@pytest.mark.parametrize("bad", [0.0, -5.0, math.nan])
def test_friis_column_rejects_first_nonpositive_distance(bad):
    d = np.array([10.0, 20.0, bad, -1.0, 0.0])
    with pytest.raises(ValueError, match=f"distance must be positive, got {bad}$"):
        friis_rssi(TX_435, d)
    with pytest.raises(ValueError, match=f"got {bad}$"):
        sample_shadowed_rssi(TX_435, d, 3.0, np.random.default_rng(0))


def test_fit_exponent_noiseless():
    truth = Calibration(d0=100.0, p0_dbm=-40.0, n=2.7)
    ds = np.logspace(1, 3, 40)
    samples = [(d, truth.p0_dbm - 10.0 * truth.n * math.log10(d / truth.d0)) for d in ds]
    cal = fit_exponent(samples, d0=100.0)
    assert cal.n == pytest.approx(2.7, abs=1e-9)
    assert cal.p0_dbm == pytest.approx(-40.0, abs=1e-9)
    assert cal.sigma_db < 1e-9


def test_fit_exponent_two_points_exact():
    samples = [(10.0, -30.0), (100.0, -55.0)]
    cal = fit_exponent(samples, d0=10.0)
    assert cal.sigma_db == 0.0
    assert cal.n == pytest.approx(2.5, abs=1e-12)


def test_fit_exponent_noisy_recovery():
    # Monte Carlo oracle (seed 42): recovered n is within 0.003 of truth;
    # assert the looser 0.15 bound
    rng = np.random.default_rng(42)
    ds = np.logspace(1, 3, 200)
    samples = [(d, -40.0 - 27.0 * math.log10(d / 100.0) + rng.normal(0.0, 3.0))
               for d in ds]
    cal = fit_exponent(samples, d0=100.0)
    assert abs(cal.n - 2.7) < 0.15
    assert 2.0 < cal.sigma_db < 4.0


def test_fit_exponent_degenerate():
    with pytest.raises(DegenerateFitError):
        fit_exponent([(100.0, -45.0), (100.0, -46.0)], d0=100.0)
    with pytest.raises(DegenerateFitError):
        fit_exponent([(100.0, -45.0)], d0=100.0)
    with pytest.raises(ValueError, match="distances must be positive"):
        fit_exponent([(0.0, -45.0), (100.0, -46.0)], d0=100.0)
    # d / d0 overflows (tiny d0) or underflows to zero (huge d0): no finite log
    for d0 in (1e-320, 1e308):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateFitError, match=re.escape(f"d0 = {d0} m")):
                fit_exponent([(1e-20, -45.0), (100.0, -46.0)], d0=d0)


def test_calibration_validation():
    with pytest.raises(ValueError):
        Calibration(d0=0.0, p0_dbm=-40.0, n=2.0)
    with pytest.raises(ValueError):
        Calibration(d0=100.0, p0_dbm=-40.0, n=0.3)
    with pytest.raises(ValueError):
        Calibration(d0=100.0, p0_dbm=-40.0, n=2.0, sigma_db=-1.0)
    for bad in ({"p0_dbm": math.nan}, {"p0_dbm": math.inf}, {"p0_dbm": -math.inf},
                {"sigma_db": math.nan}, {"sigma_db": math.inf}, {"d0": math.inf},
                {"d0": math.nan}):
        with pytest.raises(ValueError):
            Calibration(**{"d0": 100.0, "p0_dbm": -40.0, "n": 2.0, **bad})
    for bad in ({"wavelength_m": 0.0}, {"wavelength_m": -0.69}, {"wavelength_m": math.nan},
                {"pt_dbm": math.inf}, {"gt_db": math.nan}, {"gr_db": -math.inf}):
        with pytest.raises(ValueError, match="wavelength|link parameter"):
            TxParams(**{"pt_dbm": 20.0, "gt_db": 0.0, "gr_db": 0.0, "wavelength_m": 0.69,
                        **bad})



@pytest.mark.parametrize("p0, shown", [(1e300, "inf"), (-1e300, "0.0")])
def test_inversion_out_of_float_range_names_the_rssi(p0, shown):
    # a range that overflows, or underflows to zero, is no distance
    cal = Calibration(d0=100.0, p0_dbm=p0, n=2.0)
    with pytest.raises(ValueError) as e:
        rssi_to_distance(-60.5, cal)
    assert str(e.value) == f"rssi -60.5 dBm inverts to range {shown} m, not a positive finite distance"
