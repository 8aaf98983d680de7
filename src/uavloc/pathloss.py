"""Forward RF signal model and inverse distance estimation.

The forward model is free-space Friis (in decibel form) plus optional
log-normal shadowing; the inverse is the log-distance path-loss model
solved for distance with the noise term taken as zero.

The forward model takes a distance or a column of distances; each row of a
column gets the bits of the scalar call. Its log10 goes through libm row by
row, because numpy's SIMD np.log10 rounds some rows differently (see `geo`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import DegenerateFitError
from .geo import libm


@dataclass(frozen=True)
class Calibration:
    """Per-survey path-loss calibration.

    d0: reference distance in meters.
    p0_dbm: received power measured at d0.
    n: path-loss exponent (2 = free space).
    sigma_db: std-dev of the shadowing term in dB.
    """

    d0: float
    p0_dbm: float
    n: float
    sigma_db: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.d0, self.p0_dbm, self.n, self.sigma_db))):
            raise ValueError(f"non-finite calibration value in {self}")
        if not self.d0 > 0:
            raise ValueError(f"reference distance must be positive, got {self.d0}")
        if not 0.5 < self.n <= 8.0:
            raise ValueError(f"path-loss exponent {self.n} outside (0.5, 8]")
        if self.sigma_db < 0:
            raise ValueError(f"shadowing sigma must be >= 0, got {self.sigma_db}")


@dataclass(frozen=True)
class TxParams:
    """Transmitter/receiver link parameters for the free-space model."""

    pt_dbm: float
    gt_db: float
    gr_db: float
    wavelength_m: float

    def __post_init__(self):
        if not self.wavelength_m > 0:
            raise ValueError(f"wavelength must be positive, got {self.wavelength_m}")
        for v in (self.pt_dbm, self.gt_db, self.gr_db):
            if not math.isfinite(v):
                raise ValueError("non-finite link parameter")


def friis_rssi(tx: TxParams, d):
    """Free-space received power in dBm at distance d meters.

    d is a float or a column; a column raises on its first distance that is
    not positive.
    """
    flat = np.ravel(d)
    if not (flat > 0).all():
        raise ValueError(f"distance must be positive, got {flat[np.argmin(flat > 0)]}")
    log10 = partial(libm, math.log10) if np.ndim(d) else math.log10
    return tx.pt_dbm + tx.gt_db + tx.gr_db + 20.0 * log10(tx.wavelength_m / (4.0 * math.pi * d))


def rssi_to_distance(pr_dbm: float, cal: Calibration) -> float:
    """Invert the log-distance model: distance in meters for a received power.

    The shadowing term is taken as zero (maximum-likelihood point estimate).
    Raises ValueError, naming the RSSI, when the range is not a positive
    finite float: a calibration far enough from the reading overflows it
    or underflows it to zero.
    """
    try:
        d = cal.d0 * 10.0 ** ((-pr_dbm + cal.p0_dbm) / (10.0 * cal.n))
    except OverflowError:
        d = math.inf
    if not 0.0 < d < math.inf:
        raise ValueError(f"rssi {pr_dbm} dBm inverts to range {d} m, "
                         f"not a positive finite distance")
    return d


def sample_shadowed_rssi(tx: TxParams, d, sigma_db: float, rng: np.random.Generator):
    """Draw shadowed RSSI: friis_rssi plus N(0, sigma_db^2) per distance.

    For a column of n distances the n normals come from one rng.normal call,
    which gives the values, in order, of n scalar calls.
    """
    if not sigma_db >= 0:
        raise ValueError(f"sigma must be >= 0, got {sigma_db}")
    base = friis_rssi(tx, d)
    if sigma_db == 0.0:
        return base
    return base + rng.normal(0.0, sigma_db, size=np.shape(base) or None)


def calibration_from_tx(tx: TxParams, d0: float, sigma_db: float = 0.0) -> Calibration:
    """Calibration exactly consistent with the free-space model (n = 2)."""
    return Calibration(d0=d0, p0_dbm=friis_rssi(tx, d0), n=2.0, sigma_db=sigma_db)


def fit_exponent(samples, d0: float) -> Calibration:
    """Fit p0 and n from (distance_m, rssi_dbm) pairs by least squares.

    Regresses rssi = p0 - 10*n*log10(d/d0). Needs at least two samples at
    two distinct distances, and raises DegenerateFitError, naming d0, when
    some d / d0 leaves float range. The returned sigma_db is the residual
    std-dev.
    """
    if len(samples) < 2:
        raise DegenerateFitError(f"need >= 2 calibration samples, got {len(samples)}")
    d = np.asarray([s[0] for s in samples], dtype=float)
    pr = np.asarray([s[1] for s in samples], dtype=float)
    if np.any(d <= 0):
        raise ValueError("calibration distances must be positive")
    with np.errstate(all="ignore"):  # d / d0 past float range: raised just below
        logd = np.log10(d / d0)
    if not np.isfinite(logd).all():
        raise DegenerateFitError(f"log10(d / d0) is not finite for d0 = {d0} m")
    if np.ptp(logd) == 0.0:
        raise DegenerateFitError("all calibration samples at the same distance")
    # pr = p0 + (-10 n) * logd
    coeffs, *_ = np.linalg.lstsq(np.column_stack([np.ones_like(logd), logd]), pr, rcond=None)
    p0, slope = coeffs
    n = -slope / 10.0
    resid = pr - (p0 + slope * logd)
    dof = len(samples) - 2
    sigma = float(np.sqrt(np.sum(resid ** 2) / dof)) if dof > 0 else 0.0
    return Calibration(d0=d0, p0_dbm=float(p0), n=float(n), sigma_db=sigma)

