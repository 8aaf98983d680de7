"""Iterative localization loop.

Observations stream in; every batch_size samples an iteration runs the
threshold -> cluster -> multilateration pipeline over all samples collected
so far. The final answer is the estimate from the iteration with the
smallest least-squares residual.

Work that only grows with the window is carried across iterations: each
iteration thresholds only the samples that arrived since the last one,
projects the newly kept ones in one `project` call on their coordinate
columns, and appends them to the kept samples, to their planar positions and
to their RSSI column. The positions are one (2, N) array of x and y rows,
which k-means reads in place as contiguous columns. The survey diameter is
folded in the same way (see `cluster.SurveyDiameter`). Clustering, the size
filter, reference selection and the SVD solve run over all kept samples
every iteration. Reference selection reads the position and RSSI columns and
hands the solve one (m, 3) array of (x, y, range) anchor rows, so no
per-anchor object is built. The projection's origin is the first
observation's position.

`ingest` rejects a sample whose timestamp goes backwards, and kept samples
are appended in ingest order, so row order is time order. Reference
selection relies on that to break RSSI ties toward the earliest sample, and
needs no timestamp column.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import cluster as cl
from .errors import DegenerateGeometryError, NoEstimateError, ObservationOrderError
from .geo import GeoPoint, project
from .lateration import estimate_position
from .pathloss import Calibration

R_THRESH_ITERATION = "iteration"


@dataclass(frozen=True)
class EstimatorConfig:
    """Tuning knobs for the iterative estimator.

    r_thresh is either a fixed integer or the string "iteration", in which
    case the minimum cluster size grows with the iteration index. Every field
    is checked here, so that a run that starts never fails on its config: ma
    is a positive finite real, cal a Calibration, min_dbm a real that is not
    nan (either infinity is allowed), and batch_size, seed and an integer
    r_thresh are integers. No field may be a bool. Any integer seed is
    accepted, but only its low 32 bits are used (see `_iteration_seed`), so
    seeds that differ by a multiple of 2**32 run alike; the CLI takes only
    seeds in [0, 2**32).
    """

    ma: float
    cal: Calibration
    batch_size: int = 50
    min_dbm: float = -math.inf
    r_thresh: object = R_THRESH_ITERATION
    seed: int = 0

    def __post_init__(self):
        def integer(v):
            return isinstance(v, numbers.Integral)

        def real(v):
            return isinstance(v, numbers.Real)

        for name, ok, must in (
                ("ma", lambda v: real(v) and 0 < v < math.inf, "positive and finite"),
                ("cal", lambda v: isinstance(v, Calibration), "a Calibration"),
                ("batch_size", lambda v: integer(v) and v >= 1, "an integer >= 1"),
                ("min_dbm", lambda v: real(v) and not math.isnan(v), "a real, not nan"),
                ("r_thresh", lambda v: v == R_THRESH_ITERATION or integer(v) and v >= 0,
                 "'iteration' or an integer >= 0"),
                ("seed", integer, "an integer")):
            v = getattr(self, name)
            if isinstance(v, bool) or not ok(v):
                raise ValueError(f"{name} must be {must}, got {v!r}")

    def r_thresh_for(self, index: int) -> int:
        return index if self.r_thresh == R_THRESH_ITERATION else self.r_thresh


@dataclass(frozen=True)
class IterationResult:
    index: int
    n_obs: int
    status: str  # "ok" or "skipped"
    n_clusters_used: int = 0
    estimate: GeoPoint | None = None
    residual_rms: float | None = None
    condition: float | None = None
    reason: str | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class Estimator:
    """Single-owner accumulator of observations and iteration history."""

    def __init__(self, config: EstimatorConfig):
        self.config = config
        self.observations: list[cl.Observation] = []
        self.history: list[IterationResult] = []
        # carried across iterations; observations[:_seen] are folded in
        self._seen = 0
        self._kept: list[cl.Observation] = []
        self._xy = np.empty((2, 0))  # planar x and y rows of _kept
        self._rssi = np.empty(0)
        self._diameter = cl.SurveyDiameter()

    def ingest(self, o: cl.Observation) -> IterationResult | None:
        """Append one observation; run an iteration on each full batch."""
        obs = self.observations
        if obs and o.t < obs[-1].t:
            raise ObservationOrderError(f"timestamp {o.t} precedes last observation {obs[-1].t}")
        obs.append(o)
        if len(obs) % self.config.batch_size == 0:
            result = self.run_iteration()
            self.history.append(result)
            return result
        return None

    def run_iteration(self) -> IterationResult:
        """Run one full pipeline pass over all observations so far.

        A ValueError or DegenerateGeometryError from any stage, from the
        threshold through the solve, becomes a skipped result whose reason is
        the error's text; it is never raised. That covers too few clusters,
        degenerate geometry, a sample beyond the projection range and an
        anchor RSSI whose range is not a positive finite float. The
        projection raises before the carried state changes, so every later
        iteration meets an unprojectable sample again and skips too.
        """
        if not self.observations:
            raise ValueError("no observations ingested")
        cfg = self.config
        index = len(self.history) + 1
        n_obs = len(self.observations)

        def skipped(reason):
            return IterationResult(index=index, n_obs=n_obs, status="skipped", reason=reason)

        try:
            new_kept = cl.threshold_rssi(self.observations[self._seen:], cfg.min_dbm)
            if new_kept:
                x, y = project(self.observations[0].pos, [o.pos.lat for o in new_kept],
                               [o.pos.lon for o in new_kept])
                self._kept += new_kept
                self._xy = np.concatenate([self._xy, [x, y]], axis=1)
                self._rssi = np.concatenate([self._rssi, [o.rssi for o in new_kept]])
            self._seen = n_obs
            if not self._kept:
                return skipped("no observations above rssi threshold")
            k = cl.compute_k(self._kept, cfg.ma, self._diameter)
            cs = cl.kmeans(self._xy.T, k, _iteration_seed(cfg.seed, index))
            cs = cl.filter_clusters(cs, cfg.r_thresh_for(index))
            if len(cs.ids) < 3:
                return skipped(f"only {len(cs.ids)} clusters survive size filter")
            anchors = cl.select_reference_nodes(cs, self._xy.T, self._rssi, cfg.cal)
            estimate, rms, condition = estimate_position(anchors, self.observations[0].pos)
        except (ValueError, DegenerateGeometryError) as e:
            return skipped(str(e))
        return IterationResult(index=index, n_obs=n_obs, status="ok", n_clusters_used=len(anchors),
                               estimate=estimate, residual_rms=rms, condition=condition)

    def best_estimate(self) -> tuple[GeoPoint, IterationResult]:
        """Estimate from the ok iteration with minimum residual (ties: earliest)."""
        ok = [r for r in self.history if r.ok]
        if not ok:
            raise NoEstimateError("no successful iterations in history")
        best = min(ok, key=lambda r: (r.residual_rms, r.index))
        return best.estimate, best


def _iteration_seed(seed: int, index: int) -> int:
    """Independent, reproducible k-means seed per (run seed, iteration)."""
    return int(np.random.SeedSequence([seed & 0xFFFFFFFF, index]).generate_state(1)[0])
