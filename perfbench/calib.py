"""Machine-speed calibration for the benchmark's timings.

The benchmark runs on a few cores of a shared host whose speed drifts in
phases (a fixed job's time moves by 1.3x or more over tens of seconds, and
CPU time moves with wall time, so it is not time stolen by other processes
of the machine). A run that falls in a slow phase reads slow whatever the
code does. To measure the code and not the phase, the timed loop is cut into
short segments, and between segments a fixed job runs whose work never
changes: it lives here, not in the package. Each segment's seconds are scaled
by REF_S over the job's local time, so a timing reads as seconds on a machine
where the job takes REF_S. Work that slows with the machine slows the job as
well and cancels; a change to the package moves the timed work only.

The job mixes the three kinds of work the pipeline does: interpreter-bound
Python (parsing and ingest), many numpy calls on small arrays (Lloyd,
lateration) and pairwise distances over a point set (the survey diameter),
in row blocks small enough not to raise the run's peak memory.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

# Nominal job time, about the job's median on the machine the first baseline
# ran on (2 vCPUs, Python 3.11, numpy 2.4). A fixed unit, not a measurement:
# it must not change, or every scaled timing changes with it.
REF_S = 0.010
# Timed work between two runs of the job.
EVERY_S = 0.2
# Job runs on either side of a segment whose median gives its scale, so that
# one job run hit by a passing stall does not skew the segments next to it.
WINDOW = 2

_PTS = np.random.default_rng(20200421).normal(size=(400, 2))


def _job() -> float:
    s = 0.0
    d = {}
    for i in range(12000):
        s += (i * 1.5) % 7.0
        d[i & 255] = s
    a = _PTS[:40]
    for _ in range(40):
        s += float(((a[:, None, :] - a[None, :3, :]) ** 2).sum(-1).argmin(1).sum())
    for i in range(0, len(_PTS), 16):
        diff = _PTS[i:i + 16, None, :] - _PTS[None, :, :]
        s += float((diff * diff).sum(-1).max())
    return s


def calibrate() -> float:
    """Seconds one run of the fixed job takes now."""
    t0 = perf_counter()
    _job()
    return perf_counter() - t0


class Clock:
    """Timed work in segments separated by runs of the calibration job.

    `add` books seconds of timed work to the current segment as a piece
    (segment, seconds); `checkpoint`, called between timed calls, runs
    the job once the segment holds EVERY_S of work, and `cut` runs it now.
    After `cut` has closed the last segment, `scaled` gives the pieces' total
    in reference seconds.
    """

    def __init__(self):
        self.cal = [calibrate()]
        self.pending = 0.0

    def add(self, seconds: float, pieces: list) -> tuple[int, float]:
        """Book seconds to the current segment, merged into the last of pieces
        when that is in the same segment; returns the piece just booked."""
        seg = len(self.cal) - 1
        self.pending += seconds
        if pieces and pieces[-1][0] == seg:
            pieces[-1] = (seg, pieces[-1][1] + seconds)
        else:
            pieces.append((seg, seconds))
        return seg, seconds

    def checkpoint(self) -> None:
        if self.pending >= EVERY_S:
            self.cut()

    def cut(self) -> None:
        self.cal.append(calibrate())
        self.pending = 0.0

    def factor(self, seg: int) -> float:
        """Scale of segment seg, which lies between job runs seg and seg+1."""
        near = self.cal[max(0, seg + 1 - WINDOW):seg + 1 + WINDOW]
        return REF_S / statistics.median(near)

    def scaled(self, pieces) -> float:
        return sum(seconds * self.factor(seg) for seg, seconds in pieces)
