"""Golden reports: `uavloc estimate` output for gtu-sim seed 0 must stay
byte-identical. The digests were recorded before the estimator carried its
kept samples, projections and survey diameter across batches; a change that
moves any reported bit must say so and re-record them.
"""

import hashlib

import pytest

from uavloc.io_cli import main

GOLDEN = {
    "acceptance": (["--ma", "20", "--min-rssi", "-46", "--r-thresh", "1"],
                   "6ab3f7aede57d3c185b07708b4ed923fe5211f7c9f17e0455f3e682f2ba7dae6"),
    "default": ([], "205072e4ab01a1d6f5add0d61727f0e3d5833cf50c1057c94b4ca2d8efa2718a"),
}


@pytest.fixture(scope="module")
def gtu_sim_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "gtu-sim-0.csv"
    assert main(["simulate", "--scenario", "gtu-sim", "--seed", "0", "--out", str(path)]) == 0
    return path


@pytest.mark.parametrize("flags", sorted(GOLDEN))
def test_estimate_report_byte_identical(gtu_sim_log, tmp_path, flags):
    argv, digest = GOLDEN[flags]
    out = tmp_path / "report.json"
    assert main(["estimate", "--obs", str(gtu_sim_log), "--out", str(out)] + argv) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
