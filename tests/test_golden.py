"""Golden reports: `uavloc estimate` outputs must stay byte-identical.

GOLDEN pins the report for gtu-sim seed 0. The digests were recorded before
the estimator carried its kept samples, projections and survey diameter
across batches; a change that moves any reported bit must say so and
re-record them.

AGGREGATES pins every log and every report of three benchmark seed sets:
the sha256 of the logs' sha256 hex digests, concatenated in seed order, and
the same of the reports'. Each log is the one the benchmark writes for that
seed (`perfbench/workloads.py`), and each report is `uavloc estimate --truth
<log target> <workload flags>` on it. The log digests were recorded with the
per-sample simulator loop, before the simulator computed surveys as columns.
The loiter set clusters windows of more than 64 points into k = 3, so it
covers Lloyd's dense path above the window bound.

CLI_OUTPUTS pins the standard output of `baseline` and `calibrate` (each with
`--truth` at the log's target) and of `sweep-ma` (default `--ma-values`) on
the gtu-sim seed 0 log. Every number there is printed to 9 significant
digits, so the text does not depend on BLAS order or threading.
"""

import hashlib
import importlib.util
import sys
from pathlib import Path

import pytest

from uavloc.io_cli import main, parse_log

GOLDEN = {
    "acceptance": (["--ma", "20", "--min-rssi", "-46", "--r-thresh", "1"],
                   "6ab3f7aede57d3c185b07708b4ed923fe5211f7c9f17e0455f3e682f2ba7dae6"),
    "default": ([], "205072e4ab01a1d6f5add0d61727f0e3d5833cf50c1057c94b4ca2d8efa2718a"),
}

CLI_OUTPUTS = {
    "baseline": "baseline estimate: (40.8053851, 29.3596016) error 89.2714288 m\n",
    "calibrate": "# cal d0=100 p0=-45.5410938 n=1.97068534 sigma=2.99436062\n",
    "sweep-ma": ("ma_m,error_m\n50,177.416916\n70,521.42566\n90,525.5949\n110,631.182437\n"
                 "130,1000.8076\n150,887.794388\n170,1293.85857\n190,974.708199\n"),
}

# workload -> (log seeds 0 .. n-1, log aggregate digest, report aggregate digest)
AGGREGATES = {
    "gtu-accept": (20, "b054ad8222c2d5fa91bfdc816e6bd1ad4069928887d77250958e655428797c10",
                   "15e8b84e9720fc33fb43ecff6d64e9ba0e96c5de8448a016761418f5207902da"),
    "loiter": (20, "70c7c0ff8a32d59271cf553080cd7ccb13697586393687f67e625b666ace6827",
               "0f8a74ee873a60245e289c2649f3ab54d69fd55dfe0c155a9f1b4691bd4b2fd4"),
    "gtu-default": (3, "fa07be92551f33c7ca7d19ec3e61da3ada61a873cd28c6f0bc00af4a2ea0b0a4",
                    "e3675d3f9630966dbee5eda02521faf7592e4f4be0e52b688048229aaa00a7dd"),
}

WORKLOADS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def gtu_sim_log(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden") / "gtu-sim-0.csv"
    assert main(["simulate", "--scenario", "gtu-sim", "--seed", "0", "--out", str(path)]) == 0
    return path


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


@pytest.mark.parametrize("flags", sorted(GOLDEN))
def test_estimate_report_byte_identical(gtu_sim_log, tmp_path, flags):
    argv, digest = GOLDEN[flags]
    out = tmp_path / "report.json"
    assert main(["estimate", "--obs", str(gtu_sim_log), "--out", str(out)] + argv) == 0
    assert sha256(out) == digest


@pytest.mark.parametrize("command", sorted(CLI_OUTPUTS))
def test_cli_output_identical(gtu_sim_log, capsys, command):
    argv = [command, "--obs", str(gtu_sim_log)]
    if command != "sweep-ma":
        argv += ["--truth", parse_log(str(gtu_sim_log)).meta["target"]]
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == CLI_OUTPUTS[command]


@pytest.mark.parametrize("name", sorted(AGGREGATES))
def test_workload_reports_byte_identical(workloads, tmp_path, name):
    wl = workloads.WORKLOADS[name]
    logs, want_logs, want_reports = AGGREGATES[name]
    log_digests, report_digests = [], []
    for seed in range(logs):
        log, report = str(tmp_path / f"{seed}.csv"), str(tmp_path / f"{seed}.json")
        workloads.write_survey_log(wl, seed, log)
        log_digests.append(sha256(log))
        argv = ["estimate", "--obs", log, "--out", report,
                "--truth", parse_log(log).meta["target"]] + wl.cli_flags()
        assert main(argv) == 0
        report_digests.append(sha256(report))
    assert hashlib.sha256("".join(log_digests).encode()).hexdigest() == want_logs
    assert hashlib.sha256("".join(report_digests).encode()).hexdigest() == want_reports


@pytest.mark.parametrize("seed", [0, 1])
def test_simulate_loiter_matches_benchmark_log(workloads, tmp_path, seed):
    cli, bench = tmp_path / "cli.csv", tmp_path / "bench.csv"
    assert main(["simulate", "--scenario", "loiter", "--seed", str(seed),
                 "--out", str(cli)]) == 0
    workloads.write_survey_log(workloads.WORKLOADS["loiter"], seed, str(bench))
    assert cli.read_bytes() == bench.read_bytes()
