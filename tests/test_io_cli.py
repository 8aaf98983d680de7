import argparse
import gc
import json
import logging
import math
import re
import runpy
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from uavloc.cluster import Observation
from uavloc.errors import LogFormatError
from uavloc.estimator import EstimatorConfig
from uavloc.geo import GeoPoint
from uavloc.io_cli import (CSV_HEADER, ObservationLog, RunReport, _parse_cal_comment,
                           build_parser, main, parse_log, read_report, write_log, write_report)
from uavloc.pathloss import Calibration, calibration_from_tx
from uavloc.simulator import gtu_sim_scenario, run_estimator, simulate_observations


def sample_log():
    rows = [
        Observation(t=0.0, pos=GeoPoint(40.8065, 29.3589), rssi=-87.5),
        Observation(t=1.0, pos=GeoPoint(40.80651, 29.35892), rssi=-88.0),
        Observation(t=2.0, pos=GeoPoint(40.80652, 29.35894), rssi=-86.5),
    ]
    cal = Calibration(d0=100.0, p0_dbm=-45.2, n=2.0, sigma_db=3.0)
    return ObservationLog(rows=rows, survey_id="unit test", cal=cal)


def test_round_trip_values(tmp_path):
    path = tmp_path / "obs.csv"
    write_log(sample_log(), str(path))
    log = parse_log(str(path))
    assert len(log.rows) == 3
    assert log.rows[0].t == 0.0
    assert log.rows[0].pos == GeoPoint(40.8065, 29.3589)
    assert log.rows[0].rssi == -87.5
    assert log.survey_id == "unit test"
    assert log.cal == Calibration(d0=100.0, p0_dbm=-45.2, n=2.0, sigma_db=3.0)


def test_serialize_parse_serialize_byte_identical(tmp_path):
    path = tmp_path / "obs.csv"
    write_log(sample_log(), str(path))
    first = path.read_bytes()
    write_log(parse_log(str(path)), str(path))
    assert path.read_bytes() == first


def test_parse_single_row_semantics(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t_s,lat_deg,lon_deg,rssi_dbm\n12.0,40.806500,29.358900,-87.5\n")
    log = parse_log(str(path))
    o = log.rows[0]
    assert o.t == 12.0
    assert o.pos.lat == 40.8065 and o.pos.lon == 29.3589
    assert o.rssi == -87.5


def test_parse_empty_log_rejected(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t_s,lat_deg,lon_deg,rssi_dbm\n")
    with pytest.raises(LogFormatError):
        parse_log(str(path))


def test_parse_bad_latitude_names_line(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t_s,lat_deg,lon_deg,rssi_dbm\n0.0,40.0,29.0,-60.0\n1.0,91.0,29.0,-60.0\n")
    with pytest.raises(LogFormatError, match="line 3"):
        parse_log(str(path))


@pytest.mark.parametrize("lineno", [2, 3], ids=["line2", "line3"])
@pytest.mark.parametrize("field", CSV_HEADER.split(","))
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_nan_rejected(tmp_path, value, field, lineno):
    # the row types' own checks reject every non-finite field, first row or later
    good = "0.0,40.0,29.0,-60.0"
    bad = "1.0,40.0,29.0,-60.0".split(",")
    bad[CSV_HEADER.split(",").index(field)] = value
    path = tmp_path / "obs.csv"
    path.write_text("\n".join([CSV_HEADER] + [good] * (lineno - 2) + [",".join(bad)]) + "\n")
    with pytest.raises(LogFormatError, match=f"line {lineno}"):
        parse_log(str(path))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_parse_non_finite_calibration_names_line(tmp_path, value):
    path = tmp_path / "obs.csv"
    path.write_text(f"# survey x\n# cal d0=100 p0={value} n=2 sigma=3\n"
                    "t_s,lat_deg,lon_deg,rssi_dbm\n0.0,40.0,29.0,-60.0\n")
    with pytest.raises(LogFormatError, match="line 2"):
        parse_log(str(path))


def test_parse_non_monotone_time_rejected(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t_s,lat_deg,lon_deg,rssi_dbm\n5.0,40.0,29.0,-60.0\n4.0,40.0,29.0,-60.0\n")
    with pytest.raises(LogFormatError, match="line 3"):
        parse_log(str(path))


def test_parse_wrong_field_count(tmp_path):
    path = tmp_path / "obs.csv"
    path.write_text("t_s,lat_deg,lon_deg,rssi_dbm\n0.0,40.0,29.0\n")
    with pytest.raises(LogFormatError, match="line 2"):
        parse_log(str(path))


def parse_log_oracle(path: str) -> ObservationLog:
    """The line-by-line parser that one-pass parse_log replaced: iterate over
    the file, strip the LF, classify each line, build each row as it comes."""
    log = ObservationLog(rows=[])
    saw_header = False
    with open(path, "r", encoding="utf-8-sig") as f:
        for lineno, raw in enumerate(f, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if line.startswith("#"):
                body = line[1:].strip()
                key, _, rest = body.partition(" ")
                if key == "survey":
                    log.survey_id = rest
                elif key == "cal":
                    log.cal = _parse_cal_comment(rest, lineno)
                elif key:
                    log.meta[key] = rest
                continue
            if not saw_header:
                if line != CSV_HEADER:
                    raise LogFormatError(f"expected header {CSV_HEADER!r}, got {line!r}",
                                         line=lineno)
                saw_header = True
                continue
            parts = line.split(",")
            if len(parts) != 4:
                raise LogFormatError(f"expected 4 fields, got {len(parts)}", line=lineno)
            try:
                t, lat, lon, rssi = (float(p) for p in parts)
            except ValueError:
                raise LogFormatError(f"non-numeric field in {line!r}", line=lineno)
            try:
                o = Observation(t=t, pos=GeoPoint(lat, lon), rssi=rssi)
            except ValueError as e:
                raise LogFormatError(str(e), line=lineno)
            if log.rows and t < log.rows[-1].t:
                raise LogFormatError(f"timestamp {t} precedes previous row", line=lineno)
            log.rows.append(o)
    if not saw_header:
        raise LogFormatError("missing header line")
    if not log.rows:
        raise LogFormatError("log contains no observations")
    return log


def spell(v: float, how: str) -> str:
    """A spelling of v that float() reads back as v."""
    r = repr(v)
    if how == "padded":
        return f" {r} "
    if how == "plus" and v >= 0:
        return "+" + r
    if how == "exponent":
        return f"{v:.17e}"
    if v.is_integer() and abs(v) >= 10:
        sign, digits = "-" * (v < 0), str(abs(int(v)))
        if how == "underscore":
            return f"{sign}{digits[0]}_{digits[1:]}"  # 10 -> 1_0
        if how == "short-exponent" and digits.endswith("0"):
            zeros = len(digits) - len(digits.rstrip("0"))
            return f"{sign}{digits[:-zeros]}e{zeros}"  # 100 -> 1e2
    return r


def in_range(lo, hi):
    return st.one_of(st.integers(int(lo), int(hi)).map(float), st.floats(lo, hi))


spellings = st.sampled_from(["repr", "padded", "plus", "exponent", "underscore",
                             "short-exponent"])
# blank lines, including whitespace that str.splitlines would split on
blanks = st.sampled_from(["", " ", "\t", "  \t ", "\x0c", "\x0b"])
meta_lines = st.one_of(
    st.text(st.sampled_from("ab ,=_\x0c\x1c\u2028"), max_size=12).map("# survey ".__add__),
    st.sampled_from(["# cal d0=100 p0=-45.2 n=2 sigma=3", "#cal d0=50 p0=-40 n=2.5",
                     "# target 40.8,29.35", "# note a,b,c,d", "#", "#   ", "#note x"]),
    blanks)
CORRUPTIONS = ["none", "split", "text", "non-finite", "range", "backwards",
               "backwards-and-text"]


def draw_rows(draw, n):
    """n valid rows in time order, and the spelling of each field."""
    t, rows = 0.0, []
    for _ in range(n):
        t += draw(in_range(0.0, 100.0))
        rows.append([t, draw(in_range(-90.0, 90.0)), draw(in_range(-180.0, 180.0)),
                     draw(in_range(-200.0, 50.0))])
    return rows, [[spell(v, draw(spellings)) for v in row] for row in rows]


def corrupt_row(draw, rows, fields, i, corrupt):
    """Apply one of CORRUPTIONS to row i's fields."""
    n = len(fields)
    if corrupt == "split":  # a 3-field row, then a 5-field one if there is a next row
        moved = fields[i].pop()
        if i + 1 < n:
            fields[i + 1].insert(0, moved)
    elif corrupt in ("text", "backwards-and-text"):
        j = draw(st.integers(int(corrupt != "text"), 3))  # leave t to go backwards
        fields[i][j] = draw(st.sampled_from(["abc", "", "1,5", "0x10"]))
    elif corrupt == "non-finite":
        fields[i][draw(st.integers(0, 3))] = draw(st.sampled_from(["nan", "inf", "-inf"]))
    elif corrupt == "range":
        j = draw(st.integers(1, 3))
        fields[i][j] = draw(st.sampled_from({1: ["90.5", "-91"], 2: ["180.001", "-181"],
                                             3: ["50.5", "-200.01"]}[j]))
    if corrupt.startswith("backwards") and i > 0:
        fields[i][0] = repr(rows[i - 1][0] - 1.0)


@st.composite
def log_texts(draw):
    n = draw(st.integers(1, 12))
    rows, fields = draw_rows(draw, n)
    # over half the logs are clean
    corrupt = draw(st.one_of(st.just("none"), st.sampled_from(CORRUPTIONS)))
    corrupt_row(draw, rows, fields, draw(st.integers(0, n - 1)), corrupt)
    # over half the logs have the header; a log without one has no rows either
    header = draw(st.one_of(st.just(CSV_HEADER), st.sampled_from(["t,lat,lon,rssi", None])))
    lines = draw(st.lists(meta_lines, max_size=4))
    if header is None:
        fields = []
    else:
        lines.append(header)
    for row in fields:
        lines += draw(st.lists(meta_lines, max_size=2)) + [",".join(row)]
    lines += draw(st.lists(meta_lines, max_size=3))
    if draw(st.booleans()):
        lines.append("# cal d0=80 p0=-50 n=3 sigma=1")  # a calibration after the data
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    return newline.join(lines) + draw(st.sampled_from(["", newline]))


def parse_outcome(parser, path):
    try:
        log = parser(path)
    except LogFormatError as e:
        return str(e)
    rows = [(o.t.hex(), o.pos.lat.hex(), o.pos.lon.hex(), o.rssi.hex()) for o in log.rows]
    return rows, log.meta, log.cal, log.survey_id


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(log_texts())
def test_parse_log_matches_line_by_line_oracle(tmp_path, text):
    # the same rows, meta, calibration and survey id, or the same error text
    path = tmp_path / "obs.csv"
    path.write_bytes(text.encode("utf-8"))
    assert parse_outcome(parse_log, str(path)) == parse_outcome(parse_log_oracle, str(path))


BAD_CAL = ["# cal d0=100 p0=-45 n=x", "# cal d0=100 p0=-45", "# cal d0=100 p0=-45 n=2 x",
           "# cal d0=100 p0=nan n=2"]


@st.composite
def two_corruption_log_texts(draw):
    """Logs like log_texts' with two corruptions on different rows, each one
    of CORRUPTIONS or a bad `# cal` line just above the row."""
    n = draw(st.integers(2, 8))
    rows, fields = draw_rows(draw, n)
    cal_above = set()
    for i in sorted(draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))):
        corrupt = draw(st.sampled_from(CORRUPTIONS[1:] + ["bad-cal"]))
        if corrupt == "bad-cal":
            cal_above.add(i)
        else:
            corrupt_row(draw, rows, fields, i, corrupt)
    lines = draw(st.lists(meta_lines, max_size=2)) + [CSV_HEADER]
    for i, row in enumerate(fields):
        lines += draw(st.lists(meta_lines, max_size=1))
        if i in cal_above:
            lines.append(draw(st.sampled_from(BAD_CAL)))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(two_corruption_log_texts())
@example("t_s,lat_deg,lon_deg,rssi_dbm\n5,40,29,-60\n4,40,29,-60\n6,40,29\n")
@example("t_s,lat_deg,lon_deg,rssi_dbm\n5,40,29,-60\n6,91,29,-60\n# cal d0=1 p0=2\n")
@example("t_s,lat_deg,lon_deg,rssi_dbm\n5,40,29,-60\n4,40,29,-60\n6,abc,29,-60\n")
def test_parse_log_first_of_two_errors_wins_as_in_line_by_line_oracle(tmp_path, text):
    # the columnar parse checks rows only after its pass over the lines, so
    # an error found in the pass must still lose to a bad row above it
    path = tmp_path / "obs.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(LogFormatError) as want:
        parse_log_oracle(str(path))
    with pytest.raises(LogFormatError) as got:
        parse_log(str(path))
    assert (str(got.value), got.value.line) == (str(want.value), want.value.line)


def test_parse_log_skips_a_leading_byte_order_mark(tmp_path):
    # a BOM + LF and a BOM + CRLF copy of a simulated log read as the plain
    # file does, in parse_log and in the oracle
    plain = tmp_path / "obs.csv"
    assert main(["simulate", "--seed", "0", "--duration", "300", "--out", str(plain)]) == 0
    want = parse_outcome(parse_log, str(plain))
    assert isinstance(want, tuple) and want[3] == "gtu-sim seed=0"
    text = plain.read_bytes()
    for name, data in (("lf", text), ("crlf", text.replace(b"\n", b"\r\n"))):
        path = tmp_path / f"bom-{name}.csv"
        path.write_bytes(b"\xef\xbb\xbf" + data)
        assert parse_outcome(parse_log, str(path)) == want
        assert parse_outcome(parse_log_oracle, str(path)) == want
    # U+FEFF anywhere but the first character is a character of its line
    lines = text.decode("utf-8").split("\n")
    header = lines.index(CSV_HEADER)
    bom = "\ufeff"
    for at, line, error in (
            (0, bom + bom + lines[0],
             f"line 1: expected header {CSV_HEADER!r}, got {bom + lines[0]!r}"),
            (header, bom + CSV_HEADER,
             f"line {header + 1}: expected header {CSV_HEADER!r}, got {bom + CSV_HEADER!r}"),
            (header + 1, bom + lines[header + 1],
             f"line {header + 2}: non-numeric field in {bom + lines[header + 1]!r}"),
            (header + 2, lines[header + 2].replace(",", "," + bom, 1),
             f"line {header + 3}: non-numeric field in "
             f"{lines[header + 2].replace(',', ',' + bom, 1)!r}"),
            (header + 3, bom + "# note x", f"line {header + 4}: expected 4 fields, got 1")):
        path = tmp_path / "bom-inside.csv"
        path.write_bytes("\n".join(lines[:at] + [line] + lines[at + 1:]).encode("utf-8"))
        assert parse_outcome(parse_log, str(path)) == error
        assert parse_outcome(parse_log_oracle, str(path)) == error


def test_report_round_trip(tmp_path):
    report = RunReport(
        config={"ma": 130.0, "seed": 7},
        iterations=[{"index": 1, "n_obs": 50, "n_clusters_used": 4, "status": "ok",
                     "estimate_lat": 40.8, "estimate_lon": 29.36,
                     "residual_rms": 12.5, "condition": 2000.0, "error_m": 9.1}],
        best={"index": 1, "lat": 40.8, "lon": 29.36, "residual_rms": 12.5,
              "error_m": 9.1})
    path = tmp_path / "run.json"
    write_report(report, str(path))
    assert read_report(str(path)) == report


def test_read_report_skips_a_leading_byte_order_mark(tmp_path):
    # a BOM copy of a written report reads back as the plain file does
    report = RunReport(config={"ma": 20.0}, iterations=[{"index": 1, "status": "ok"}],
                       best={"index": 1, "lat": 40.8, "lon": 29.36})
    plain, bom = tmp_path / "run.json", tmp_path / "bom.json"
    write_report(report, str(plain))
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    assert read_report(str(bom)) == read_report(str(plain)) == report


def test_empty_history_report(tmp_path):
    report = RunReport(config={}, iterations=[])
    path = tmp_path / "run.json"
    write_report(report, str(path))
    back = read_report(str(path))
    assert back.iterations == [] and back.best is None


# ------------------------------------------------------------- CLI


def run_cli(args):
    return main(args)


def test_cli_simulate_estimate_smoke(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    run = tmp_path / "run.json"
    assert run_cli(["simulate", "--scenario", "gtu-sim", "--seed", "7",
                    "--duration", "1500", "--out", str(obs)]) == 0
    log = parse_log(str(obs))
    assert log.cal is not None and "target" in log.meta
    assert run_cli(["estimate", "--obs", str(obs), "--ma", "20", "--min-rssi", "-46",
                    "--r-thresh", "1", "--seed", "7",
                    "--truth", log.meta["target"], "--out", str(run)]) == 0
    report = json.loads(run.read_text())
    assert report["best"] is not None
    assert math.isfinite(report["best"]["error_m"])
    assert any(it["status"] == "ok" for it in report["iterations"])
    ok_iters = [it for it in report["iterations"] if it["status"] == "ok"]
    assert all("error_m" in it for it in ok_iters)


def test_cli_deterministic_outputs(tmp_path):
    outs = []
    for name in ("a", "b"):
        obs = tmp_path / f"obs_{name}.csv"
        run = tmp_path / f"run_{name}.json"
        run_cli(["simulate", "--seed", "3", "--duration", "1200", "--out", str(obs)])
        run_cli(["estimate", "--obs", str(obs), "--ma", "20", "--min-rssi", "-46",
                 "--r-thresh", "1", "--seed", "3", "--out", str(run)])
        outs.append((obs.read_bytes(), run.read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("argv", [
    ["estimate", "--obs", "x.csv", "--ma", "0"],
    ["estimate", "--obs", "x.csv", "--ma", "inf"],
    ["simulate", "--duration", "inf", "--out", "x.csv"],
], ids=["ma-0", "ma-inf", "duration-inf"])
def test_cli_bad_ma_exits_nonzero(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "must be positive and finite" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_p0_fails_before_any_iteration(tmp_path, capsys, value):
    obs = tmp_path / "obs.csv"
    run = tmp_path / "run.json"
    write_log(sample_log(), str(obs))
    assert run_cli(["estimate", "--obs", str(obs), f"--p0={value}", "--out", str(run)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("uavloc: error:") and "non-finite calibration" in err
    assert not run.exists()


def test_cli_log_shorter_than_one_batch_says_no_iteration_ran(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    run = tmp_path / "run.json"
    assert run_cli(["simulate", "--seed", "0", "--out", str(obs)]) == 0
    capsys.readouterr()
    assert run_cli(["estimate", "--obs", str(obs), "--batch", "100000", "--out", str(run)]) == 1
    assert capsys.readouterr().err == ("uavloc: error: no iteration ran: 2464 observations "
                                       "do not fill one batch of 100000\n")
    report = json.loads(run.read_text())
    assert report["best"] is None and report["iterations"] == []


@pytest.mark.parametrize("p0", ["1e300", "-1e300"])
def test_cli_anchor_range_out_of_float_range_exits_1(tmp_path, capsys, p0):
    # every anchor range overflows (+) or underflows to zero (-): estimate
    # skips those iterations, writes its report and finds no estimate;
    # baseline reports the first such RSSI
    obs = tmp_path / "obs.csv"
    run = tmp_path / "run.json"
    assert run_cli(["simulate", "--seed", "3", "--duration", "1500", "--out", str(obs)]) == 0
    capsys.readouterr()
    assert run_cli(["estimate", "--obs", str(obs), "--ma", "20", "--min-rssi", "-46",
                    "--r-thresh", "1", f"--p0={p0}", "--out", str(run)]) == 1
    assert capsys.readouterr().err == "uavloc: error: no successful iterations in history\n"
    report = json.loads(run.read_text())
    assert report["best"] is None and len(report["iterations"]) == 30
    reasons = [it["reason"] for it in report["iterations"]]
    assert any(r.startswith("rssi ") and r.endswith("not a positive finite distance")
               for r in reasons)
    assert run_cli(["baseline", "--obs", str(obs), f"--p0={p0}"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("uavloc: error: rssi ")
    assert err.endswith("not a positive finite distance\n")


@pytest.mark.parametrize("command", ["estimate", "sweep-ma"])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_cli_non_finite_min_rssi_exits_before_any_work(tmp_path, capsys, command, value):
    # argparse rejects it before the log is opened, so no iteration runs
    # and no report with a non-JSON "min_rssi": NaN is written
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--obs", str(tmp_path / "missing.csv"), f"--min-rssi={value}",
                 "--out", str(out)])
    assert exc.value.code == 2
    assert "must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_cli_simulate_rejects_bad_sigma(tmp_path, capsys, value):
    out = tmp_path / "obs.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["simulate", f"--sigma={value}", "--out", str(out)])
    assert exc.value.code == 2
    assert "must be non-negative and finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "sweep-ma"])
@pytest.mark.parametrize("value", ["0", "-3"])
def test_cli_non_positive_batch_is_a_usage_error(tmp_path, capsys, command, value):
    obs = tmp_path / "obs.csv"
    out = tmp_path / "out"
    write_log(sample_log(), str(obs))
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--obs", str(obs), "--truth", "40.8,29.35", f"--batch={value}",
                 "--out", str(out)])
    assert exc.value.code == 2
    assert f"must be a positive integer, got {value}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag, value, message", [
    ("--ma", "abc", "must be positive and finite, got abc"),
    ("--min-rssi", "x", "must be finite, got x"),
    ("--batch", "2.5", "must be a positive integer, got 2.5"),
    ("--sigma", "x", "must be non-negative and finite, got x"),
    ("--r-thresh", "x", "must be 'iteration' or an integer >= 0, got x"),
    ("--seed", "x", "must be a non-negative integer, got x"),
])
def test_cli_number_flag_that_does_not_parse_states_its_rule(capsys, flag, value, message):
    # text that does not parse gets the same message as a value out of
    # range: the flag's rule and the text given. --sigma and --seed are
    # simulate's.
    command = (["simulate", "--out", "x.csv"] if flag in ("--sigma", "--seed")
               else ["estimate", "--obs", "x"])
    with pytest.raises(SystemExit) as exc:
        run_cli(command + [f"{flag}={value}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


@pytest.mark.parametrize("command, flag, value, message", [
    ("estimate", "--r-thresh", "-1", "must be 'iteration' or an integer >= 0, got -1"),
    ("sweep-ma", "--ma-values", "50,abc",
     "must be positive and finite meters, comma-separated, got 50,abc"),
    ("simulate", "--seed", "-1", "must be a non-negative integer, got -1"),
    # the estimator's seed is 32 bits: a larger one would alias a smaller one
    ("estimate", "--seed", "-1", "must be an integer in [0, 2**32), got -1"),
    ("estimate", "--seed", "4294967296", "must be an integer in [0, 2**32), got 4294967296"),
])
def test_cli_flag_out_of_range_or_malformed_list_is_a_usage_error(capsys, command, flag,
                                                                  value, message):
    io_flag = ["--out", "x.csv"] if command == "simulate" else ["--obs", "x"]
    with pytest.raises(SystemExit) as exc:
        run_cli([command] + io_flag + [f"{flag}={value}"])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(f"error: argument {flag}: {message}\n")


def _subparsers():
    """build_parser's subcommands, by name."""
    return next(a for a in build_parser()._actions
                if isinstance(a, argparse._SubParsersAction)).choices


# every option of every subcommand that has a type, read from the parser so
# that a new flag is covered without a new case
TYPED_FLAGS = [(command, a.option_strings[0], a.type) for command, p in _subparsers().items()
               for a in p._actions if a.type is not None]
LOG_COMMANDS = {command for command, p in _subparsers().items()
                if "--obs" in p._option_string_actions}
# texts in the shape of a number, a point or a list, each out of some flag's range
RANGE_PROBES = ["-1", "0", "nan", "inf", "4294967296", "95,0", "0,181", "50,-1"]
# the calibration flags take any float; Calibration checks them once the
# log is read, so a bad value exits 1, not 2
UNRANGED = {(c, f) for c in ("estimate", "baseline", "sweep-ma")
            for f in ("--p0", "--n", "--sigma")}


def _rejects(typ, text: str) -> bool:
    try:
        typ(text)
    except argparse.ArgumentTypeError:
        return True
    return False


def _usage_error(capsys, argv, flag: str, text: str) -> None:
    """argv must exit 2 with the one usage-error form and no Python name."""
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert re.search(rf": error: argument {flag}: must be [^\n]+, got {re.escape(text)}\n\Z",
                     err), err
    assert not re.search(r"(?<![\w-])_\w|invalid|value:|unpack|Error", err), err


@pytest.mark.parametrize("command, flag, typ", TYPED_FLAGS,
                         ids=[f"{c}{f}" for c, f, _ in TYPED_FLAGS])
def test_cli_every_typed_flag_states_its_rule_before_the_log_is_opened(tmp_path, capsys,
                                                                       command, flag, typ):
    _usage_error(capsys, [command, f"{flag}=x"], flag, "x")
    obs = ["--obs", str(tmp_path / "missing.csv")] if command in LOG_COMMANDS else []
    rejected = [v for v in RANGE_PROBES if _rejects(typ, v)]
    if (command, flag) in UNRANGED:
        assert not any(_rejects(typ, v) for v in ("-1", "0", "nan", "inf"))
    else:
        assert rejected
    for value in rejected:
        _usage_error(capsys, [command] + obs + [f"{flag}={value}"], flag, value)


def _process_state():
    root = logging.getLogger()
    return (sys.stdout, sys.stderr, list(root.handlers), root.level, list(warnings.filters),
            np.geterr())


def test_cli_main_leaves_the_process_as_it_found_it(tmp_path, capsys, monkeypatch):
    # the benchmark calls main in-process before its timed loop, so nothing
    # main sets may outlive the call: not on success, a usage error or a
    # runtime error. The root logger starts bare, as in a plain process, so
    # that a logging.basicConfig() in main would show.
    monkeypatch.setattr(logging.getLogger(), "handlers", [])
    obs, out = str(tmp_path / "obs.csv"), str(tmp_path / "out")
    truth = ["--truth", "40.8059866,29.3588991"]
    runs = {"simulate": (["--duration", "300", "--out", obs], 0),
            "estimate": (["--obs", obs, "--out", out] + truth, 0),
            "baseline": (["--obs", obs, "--out", out] + truth, 0),
            "sweep-ma": (["--obs", obs, "--ma-values", "130,150"], 0),
            "evaluate": (["--estimate", "0,0"] + truth, 0),
            "calibrate": (["--obs", obs, "--out", out] + truth, 0)}
    assert runs.keys() == _subparsers().keys()
    before = _process_state()
    for command, (args, status) in runs.items():
        assert main([command] + args) == status
        assert _process_state() == before, command
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--obs", obs, "--ma", "abc"])
    assert exc.value.code == 2
    assert _process_state() == before
    assert main(["estimate", "--obs", str(tmp_path / "missing.csv")]) == 1
    assert _process_state() == before
    capsys.readouterr()


@pytest.mark.parametrize("command", sorted(_subparsers()))
def test_cli_help_renders(capsys, command):
    with pytest.raises(SystemExit) as exc:
        run_cli([command, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: uavloc {command} ")


def test_module_runs_as_a_script(monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["uavloc", "evaluate", "--estimate", "0,0", "--truth", "0,1"])
    with warnings.catch_warnings():
        # runpy warns that uavloc.io_cli is already imported
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("uavloc.io_cli", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out == "111194.927\n"


@pytest.mark.parametrize("command", ["estimate", "sweep-ma"])
def test_run_seed_takes_every_32_bit_value(command):
    parser = build_parser()
    for seed in (0, 2**32 - 1):
        assert parser.parse_args([command, "--obs", "x", f"--seed={seed}"]).seed == seed


def test_cli_log_without_cal_line_takes_calibration_from_flags(tmp_path, capsys):
    # a flight log has no '# cal' line: --d0, --p0 and --n give the
    # calibration, and the run matches the same log with that '# cal' line
    with_cal, without_cal = tmp_path / "cal.csv", tmp_path / "nocal.csv"
    assert run_cli(["simulate", "--seed", "5", "--duration", "600", "--out", str(with_cal)]) == 0
    log = parse_log(str(with_cal))
    cal, log.cal = log.cal, None
    write_log(log, str(without_cal))
    flags = ["--d0", repr(cal.d0), "--p0", repr(cal.p0_dbm), "--n", repr(cal.n),
             "--sigma", repr(cal.sigma_db)]
    reports = []
    for obs, extra in ((with_cal, []), (without_cal, flags)):
        out = tmp_path / f"{obs.stem}.json"
        assert run_cli(["estimate", "--obs", str(obs), "--out", str(out)] + extra) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]
    capsys.readouterr()
    assert run_cli(["baseline", "--obs", str(without_cal)] + flags[:4]) == 1
    assert capsys.readouterr().err == ("uavloc: error: no calibration: log has no '# cal' "
                                       "line and --d0/--p0/--n not all given\n")


def test_cli_tiny_ma_skips_instead_of_overflowing(tmp_path, capsys):
    # ma = 1e-310 asks for an infinite cluster count, clamped to the window:
    # every cluster is a singleton, so the iteration r-thresh drops them all
    obs = tmp_path / "obs.csv"
    run = tmp_path / "run.json"
    assert run_cli(["simulate", "--duration", "300", "--out", str(obs)]) == 0
    assert run_cli(["estimate", "--obs", str(obs), "--ma", "1e-310", "--out", str(run)]) == 1
    report = json.loads(run.read_text())
    assert report["best"] is None
    assert [it["reason"] for it in report["iterations"]] == [
        "only 0 clusters survive size filter"] * 6
    assert run_cli(["estimate", "--obs", str(obs), "--ma", "1e-310", "--r-thresh", "0"]) == 0
    capsys.readouterr()
    assert run_cli(["sweep-ma", "--obs", str(obs), "--ma-values", "1e-310,130"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["ma_m,error_m", "1e-310,failed"] and len(lines) == 3


def test_parse_simulate_and_estimate_leave_no_reference_cycles(tmp_path):
    # objects in a reference cycle outlive their last use until the cyclic
    # collector runs, so a parse that left its lines and fields in one would
    # hold them, and the process's peak memory, well past its return
    sc = gtu_sim_scenario(seed=1)
    cal = calibration_from_tx(sc.tx, d0=100.0)
    path = tmp_path / "obs.csv"
    gc.collect()
    gc.disable()
    try:
        obs = simulate_observations(sc, sc.plan.path_length() / sc.plan.speed)
        assert gc.collect() == 0
        write_log(ObservationLog(rows=obs, cal=cal), str(path))
        log = parse_log(str(path))
        assert gc.collect() == 0
        est = run_estimator(log.rows, EstimatorConfig(ma=20.0, cal=log.cal, min_dbm=-46.0,
                                                      r_thresh=1, seed=1))
        est.best_estimate()
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_cli_unknown_subcommand(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["frobnicate"])
    assert exc.value.code != 0


def test_cli_missing_obs_file_diagnostic(tmp_path, capsys):
    assert run_cli(["estimate", "--obs", str(tmp_path / "nope.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("uavloc: error:")


def test_cli_evaluate(capsys):
    assert run_cli(["evaluate", "--estimate", "0,0", "--truth", "0,0.001"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 111.19) < 0.1


def test_cli_baseline(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    run_cli(["simulate", "--seed", "2", "--sigma", "0", "--duration", "900",
             "--out", str(obs)])
    log = parse_log(str(obs))
    run = tmp_path / "run.json"
    assert run_cli(["baseline", "--obs", str(obs), "--truth", log.meta["target"],
                    "--out", str(run)]) == 0
    out = capsys.readouterr().out
    assert "baseline estimate" in out
    report = read_report(str(run))
    assert report.iterations == [] and report.config["cal"]["d0"] == 100.0
    assert out.endswith(f"error {report.baseline['error_m']:.9g} m\n")


def test_cli_calibrate(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    run_cli(["simulate", "--seed", "1", "--sigma", "0", "--duration", "600",
             "--out", str(obs)])
    log = parse_log(str(obs))
    capsys.readouterr()
    line = tmp_path / "cal.txt"
    assert run_cli(["calibrate", "--obs", str(obs), "--truth", log.meta["target"],
                    "--d0", "100", "--out", str(line)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("# cal ") and line.read_text() == out
    # zero-noise free-space data: fitted exponent is 2 up to CSV rounding
    n = float(out.split("n=")[1].split()[0])
    assert abs(n - 2.0) < 1e-3


def test_cli_calibrate_overflowing_d0_exits_1_and_names_it(tmp_path, capfd):
    # 100 m / 1e-320 m overflows: the fit stops before lstsq, whose LAPACK
    # call would print DLASCL lines on its non-finite input
    obs = tmp_path / "obs.csv"
    run_cli(["simulate", "--seed", "1", "--sigma", "0", "--duration", "600",
             "--out", str(obs)])
    target = parse_log(str(obs)).meta["target"]
    capfd.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(["calibrate", "--obs", str(obs), "--truth", target,
                        "--d0", "1e-320"]) == 1
    out, err = capfd.readouterr()
    assert out == "" and err == "uavloc: error: log10(d / d0) is not finite for d0 = 1e-320 m\n"
    assert "DLASCL" not in err and "RuntimeWarning" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_cli_sweep_ma(tmp_path):
    obs = tmp_path / "obs.csv"
    table = tmp_path / "sweep.csv"
    run_cli(["simulate", "--seed", "4", "--duration", "1500", "--out", str(obs)])
    assert run_cli(["sweep-ma", "--obs", str(obs), "--ma-values", "50,130,190",
                    "--min-rssi", "-46", "--r-thresh", "1", "--seed", "4",
                    "--out", str(table)]) == 0
    lines = table.read_text().strip().splitlines()
    assert lines[0] == "ma_m,error_m"
    assert len(lines) == 4


def test_estimate_and_sweep_ma_parse_shared_flags_alike():
    shared = ["--obs", "obs.csv", "--batch", "25", "--min-rssi", "-46", "--r-thresh", "1",
              "--seed", "7", "--truth", "40.8,29.35", "--p0", "-40", "--sigma", "2"]
    parser = build_parser()
    est = vars(parser.parse_args(["estimate"] + shared))
    sweep = vars(parser.parse_args(["sweep-ma"] + shared))
    keys = ("obs", "batch", "min_rssi", "r_thresh", "seed", "truth", "d0", "p0", "n", "sigma")
    assert {k: est[k] for k in keys} == {k: sweep[k] for k in keys}
    assert est["truth"] == GeoPoint(40.8, 29.35) and est["r_thresh"] == 1
    defaults = (vars(parser.parse_args(["estimate", "--obs", "x"])),
                vars(parser.parse_args(["sweep-ma", "--obs", "x"])))
    assert {k: defaults[0][k] for k in keys} == {k: defaults[1][k] for k in keys}


def test_cli_sweep_ma_rejects_non_positive_ma_before_any_work(tmp_path, capsys):
    # argparse rejects the list up front, before the log is even opened
    table = tmp_path / "sweep.csv"
    with pytest.raises(SystemExit) as exc:
        run_cli(["sweep-ma", "--obs", str(tmp_path / "missing.csv"),
                 "--ma-values", "50,-1", "--out", str(table)])
    assert exc.value.code == 2
    assert "must be positive" in capsys.readouterr().err
    assert not table.exists()


def test_cli_sweep_ma_without_truth_exits_1(tmp_path, capsys):
    obs = tmp_path / "obs.csv"
    write_log(sample_log(), str(obs))
    assert run_cli(["sweep-ma", "--obs", str(obs), "--ma-values", "50"]) == 1
    assert capsys.readouterr().err == (
        "uavloc: error: sweep-ma needs --truth (or a '# target' line in the log)\n")


@pytest.mark.parametrize("target", ["40.8,abc", "95.0,29.35", "40.8"],
                         ids=["non-numeric", "latitude-out-of-range", "one-field"])
def test_cli_sweep_ma_bad_target_line_exits_1(tmp_path, capsys, target):
    # a bad '# target' line is a log error, reported like one, not a traceback
    obs = tmp_path / "obs.csv"
    log = sample_log()
    log.meta["target"] = target
    write_log(log, str(obs))
    assert run_cli(["sweep-ma", "--obs", str(obs), "--ma-values", "50"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("uavloc: error: ") and f"'# target {target}'" in err
