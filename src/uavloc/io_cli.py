"""Observation-log CSV I/O, run reports, and the command-line driver.

Log format: UTF-8, LF line endings, header `t_s,lat_deg,lon_deg,rssi_dbm`,
floats with up to 9 significant digits. `#`-prefixed lines carry metadata;
recognized keys are `# survey <id>`, `# cal d0=<m> p0=<dBm> n=<val>
sigma=<dB>`, and `# target <lat>,<lon>`. Metadata lines and blank lines may
appear anywhere: before the header, between data rows and after the last one;
a later line with the same key replaces an earlier one. CRLF files read the
same as LF files, and a UTF-8 byte order mark before the first line is
skipped; U+FEFF anywhere else is a character of its line.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from .cluster import observations, rejected
from .errors import LocalizationError, LogFormatError, NoEstimateError
from .estimator import R_THRESH_ITERATION, EstimatorConfig
from .geo import GeoPoint, haversine
from .pathloss import Calibration, calibration_from_tx, fit_exponent
from .simulator import (SCENARIOS, run_baseline_svd, run_estimator, simulate_observations,
                        sweep_ma_log)

CSV_HEADER = "t_s,lat_deg,lon_deg,rssi_dbm"
PROG = "uavloc"


@dataclass
class ObservationLog:
    rows: list
    survey_id: str | None = None
    cal: Calibration | None = None
    meta: dict = field(default_factory=dict)


@dataclass
class RunReport:
    """Everything one run produced, in JSON-ready form."""

    config: dict
    iterations: list
    best: dict | None = None
    baseline: dict | None = None


_NUM = "%.9g"  # every number written: up to 9 significant digits
_ROW = ",".join([_NUM] * 4)  # one data row, in CSV_HEADER's columns


def _fmt(v: float) -> str:
    return _NUM % v


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write(text)


def _cal_line(c: Calibration) -> str:
    return f"# cal d0={_fmt(c.d0)} p0={_fmt(c.p0_dbm)} n={_fmt(c.n)} sigma={_fmt(c.sigma_db)}"


def _parse_cal_comment(body: str, lineno: int) -> Calibration:
    kv = {}
    for tok in body.split():
        if "=" not in tok:
            raise LogFormatError(f"bad calibration token {tok!r}", line=lineno)
        k, v = tok.split("=", 1)
        kv[k] = v
    try:
        return Calibration(d0=float(kv["d0"]), p0_dbm=float(kv["p0"]),
                           n=float(kv["n"]), sigma_db=float(kv.get("sigma", 0.0)))
    except (KeyError, ValueError) as e:
        raise LogFormatError(f"bad calibration metadata: {e}", line=lineno)


def write_log(log: ObservationLog, path: str) -> None:
    lines = []
    if log.survey_id is not None:
        lines.append(f"# survey {log.survey_id}")
    if log.cal is not None:
        lines.append(_cal_line(log.cal))
    for key, value in log.meta.items():
        lines.append(f"# {key} {value}")
    lines.append(CSV_HEADER)
    for o in log.rows:
        lines.append(_ROW % (o.t, o.pos.lat, o.pos.lon, o.rssi))
    _write_text(path, "\n".join(lines) + "\n")


def parse_log(path: str) -> ObservationLog:
    """Strict parse: rejects NaN, out-of-range coordinates, non-monotone time.

    The file is read whole and split on LF alone. Universal-newline decoding
    has already made CRLF and CR into LF, so these are the lines that
    iterating over the file gives; str.splitlines would also split on form
    feeds and other separators. One pass classifies the lines: it reads the
    metadata and the header, and keeps each data row's fields and line
    number. `_rows` then converts all the fields at once and builds the rows
    from their columns with `cluster.observations`, so their checks are those
    of GeoPoint and Observation. The first bad line wins, whatever its kind,
    as in a line-by-line parse, so an error found in the pass (a wrong field
    count, a bad header or `# cal` line) first checks the data rows above it.
    """
    log = ObservationLog(rows=[])
    fields, linenos = [], []
    saw_header = False
    try:
        with open(path, "r", encoding="utf-8-sig") as f:
            for lineno, line in enumerate(f.read().split("\n"), start=1):
                parts = line.split(",")
                if len(parts) == 4 and saw_header and line[0] != "#":
                    fields += parts
                    linenos.append(lineno)
                elif not line.strip():
                    continue
                elif line[0] == "#":
                    key, _, rest = line[1:].strip().partition(" ")
                    if key == "survey":
                        log.survey_id = rest
                    elif key == "cal":
                        log.cal = _parse_cal_comment(rest, lineno)
                    elif key:
                        log.meta[key] = rest
                elif not saw_header:
                    if line != CSV_HEADER:
                        raise LogFormatError(f"expected header {CSV_HEADER!r}, got {line!r}",
                                             line=lineno)
                    saw_header = True
                else:
                    raise LogFormatError(f"expected 4 fields, got {len(parts)}", line=lineno)
    except LogFormatError:
        _rows(fields, linenos)  # a bad row above the line wins
        raise
    if not saw_header:
        raise LogFormatError("missing header line")
    log.rows = _rows(fields, linenos)
    if not log.rows:
        raise LogFormatError("log contains no observations")
    return log


def _rows(fields, linenos) -> list:
    """The Observations of data rows given as their string fields, four a
    row in one flat list, and their line numbers, or the LogFormatError of
    the first bad row: a non-numeric field, a value the row types reject, or
    a timestamp below the previous row's. A row's own value error beats its
    timestamp going backwards."""
    try:
        cols = np.array(list(map(float, fields))).reshape(-1, 4).T  # t, lat, lon, rssi
    except ValueError:
        for j, lineno in enumerate(linenos):
            parts = fields[4 * j:4 * j + 4]
            try:
                list(map(float, parts))
            except ValueError:
                _rows(fields[:4 * j], linenos[:j])
                raise LogFormatError(f"non-numeric field in {','.join(parts)!r}", line=lineno)
    fields.clear()  # free the strings before the rows are built
    # the first row whose timestamp goes backwards, or the row count
    b = min(np.flatnonzero(cols[0, 1:] < cols[0, :-1]) + 1, default=len(linenos))
    try:
        rows = observations(*cols[:, :b + 1])
    except ValueError as e:
        raise LogFormatError(str(e), line=linenos[int(rejected(*cols).argmax())])
    if b < len(linenos):
        raise LogFormatError(f"timestamp {rows[b].t} precedes previous row", line=linenos[b])
    return rows


def write_report(report: RunReport, path: str) -> None:
    # the fields in declaration order; asdict would deep-copy every record
    _write_text(path, json.dumps(vars(report), indent=2) + "\n")


def read_report(path: str) -> RunReport:
    with open(path, "r", encoding="utf-8-sig") as f:
        return RunReport(**json.load(f))


# ---------------------------------------------------------------- CLI


def _type(cast, must: str, ok=lambda v: True):
    """An argparse type: cast(text) when that reads and ok accepts it, else
    the usage error `must be <must>, got <text>`."""
    def parse(text: str):
        try:
            v = cast(text)
            if ok(v):
                return v
        except (TypeError, ValueError):  # what argparse itself catches
            pass
        raise argparse.ArgumentTypeError(f"must be {must}, got {text}")
    return parse


_float = _type(float, "a number")
_finite = _type(float, "finite", math.isfinite)
_positive = _type(float, "positive and finite", lambda v: 0 < v < math.inf)
_non_negative = _type(float, "non-negative and finite", lambda v: 0 <= v < math.inf)
_positive_int = _type(int, "a positive integer", lambda v: v >= 1)
_non_negative_int = _type(int, "a non-negative integer", lambda v: v >= 0)
_seed = _type(int, "an integer in [0, 2**32)", lambda v: 0 <= v < 2**32)
_r_thresh = _type(lambda t: t if t == R_THRESH_ITERATION else int(t),
                  f"{R_THRESH_ITERATION!r} or an integer >= 0",
                  lambda v: v == R_THRESH_ITERATION or v >= 0)
_ma_list = _type(lambda t: [float(m) for m in t.split(",")],
                 "positive and finite meters, comma-separated",
                 lambda ms: all(0 < m < math.inf for m in ms))
_latlon = _type(lambda t: GeoPoint(*map(float, t.split(","))),
                "'lat,lon' with lat in [-90, 90] and lon in [-180, 180]")


def _log_command(sub, name: str, func, help: str):
    """A subcommand that reads the observation log given by `--obs` and
    writes its output to `--out`, when given."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--obs", required=True)
    p.add_argument("--out")
    p.set_defaults(func=func)
    return p


def _add_cal_flags(p):
    p.add_argument("--d0", type=_positive, help="calibration reference distance (m)")
    p.add_argument("--p0", type=_float, help="calibration reference power (dBm)")
    p.add_argument("--n", type=_float, help="path-loss exponent")
    p.add_argument("--sigma", type=_float, help="shadowing std-dev (dB)")


def _add_run_flags(p):
    """Estimator and scoring flags shared by `estimate` and `sweep-ma`."""
    p.add_argument("--batch", type=_positive_int, default=EstimatorConfig.batch_size)
    p.add_argument("--min-rssi", type=_finite)
    p.add_argument("--r-thresh", type=_r_thresh, default=EstimatorConfig.r_thresh,
                   help="drop clusters of at most this many rows: an int >= 0 or 'iteration'")
    p.add_argument("--seed", type=_seed, default=EstimatorConfig.seed)
    p.add_argument("--truth", type=_latlon)


def _read_obs(args) -> tuple[ObservationLog, Calibration]:
    """Parse the `--obs` log and resolve its calibration.

    That is the log's `# cal` line with each calibration flag given overriding
    its field, or, for a log without one, the flags alone.
    """
    log = parse_log(args.obs)
    given = {k: v for k, v in (("d0", args.d0), ("p0_dbm", args.p0), ("n", args.n),
                               ("sigma_db", args.sigma)) if v is not None}
    if log.cal is not None:
        return log, replace(log.cal, **given)
    if not {"d0", "p0_dbm", "n"} <= given.keys():
        raise LocalizationError(
            "no calibration: log has no '# cal' line and --d0/--p0/--n not all given")
    return log, Calibration(**given)


def _estimator_config(args, cal: Calibration, ma: float) -> EstimatorConfig:
    return EstimatorConfig(
        ma=ma, cal=cal, batch_size=args.batch,
        min_dbm=args.min_rssi if args.min_rssi is not None else -math.inf,
        r_thresh=args.r_thresh, seed=args.seed)


def _iteration_record(r, truth: GeoPoint | None):
    rec = {"index": r.index, "n_obs": r.n_obs, "n_clusters_used": r.n_clusters_used,
           "status": r.status}
    if r.ok:
        rec.update({"estimate_lat": r.estimate.lat, "estimate_lon": r.estimate.lon,
                    "residual_rms": r.residual_rms, "condition": r.condition})
        _score(rec, r.estimate, truth)
    else:
        rec["reason"] = r.reason
    return rec


def _score(block: dict, estimate: GeoPoint, truth: GeoPoint | None) -> dict:
    """Add the estimate's `error_m` to the block when the truth is known."""
    if truth is not None:
        block["error_m"] = haversine(estimate, truth)
    return block


def _summary(label: str, block: dict) -> str:
    """`<label> (lat, lon)`, plus ` error <m> m` when the block was scored."""
    line = f"{label} ({_fmt(block['lat'])}, {_fmt(block['lon'])})"
    if "error_m" in block:
        line += f" error {_fmt(block['error_m'])} m"
    return line


def cmd_simulate(args) -> int:
    sc = SCENARIOS[args.scenario](seed=args.seed, sigma_db=args.sigma)
    duration = args.duration if args.duration else sc.plan.path_length() / sc.plan.speed
    obs = simulate_observations(sc, duration)
    cal = calibration_from_tx(sc.tx, d0=100.0, sigma_db=sc.sigma_db)
    log = ObservationLog(rows=obs, survey_id=f"{args.scenario} seed={args.seed}",
                         cal=cal,
                         meta={"target": f"{_fmt(sc.target.lat)},{_fmt(sc.target.lon)}"})
    write_log(log, args.out)
    print(f"wrote {len(obs)} observations to {args.out}")
    return 0


def cmd_estimate(args) -> int:
    log, cal = _read_obs(args)
    est = run_estimator(log.rows, _estimator_config(args, cal, args.ma))
    truth = args.truth
    report = RunReport(
        config={"ma": args.ma, "batch_size": args.batch, "min_rssi": args.min_rssi,
                "r_thresh": args.r_thresh, "seed": args.seed, "cal": asdict(cal)},
        iterations=[_iteration_record(r, truth) for r in est.history])
    status = 0
    try:
        estimate, best = est.best_estimate()
        report.best = _score({"index": best.index, "lat": estimate.lat, "lon": estimate.lon,
                              "residual_rms": best.residual_rms}, estimate, truth)
    except NoEstimateError as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        status = 1
    if args.out:
        write_report(report, args.out)
    if report.best is not None:
        print(_summary(f"best estimate: iteration {report.best['index']}", report.best))
    return status


def cmd_baseline(args) -> int:
    log, cal = _read_obs(args)
    origin = log.rows[0].pos
    estimate = run_baseline_svd(log.rows, cal, origin)
    report = RunReport(config={"cal": asdict(cal)}, iterations=[],
                       baseline=_score({"lat": estimate.lat, "lon": estimate.lon},
                                       estimate, args.truth))
    if args.out:
        write_report(report, args.out)
    print(_summary("baseline estimate:", report.baseline))
    return 0


def cmd_sweep_ma(args) -> int:
    log, cal = _read_obs(args)
    truth = args.truth
    if truth is None and "target" in log.meta:
        try:
            truth = _latlon(log.meta["target"])
        except argparse.ArgumentTypeError as e:
            raise LocalizationError(f"bad log line '# target {log.meta['target']}': {e}")
    if truth is None:
        raise LocalizationError("sweep-ma needs --truth (or a '# target' line in the log)")
    template = _estimator_config(args, cal, args.ma_values[0])
    rows = sweep_ma_log(log.rows, truth, args.ma_values, template)
    lines = ["ma_m,error_m"]
    for ma, err in rows:
        lines.append(f"{_fmt(ma)},{_fmt(err) if err is not None else 'failed'}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_evaluate(args) -> int:
    print(_fmt(haversine(args.estimate, args.truth)))
    return 0


def cmd_calibrate(args) -> int:
    log = parse_log(args.obs)
    samples = [(haversine(o.pos, args.truth), o.rssi) for o in log.rows]
    samples = [(d, pr) for d, pr in samples if d > 0]
    cal = fit_exponent(samples, d0=args.d0)
    line = _cal_line(cal)
    if args.out:
        _write_text(args.out, line + "\n")
    print(line)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG, description="Single-UAV RSSI localization toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="generate a synthetic observation log")
    p.add_argument("--scenario", choices=sorted(SCENARIOS), default="gtu-sim")
    p.add_argument("--seed", type=_non_negative_int, default=0)
    p.add_argument("--sigma", type=_non_negative, default=3.0,
                   help="shadowing std-dev (dB), default 3")
    p.add_argument("--duration", type=_positive, help="seconds (default: full survey)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = _log_command(sub, "estimate", cmd_estimate, "run the clustered iterative estimator")
    p.add_argument("--ma", type=_positive, default=130.0)
    _add_run_flags(p)
    _add_cal_flags(p)

    p = _log_command(sub, "baseline", cmd_baseline, "plain SVD over all observations")
    p.add_argument("--truth", type=_latlon)
    _add_cal_flags(p)

    p = _log_command(sub, "sweep-ma", cmd_sweep_ma, "best-estimate error per cluster granularity")
    p.add_argument("--ma-values", type=_ma_list,
                   default=[50.0, 70.0, 90.0, 110.0, 130.0, 150.0, 170.0, 190.0])
    _add_run_flags(p)
    _add_cal_flags(p)

    p = sub.add_parser("evaluate", help="haversine distance between two points")
    p.add_argument("--estimate", type=_latlon, required=True)
    p.add_argument("--truth", type=_latlon, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = _log_command(sub, "calibrate", cmd_calibrate, "fit the path-loss exponent from a log")
    p.add_argument("--truth", type=_latlon, required=True,
                   help="known transmitter position")
    p.add_argument("--d0", type=_positive, default=100.0,
                   help="reference distance (m), default 100")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (LocalizationError, OSError, ValueError) as e:
        print(f"{PROG}: error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
