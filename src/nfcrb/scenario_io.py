"""Scenario files, run reports, and CSV serialization.

Scenario files are JSON with exactly one geometry encoding:

* ``polar``: sources as (range_m, bearing_deg), sensors as (radius_m,
  azimuth_deg);
* ``pairwise``: (vertical_m, arrival_deg) matrices with one row per element
  and one column per source.

Angles in files are degrees; everything downstream is radians.  Noise
variance (default 1.0) and snapshot count (default 1) may be omitted; every
applied default is recorded and echoed in reports, never silent.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ValidationError
from .geometry import PairwiseGeometry, PairwiseScenario, Scenario, SensorGeom, SourceGeom
from .optimizer import ConstellationEvaluation, SweepRow, evaluate_constellations
from .signal_model import SourceSignal

DEFAULT_NOISE_VARIANCE = 1.0
DEFAULT_SNAPSHOTS = 1
BUNDLED = ("scenario_a", "scenario_b")


@dataclass(frozen=True)
class ScenarioFile:
    """Parsed scenario file; exactly one of ``polar`` / ``pairwise`` is set."""

    name: str
    description: str
    velocity_mps: float
    signals: tuple[SourceSignal, ...]
    noise_variance: float
    snapshots: int
    polar: tuple[tuple[SourceGeom, ...], tuple[SensorGeom, ...]] | None
    pairwise: PairwiseGeometry | None
    defaults_applied: tuple[str, ...] = field(compare=False, default=())

    @property
    def num_sources(self) -> int:
        return len(self.signals)

    @property
    def num_sensors(self) -> int:
        if self.pairwise is not None:
            return self.pairwise.num_sensors
        return len(self.polar[1])

    @property
    def encoding(self) -> str:
        return "pairwise" if self.pairwise is not None else "polar"


def parse_number(value, path: str, kind: type = float):
    """A finite number from a scenario-file field or a command-line string.

    With ``kind=int`` the number must also be whole.  Errors name ``path``,
    the offending field or option.
    """
    try:
        out = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{path}: expected a number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValidationError(f"{path}: expected a finite number, got {value!r}")
    if kind is int:
        if not out.is_integer():
            raise ValidationError(f"{path}: expected an integer, got {value!r}")
        return int(out)
    return out


def _need(obj, key: str, path: str):
    if not isinstance(obj, dict):
        raise ValidationError(f"{path}: must be an object")
    if key not in obj:
        raise ValidationError(f"{path}.{key}: missing required field")
    return obj[key]


def _list(obj, key: str, path: str) -> list:
    out = _need(obj, key, path)
    if not isinstance(out, list):
        raise ValidationError(f"{path}.{key}: must be a list")
    return out


def _number(obj, key: str, path: str) -> float:
    return parse_number(_need(obj, key, path), f"{path}.{key}")


def _positive(obj, key: str, path: str) -> float:
    out = _number(obj, key, path)
    if not out > 0:
        raise ValidationError(f"{path}.{key}: must be positive, got {out}")
    return out


def _nonnegative(obj, key: str, path: str) -> float:
    out = _number(obj, key, path)
    if out < 0:
        raise ValidationError(f"{path}.{key}: must be nonnegative, got {out}")
    return out


def _check_entries(values: np.ndarray, ok: np.ndarray, path: str, rule: str) -> None:
    """Reject the first table entry where ``ok`` is False, naming its [row][column]."""
    bad = np.argwhere(~ok)
    if bad.size:
        k, n = bad[0]
        raise ValidationError(f"{path}[{k}][{n}]: {rule}, got {values[k, n]}")


def _matrix(obj, key: str, path: str) -> np.ndarray:
    rows = _list(obj, key, path)
    path = f"{path}.{key}"
    if not all(isinstance(row, list) for row in rows) or len({len(row) for row in rows}) > 1:
        raise ValidationError(f"{path}: must be a list of equal-length rows")
    return np.array(
        [[parse_number(v, f"{path}[{k}][{n}]") for n, v in enumerate(row)] for k, row in enumerate(rows)]
    )


def parse_scenario(text: str) -> ScenarioFile:
    """Parse and validate scenario JSON; errors carry the offending field path."""
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"scenario file is not valid JSON: {exc}") from None
    if not isinstance(raw, dict):
        raise ValidationError("scenario file must be a JSON object")

    name = str(raw.get("name", "unnamed"))
    description = str(raw.get("description", ""))
    velocity = _positive(raw, "velocity_mps", "scenario")

    sig_raw = _list(raw, "signals", "scenario")
    if not sig_raw:
        raise ValidationError("scenario.signals: must be a nonempty list")
    signals = []
    for i, entry in enumerate(sig_raw):
        path = f"scenario.signals[{i}]"
        freq = _positive(entry, "freq_hz", path)
        amp = _need(entry, "amplitude", path)
        if not (isinstance(amp, list) and len(amp) == 2):
            raise ValidationError(f"{path}.amplitude: expected [re, im]")
        real, imag = (parse_number(v, f"{path}.amplitude[{k}]") for k, v in enumerate(amp))
        signals.append(SourceSignal(freq, complex(real, imag)))
    signals = tuple(signals)

    defaults = []
    if "noise_variance" in raw:
        noise = _positive(raw, "noise_variance", "scenario")
    else:
        noise = DEFAULT_NOISE_VARIANCE
        defaults.append(f"noise_variance={DEFAULT_NOISE_VARIANCE}")
    if "snapshots" in raw:
        snapshots = parse_number(raw["snapshots"], "scenario.snapshots", int)
        if snapshots < 1:
            raise ValidationError(f"scenario.snapshots: must be >= 1, got {snapshots}")
    else:
        snapshots = DEFAULT_SNAPSHOTS
        defaults.append(f"snapshots={DEFAULT_SNAPSHOTS}")

    geom = _need(raw, "geometry", "scenario")
    if not isinstance(geom, dict):
        raise ValidationError("scenario.geometry: must be an object")
    has_polar = "polar" in geom
    has_pairwise = "pairwise" in geom
    if has_polar == has_pairwise:
        raise ValidationError(
            "scenario.geometry: exactly one of 'polar' or 'pairwise' must be present"
        )

    N = len(signals)
    polar = None
    pairwise = None
    if has_polar:
        path = "scenario.geometry.polar"
        src_raw = _list(geom["polar"], "sources", path)
        sen_raw = _list(geom["polar"], "sensors", path)
        if len(src_raw) != N:
            raise ValidationError(f"{path}.sources: {len(src_raw)} entries for {N} signals")
        sources = tuple(
            SourceGeom(
                _positive(e, "range_m", f"{path}.sources[{i}]"),
                math.radians(_number(e, "bearing_deg", f"{path}.sources[{i}]")),
            )
            for i, e in enumerate(src_raw)
        )
        sensors = tuple(
            SensorGeom(
                _nonnegative(e, "radius_m", f"{path}.sensors[{i}]"),
                math.radians(_number(e, "azimuth_deg", f"{path}.sensors[{i}]")),
            )
            for i, e in enumerate(sen_raw)
        )
        if N >= len(sensors):
            raise ValidationError(
                f"scenario.geometry: {len(sensors)} sensors can separate at most "
                f"{len(sensors) - 1} sources; got {N}"
            )
        polar = (sources, sensors)
    else:
        vert = _matrix(geom["pairwise"], "vertical_m", "scenario.geometry.pairwise")
        adeg = _matrix(geom["pairwise"], "arrival_deg", "scenario.geometry.pairwise")
        if vert.ndim != 2 or vert.shape != adeg.shape:
            raise ValidationError(
                "scenario.geometry.pairwise: vertical_m and arrival_deg must be equal-shape matrices"
            )
        if vert.shape[1] != N:
            raise ValidationError(
                f"scenario.geometry.pairwise: {vert.shape[1]} columns for {N} signals"
            )
        if N >= vert.shape[0]:
            raise ValidationError(
                f"scenario.geometry: {vert.shape[0]} sensors can separate at most "
                f"{vert.shape[0] - 1} sources; got {N}"
            )
        path = "scenario.geometry.pairwise"
        arrival = np.radians(adeg)
        _check_entries(vert, vert > 0, f"{path}.vertical_m", "must be positive")
        _check_entries(
            adeg, (arrival > 0) & (arrival < math.pi), f"{path}.arrival_deg",
            "must lie strictly inside (0, 180) degrees",
        )
        pairwise = PairwiseGeometry(vert, arrival)

    return ScenarioFile(
        name=name,
        description=description,
        velocity_mps=velocity,
        signals=signals,
        noise_variance=noise,
        snapshots=snapshots,
        polar=polar,
        pairwise=pairwise,
        defaults_applied=tuple(defaults),
    )


def serialize_scenario(sf: ScenarioFile) -> str:
    """Inverse of parse_scenario (all fields written explicitly)."""
    out: dict = {
        "name": sf.name,
        "description": sf.description,
        "velocity_mps": sf.velocity_mps,
        "signals": [
            {"freq_hz": s.freq_hz, "amplitude": [s.amplitude.real, s.amplitude.imag]}
            for s in sf.signals
        ],
        "noise_variance": sf.noise_variance,
        "snapshots": sf.snapshots,
    }
    if sf.pairwise is not None:
        out["geometry"] = {
            "pairwise": {
                "vertical_m": sf.pairwise.vertical_m.tolist(),
                "arrival_deg": np.degrees(sf.pairwise.arrival_rad).tolist(),
            }
        }
    else:
        sources, sensors = sf.polar
        out["geometry"] = {
            "polar": {
                "sources": [
                    {"range_m": s.range_m, "bearing_deg": math.degrees(s.bearing_rad)}
                    for s in sources
                ],
                "sensors": [
                    {"radius_m": s.radius_m, "azimuth_deg": math.degrees(s.azimuth_rad)}
                    for s in sensors
                ],
            }
        }
    return json.dumps(out, indent=2)


def load_scenario(path_or_name: str) -> ScenarioFile:
    """Load a scenario from a filesystem path or a bundled name."""
    p = Path(path_or_name)
    if p.exists():
        return parse_scenario(p.read_text())
    if path_or_name in BUNDLED:
        text = resources.files("nfcrb").joinpath("data", f"{path_or_name}.json").read_text()
        return parse_scenario(text)
    raise ValidationError(
        f"scenario {path_or_name!r} is neither a readable file nor one of the bundled names {BUNDLED}"
    )


def runtime_scenario(
    sf: ScenarioFile,
    noise_variance: float | None = None,
    snapshots: int | None = None,
) -> tuple[Scenario | PairwiseScenario, tuple[str, ...]]:
    """Build the runtime scenario object, tracking which defaults remain in force."""
    defaults = list(sf.defaults_applied)
    eta = sf.noise_variance
    ns = sf.snapshots
    if noise_variance is not None:
        eta = parse_number(noise_variance, "noise_variance")
        defaults = [d for d in defaults if not d.startswith("noise_variance")]
    if snapshots is not None:
        ns = parse_number(snapshots, "snapshots", int)
        defaults = [d for d in defaults if not d.startswith("snapshots")]
    if sf.pairwise is not None:
        scn = PairwiseScenario(sf.pairwise, sf.velocity_mps, sf.signals, eta, ns)
    else:
        sources, sensors = sf.polar
        scn = Scenario(sources, sensors, sf.velocity_mps, sf.signals, eta, ns)
    return scn, tuple(defaults)


@dataclass(frozen=True, eq=False)
class RunReport:
    """A named constellation's evaluation, with the defaults its scenario left in force."""

    scenario_name: str
    scenario: Scenario | PairwiseScenario
    defaults_applied: tuple[str, ...]
    evaluation: ConstellationEvaluation


def run_reports(named, defaults: tuple[str, ...]) -> list[RunReport]:
    """The reports of (scenario, name) pairs sharing M, N, amplitudes, noise and snapshots,
    from one ``evaluate_constellations`` batch; the first failure in order is raised."""
    scenarios, names = zip(*named)
    evaluations = evaluate_constellations(scenarios)
    if failed := [ev for ev in evaluations if isinstance(ev, ValidationError)]:
        raise failed[0]
    return [RunReport(name, scn, defaults, ev) for name, scn, ev in zip(names, scenarios, evaluations)]


def run_report(scn, name: str, defaults: tuple[str, ...]) -> RunReport:
    """Compute the full report for a polar or pairwise scenario: ``run_reports`` at K = 1."""
    return run_reports([(scn, name)], defaults)[0]


def _sci(x: float) -> str:
    return f"{x:.4e}"


def format_run_report(report: RunReport) -> str:
    """Human-readable report text; every applied default is listed."""
    scn, ev = report.scenario, report.evaluation
    crb = ev.crb
    encoding = "polar" if ev.residual is None else "pairwise"
    lines = [
        f"scenario: {report.scenario_name} ({encoding} geometry, "
        f"M={scn.num_sensors} sensors, N={scn.num_sources} sources)",
        f"velocity: {_sci(scn.velocity_mps)} m/s",
        f"noise variance: {_sci(scn.noise_variance)}   snapshots: {scn.snapshots}",
        "defaults applied: " + (", ".join(report.defaults_applied) if report.defaults_applied else "none"),
    ]
    if ev.residual is not None:
        lines.append(f"reconstruction residual: {_sci(ev.residual)} m")
    lines += [
        "received powers: [" + ", ".join(_sci(p) for p in ev.received_powers) + "]",
        f"strongest element: {ev.strongest_element + 1} (1-based)",
        f"det(R_x): {_sci(ev.det)}",
        "CRB bearing (rad^2): ["
        + ", ".join(_sci(v) for v in crb.crb_theta)
        + f"], total {_sci(crb.crb_theta_total)}",
        "CRB range (m^2): ["
        + ", ".join(_sci(v) for v in crb.crb_r)
        + f"], total {_sci(crb.crb_r_total)}",
        f"FIM rank: {crb.rank}/{crb.size}"
        + (" (rank deficient, pseudo-inverse used)" if crb.rank_deficient else ""),
        f"cond(R_x): {_sci(ev.fim.array_cov_condition)}",
    ]
    return "\n".join(lines)


CSV_HEADER = ["point", "mode", "det", "crb_theta_total", "crb_r_total", "flags"]


def sweep_rows_to_csv(rows: list[SweepRow]) -> str:
    """CSV text for sweep rows: one row per (point, mode), 5 significant digits, LF endings."""
    if not rows:
        raise ValidationError("no sweep rows to write")
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        values = map(_sci, (row.det, row.crb_theta_total, row.crb_r_total))
        writer.writerow([_sci(row.point), row.mode, *values, row.diagnostics.replace(",", ";")])
    return buf.getvalue()


def _csv_number(rec: list[str], col: int, line: int) -> float:
    try:
        return float(rec[col])
    except ValueError:
        raise ValidationError(
            f"line {line}, column {CSV_HEADER[col]}: expected a number, got {rec[col]!r}"
        ) from None


def parse_sweep_csv(text: str) -> list[SweepRow]:
    """Read back a sweep CSV produced by sweep_rows_to_csv."""
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADER:
        raise ValidationError(f"unexpected CSV header {header}")
    rows = []
    for rec in reader:
        if not rec:
            continue
        line = reader.line_num
        if len(rec) != len(CSV_HEADER):
            raise ValidationError(f"line {line}: {len(rec)} columns, expected {len(CSV_HEADER)}")
        point, det, theta, r = (_csv_number(rec, col, line) for col in (0, 2, 3, 4))
        rows.append(SweepRow(point, rec[1], det, theta, r, rec[5]))
    return rows


def run_report_to_csv(report: RunReport) -> str:
    """Single-constellation report in the sweep CSV layout (point = 0)."""
    ev = report.evaluation
    flags = list(report.defaults_applied)
    if ev.crb.rank_deficient:
        flags.append("rank_deficient")
    row = SweepRow(0.0, "primary", ev.det, ev.crb.crb_theta_total, ev.crb.crb_r_total, "; ".join(flags))
    return sweep_rows_to_csv([row])


def write_reports(rows, destination: str | Path) -> Path:
    """Write sweep rows as CSV to the destination path."""
    if not rows:
        raise ValidationError("no results to write")
    dest = Path(destination)
    try:
        dest.write_text(sweep_rows_to_csv(list(rows)))
    except OSError as exc:
        raise OSError(f"cannot write report to {dest}: {exc}") from exc
    return dest
