"""CSV ingestion/export, run manifests, and deterministic JSON reports."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as LIBRARY_VERSION
from .data import DataValidationError, ExperimentDataset
from .simulation import McReport
RNG_NOTE = ("numpy Philox4x64-10 keyed by the 64-bit seed; "
            "child streams via splitmix64(splitmix64(seed) XOR splitmix64(index + 1))")


@dataclass(frozen=True)
class ColumnMapping:
    outcome_col: str
    treatment_col: str
    response_col: str
    covariate_cols: tuple
    na_tokens: tuple = ("", "NA")

    def __post_init__(self):
        object.__setattr__(self, "covariate_cols", tuple(self.covariate_cols))
        object.__setattr__(self, "na_tokens", tuple(self.na_tokens))
        names = [self.outcome_col, self.treatment_col, self.response_col, *self.covariate_cols]
        if len(set(names)) != len(names):
            raise DataValidationError("column names in the mapping must be distinct")
        if not self.covariate_cols:
            raise DataValidationError("need at least one covariate column")

    @classmethod
    def from_json(cls, path) -> "ColumnMapping":
        raw = read_json_object(path)
        try:
            return cls(outcome_col=raw["outcome"], treatment_col=raw["treatment"],
                       response_col=raw["response"], covariate_cols=raw["covariates"],
                       na_tokens=tuple(raw.get("na_tokens", ("", "NA"))))
        except KeyError as exc:
            raise DataValidationError(f"{path}: mapping file is missing key {exc}") from exc


def read_json_object(path) -> dict:
    """Parse a JSON file holding one object; malformed JSON or another top-level
    value is a :class:`DataValidationError` naming the file."""
    with open(path, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise DataValidationError(f"{path}: malformed JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DataValidationError(f"{path}: expected a JSON object, got {type(doc).__name__}")
    return doc


def _parse_number(token: str | None, row: int, col: str) -> float:
    if token is None:  # csv.DictReader's fill for a row with too few fields
        raise DataValidationError(f"no value in column {col!r} at data row {row} (too few fields)")
    try:
        return float(token)
    except ValueError:
        raise DataValidationError(f"non-numeric value {token!r} in column {col!r} at data row {row}") from None


def load_csv(path, mapping: ColumnMapping) -> ExperimentDataset:
    """Parse a header-bearing CSV into a validated dataset.

    The outcome may be an NA token exactly where the response is 0; NA on a
    responding row, non-numeric covariates, and non-binary indicator columns
    are hard errors naming the row or column.
    """
    path = Path(path)
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise DataValidationError(f"{path}: empty file, header row required")
        missing = [c for c in (mapping.outcome_col, mapping.treatment_col,
                               mapping.response_col, *mapping.covariate_cols)
                   if c not in reader.fieldnames]
        if missing:
            raise DataValidationError(f"{path}: missing columns {missing}")
        xs, ds_, rs, ys = [], [], [], []
        for i, rec in enumerate(reader):
            if None in rec:  # csv.DictReader files a long row's extra fields under None
                raise DataValidationError(f"{path}: data row {i} has {len(rec[None])} more "
                                          "fields than the header")
            r_val = _parse_number(rec[mapping.response_col], i, mapping.response_col)
            if r_val not in (0.0, 1.0):
                raise DataValidationError(f"non-binary response at data row {i}")
            d_val = _parse_number(rec[mapping.treatment_col], i, mapping.treatment_col)
            if d_val not in (0.0, 1.0):
                raise DataValidationError(f"non-binary treatment at data row {i}")
            y_tok = rec[mapping.outcome_col]
            if y_tok in mapping.na_tokens:
                if r_val == 1.0:
                    raise DataValidationError(f"missing outcome on responding data row {i}")
                y_val = math.nan
            else:
                y_val = _parse_number(y_tok, i, mapping.outcome_col)
                if r_val == 0.0:
                    raise DataValidationError(f"outcome present on attrited data row {i}")
            xs.append([_parse_number(rec[c], i, c) for c in mapping.covariate_cols])
            ds_.append(int(d_val))
            rs.append(int(r_val))
            ys.append(y_val)
    if not xs:
        raise DataValidationError(f"{path}: no data rows")
    return ExperimentDataset(x=np.asarray(xs), d=np.asarray(ds_), r=np.asarray(rs),
                             y=np.asarray(ys))


def save_csv(ds: ExperimentDataset, path, mapping: ColumnMapping | None = None) -> ColumnMapping:
    """Write the observed fields of a dataset; floats round-trip exactly via repr."""
    if mapping is None:
        mapping = ColumnMapping(outcome_col="y", treatment_col="d", response_col="r",
                                covariate_cols=tuple(f"x{j + 1}" for j in range(ds.k)))
    path = Path(path)
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*mapping.covariate_cols, mapping.treatment_col,
                         mapping.response_col, mapping.outcome_col])
        for i in range(ds.n):
            y = "NA" if math.isnan(ds.y[i]) else repr(float(ds.y[i]))
            writer.writerow([*(repr(float(v)) for v in ds.x[i]),
                             int(ds.d[i]), int(ds.r[i]), y])
    return mapping


def _jsonify(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        f = float(obj)
        if math.isnan(f):
            return None
        if math.isinf(f):
            return "Infinity" if f > 0 else "-Infinity"
        return f
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_jsonify(v) for v in obj.tolist()]
    return obj


def dump_json(obj, path) -> None:
    """Stable serialization: insertion-ordered keys, explicit inf/NaN encodings.

    Callers build their dicts in a fixed order (reports mirror the table
    layouts they describe), so reruns are byte-identical.
    """
    text = json.dumps(_jsonify(obj), sort_keys=False, indent=2)
    Path(path).write_text(text + "\n", encoding="utf-8")


def digest_of(payload: dict) -> str:
    return hashlib.sha256(json.dumps(_jsonify(payload), sort_keys=True).encode()).hexdigest()


@dataclass
class RunManifest:
    """Reproducibility record written next to every output.

    Volatile fields (timestamps, wall time) live here so the reports next to
    it stay byte-identical across reruns.
    """

    command: list
    config: dict
    seed: int
    library_version: str = LIBRARY_VERSION
    rng: str = RNG_NOTE
    input_digest: str = ""
    digest: str = field(default="", init=False)
    started_at: str = ""
    finished_at: str = ""
    wall_time: float = 0.0

    def __post_init__(self):
        self.digest = digest_of({"command": self.command, "config": self.config,
                                 "seed": self.seed, "version": self.library_version,
                                 "input_digest": self.input_digest})

    def write(self, path) -> None:
        dump_json(asdict(self), path)


def now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def mc_report_dict(report: McReport, run_digest: str) -> dict:
    """Deterministic JSON form of an MC report (wall time goes to the manifest)."""
    return {
        "dgp": {"kind": report.dgp.kind, "n": report.dgp.n, "rho": report.dgp.rho,
                "missingness": report.dgp.missingness, "seed": report.dgp.seed,
                "k": report.dgp.k},
        "method": report.method,
        "learner": report.cfg.learner,
        "config": {"alpha": report.cfg.alpha, "gamma": report.cfg.gamma,
                   "seed": report.cfg.seed},
        "run_digest": run_digest,
        "aggregate": {
            "mean_coverage": report.mean_coverage,
            "sd_coverage": report.sd_coverage,
            "mean_length": report.mean_length,
            "sd_length": report.sd_length,
            "mean_ate_r1": report.mean_ate_r1,
            "mean_ate_attrition": report.mean_ate_attrition,
            "n_reps": len(report.reps),
            "n_failed": report.n_failed,
        },
        "reps": [
            {"rep": r.rep, "coverage": r.coverage, "avg_length": r.avg_length,
             "infinite_count": r.infinite_count, "ate_r1": r.ate_r1,
             "ate_attrition": r.ate_attrition, "n_attrition": r.n_attrition,
             "error": r.error}
            for r in report.reps
        ],
    }


def write_mc_long_csv(report: McReport, path) -> None:
    """Plot-ready long format: one row per (rep, metric)."""
    metrics = ("coverage", "avg_length", "infinite_count", "ate_r1", "ate_attrition")
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "dgp", "n", "rho", "rep", "metric", "value"])
        for rec in report.reps:
            for metric in metrics:
                value = getattr(rec, metric)
                writer.writerow([report.method, report.dgp.kind, report.dgp.n,
                                 report.dgp.rho, rec.rep,
                                 metric, "" if value is None else repr(float(value))])
