"""CSV ingestion/export, run manifests, and deterministic JSON reports."""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, field, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__ as LIBRARY_VERSION
from .data import DataValidationError, ExperimentDataset
from .pipelines import AteEstimate, AteSummary
from .simulation import AGGREGATES, McReport, RepRecord

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
        names = self.columns
        repeated = next((name for i, name in enumerate(names) if name in names[:i]), None)
        if repeated is not None:
            raise DataValidationError(f"the mapping names column {repeated!r} more than once")
        if not self.covariate_cols:
            raise DataValidationError("need at least one covariate column")

    @property
    def columns(self) -> tuple:
        """The mapped column names: outcome, treatment, response, covariates."""
        return (self.outcome_col, self.treatment_col, self.response_col, *self.covariate_cols)

    @classmethod
    def from_json(cls, path) -> "ColumnMapping":
        """Read a mapping file: string column names, a non-empty list of
        covariate names and an optional list of NA tokens.  A missing key or
        a value of another type is a :class:`DataValidationError` naming the
        file and the key; a column named twice is one naming the file and
        the column."""
        raw = {"na_tokens": ["", "NA"], **read_json_object(path)}
        for key, want in (("outcome", "a column name"), ("treatment", "a column name"),
                          ("response", "a column name"),
                          ("covariates", "a non-empty list of column names"),
                          ("na_tokens", "a list of strings")):
            if key not in raw:
                raise DataValidationError(f"{path}: mapping file is missing key {key!r}")
            value = raw[key]
            if want == "a column name":
                ok = isinstance(value, str)
            else:
                ok = (isinstance(value, list) and all(isinstance(v, str) for v in value)
                      and (len(value) > 0 or key == "na_tokens"))
            if not ok:
                raise DataValidationError(f"{path}: mapping key {key!r} holds {value!r}, "
                                          f"not {want}")
        try:
            return cls(outcome_col=raw["outcome"], treatment_col=raw["treatment"],
                       response_col=raw["response"], covariate_cols=raw["covariates"],
                       na_tokens=raw["na_tokens"])
        except DataValidationError as exc:
            raise DataValidationError(f"{path}: {exc}") from None


def read_json_object(path) -> dict:
    """Parse a JSON file holding one object; malformed JSON or another top-level
    value is a :class:`DataValidationError` naming the file."""
    with open(path, encoding="utf-8-sig") as fh:
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


def _data_rows(fh, mapping: ColumnMapping) -> csv.DictReader:
    """A reader over ``fh`` whose header has passed the column checks; the
    handle stands at the first data row."""
    reader = csv.DictReader(fh)
    if reader.fieldnames is None:
        raise DataValidationError("empty file, header row required")
    missing = [c for c in mapping.columns if c not in reader.fieldnames]
    if missing:
        raise DataValidationError(f"missing columns {missing}")
    repeated = [c for c in mapping.columns if reader.fieldnames.count(c) > 1]
    if repeated:
        # csv.DictReader would silently keep the last of the repeated fields
        raise DataValidationError(f"the header names column {repeated[0]!r} more than once")
    return reader


def _parse_arrays(fh, header: list, mapping: ColumnMapping) -> tuple | None:
    """(x, d, r, y) from the data rows left in ``fh``, parsed as arrays.

    None when a mapped field does not parse as a float, a row's field count
    differs from the header's, or there is no data row: the row loop then
    loads the file or names the offending row and column.  Fields are quoted
    as ``csv`` quotes them.  Where this succeeds, every mapped token is one
    the row loop reads to the same bits; an unmapped field is copied as its
    first character.
    """
    import warnings

    na_tokens = mapping.na_tokens
    col = header.index
    converters = {col(mapping.outcome_col):
                  lambda tok: math.nan if tok in na_tokens else float(tok)}
    mapped = mapping.columns
    # one field per header position, so that unmapped columns sharing a name are covered
    dtype = np.dtype([(str(j), "f8" if name in mapped else "U1") for j, name in enumerate(header)])
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # loadtxt warns on a file without data rows
            arr = np.loadtxt(fh, delimiter=",", comments=None, quotechar='"', ndmin=1,
                             dtype=dtype, converters=converters)
    except ValueError:
        return None
    if arr.shape[0] == 0:
        return None
    # np.stack copies x C-ordered (the fits' last digits follow the layout),
    # and every array is a copy, so none keeps arr alive once this returns
    x = np.stack([arr[str(col(c))] for c in mapping.covariate_cols], axis=1)
    d, r, y = (arr[str(col(c))].copy()
               for c in (mapping.treatment_col, mapping.response_col, mapping.outcome_col))
    return x, d, r, y


def _parse_rows(reader: csv.DictReader, mapping: ColumnMapping) -> tuple:
    """(x, d, r, y) from the reader's rows, one row at a time; the first bad
    row raises a DataValidationError naming the row and the column."""
    xs, ds_, rs, ys = [], [], [], []
    for i, rec in enumerate(reader):
        if None in rec:  # csv.DictReader files a long row's extra fields under None
            raise DataValidationError(f"data row {i} has {len(rec[None])} more "
                                      "fields than the header")
        rs.append(_parse_number(rec[mapping.response_col], i, mapping.response_col))
        ds_.append(_parse_number(rec[mapping.treatment_col], i, mapping.treatment_col))
        y_tok = rec[mapping.outcome_col]
        ys.append(math.nan if y_tok in mapping.na_tokens
                  else _parse_number(y_tok, i, mapping.outcome_col))
        xs.append([_parse_number(rec[c], i, c) for c in mapping.covariate_cols])
    if not xs:
        raise DataValidationError("no data rows")
    return np.asarray(xs), np.asarray(ds_), np.asarray(rs), np.asarray(ys)


def load_csv(path, mapping: ColumnMapping) -> ExperimentDataset:
    """Parse a header-bearing CSV, after a UTF-8 byte-order mark if any, into a dataset.

    An outcome that is one of the mapping's NA tokens reads as NaN.  The
    data rows are parsed as arrays; a file that does not parse that way is
    read again row by row, which loads what ``float`` reads or names the
    first bad row.  Every error names the file: a missing or repeated mapped
    column, a row with too few or too many fields and a non-numeric value
    also name the row or column, and the dataset's own checks (binary
    indicators, an outcome exactly on responding rows, finite values) name
    the rows.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8-sig") as fh:
            arrays = _parse_arrays(fh, _data_rows(fh, mapping).fieldnames, mapping)
        if arrays is None:
            with path.open(newline="", encoding="utf-8-sig") as fh:
                arrays = _parse_rows(_data_rows(fh, mapping), mapping)
        return ExperimentDataset(*arrays)
    except DataValidationError as exc:
        raise DataValidationError(f"{path}: {exc}") from None


def save_csv(ds: ExperimentDataset, path) -> ColumnMapping:
    """Write the observed fields of a dataset as columns ``x1..xk, d, r, y``, a
    missing outcome as NA, and return their mapping; floats round-trip exactly."""
    mapping = ColumnMapping(outcome_col="y", treatment_col="d", response_col="r",
                            covariate_cols=tuple(f"x{j + 1}" for j in range(ds.k)))
    # tolist() gives Python floats; csv would write an np.float64 as "np.float64(...)"
    write_csv(path, [*mapping.covariate_cols, "d", "r", "y"],
              ([*x, d, r, "NA" if math.isnan(y) else y]
               for x, d, r, y in zip(ds.x.tolist(), ds.d.tolist(), ds.r.tolist(),
                                     ds.y.tolist())))
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


def now_iso() -> str:
    return datetime.now(timezone.utc).isoformat()


@dataclass
class RunManifest:
    """Reproducibility record written next to every output.

    Volatile fields (timestamps, wall time) live here so the reports next to
    it stay byte-identical across reruns.  The clock starts when the
    manifest is made and stops when it is written.
    """

    command: list
    config: dict
    seed: int
    library_version: str = field(default=LIBRARY_VERSION, init=False)
    rng: str = field(default=RNG_NOTE, init=False)
    input_digest: str = ""
    digest: str = field(default="", init=False)
    started_at: str = field(default_factory=now_iso, init=False)
    finished_at: str = field(default="", init=False)
    wall_time: float = field(default=0.0, init=False)

    def __post_init__(self):
        self.digest = digest_of({"command": self.command, "config": self.config,
                                 "seed": self.seed, "version": self.library_version,
                                 "input_digest": self.input_digest})

    @classmethod
    def for_run(cls, name: str, config: dict, data=None, mapping=None) -> "RunManifest":
        """The record of one CLI command, its clock started.

        The command echoes ``--data``/``--map`` when given, then every config
        entry as ``--key value`` (floats by ``repr``), so parsing it gives the
        config back.  The input digest covers the input files' bytes, or the
        config when the command reads no file.
        """
        command = [name]
        input_digest = digest_of(config)
        if data is not None:
            command += ["--data", str(data), "--map", str(mapping)]
            input_digest = digest_of({"data": file_digest(data),
                                      "mapping": file_digest(mapping)})
        for key, value in config.items():
            command += [f"--{key}", repr(value) if isinstance(value, float) else str(value)]
        return cls(command=command, config=config, seed=config["seed"],
                   input_digest=input_digest)

    def write(self, path) -> None:
        self.finished_at = now_iso()
        self.wall_time = (datetime.fromisoformat(self.finished_at)
                          - datetime.fromisoformat(self.started_at)).total_seconds()
        dump_json(asdict(self), path)


def file_digest(path) -> str:
    """SHA-256 of the file's bytes, read in 1 MiB blocks."""
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        while block := fh.read(1 << 20):
            digest.update(block)
    return digest.hexdigest()


def write_csv(path, header: list, rows) -> None:
    """One header row, then ``rows``.  None is written as an empty field and a
    float in its shortest round-tripping form, so values read back exactly."""
    with Path(path).open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(["" if v is None else v for v in row] for row in rows)


def mc_report_dict(report: McReport, run_digest: str) -> dict:
    """Deterministic JSON form of an MC report (wall time goes to the manifest)."""
    return {
        "dgp": {**asdict(report.dgp), "k": report.dgp.k},
        "method": report.method,
        "learner": report.cfg.learner,
        "config": {"alpha": report.cfg.alpha, "gamma": report.cfg.gamma,
                   "seed": report.cfg.seed},
        "run_digest": run_digest,
        "aggregate": {**report.aggregate, "n_reps": len(report.reps),
                      "n_failed": report.n_failed},
        "reps": [asdict(r) for r in report.reps],
    }


def report_row(doc: dict, path) -> dict:
    """The ``report`` merge's row for the mc_report.json document read from
    ``path``: the run, then each aggregate with a spread as ``<name>_mean``
    and ``<name>_sd``.  A missing key, or a key the merge sorts or groups by
    that holds the wrong type, raises DataValidationError."""
    try:
        for key in ("aggregate", "dgp", "config"):
            if not isinstance(doc[key], dict):
                raise DataValidationError(f"{path}: report key {key!r} holds "
                                          f"{type(doc[key]).__name__}, not an object")
        agg, dgp, config = doc["aggregate"], doc["dgp"], doc["config"]
        row = {
            "method": doc["method"], "learner": doc.get("learner", ""),
            "dgp": dgp["kind"], "n": dgp["n"], "rho": dgp["rho"],
            "alpha": config["alpha"], "gamma": config["gamma"],
            **{f"{name}_{stat}": agg[f"{stat}_{name}"]
               for name, _, spread in AGGREGATES if spread for stat in ("mean", "sd")},
            "n_reps": agg["n_reps"], "n_failed": agg["n_failed"],
            "run_digest": doc.get("run_digest", ""),
        }
    except KeyError as exc:
        raise DataValidationError(f"{path}: report is missing key {exc}") from None
    # the values the merge sorts or groups by must compare with each other
    for key, field, kinds in (("method", "method", str), ("dgp.kind", "dgp", str),
                              ("dgp.n", "n", int), ("dgp.rho", "rho", (int, float)),
                              ("config.alpha", "alpha", (int, float)),
                              ("config.gamma", "gamma", (int, float)),
                              ("run_digest", "run_digest", str)):
        value = row[field]
        if isinstance(value, bool) or not isinstance(value, kinds):
            want = {str: "a string", int: "an integer"}.get(kinds, "a number")
            raise DataValidationError(f"{path}: report key {key!r} holds "
                                      f"{type(value).__name__}, not {want}")
    return row


# ate_summary.json's columns: the AteSummary estimate and standard-error fields
ATE_COLUMNS = {"ATER1": ("ate_r1", "se_r1"), "ATER0": ("ate_r0", "se_r0"),
               "ATEall": ("ate_all", "se_all"), "Length": ("length", "se_length")}


def ate_summary_dict(summary: AteSummary, ipw: AteEstimate, method: str, reps: int,
                     failures: list) -> dict:
    """Deterministic JSON form of an ``analyze`` run's ATE summary."""
    return {
        "columns": list(ATE_COLUMNS),
        "method": method,
        "estimates": {col: getattr(summary, est) for col, (est, _) in ATE_COLUMNS.items()},
        "standard_errors": {col: getattr(summary, se) for col, (_, se) in ATE_COLUMNS.items()},
        "ipw": {"ATER1": ipw.estimate, "se": ipw.se},
        "n_r1": summary.n_r1, "n_r0": summary.n_r0, "reps": reps, "failed_reps": failures,
        "notes": None if summary.n_r0 else "no attrition rows: ATEall equals ATER1",
    }


def write_mc_long_csv(report: McReport, path) -> None:
    """Plot-ready long format: one row per (rep, metric), the metrics being
    the RepRecord fields other than the rep, its attrition count and error."""
    metrics = [f.name for f in fields(RepRecord) if f.name not in ("rep", "n_attrition", "error")]
    rows = ([report.method, report.dgp.kind, report.dgp.n, report.dgp.rho, rec.rep, metric,
             None if (value := getattr(rec, metric)) is None else float(value)]
            for rec in report.reps for metric in metrics)
    write_csv(path, ["method", "dgp", "n", "rho", "rep", "metric", "value"], rows)
