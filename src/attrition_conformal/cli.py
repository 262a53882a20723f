"""Command-line entry points: simulate, analyze, report.

Exit codes: 0 success, 2 usage, 3 data validation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
import time
from pathlib import Path

from .data import LEARNERS, ConformalConfig, DataValidationError, InsufficientDataError
from .io import (ColumnMapping, RunManifest, digest_of, dump_json, file_digest,
                 load_csv, mc_report_dict, now_iso, read_json_object, write_mc_long_csv)
from .pipelines import aggregate_ate, diff_in_means, ipw_ate
from .simulation import METHODS, DgpSpec, run_mc, run_replicates

WORKERS_ENV = "ATTRITION_CONFORMAL_WORKERS"


def _workers(args, parser) -> int:
    if args.threads is not None:
        return max(1, args.threads)
    env = os.environ.get(WORKERS_ENV)
    if not env:
        return 1
    try:
        return max(1, int(env))
    except ValueError:
        parser.error(f"{WORKERS_ENV} must be an integer, got {env!r}")


def _run_config(args, parser) -> ConformalConfig:
    """The run configuration; an out-of-range ``--reps``, ``--alpha`` or
    ``--gamma`` is a usage error, found before any replicate runs."""
    if args.reps < 1:
        parser.error(f"--reps must be at least 1, got {args.reps}")
    try:
        return ConformalConfig(alpha=args.alpha, gamma=args.gamma, seed=args.seed,
                               learner=args.learner)
    except ValueError as exc:
        parser.error(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="attrition-conformal",
                                     description="Prediction intervals for treatment "
                                                 "effects under experiment attrition")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="Monte Carlo study on a synthetic DGP")
    sim.add_argument("--dgp", required=True, choices=("dgp1", "dgp2", "appendixE"))
    sim.add_argument("--n", required=True, type=int)
    sim.add_argument("--reps", required=True, type=int)
    sim.add_argument("--method", required=True, choices=METHODS)
    sim.add_argument("--learner", default="glm", choices=LEARNERS)
    sim.add_argument("--alpha", type=float, default=0.025)
    sim.add_argument("--gamma", type=float, default=0.025)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--missingness", default="MAR", choices=("MAR", "MCAR"))
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", required=True)
    sim.add_argument("--threads", type=int, default=None)

    ana = sub.add_parser("analyze", help="run a pipeline on a CSV dataset")
    ana.add_argument("--data", required=True)
    ana.add_argument("--map", required=True, dest="mapping")
    ana.add_argument("--method", required=True, choices=METHODS)
    ana.add_argument("--reps", type=int, default=10)
    ana.add_argument("--learner", default="glm", choices=LEARNERS)
    ana.add_argument("--alpha", type=float, default=0.025)
    ana.add_argument("--gamma", type=float, default=0.025)
    ana.add_argument("--seed", type=int, default=0)
    ana.add_argument("--out", required=True)
    ana.add_argument("--threads", type=int, default=None)

    rep = sub.add_parser("report", help="merge mc_report.json files into a table")
    rep.add_argument("--in", required=True, nargs="+", dest="inputs")
    rep.add_argument("--allow-mixed", action="store_true")
    rep.add_argument("--out", required=True)
    return parser


def cmd_simulate(args, parser) -> int:
    if args.dgp == "appendixE" and args.rho is not None:
        parser.error("--rho does not apply to the appendixE DGP")
    rho = args.rho if args.rho is not None else 0.0
    try:
        dgp = DgpSpec(kind=args.dgp, n=args.n, rho=rho, missingness=args.missingness,
                      seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    cfg = _run_config(args, parser)
    started = now_iso()
    t0 = time.time()
    report = run_mc(dgp, args.method, cfg, reps=args.reps, workers=_workers(args, parser))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    command = ["simulate", "--dgp", args.dgp, "--n", str(args.n), "--reps", str(args.reps),
               "--method", args.method, "--learner", args.learner,
               "--alpha", repr(args.alpha), "--gamma", repr(args.gamma),
               "--rho", repr(rho), "--missingness", args.missingness,
               "--seed", str(args.seed)]
    config = {"dgp": args.dgp, "n": args.n, "reps": args.reps, "method": args.method,
              "learner": args.learner, "alpha": args.alpha, "gamma": args.gamma,
              "rho": rho, "missingness": args.missingness, "seed": args.seed}
    manifest = RunManifest(command=command, config=config, seed=args.seed,
                           input_digest=digest_of(config))
    dump_json(mc_report_dict(report, manifest.digest), out / "mc_report.json")
    write_mc_long_csv(report, out / "mc_long.csv")
    manifest.started_at = started
    manifest.finished_at = now_iso()
    manifest.wall_time = time.time() - t0
    manifest.write(out / "manifest.json")
    cov = "n/a" if report.mean_coverage is None else f"{report.mean_coverage:.3f}"
    length = "n/a" if report.mean_length is None else f"{report.mean_length:.3f}"
    print(f"{args.method} on {args.dgp}: coverage {cov}, length {length}, "
          f"{report.n_failed} failed reps -> {out}")
    return 0


def _attrition_intervals(rep, draw, result) -> tuple:
    # the reports need only these; keeping whole results grows memory per rep
    return result.che_lo, result.che_hi


def cmd_analyze(args, parser) -> int:
    cfg = _run_config(args, parser)
    started = now_iso()
    t0 = time.time()
    mapping = ColumnMapping.from_json(args.mapping)
    ds = load_csv(args.data, mapping)

    # replicates run in this process: --threads applies to simulate only
    replicates = run_replicates(ds, args.method, cfg, args.reps, _attrition_intervals)
    intervals = [iv for _, iv, error in replicates if error is None]
    failures = [f"rep {rep}: {error}" for rep, _, error in replicates if error is not None]

    diff = diff_in_means(ds)
    summary = aggregate_ate(intervals, ds, diff.estimate, diff.se)
    ipw = ipw_ate(ds, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    estimates = {"ATER1": summary.ate_r1, "ATER0": summary.ate_r0,
                 "ATEall": summary.ate_all, "Length": summary.length}
    ses = {"ATER1": summary.se_r1, "ATER0": summary.se_r0,
           "ATEall": summary.se_all, "Length": summary.se_length}
    summary_doc = {
        "columns": ["ATER1", "ATER0", "ATEall", "Length"],
        "method": args.method,
        "estimates": estimates,
        "standard_errors": ses,
        "ipw": {"ATER1": ipw.estimate, "se": ipw.se},
        "n_r1": summary.n_r1,
        "n_r0": summary.n_r0,
        "reps": args.reps,
        "failed_reps": failures,
        "notes": (None if summary.n_r0 else "no attrition rows: ATEall equals ATER1"),
    }
    dump_json(summary_doc, out / "ate_summary.json")

    with (out / "intervals.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["row", "mean_lo", "mean_hi", "finite_reps"])
        for row, lo, hi, cnt in zip(summary.att_idx, summary.mean_lo, summary.mean_hi,
                                    summary.finite_reps):
            writer.writerow([int(row), repr(float(lo)), repr(float(hi)), int(cnt)])

    command = ["analyze", "--data", str(args.data), "--map", str(args.mapping),
               "--method", args.method, "--reps", str(args.reps),
               "--learner", args.learner, "--alpha", repr(args.alpha),
               "--gamma", repr(args.gamma), "--seed", str(args.seed)]
    config = {"method": args.method, "reps": args.reps, "learner": args.learner,
              "alpha": args.alpha, "gamma": args.gamma, "seed": args.seed}
    manifest = RunManifest(command=command, config=config, seed=args.seed,
                           input_digest=digest_of({"data": file_digest(args.data),
                                                   "mapping": file_digest(args.mapping)}))
    manifest.started_at = started
    manifest.finished_at = now_iso()
    manifest.wall_time = time.time() - t0
    manifest.write(out / "manifest.json")
    print(f"{args.method} on {args.data}: ATEall "
          f"{round(summary.ate_all, 4)} -> {out}")
    return 0


def cmd_report(args, parser) -> int:
    seen = {}
    for path in args.inputs:
        doc = read_json_object(path)
        try:
            agg, dgp, config = doc["aggregate"], doc["dgp"], doc["config"]
            for key, value in (("aggregate", agg), ("dgp", dgp), ("config", config)):
                if not isinstance(value, dict):
                    raise DataValidationError(f"{path}: report key {key!r} holds "
                                              f"{type(value).__name__}, not an object")
            row = {
                "method": doc["method"], "learner": doc.get("learner", ""),
                "dgp": dgp["kind"], "n": dgp["n"], "rho": dgp["rho"],
                "alpha": config["alpha"], "gamma": config["gamma"],
                "coverage_mean": agg["mean_coverage"], "coverage_sd": agg["sd_coverage"],
                "length_mean": agg["mean_length"], "length_sd": agg["sd_length"],
                "n_reps": agg["n_reps"], "n_failed": agg["n_failed"],
                "run_digest": doc.get("run_digest", ""),
            }
        except KeyError as exc:
            raise DataValidationError(f"{path}: report is missing key {exc}") from None
        seen.setdefault(row["run_digest"], row)  # dedup by manifest digest
    rows = list(seen.values())
    levels = {(r["alpha"], r["gamma"]) for r in rows}
    if len(levels) > 1 and not args.allow_mixed:
        raise DataValidationError(f"mixed nominal levels across inputs: {sorted(levels)}; "
                                  "pass --allow-mixed to merge anyway")

    rows.sort(key=lambda r: (r["method"], r["dgp"], r["n"], r["rho"], r["run_digest"]))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json({"rows": rows}, out / "report.json")
    cols = ["method", "learner", "dgp", "n", "rho", "alpha", "gamma", "coverage_mean",
            "coverage_sd", "length_mean", "length_sd", "n_reps", "n_failed", "run_digest"]
    with (out / "report.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(cols)
        for row in rows:
            writer.writerow(["" if row[c] is None else row[c] for c in cols])
    print(f"merged {len(rows)} runs -> {out}")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "simulate":
            return cmd_simulate(args, parser)
        if args.command == "analyze":
            return cmd_analyze(args, parser)
        return cmd_report(args, parser)
    except (DataValidationError, InsufficientDataError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
