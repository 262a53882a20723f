"""Command-line entry points: simulate, analyze, report.

Exit codes: 0 success, 2 usage, 3 data validation, 4 numerical failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .data import (LEARNERS, MIN_ROWS, ConformalConfig, DataValidationError,
                   InsufficientDataError)
from .io import (ColumnMapping, RunManifest, ate_summary_dict, dump_json, load_csv,
                 mc_report_dict, read_json_object, report_row, write_csv,
                 write_mc_long_csv)
from .pipelines import aggregate_ate, diff_in_means, ipw_ate
from .simulation import METHODS, DgpSpec, run_mc, run_replicates

def _run_config(args, parser) -> ConformalConfig:
    """The run configuration; an out-of-range ``--reps``, ``--threads``,
    ``--alpha`` or ``--gamma`` is a usage error, found before any replicate runs."""
    for flag, value in (("--reps", args.reps), ("--threads", args.threads)):
        if value < 1:
            parser.error(f"{flag} must be at least 1, got {value}")
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

    shared = argparse.ArgumentParser(add_help=False)  # simulate's and analyze's options
    shared.add_argument("--method", required=True, choices=METHODS)
    shared.add_argument("--learner", default="glm", choices=LEARNERS)
    shared.add_argument("--alpha", type=float, default=0.025)
    shared.add_argument("--gamma", type=float, default=0.025)
    shared.add_argument("--seed", type=int, default=0)
    shared.add_argument("--out", required=True)
    shared.add_argument("--threads", type=int, default=1,
                        help="worker processes that run the replicates (default 1); "
                             "the reports are the same for any count")

    sim = sub.add_parser("simulate", parents=[shared],
                         help="Monte Carlo study on a synthetic DGP")
    sim.add_argument("--dgp", required=True, choices=("dgp1", "dgp2", "appendixE"))
    sim.add_argument("--n", required=True, type=int)
    sim.add_argument("--reps", required=True, type=int)
    sim.add_argument("--rho", type=float, default=None)
    sim.add_argument("--missingness", default="MAR", choices=("MAR", "MCAR"))

    ana = sub.add_parser("analyze", parents=[shared], help="run a pipeline on a CSV dataset")
    ana.add_argument("--data", required=True)
    ana.add_argument("--map", required=True, dest="mapping")
    ana.add_argument("--reps", type=int, default=10)

    rep = sub.add_parser("report", help="merge mc_report.json files into a table")
    rep.add_argument("--in", required=True, nargs="+", dest="inputs")
    rep.add_argument("--allow-mixed", action="store_true")
    rep.add_argument("--out", required=True)
    return parser


def cmd_simulate(args, parser) -> int:
    if args.dgp == "appendixE" and args.rho is not None:
        parser.error("--rho does not apply to the appendixE DGP")
    if args.n < MIN_ROWS:
        parser.error(f"--n must be at least {MIN_ROWS}, got {args.n}")
    rho = args.rho if args.rho is not None else 0.0
    try:
        dgp = DgpSpec(kind=args.dgp, n=args.n, rho=rho, missingness=args.missingness,
                      seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    cfg = _run_config(args, parser)
    manifest = RunManifest.for_run("simulate", {
        "dgp": args.dgp, "n": args.n, "reps": args.reps, "method": args.method,
        "learner": args.learner, "alpha": args.alpha, "gamma": args.gamma, "rho": rho,
        "missingness": args.missingness, "seed": args.seed})
    report = run_mc(dgp, args.method, cfg, reps=args.reps, workers=args.threads)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(mc_report_dict(report, manifest.digest), out / "mc_report.json")
    write_mc_long_csv(report, out / "mc_long.csv")
    manifest.write(out / "manifest.json")
    print(f"{args.method} on {args.dgp}: coverage {report.aggregate['mean_coverage']:.3f}, "
          f"length {report.aggregate['mean_length']:.3f}, "
          f"{report.n_failed} failed reps -> {out}")
    return 0


def _attrition_intervals(rep, draw, result) -> tuple:
    # the reports need only these; keeping whole results grows memory per rep
    return result.che_lo, result.che_hi


def cmd_analyze(args, parser) -> int:
    cfg = _run_config(args, parser)
    manifest = RunManifest.for_run("analyze", {
        "method": args.method, "reps": args.reps, "learner": args.learner,
        "alpha": args.alpha, "gamma": args.gamma, "seed": args.seed},
        data=args.data, mapping=args.mapping)
    ds = load_csv(args.data, ColumnMapping.from_json(args.mapping))
    if ds.n < MIN_ROWS:
        raise DataValidationError(f"{args.data}: {ds.n} data rows, need at least {MIN_ROWS}")

    replicates = run_replicates(ds, args.method, cfg, args.reps, _attrition_intervals,
                                workers=args.threads)
    intervals = [iv for _, iv, error in replicates if error is None]
    failures = [f"rep {rep}: {error}" for rep, _, error in replicates if error is not None]

    diff = diff_in_means(ds)
    summary = aggregate_ate(intervals, ds, diff.estimate, diff.se)
    ipw = ipw_ate(ds, cfg)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    dump_json(ate_summary_dict(summary, ipw, args.method, args.reps, failures),
              out / "ate_summary.json")

    write_csv(out / "intervals.csv", ["row", "mean_lo", "mean_hi", "finite_reps"],
              zip(summary.att_idx.tolist(), summary.mean_lo.tolist(), summary.mean_hi.tolist(),
                  summary.finite_reps.tolist()))
    manifest.write(out / "manifest.json")
    print(f"{args.method} on {args.data}: ATEall "
          f"{round(summary.ate_all, 4)} -> {out}")
    return 0


def cmd_report(args, parser) -> int:
    seen = {}
    for path in args.inputs:
        row = report_row(read_json_object(path), path)
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
    write_csv(out / "report.csv", list(rows[0]), [list(row.values()) for row in rows])
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
    except (DataValidationError, InsufficientDataError, FileNotFoundError,
            IsADirectoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (RuntimeError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
