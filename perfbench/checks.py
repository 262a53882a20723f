"""Output checks for the benchmark, computed apart from the program.

Every function here uses only the standard library: the checks recompute
what the program reports (differences in means, coverage, lengths, the
Gaussian oracle length) from the raw files and the generator's held-back
truths, so a fault in the program's own numerics cannot hide itself.  Each
``check_*`` function returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import csv
import math
from statistics import NormalDist

# Coverage floor for the nominal 1 - (alpha + gamma) = 0.95 level.
COVERAGE_FLOOR = 0.90
# Allowed distance of an estimate from its true value, in standard errors
# built from the report's own (see ``check_ate_summary`` and README.md).
SE_TOLERANCE = 4.0


def normal_quantile(p: float) -> float:
    """Standard normal quantile."""
    return NormalDist().inv_cdf(p)


def oracle_length(level: float) -> float:
    """Length of the shortest interval covering an N(0, 2) ITE noise with
    probability 1 - level: 2 * sqrt(2) * z_{1 - level / 2}."""
    return 2.0 * math.sqrt(2.0) * normal_quantile(1.0 - level / 2.0)


def interval_metrics(lo, hi, truth) -> dict:
    """Coverage, mean length and count of out-of-order intervals.

    An interval covers when lo <= t <= hi; an infinite endpoint makes the
    mean length infinite.
    """
    if not (len(lo) == len(hi) == len(truth)) or not lo:
        raise ValueError("intervals and truths must align and be non-empty")
    covered = 0
    bad_order = 0
    lengths = []
    for a, b, t in zip(lo, hi, truth):
        a, b, t = float(a), float(b), float(t)
        if a > b:
            bad_order += 1
        if a <= t <= b:
            covered += 1
        lengths.append(b - a)
    if any(math.isinf(v) for v in lengths):
        mean_length = math.inf
    else:
        mean_length = math.fsum(lengths) / len(lengths)
    return {"coverage": covered / len(lo), "avg_length": mean_length,
            "bad_order": bad_order, "n": len(lo)}


def check_mc_report(doc: dict) -> list:
    """A simulate report: no failed replicate, coverage at the floor, and a
    mean length no shorter than the oracle at the floor's level."""
    problems = []
    agg = doc["aggregate"]
    if agg["n_failed"] != 0 or any(r["error"] is not None for r in doc["reps"]):
        problems.append(f"{agg['n_failed']} failed replicates")
    cov = agg["mean_coverage"]
    if cov is None or cov < COVERAGE_FLOOR:
        problems.append(f"mean coverage {cov} below {COVERAGE_FLOOR}")
    length = agg["mean_length"]
    floor = oracle_length(1.0 - COVERAGE_FLOOR)
    if not isinstance(length, (int, float)) or not math.isfinite(length) or length < floor:
        problems.append(f"mean length {length} not a finite value >= oracle {floor:.4f}")
    for r in doc["reps"]:
        if r["infinite_count"]:
            problems.append(f"rep {r['rep']}: {r['infinite_count']} unbounded intervals")
    return problems


def check_replicates(doc: dict, recomputed: list) -> list:
    """Per-replicate coverage and length recomputed from the returned
    intervals must equal the report's; every interval must have lo <= hi."""
    problems = []
    reps = doc["reps"]
    if len(recomputed) != len(reps):
        return [f"{len(recomputed)} recomputed replicates for {len(reps)} reported"]
    for rep, mine in zip(reps, recomputed):
        if mine["bad_order"]:
            problems.append(f"rep {rep['rep']}: {mine['bad_order']} intervals with lo > hi")
        if mine["coverage"] != rep["coverage"]:
            problems.append(f"rep {rep['rep']}: coverage {rep['coverage']} reported, "
                            f"{mine['coverage']} recomputed")
        if not math.isclose(mine["avg_length"], rep["avg_length"], rel_tol=1e-9):
            problems.append(f"rep {rep['rep']}: length {rep['avg_length']} reported, "
                            f"{mine['avg_length']} recomputed")
    return problems


def read_experiment_csv(path, mapping: dict) -> dict:
    """Observed-arm outcome sums and the rows whose outcome is an NA token."""
    na_tokens = set(mapping.get("na_tokens", ("", "NA")))
    sums = {0: [], 1: []}
    na_rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for i, rec in enumerate(csv.DictReader(fh)):
            tok = rec[mapping["outcome"]]
            if tok in na_tokens:
                na_rows.append(i)
            else:
                sums[int(float(rec[mapping["treatment"]]))].append(float(tok))
    mean1 = math.fsum(sums[1]) / len(sums[1])
    mean0 = math.fsum(sums[0]) / len(sums[0])
    return {"diff_in_means": mean1 - mean0, "n_r1": len(sums[0]) + len(sums[1]),
            "n_r0": len(na_rows), "na_rows": na_rows}


def read_intervals_csv(path) -> dict:
    """The analyze command's per-row intervals: row -> (mean_lo, mean_hi)."""
    out = {}
    with open(path, newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            out[int(rec["row"])] = (float(rec["mean_lo"]), float(rec["mean_hi"]))
    return out


def check_ate_summary(summary: dict, data: dict, truth: dict) -> list:
    """An analyze summary against the CSV it read and the held-back truths.

    ``data`` comes from :func:`read_experiment_csv`; ``truth`` holds the
    generator's true ATE and the true mean ITE of the attrited rows.
    """
    problems = []
    est = summary["estimates"]
    se = summary["standard_errors"]
    if summary["failed_reps"]:
        problems.append(f"{len(summary['failed_reps'])} failed replicates")
    if summary["n_r1"] != data["n_r1"] or summary["n_r0"] != data["n_r0"]:
        problems.append(f"group sizes {summary['n_r1']}/{summary['n_r0']} reported, "
                        f"{data['n_r1']}/{data['n_r0']} in the CSV")
    if not math.isclose(est["ATER1"], data["diff_in_means"], rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"ATER1 {est['ATER1']} differs from the CSV difference in means "
                        f"{data['diff_in_means']}")
    n1, n0 = data["n_r1"], data["n_r0"]
    combined = (n1 * est["ATER1"] + n0 * est["ATER0"]) / (n1 + n0)
    if not math.isclose(est["ATEall"], combined, rel_tol=1e-9, abs_tol=1e-12):
        problems.append(f"ATEall {est['ATEall']} is not the n-weighted combination {combined}")
    ipw = summary["ipw"]
    if abs(ipw["ATER1"] - truth["ate"]) > SE_TOLERANCE * ipw["se"]:
        problems.append(f"IPW {ipw['ATER1']} is more than {SE_TOLERANCE} SE ({ipw['se']}) "
                        f"from the true ATE {truth['ate']}")
    se_r0 = ater0_se(summary)
    if abs(est["ATER0"] - truth["att_mean_ite"]) > SE_TOLERANCE * se_r0:
        problems.append(f"ATER0 {est['ATER0']} is more than {SE_TOLERANCE} SE ({se_r0}) "
                        f"from the true attrited-group mean ITE {truth['att_mean_ite']}")
    return problems


def ater0_se(summary: dict) -> float:
    """Standard error for ``ATER0`` against the true attrited-group mean ITE.

    The report's ``standard_errors.ATER0`` is the spread of the per-replicate
    estimates on one dataset: the noise of the random sample splits only.
    The sampling error of the dataset is added at the scale of a difference
    in means over the attrited rows, ``ATER1``'s SE times sqrt(n_r1 / n_r0).
    """
    se = summary["standard_errors"]
    sampling = se["ATER1"] * math.sqrt(summary["n_r1"] / summary["n_r0"])
    return math.hypot(se["ATER0"], sampling)


def check_intervals(intervals: dict, na_rows: list, att_ite: list) -> list:
    """``intervals.csv`` must hold exactly the NA-outcome rows, in order
    lo <= hi, and cover the held-back ITEs at the floor."""
    if sorted(intervals) != sorted(na_rows):
        missing = sorted(set(na_rows) - set(intervals))[:5]
        extra = sorted(set(intervals) - set(na_rows))[:5]
        return [f"intervals.csv rows differ from the NA-outcome rows "
                f"(missing {missing}, extra {extra})"]
    lo = [intervals[row][0] for row in na_rows]
    hi = [intervals[row][1] for row in na_rows]
    m = interval_metrics(lo, hi, att_ite)
    problems = []
    if m["bad_order"]:
        problems.append(f"{m['bad_order']} intervals with lo > hi")
    if m["coverage"] < COVERAGE_FLOOR:
        problems.append(f"held-back ITE coverage {m['coverage']} below {COVERAGE_FLOOR}")
    return problems
