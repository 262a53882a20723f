"""The benchmark's workloads: the CLI commands of one round and their inputs.

A round is the workload's CLI commands run once, in order, in one fresh
process.  Every round of a run repeats the same commands with the same
seed, so the reports it writes must be byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

# simulate workloads: n, learner, methods (one command each), reps per command
SIMULATE = {
    "forest_mc": (1000, "random_forest", ("cise", "wcqr_nested_exact"), 1),
    "glm_large": (64000, "glm", ("cise",), 2),
}
ANALYZE_N = 64000
ANALYZE_REPS = 12

# replicates one round attempts
REPS_PER_ROUND = {name: len(methods) * reps for name, (_, _, methods, reps) in SIMULATE.items()}
REPS_PER_ROUND["analyze_csv"] = ANALYZE_REPS


def commands(name: str, seed: int, work: Path, out: Path) -> list:
    """(label, argv) pairs of one round; paths are relative to the checkout."""
    if name in SIMULATE:
        n, learner, methods, reps = SIMULATE[name]
        return [(m, ["simulate", "--dgp", "dgp1", "--n", str(n), "--rho", "0",
                     "--reps", str(reps), "--method", m, "--learner", learner,
                     "--seed", str(seed), "--threads", "1", "--out", str(out / m)])
                for m in methods]
    if name == "analyze_csv":
        return [("analyze", ["analyze", "--data", str(work / "data.csv"),
                             "--map", str(work / "mapping.json"),
                             "--method", "wcqr_nested_exact", "--learner", "glm",
                             "--reps", str(ANALYZE_REPS), "--seed", str(seed),
                             "--threads", "2", "--out", str(out / "analyze")])]
    raise KeyError(name)


def build_input(name: str, seed: int, work: Path) -> None:
    """Make the workload's input with the package's generators.

    The simulate workloads draw their data inside the CLI; their set-up
    draws the first replicate's dataset, the same one the CLI draws.  The
    CSV workload writes the dataset, its column mapping, and the true ITEs
    that the CLI never sees.
    """
    from attrition_conformal.rng import child_seed
    from attrition_conformal.simulation import DgpSpec, generate

    if name in SIMULATE:
        generate(DgpSpec(kind="dgp1", n=SIMULATE[name][0], rho=0.0, seed=child_seed(seed, 0)))
        return
    draw = generate(DgpSpec(kind="dgp2", n=ANALYZE_N, seed=seed))
    ds = draw.dataset
    covariates = [f"x{j + 1}" for j in range(ds.k)]
    with (work / "data.csv").open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow([*covariates, "d", "r", "y"])
        for xi, di, ri, yi in zip(ds.x.tolist(), ds.d.tolist(), ds.r.tolist(), ds.y.tolist()):
            writer.writerow([*map(repr, xi), di, ri, "NA" if math.isnan(yi) else repr(yi)])
    (work / "mapping.json").write_text(json.dumps(
        {"outcome": "y", "treatment": "d", "response": "r", "covariates": covariates,
         "na_tokens": ["NA"]}), encoding="utf-8")
    ite = draw.ite.tolist()
    att = [i for i, r in enumerate(ds.r.tolist()) if r == 0]
    truth = {"ate": math.fsum(ite) / len(ite),
             "att_mean_ite": math.fsum(ite[i] for i in att) / len(att),
             "att_ite": [ite[i] for i in att]}
    (work / "truth.json").write_text(json.dumps(truth), encoding="utf-8")
