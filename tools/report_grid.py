"""Write a fixed grid of CLI reports, for byte-identity checks between two checkouts.

    PYTHONPATH=<checkout>/src python tools/report_grid.py OUT

runs the package CLI (whichever ``attrition_conformal`` is on the path)
over a fixed set of 25 commands and writes 54 files under OUT besides the run
manifests:

- ``simulate`` on dgp1, dgp2 and appendixE with each method, glm, n=400,
  3 reps; dgp1 with cise also once more with ``--threads 2``, and the tool
  exits non-zero unless that cell's ``mc_report.json`` and ``mc_long.csv``
  are byte-equal to the one-worker cell's;
- cise with glm, n=400, 3 reps, on dgp2 with ``--rho 0.5`` and on appendixE
  with ``--missingness MCAR``, so that correlated and MCAR draws are covered;
- each method with random_forest on dgp1, n=300, 1 rep;
- ``analyze`` of a 600-row DGP1 CSV with each method using glm (3 reps) and
  using random_forest (2 reps), plus the CSV and its mapping file;
- the glm cise ``analyze`` cell once more on the same CSV with a leading
  string ``id`` column, which the mapping does not name, once more on that
  CSV written R-style, with every header name and every ``id`` quoted, and
  once more with ``--threads 2``; the tool exits non-zero unless each one's
  ``ate_summary.json`` and ``intervals.csv`` are byte-equal to the plain
  cell's;
- ``report`` over the nine one-worker glm ``simulate`` cells of the first item.

Run it against two checkouts and compare with ``diff -r -x manifest.json``;
manifests carry timestamps and wall times, so they always differ.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from attrition_conformal.cli import main
from attrition_conformal.io import save_csv
from attrition_conformal.simulation import METHODS, DgpSpec, generate

# Seeds 11 and 12 would do as well now, but checkouts that expand step-1
# intervals by a negative eta_alpha without repairing the crossing fail a
# replicate of `simulate --dgp appendixE --method cise --learner glm` there;
# seed 13 keeps grids comparable with those checkouts.
SEED = 13
LEVELS = ["--alpha", "0.05", "--gamma", "0.05"]


def _run(argv: list) -> None:
    rc = main(argv)
    if rc != 0:
        raise SystemExit(f"exit {rc}: {' '.join(argv)}")


def _require_equal(one: Path, two: Path, names: tuple, what: str) -> None:
    for name in names:
        if (one / name).read_bytes() != (two / name).read_bytes():
            raise SystemExit(f"{name} differs between {what}")


def build_grid(out: Path) -> None:
    glm_runs = []
    for dgp in ("dgp1", "dgp2", "appendixE"):
        for method in METHODS:
            run = out / "simulate" / f"{dgp}_{method}_glm"
            _run(["simulate", "--dgp", dgp, "--n", "400", "--reps", "3", "--method", method,
                  "--learner", "glm", "--seed", str(SEED), *LEVELS, "--out", str(run)])
            glm_runs.append(run / "mc_report.json")
    one, two = out / "simulate" / "dgp1_cise_glm", out / "simulate" / "dgp1_cise_glm_threads2"
    _run(["simulate", "--dgp", "dgp1", "--n", "400", "--reps", "3", "--method", "cise",
          "--learner", "glm", "--seed", str(SEED), *LEVELS, "--threads", "2",
          "--out", str(two)])
    _require_equal(one, two, ("mc_report.json", "mc_long.csv"), "--threads 1 and --threads 2")
    for name, dgp_args in (("dgp2_rho05", ["--dgp", "dgp2", "--rho", "0.5"]),
                           ("appendixE_mcar", ["--dgp", "appendixE", "--missingness", "MCAR"])):
        _run(["simulate", *dgp_args, "--n", "400", "--reps", "3", "--method", "cise",
              "--learner", "glm", "--seed", str(SEED), *LEVELS,
              "--out", str(out / "simulate" / f"{name}_cise_glm")])
    for method in METHODS:
        _run(["simulate", "--dgp", "dgp1", "--n", "300", "--reps", "1", "--method", method,
              "--learner", "random_forest", "--seed", str(SEED), *LEVELS,
              "--out", str(out / "simulate" / f"dgp1_{method}_rf")])

    data_dir = out / "analyze"
    data_dir.mkdir(parents=True, exist_ok=True)
    data, map_path = data_dir / "data.csv", data_dir / "map.json"
    mapping = save_csv(generate(DgpSpec(kind="dgp1", n=600, seed=SEED)).dataset, data)
    map_path.write_text(json.dumps({"outcome": mapping.outcome_col,
                                    "treatment": mapping.treatment_col,
                                    "response": mapping.response_col,
                                    "covariates": list(mapping.covariate_cols)}),
                        encoding="utf-8")
    head, *rows = data.read_text(encoding="utf-8").splitlines()
    ids = data_dir / "data_ids.csv"
    ids.write_text("\n".join([f"id,{head}", *(f"u{i},{row}" for i, row in enumerate(rows))])
                   + "\n", encoding="utf-8")
    quoted = data_dir / "data_quoted.csv"
    quoted.write_text("\n".join([",".join(f'"{name}"' for name in ["id", *head.split(",")]),
                                 *(f'"u{i}",{row}' for i, row in enumerate(rows))]) + "\n",
                      encoding="utf-8")
    analyses = ([(data, m, "glm", 3, 1, f"{m}_glm") for m in METHODS]
                + [(data, m, "random_forest", 2, 1, f"{m}_random_forest") for m in METHODS]
                + [(ids, "cise", "glm", 3, 1, "cise_glm_ids"),
                   (quoted, "cise", "glm", 3, 1, "cise_glm_quoted"),
                   (data, "cise", "glm", 3, 2, "cise_glm_threads2")])
    for csv_path, method, learner, reps, threads, cell in analyses:
        _run(["analyze", "--data", str(csv_path), "--map", str(map_path), "--method", method,
              "--learner", learner, "--reps", str(reps), "--seed", str(SEED), *LEVELS,
              "--threads", str(threads), "--out", str(data_dir / cell)])
    for cell, what in (("cise_glm_ids", "the CSV with and without an id column"),
                       ("cise_glm_quoted", "the CSV plain and written with quotes"),
                       ("cise_glm_threads2", "analyze --threads 1 and --threads 2")):
        _require_equal(data_dir / "cise_glm", data_dir / cell,
                       ("ate_summary.json", "intervals.csv"), what)

    _run(["report", "--in", *map(str, glm_runs), "--out", str(out / "report")])


if __name__ == "__main__":
    if len(sys.argv) != 2:
        raise SystemExit(__doc__)
    build_grid(Path(sys.argv[1]))
