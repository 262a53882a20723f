import csv
import json
import math

import numpy as np
import pytest

from attrition_conformal.cli import main
from attrition_conformal.data import ConformalConfig, DataValidationError, ExperimentDataset
from attrition_conformal.io import ColumnMapping, load_csv, save_csv
from attrition_conformal.pipelines import run_cise
from attrition_conformal.rng import child_seed
from attrition_conformal.simulation import DgpSpec, generate


def _write_mapping(path, covariates):
    path.write_text(json.dumps({"outcome": "y", "treatment": "d", "response": "r",
                                "covariates": list(covariates)}))


def test_csv_round_trip_exact(tmp_path):
    draw = generate(DgpSpec(kind="dgp1", n=200, seed=1))
    ds = draw.dataset
    path = tmp_path / "data.csv"
    mapping = save_csv(ds, path)
    back = load_csv(path, mapping)
    assert np.array_equal(back.x, ds.x)
    assert np.array_equal(back.d, ds.d)
    assert np.array_equal(back.r, ds.r)
    assert np.array_equal(np.isnan(back.y), np.isnan(ds.y))
    assert np.array_equal(back.y[back.r == 1], ds.y[ds.r == 1])


def test_load_csv_well_formed(tmp_path):
    p = tmp_path / "small.csv"
    p.write_text("x1,x2,d,r,y\n0.5,1.0,1,1,2.5\n-0.3,0.2,0,1,1.1\n0.0,0.0,0,0,NA\n")
    mapping = ColumnMapping(outcome_col="y", treatment_col="d", response_col="r",
                            covariate_cols=("x1", "x2"))
    ds = load_csv(p, mapping)
    assert ds.n == 3
    assert math.isnan(ds.y[2])


def test_load_csv_na_outcome_on_responding_row(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("x1,d,r,y\n0.5,1,1,NA\n")
    mapping = ColumnMapping(outcome_col="y", treatment_col="d", response_col="r",
                            covariate_cols=("x1",))
    with pytest.raises(DataValidationError, match=r"bad\.csv: outcome missing on responding rows \[0\]"):
        load_csv(p, mapping)


def test_load_csv_nonnumeric_covariate_names_column(tmp_path):
    p = tmp_path / "bad2.csv"
    p.write_text("x1,d,r,y\nabc,1,1,2.0\n")
    mapping = ColumnMapping(outcome_col="y", treatment_col="d", response_col="r",
                            covariate_cols=("x1",))
    with pytest.raises(DataValidationError, match="x1"):
        load_csv(p, mapping)


def test_mapping_requires_distinct_names():
    with pytest.raises(DataValidationError, match="'y'"):
        ColumnMapping(outcome_col="y", treatment_col="y", response_col="r",
                      covariate_cols=("x1",))


@pytest.mark.parametrize("key, value, column", [("treatment", "y", "y"),
                                                ("covariates", ["x1", "x1"], "x1")])
def test_mapping_naming_a_column_twice_is_data_error(tmp_path, capsys, key, value, column):
    data = tmp_path / "small.csv"
    data.write_text("x1,d,r,y\n0.5,1,1,2.5\n0.1,0,0,NA\n")
    map_path = tmp_path / "m.json"
    map_path.write_text(json.dumps({"outcome": "y", "treatment": "d", "response": "r",
                                    "covariates": ["x1"], key: value}))
    rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "m.json" in err and repr(column) in err


@pytest.mark.parametrize("key, value", [("covariates", "x1"), ("covariates", []),
                                        ("covariates", ["x1", 2]), ("na_tokens", "NA"),
                                        ("outcome", 5), ("treatment", None)])
def test_mapping_value_of_wrong_type_is_data_error(tmp_path, capsys, key, value):
    # a string is not split into one-character columns or tokens, and a
    # non-string column name is not reported as a missing column
    data = tmp_path / "small.csv"
    data.write_text("x1,d,r,y\n0.5,1,1,2.5\n0.1,0,0,NA\n")
    map_path = tmp_path / "wrong_map.json"
    map_path.write_text(json.dumps({"outcome": "y", "treatment": "d", "response": "r",
                                    "covariates": ["x1"], "na_tokens": ["NA"], key: value}))
    with pytest.raises(DataValidationError, match=f"wrong_map.json: mapping key '{key}'"):
        ColumnMapping.from_json(map_path)
    rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "wrong_map.json" in err and repr(key) in err


def test_csv_header_repeating_a_mapped_column_is_data_error(tmp_path, capsys):
    # csv.DictReader would keep the second x1 column without a word
    data = tmp_path / "dup.csv"
    data.write_text("x1,x1,d,r,y\n0.5,9.0,1,1,2.5\n")
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, ["x1"])
    mapping = ColumnMapping.from_json(map_path)
    with pytest.raises(DataValidationError, match="'x1'"):
        load_csv(data, mapping)
    rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "dup.csv" in err and "'x1'" in err
    # a repeated column that the mapping does not name is not read, so it may repeat
    other = tmp_path / "dup_unmapped.csv"
    other.write_text("z,z,x1,d,r,y\n1,2,0.5,1,1,2.5\n")
    assert load_csv(other, mapping).x[0, 0] == 0.5


def test_cmd_simulate_writes_three_files(tmp_path):
    # the second run's exact baseline has its unweighted quantile past the sample
    # in every replicate, so no attrition interval is finite and the ATE mean is null
    for method, n, seed, finite_attrition in (("cise", "500", "7", True),
                                              ("wcqr_nested_exact", "150", "1", False)):
        out = tmp_path / method
        rc = main(["simulate", "--dgp", "dgp1", "--n", n, "--reps", "5",
                   "--method", method, "--learner", "glm", "--alpha", "0.025",
                   "--gamma", "0.025", "--rho", "0", "--seed", seed,
                   "--out", str(out)])
        assert rc == 0
        assert (out / "mc_report.json").exists()
        assert (out / "mc_long.csv").exists()
        assert (out / "manifest.json").exists()
        report = json.loads((out / "mc_report.json").read_text())
        assert len(report["reps"]) == 5
        assert list(report["dgp"]) == ["kind", "n", "rho", "missingness", "seed", "k"]
        assert list(report["aggregate"]) == ["mean_coverage", "sd_coverage", "mean_length",
                                             "sd_length", "mean_ate_r1", "mean_ate_attrition",
                                             "n_reps", "n_failed"]
        assert report["aggregate"]["n_failed"] == 0
        assert (report["aggregate"]["mean_ate_attrition"] is not None) == finite_attrition


def test_cmd_simulate_rerun_is_byte_identical(tmp_path):
    args = ["simulate", "--dgp", "dgp1", "--n", "300", "--reps", "2",
            "--method", "cise", "--learner", "glm", "--alpha", "0.1",
            "--gamma", "0.1", "--seed", "3"]
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "mc_report.json").read_bytes() == (out2 / "mc_report.json").read_bytes()
    assert (out1 / "mc_long.csv").read_bytes() == (out2 / "mc_long.csv").read_bytes()


def test_cmd_simulate_method_length_ordering(tmp_path):
    # the nested baseline's report shows wider mean length than the two-step
    # method's on the same grid
    base = ["simulate", "--dgp", "dgp1", "--n", "800", "--reps", "5",
            "--learner", "random_forest", "--alpha", "0.025", "--gamma", "0.025",
            "--seed", "7"]
    out_cise = tmp_path / "cise"
    out_wcqr = tmp_path / "wcqr"
    assert main(base + ["--method", "cise", "--out", str(out_cise)]) == 0
    assert main(base + ["--method", "wcqr_nested_exact", "--out", str(out_wcqr)]) == 0
    len_cise = json.loads((out_cise / "mc_report.json").read_text())["aggregate"]["mean_length"]
    len_wcqr = json.loads((out_wcqr / "mc_report.json").read_text())["aggregate"]["mean_length"]
    assert len_cise < len_wcqr


@pytest.mark.parametrize("seed", ["11", "12"])
def test_cmd_simulate_negative_eta_alpha_is_not_a_failure(tmp_path, seed):
    # a replicate of each run solves eta_alpha below zero, which crosses some
    # counterfactual intervals; they become points and step 2 runs on them
    out = tmp_path / "run"
    rc = main(["simulate", "--dgp", "appendixE", "--n", "400", "--reps", "3",
               "--method", "cise", "--learner", "glm", "--seed", seed,
               "--alpha", "0.05", "--gamma", "0.05", "--out", str(out)])
    assert rc == 0
    assert json.loads((out / "mc_report.json").read_text())["aggregate"]["n_failed"] == 0


def test_cmd_simulate_rho_with_appendix_e_is_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--dgp", "appendixE", "--n", "100", "--reps", "1",
              "--method", "cise", "--rho", "0.9", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_cmd_analyze_outputs(tmp_path):
    draw = generate(DgpSpec(kind="dgp1", n=800, seed=11))
    data = tmp_path / "exp.csv"
    mapping = save_csv(draw.dataset, data)
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, mapping.covariate_cols)
    out = tmp_path / "res"
    rc = main(["analyze", "--data", str(data), "--map", str(map_path),
               "--method", "cise", "--reps", "3", "--alpha", "0.05",
               "--gamma", "0.05", "--seed", "5", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "ate_summary.json").read_text())
    assert list(summary) == ["columns", "method", "estimates", "standard_errors", "ipw",
                             "n_r1", "n_r0", "reps", "failed_reps", "notes"]
    assert summary["columns"] == ["ATER1", "ATER0", "ATEall", "Length"]
    assert list(summary["estimates"]) == list(summary["standard_errors"]) == summary["columns"]
    for key in ("ATER1", "ATER0", "ATEall", "Length"):
        assert summary["estimates"][key] is not None
    assert summary["ipw"]["ATER1"] is not None
    lines = (out / "intervals.csv").read_text().strip().splitlines()
    assert len(lines) == 1 + summary["n_r0"]


def test_cmd_analyze_no_attrition_passthrough(tmp_path):
    rng = np.random.default_rng(0)
    n = 400
    x = rng.standard_normal((n, 2))
    d = (rng.random(n) < 0.5).astype(int)
    y = d + rng.standard_normal(n)
    import csv as _csv

    data = tmp_path / "full.csv"
    with data.open("w", newline="") as fh:
        w = _csv.writer(fh)
        w.writerow(["x1", "x2", "d", "r", "y"])
        for i in range(n):
            w.writerow([repr(float(x[i, 0])), repr(float(x[i, 1])), d[i], 1,
                        repr(float(y[i]))])
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, ["x1", "x2"])
    out = tmp_path / "res"
    rc = main(["analyze", "--data", str(data), "--map", str(map_path),
               "--method", "cise", "--reps", "2", "--alpha", "0.1",
               "--gamma", "0.1", "--seed", "2", "--out", str(out)])
    assert rc == 0
    summary = json.loads((out / "ate_summary.json").read_text())
    assert summary["estimates"]["ATEall"] == summary["estimates"]["ATER1"]
    assert summary["estimates"]["ATER0"] is None


def test_cmd_analyze_rerun_byte_identical(tmp_path):
    draw = generate(DgpSpec(kind="dgp1", n=600, seed=13))
    data = tmp_path / "exp.csv"
    mapping = save_csv(draw.dataset, data)
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, mapping.covariate_cols)
    args = ["analyze", "--data", str(data), "--map", str(map_path),
            "--method", "wcqr_nested_exact", "--reps", "2", "--alpha", "0.05",
            "--gamma", "0.05", "--seed", "9"]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    assert (out1 / "ate_summary.json").read_bytes() == (out2 / "ate_summary.json").read_bytes()
    assert (out1 / "intervals.csv").read_bytes() == (out2 / "intervals.csv").read_bytes()


def test_analyze_threads_reach_the_replicate_engine(tmp_path, monkeypatch):
    # --threads N hands workers=N to run_replicates, and the reports are the same for any N
    import inspect

    from attrition_conformal import cli

    run_replicates, workers = cli.run_replicates, []

    def spy(*args, **kwargs):
        workers.append(inspect.signature(run_replicates).bind(*args, **kwargs)
                       .arguments.get("workers", 1))
        return run_replicates(*args, **kwargs)

    monkeypatch.setattr(cli, "run_replicates", spy)
    data, map_path = tmp_path / "exp.csv", tmp_path / "map.json"
    mapping = save_csv(generate(DgpSpec(kind="dgp1", n=600, seed=13)).dataset, data)
    _write_mapping(map_path, mapping.covariate_cols)
    args = ["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
            "--reps", "3", "--seed", "9"]
    for threads in ("1", "2"):
        assert main(args + ["--threads", threads, "--out", str(tmp_path / threads)]) == 0
    assert workers == [1, 2]
    for name in ("ate_summary.json", "intervals.csv"):
        assert (tmp_path / "1" / name).read_bytes() == (tmp_path / "2" / name).read_bytes()


def test_cmd_report_merges_and_dedups(tmp_path):
    base = ["simulate", "--dgp", "dgp1", "--n", "300", "--reps", "2",
            "--method", "cise", "--learner", "glm", "--alpha", "0.1",
            "--gamma", "0.1"]
    run1, run2 = tmp_path / "r1", tmp_path / "r2"
    assert main(base + ["--seed", "1", "--out", str(run1)]) == 0
    assert main(base + ["--seed", "2", "--out", str(run2)]) == 0
    out = tmp_path / "merged"
    rc = main(["report", "--in", str(run1 / "mc_report.json"),
               str(run2 / "mc_report.json"), "--out", str(out)])
    assert rc == 0
    merged = json.loads((out / "report.json").read_text())
    assert len(merged["rows"]) == 2
    assert (out / "report.csv").read_text().splitlines()[0] == (
        "method,learner,dgp,n,rho,alpha,gamma,coverage_mean,coverage_sd,length_mean,"
        "length_sd,n_reps,n_failed,run_digest")
    # merging is order-independent
    out_rev = tmp_path / "merged_rev"
    rc = main(["report", "--in", str(run2 / "mc_report.json"),
               str(run1 / "mc_report.json"), "--out", str(out_rev)])
    assert rc == 0
    assert (out / "report.json").read_bytes() == (out_rev / "report.json").read_bytes()
    # duplicate inputs deduplicate by run digest
    rc = main(["report", "--in", str(run1 / "mc_report.json"),
               str(run1 / "mc_report.json"), "--out", str(out)])
    assert rc == 0
    merged = json.loads((out / "report.json").read_text())
    assert len(merged["rows"]) == 1


def test_cmd_report_mixed_levels_rejected(tmp_path):
    base = ["simulate", "--dgp", "dgp1", "--n", "300", "--reps", "1",
            "--method", "cise", "--learner", "glm", "--seed", "1"]
    run1, run2 = tmp_path / "m1", tmp_path / "m2"
    assert main(base + ["--alpha", "0.1", "--gamma", "0.1", "--out", str(run1)]) == 0
    assert main(base + ["--alpha", "0.05", "--gamma", "0.05", "--out", str(run2)]) == 0
    out = tmp_path / "merged"
    rc = main(["report", "--in", str(run1 / "mc_report.json"),
               str(run2 / "mc_report.json"), "--out", str(out)])
    assert rc == 3
    rc = main(["report", "--in", str(run1 / "mc_report.json"),
               str(run2 / "mc_report.json"), "--allow-mixed", "--out", str(out)])
    assert rc == 0


def test_cmd_report_empty_inputs_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["report", "--out", str(tmp_path)])
    assert exc.value.code == 2


def test_manifest_command_parses_back_to_its_config(tmp_path):
    """The command a manifest echoes, which its digest hashes, is the run's config."""
    from attrition_conformal.cli import _build_parser

    draw = generate(DgpSpec(kind="dgp1", n=200, seed=3))
    data, map_path = tmp_path / "d.csv", tmp_path / "map.json"
    _write_mapping(map_path, save_csv(draw.dataset, data).covariate_cols)
    runs = {"simulate": ["simulate", "--dgp", "dgp2", "--n", "200", "--reps", "1",
                         "--method", "wcqr_nested_inexact", "--alpha", "0.0123456789",
                         "--gamma", "0.05", "--rho", "0.3", "--seed", "4"],
            "analyze": ["analyze", "--data", str(data), "--map", str(map_path),
                        "--method", "wcqr_nested_inexact", "--reps", "1",
                        "--alpha", "0.0123456789", "--seed", "4"]}
    for name, argv in runs.items():
        assert main(argv + ["--out", str(tmp_path / name)]) == 0
        manifest = json.loads((tmp_path / name / "manifest.json").read_text())
        parsed = vars(_build_parser().parse_args(manifest["command"] + ["--out", "x"]))
        assert {key: parsed[key] for key in manifest["config"]} == manifest["config"]
        assert manifest["seed"] == 4 and manifest["wall_time"] >= 0.0
    assert (parsed["data"], parsed["mapping"]) == (str(data), str(map_path))


def test_too_few_rows_is_data_error_before_any_replicate(tmp_path, monkeypatch, capsys):
    from attrition_conformal import cli

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_replicates", no_run)
    data = tmp_path / "tiny.csv"
    data.write_text("x1,d,r,y\n0.1,1,1,2.0\n0.2,0,1,1.0\n0.3,1,0,NA\n0.4,0,1,0.5\n")
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, ["x1"])
    for method in ("cise", "wcqr_nested_exact"):
        rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", method,
                   "--reps", "2", "--out", str(tmp_path / method)])
        assert rc == 3
        err = capsys.readouterr().err
        assert "tiny.csv" in err and "4 data rows" in err


def test_replicates_all_short_of_data_exit_3(tmp_path, capsys):
    # 12 rows pass the row floor, but every replicate's folds are too small
    data, map_path = tmp_path / "small.csv", tmp_path / "map.json"
    mapping = save_csv(generate(DgpSpec(kind="dgp1", n=12, seed=1)).dataset, data)
    _write_mapping(map_path, mapping.covariate_cols)
    for method in ("cise", "wcqr_nested_exact"):
        rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", method,
                   "--reps", "2", "--out", str(tmp_path / method)])
        assert rc == 3
        assert "2/2 replicates failed" in capsys.readouterr().err
    assert main(["simulate", "--dgp", "dgp1", "--n", "12", "--reps", "2", "--method", "cise",
                 "--out", str(tmp_path / "sim")]) == 3


def test_replicate_failures_with_a_numerical_error_exit_4(tmp_path, monkeypatch):
    from attrition_conformal import simulation
    from attrition_conformal.data import InsufficientDataError

    def short_then_singular(ds, method, cfg):
        if cfg.seed == child_seed(0, 0):
            raise ValueError("singular system")
        raise InsufficientDataError("few rows")

    monkeypatch.setattr(simulation, "run_method", short_then_singular)
    data, map_path = tmp_path / "data.csv", tmp_path / "map.json"
    mapping = save_csv(generate(DgpSpec(kind="dgp1", n=200, seed=3)).dataset, data)
    _write_mapping(map_path, mapping.covariate_cols)
    assert main(["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
                 "--reps", "2", "--out", str(tmp_path / "ana")]) == 4
    assert main(["simulate", "--dgp", "dgp1", "--n", "200", "--reps", "2", "--method", "cise",
                 "--out", str(tmp_path / "sim")]) == 4


def test_run_cise_checks_both_arms_before_splitting():
    # too few rows to split and no responding controls: the data error wins
    ds = ExperimentDataset(x=np.arange(4.0)[:, None], d=np.array([1, 1, 0, 1]),
                           r=np.array([1, 1, 0, 1]), y=np.array([1.0, 2.0, np.nan, 3.0]))
    with pytest.raises(DataValidationError, match="arm 0"):
        run_cise(ds, ConformalConfig())


def _write_rows(path, rows):
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x1", "x2", "d", "r", "y"])
        writer.writerows(rows)


def test_analyze_without_observed_controls_is_data_error(tmp_path, capsys):
    # every responding row is treated: a structural problem of the data,
    # reported once with exit 3 rather than counted as failed replicates
    rng = np.random.default_rng(4)
    rows = []
    for i in range(200):
        d, r = (1, 1) if i % 3 else (0, 0)
        y = repr(float(rng.standard_normal())) if r else "NA"
        rows.append([repr(float(rng.standard_normal())), repr(float(rng.standard_normal())),
                     d, r, y])
    data = tmp_path / "no_controls.csv"
    _write_rows(data, rows)
    map_path = tmp_path / "map.json"
    map_path.write_text(json.dumps({"outcome": "y", "treatment": "d", "response": "r",
                                    "covariates": ["x1", "x2"], "na_tokens": ["NA"]}))
    for method in ("cise", "wcqr_nested_exact"):
        rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", method,
                   "--reps", "2", "--out", str(tmp_path / method)])
        assert rc == 3
        assert "replicates failed" not in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["inf", "-inf"])
def test_analyze_nonfinite_outcome_is_data_error(tmp_path, capsys, bad):
    rng = np.random.default_rng(5)
    rows = [[repr(float(rng.standard_normal())), repr(float(rng.standard_normal())),
             i % 2, 1, repr(float(rng.standard_normal()))] for i in range(100)]
    rows[17][4] = bad
    data = tmp_path / "inf.csv"
    _write_rows(data, rows)
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, ["x1", "x2"])
    rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
               "--reps", "1", "--out", str(tmp_path / "o")])
    assert rc == 3
    assert "[17]" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["missing", "directory"])
@pytest.mark.parametrize("flag", ["--data", "--map", "--in"], ids=["data", "map", "report_in"])
def test_exit_code_for_missing_data(tmp_path, capsys, flag, bad):
    # an input that is not a readable file is a data problem, not a numerical one
    data, map_path = tmp_path / "data.csv", tmp_path / "map.json"
    mapping = save_csv(generate(DgpSpec(kind="dgp1", n=12, seed=1)).dataset, data)
    _write_mapping(map_path, mapping.covariate_cols)
    if bad == "missing":
        path = tmp_path / "nope"
    else:
        path = tmp_path / "a_directory"
        path.mkdir()
    if flag == "--in":
        argv = ["report", "--in", str(path), "--out", str(tmp_path / "o")]
    else:
        argv = ["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
                "--out", str(tmp_path / "o")]
        argv[argv.index(flag) + 1] = str(path)
    assert main(argv) == 3
    assert str(path) in capsys.readouterr().err


def test_short_csv_row_is_data_error_naming_row_and_column(tmp_path, capsys):
    data = tmp_path / "short.csv"
    data.write_text("x1,x2,d,r,y\n0.5,1.0,1,1,2.5\n0.3,0.4,0,1\n")
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, ["x1", "x2"])
    rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "data row 1" in err and "'y'" in err



def test_long_csv_row_is_data_error_naming_row(tmp_path, capsys):
    data = tmp_path / "long.csv"
    data.write_text("x1,x2,d,r,y\n0.5,1.0,1,1,2.5\n0.3,0.4,0,1,1.5,9.9\n")
    map_path = tmp_path / "map.json"
    _write_mapping(map_path, ["x1", "x2"])
    rc = main(["analyze", "--data", str(data), "--map", str(map_path), "--method", "cise",
               "--out", str(tmp_path / "o")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "long.csv" in err and "data row 1" in err


SIMULATE = ["simulate", "--dgp", "dgp1", "--n", "300", "--reps", "2", "--method", "cise"]
ANALYZE = ["analyze", "--data", "never-read.csv", "--map", "never-read.json",
           "--method", "cise"]


@pytest.mark.parametrize("argv", [
    SIMULATE + ["--reps", "0"],
    SIMULATE + ["--n", "0"],
    SIMULATE + ["--n", "5"],
    SIMULATE + ["--alpha", "1.5"],
    SIMULATE + ["--gamma", "0"],
    SIMULATE + ["--alpha", "0.6", "--gamma", "0.5"],
    SIMULATE + ["--rho", "1.5"],
    SIMULATE + ["--rho", "-0.1"],
    SIMULATE + ["--missingness", "MCAR"],
    ANALYZE + ["--reps", "0"],
    ANALYZE + ["--alpha", "1.5"],
    ANALYZE + ["--gamma", "-0.1"],
    SIMULATE + ["--threads", "0"],
    ANALYZE + ["--threads", "0"],
], ids=lambda argv: " ".join([argv[0]] + argv[len(SIMULATE if argv[0] == "simulate"
                                                      else ANALYZE):]))
def test_out_of_range_option_is_usage_error(tmp_path, monkeypatch, argv):
    from attrition_conformal import cli

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(cli, "run_mc", no_run)
    monkeypatch.setattr(cli, "run_replicates", no_run)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "o")])
    assert exc.value.code == 2


def test_value_error_during_a_run_is_numerical_failure(tmp_path, monkeypatch, capsys):
    from attrition_conformal import cli

    def fail(*args, **kwargs):
        raise ValueError("singular system")

    monkeypatch.setattr(cli, "run_mc", fail)
    assert main(SIMULATE + ["--out", str(tmp_path / "o")]) == 4
    assert "singular system" in capsys.readouterr().err


def test_malformed_mapping_json_is_data_error(tmp_path, capsys):
    data = tmp_path / "small.csv"
    data.write_text("x1,d,r,y\n0.5,1,1,2.5\n")
    for name, text in (("broken.json", '{"outcome": "y",'), ("list.json", '["y"]')):
        map_path = tmp_path / name
        map_path.write_text(text)
        rc = main(["analyze", "--data", str(data), "--map", str(map_path),
                   "--method", "cise", "--out", str(tmp_path / "o")])
        assert rc == 3
        assert name in capsys.readouterr().err


def test_report_input_without_config_is_data_error(tmp_path, capsys):
    run = tmp_path / "run"
    assert main(SIMULATE + ["--n", "200", "--reps", "1", "--out", str(run)]) == 0
    doc = json.loads((run / "mc_report.json").read_text())
    del doc["config"]
    bad = tmp_path / "no_config.json"
    bad.write_text(json.dumps(doc))
    rc = main(["report", "--in", str(run / "mc_report.json"), str(bad),
               "--out", str(tmp_path / "merged")])
    assert rc == 3
    err = capsys.readouterr().err
    assert "no_config.json" in err and "'config'" in err
    broken = tmp_path / "broken.json"
    broken.write_text("{")
    assert main(["report", "--in", str(broken), "--out", str(tmp_path / "merged")]) == 3
    assert "broken.json" in capsys.readouterr().err


def _report_doc(digest):
    return {"method": "cise", "learner": "glm", "dgp": {"kind": "dgp1", "n": 200, "rho": 0.0},
            "config": {"alpha": 0.025, "gamma": 0.025}, "run_digest": digest,
            "aggregate": {"mean_coverage": 0.95, "sd_coverage": 0.01, "mean_length": 4.0,
                          "sd_length": 0.1, "n_reps": 2, "n_failed": 0}}


@pytest.mark.parametrize("key, value", [("dgp", 5), ("aggregate", []), ("method", ["x"]),
                                        ("dgp.kind", 1), ("dgp.n", "200"), ("dgp.n", True),
                                        ("dgp.rho", "0"), ("config.alpha", "0.1"),
                                        ("config.gamma", None), ("run_digest", 5)])
def test_report_value_of_wrong_type_is_data_error(tmp_path, capsys, key, value):
    # merged with a valid report, a wrong scalar type used to crash the sort
    # or slip through --allow-mixed
    good = tmp_path / "good.json"
    good.write_text(json.dumps(_report_doc("a")))
    doc = _report_doc("b")
    if "." in key:
        outer, inner = key.split(".")
        doc[outer][inner] = value
    else:
        doc[key] = value
    bad = tmp_path / "wrong_type.json"
    bad.write_text(json.dumps(doc))
    for extra in ([], ["--allow-mixed"]):
        rc = main(["report", "--in", str(good), str(bad), "--out", str(tmp_path / "merged"),
                   *extra])
        assert rc == 3
        err = capsys.readouterr().err
        assert "wrong_type.json" in err and repr(key) in err
