"""Tests of the benchmark's own checkers and tracer (run with pytest)."""

import json
import math
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
if str(HERE.parent / "src") not in sys.path:
    sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import spans  # noqa: E402

MAPPING = {"outcome": "y", "treatment": "d", "response": "r", "covariates": ["x1"]}
CSV_TEXT = ("x1,d,r,y\n"
            "0.1,1,1,3.0\n0.2,1,1,5.0\n0.3,0,1,1.0\n0.4,0,1,2.0\n0.5,0,1,3.0\n"
            "0.6,1,0,NA\n0.7,0,0,NA\n")


@pytest.fixture
def data(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text(CSV_TEXT)
    return checks.read_experiment_csv(path, MAPPING)


def _summary(**estimates):
    est = {"ATER1": 2.0, "ATER0": 1.0, "ATEall": 12.0 / 7.0, "Length": 3.0}
    est.update(estimates)
    return {"estimates": est,
            "standard_errors": {"ATER1": 0.3, "ATER0": 0.5, "ATEall": 0.25, "Length": 0.1},
            "ipw": {"ATER1": 2.1, "se": 0.1}, "n_r1": 5, "n_r0": 2, "failed_reps": []}


TRUTH = {"ate": 2.0, "att_mean_ite": 1.2, "att_ite": [1.5, 0.5]}


def test_oracle_length_at_level_005():
    assert checks.oracle_length(0.05) == pytest.approx(5.5437, abs=1e-4)
    assert checks.normal_quantile(0.975) == pytest.approx(1.959964, abs=1e-6)


def test_csv_difference_in_means(data):
    assert data["diff_in_means"] == pytest.approx(2.0)
    assert (data["n_r1"], data["n_r0"], data["na_rows"]) == (5, 2, [5, 6])


def test_consistent_summary_passes(data):
    assert checks.check_ate_summary(_summary(), data, TRUTH) == []


def test_shifted_ater1_is_rejected(data):
    problems = checks.check_ate_summary(_summary(ATER1=2.01), data, TRUTH)
    assert any("ATER1" in p for p in problems)


def test_ateall_off_the_weighted_combination_is_rejected(data):
    problems = checks.check_ate_summary(_summary(ATEall=1.5), data, TRUTH)
    assert any("ATEall" in p for p in problems)


def test_ater0_se_adds_the_sampling_term():
    # split spread 0.5, sampling 0.3 * sqrt(5 / 2)
    assert checks.ater0_se(_summary()) == pytest.approx(math.sqrt(0.25 + 0.09 * 2.5))


def test_estimates_far_from_truth_are_rejected(data):
    tol = checks.SE_TOLERANCE * checks.ater0_se(_summary())
    near = dict(TRUTH, att_mean_ite=1.0 + 0.99 * tol)
    assert checks.check_ate_summary(_summary(), data, near) == []
    far = dict(TRUTH, ate=3.0, att_mean_ite=1.0 + 1.01 * tol)
    problems = checks.check_ate_summary(_summary(), data, far)
    assert any("IPW" in p for p in problems) and any("ATER0" in p for p in problems)


def test_intervals_checks(data):
    good = {5: (0.0, 2.0), 6: (-1.0, 1.0)}
    assert checks.check_intervals(good, data["na_rows"], TRUTH["att_ite"]) == []
    wrong_rows = {4: (0.0, 2.0), 6: (-1.0, 1.0)}
    assert checks.check_intervals(wrong_rows, data["na_rows"], TRUTH["att_ite"])
    reversed_ = {5: (2.0, 0.0), 6: (-1.0, 1.0)}
    assert any("lo > hi" in p for p in
               checks.check_intervals(reversed_, data["na_rows"], TRUTH["att_ite"]))


def test_read_intervals_csv(tmp_path):
    path = tmp_path / "intervals.csv"
    path.write_text("row,mean_lo,mean_hi,finite_reps\n5,0.0,2.0,3\n6,-1.0,1.0,3\n")
    assert checks.read_intervals_csv(path) == {5: (0.0, 2.0), 6: (-1.0, 1.0)}


def _mc_doc(**agg):
    doc = {"aggregate": {"n_failed": 0, "mean_coverage": 1.0, "mean_length": 5.0},
           "reps": [{"rep": 0, "coverage": 1.0, "avg_length": 2.0,
                     "infinite_count": 0, "error": None}]}
    doc["aggregate"].update(agg)
    return doc


def test_mc_report_checks():
    assert checks.check_mc_report(_mc_doc()) == []
    assert checks.check_mc_report(_mc_doc(mean_coverage=0.85))
    assert checks.check_mc_report(_mc_doc(mean_length=4.0))  # below 2 sqrt(2) z_0.95
    assert checks.check_mc_report(_mc_doc(n_failed=1))


def test_replicate_recomputation():
    doc = _mc_doc()
    mine = checks.interval_metrics([0.0, -1.0], [2.0, 1.0], [1.5, 0.5])
    assert checks.check_replicates(doc, [mine]) == []
    reversed_ = checks.interval_metrics([2.0, -1.0], [0.0, 1.0], [1.5, 0.5])
    assert any("lo > hi" in p for p in checks.check_replicates(doc, [reversed_]))
    uncovered = checks.interval_metrics([0.0, -1.0], [2.0, 1.0], [1.5, 5.0])
    assert any("coverage" in p for p in checks.check_replicates(doc, [uncovered]))


def test_kept_intervals_reproduce_the_report(tmp_path):
    pytest.importorskip("numpy")
    import child
    from attrition_conformal import cli, simulation

    orig = simulation.generate, simulation.run_method
    draws, results = [], []
    undo = child._keep_intervals(draws, results)
    try:
        rc = cli.main(["simulate", "--dgp", "dgp1", "--n", "400", "--reps", "2", "--method",
                       "cise", "--learner", "glm", "--seed", "3", "--out", str(tmp_path)])
    finally:
        spans.unbind(undo)
    assert rc == 0 and (simulation.generate, simulation.run_method) == orig
    doc = json.loads((tmp_path / "mc_report.json").read_text())
    mine = [checks.interval_metrics(lo.tolist(), hi.tolist(), ite[att].tolist())
            for ite, (att, lo, hi) in zip(draws, results)]
    assert len(mine) == 2 and checks.check_replicates(doc, mine) == []


def test_self_time_subtracts_children_and_folds_nested_fits():
    recorded = [("cli.main", 0.0, 10.0, -1, None),
                ("learners.cdf", 1.0, 4.0, 0, {"unconverged": 0}),
                ("learners.propensity", 1.5, 3.5, 1, {"unconverged": 1}),
                ("forest.fit", 2.0, 3.0, 2, {"trees": 5}),
                ("eif.solve", 5.0, 9.0, 0, {"candidates": 7})]
    agg = spans.layer_metrics(recorded)
    assert agg["names"]["cli.main"]["self_s"] == pytest.approx(3.0)
    assert agg["names"]["learners.cdf"] == {"calls": 1, "self_s": pytest.approx(2.0),
                                            "attrs": {"unconverged": 0}}
    assert "learners.propensity" not in agg["names"]
    assert agg["names"]["forest.fit"]["attrs"] == {"trees": 5}
    assert agg["layers"]["eif"] == pytest.approx(4.0)
    assert agg["total_self_s"] == pytest.approx(agg["root_s"]) == pytest.approx(10.0)


def test_tracer_wraps_functions_where_they_are_looked_up():
    pytest.importorskip("numpy")
    import attrition_conformal.cli  # noqa: F401
    from attrition_conformal import eif, forest, learners, pipelines

    orig_solve, orig_fit = eif.solve_smallest_eta, forest.fit_forest
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert pipelines.solve_smallest_eta is eif.solve_smallest_eta is not orig_solve
        assert learners.fit_forest is forest.fit_forest is not orig_fit
        result = pipelines.initial_eta([3.0, 1.0, 2.0], 0.5)
    finally:
        tracer.uninstall()
    assert pipelines.solve_smallest_eta is orig_solve and learners.fit_forest is orig_fit
    assert result == 2.0
    assert [s[0] for s in tracer.spans] == ["eif.initial"]


def test_benchmark_json_matches_the_runner():
    import run
    import workloads

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(workloads.REPS_PER_ROUND)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    per_layer = [(name, unit) for name, unit, _ in run.PER_LAYER] + list(run.RUN_LEVEL)
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == per_layer
    assert math.isclose(max(m["bound"] for m in bench["end_to_end"]),
                        next(m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s"))
