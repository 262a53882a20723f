import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrition_conformal.data import (ConformalConfig, DataValidationError,
                                      ExperimentDataset, InsufficientDataError,
                                      make_splits, validate_dataset)


def table_pattern_dataset():
    # the canonical observation pattern: outcome present iff responding
    x = np.arange(8, dtype=float).reshape(4, 2)
    d = np.array([1, 0, 0, 1])
    r = np.array([1, 1, 1, 1])
    y = np.array([0.5, -0.1, 0.2, 1.3])
    return ExperimentDataset(x=x, d=d, r=r, y=y)


def test_validate_clean_dataset():
    report = validate_dataset(table_pattern_dataset())
    assert report.n == 4
    assert report.cell_counts[(1, 1)] == 2
    assert report.cell_counts[(0, 1)] == 2
    # both observed arms present and no structural problems: no flags at all
    assert report.warnings == ()


def test_outcome_on_attrited_row_is_structural_error():
    x = np.ones((3, 2))
    with pytest.raises(DataValidationError, match="attrited"):
        validate_dataset(ExperimentDataset(x=x, d=[1, 0, 1], r=[1, 1, 0],
                                           y=[1.0, 2.0, 3.0]))


def test_missing_outcome_on_responding_row_is_structural_error():
    x = np.ones((2, 2))
    with pytest.raises(DataValidationError, match="missing"):
        validate_dataset(ExperimentDataset(x=x, d=[1, 0], r=[1, 1],
                                           y=[np.nan, 2.0]))


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_outcome_on_responding_row_is_structural_error(bad):
    x = np.ones((3, 2))
    ds = ExperimentDataset(x=x, d=[1, 0, 1], r=[1, 1, 1], y=[1.0, bad, 2.0])
    with pytest.raises(DataValidationError, match=r"non-finite outcome on responding rows \[1\]"):
        validate_dataset(ds)


@pytest.mark.parametrize("bad", ["inf", "-inf"])
def test_infinite_outcome_in_csv_is_structural_error(tmp_path, bad):
    from attrition_conformal.io import ColumnMapping, load_csv

    path = tmp_path / "data.csv"
    path.write_text(f"x1,d,r,y\n0.5,1,1,1.0\n0.1,0,1,{bad}\n0.2,0,0,NA\n")
    ds = load_csv(path, ColumnMapping(outcome_col="y", treatment_col="d",
                                      response_col="r", covariate_cols=("x1",)))
    with pytest.raises(DataValidationError, match=r"non-finite outcome on responding rows \[1\]"):
        validate_dataset(ds)


def test_nonbinary_treatment_rejected():
    x = np.ones((2, 2))
    with pytest.raises(DataValidationError, match="treatment"):
        validate_dataset(ExperimentDataset(x=x, d=[2, 0], r=[1, 1], y=[1.0, 2.0]))


def test_empty_control_cell_is_warning_not_error():
    x = np.ones((3, 1))
    ds = ExperimentDataset(x=x, d=[1, 1, 1], r=[1, 1, 0], y=[1.0, 2.0, np.nan])
    report = validate_dataset(ds)
    assert "no D=0,R=1 cell" in report.warnings
    with pytest.raises(DataValidationError):
        validate_dataset(ds, require_both_arms=True)


def test_nonfinite_covariates_rejected():
    with pytest.raises(DataValidationError, match="non-finite"):
        ExperimentDataset(x=[[1.0], [np.inf]], d=[0, 1], r=[1, 1], y=[1.0, 2.0])


def test_dataset_arrays_are_frozen():
    ds = table_pattern_dataset()
    with pytest.raises(ValueError):
        ds.x[0, 0] = 99.0


def test_config_validation():
    cfg = ConformalConfig(alpha=0.05, gamma=0.05, seed=3, learner="random_forest")
    assert (cfg.alpha, cfg.gamma, cfg.seed, cfg.learner) == (0.05, 0.05, 3, "random_forest")
    assert ConformalConfig().learner == "glm"
    with pytest.raises(ValueError):
        ConformalConfig(alpha=0.6, gamma=0.5)
    with pytest.raises(ValueError):
        ConformalConfig(alpha=0.0)
    with pytest.raises(ValueError, match="unknown learner"):
        ConformalConfig(learner="quantile_linear")


def test_split_sizes_at_default_fractions():
    # n=1000: pretrain 200, train 600 split 300/300, calibration 200
    r = np.ones(1000, dtype=int)
    plan = make_splits(1000, r, ConformalConfig(seed=3))
    assert plan.pretrain.size == 200
    assert plan.train1.size + plan.train2.size == 600
    assert abs(plan.train1.size - plan.train2.size) <= 1
    assert plan.calibration.size == 200


@settings(max_examples=200, deadline=None)
@given(n=st.integers(8, 3000), pattern_seed=st.integers(0, 2**32 - 1),
       response_rate=st.floats(0.0, 1.0), seed=st.integers(0, 2**64 - 1))
def test_split_partition_property(n, pattern_seed, response_rate, seed):
    r = (np.random.default_rng(pattern_seed).random(n) < response_rate).astype(int)
    plan = make_splits(n, r, ConformalConfig(seed=seed))
    folds = (plan.pretrain, plan.train1, plan.train2, plan.calibration)
    assert all(fold.size > 0 for fold in folds)
    assert np.array_equal(np.sort(np.concatenate(folds)), np.arange(n))
    # step-2 folds partition the calibration rows with r = 1
    cal_obs = plan.calibration[r[plan.calibration] == 1]
    merged2 = np.concatenate([plan.step2_train, plan.step2_cal])
    assert np.array_equal(np.sort(merged2), np.sort(cal_obs))


def test_split_fraction_rounding_within_one_row():
    for n in (101, 350, 999):
        r = np.ones(n, dtype=int)
        plan = make_splits(n, r, ConformalConfig(seed=1))
        assert abs(plan.pretrain.size - round(0.2 * n)) <= 1
        rest = n - plan.pretrain.size
        assert abs(plan.train1.size + plan.train2.size - round(0.75 * rest)) <= 1


def test_split_determinism():
    r = np.ones(64, dtype=int)
    a = make_splits(64, r, ConformalConfig(seed=1234))
    b = make_splits(64, r, ConformalConfig(seed=1234))
    for name in ("pretrain", "train1", "train2", "calibration", "step2_train", "step2_cal"):
        assert np.array_equal(getattr(a, name), getattr(b, name))
    c = make_splits(64, r, ConformalConfig(seed=1235))
    assert not np.array_equal(a.pretrain, c.pretrain)


def test_split_too_small():
    with pytest.raises(InsufficientDataError):
        make_splits(7, np.ones(7, dtype=int), ConformalConfig())
