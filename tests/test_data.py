import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrition_conformal import io
from attrition_conformal.data import (MIN_ROWS, ConformalConfig, DataValidationError,
                                      ExperimentDataset, InsufficientDataError,
                                      make_splits)
from attrition_conformal.io import ColumnMapping, load_csv, save_csv
from attrition_conformal.pipelines import (diff_in_means, ipw_ate, run_cise,
                                           wcqr_nested_baseline)
from attrition_conformal.simulation import DgpSpec, generate

CSV_MAPPING = ColumnMapping(outcome_col="y", treatment_col="d", response_col="r",
                            covariate_cols=("x1",))


def table_pattern_dataset():
    # the canonical observation pattern: outcome present iff responding
    x = np.arange(8, dtype=float).reshape(4, 2)
    d = np.array([1, 0, 0, 1])
    r = np.array([1, 1, 1, 1])
    y = np.array([0.5, -0.1, 0.2, 1.3])
    return ExperimentDataset(x=x, d=d, r=r, y=y)


def test_outcome_on_attrited_row_is_structural_error():
    x = np.ones((3, 2))
    with pytest.raises(DataValidationError, match=r"outcome present on attrited rows \[2\]"):
        ExperimentDataset(x=x, d=[1, 0, 1], r=[1, 1, 0], y=[1.0, 2.0, 3.0])


def test_missing_outcome_on_responding_row_is_structural_error():
    x = np.ones((2, 2))
    with pytest.raises(DataValidationError, match=r"outcome missing on responding rows \[0\]"):
        ExperimentDataset(x=x, d=[1, 0], r=[1, 1], y=[np.nan, 2.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf])
def test_infinite_outcome_on_responding_row_is_structural_error(bad):
    x = np.ones((3, 2))
    with pytest.raises(DataValidationError, match=r"non-finite outcome on responding rows \[1\]"):
        ExperimentDataset(x=x, d=[1, 0, 1], r=[1, 1, 1], y=[1.0, bad, 2.0])


@pytest.mark.parametrize("bad", ["inf", "-inf"])
def test_infinite_outcome_in_csv_is_structural_error(tmp_path, bad):
    path = tmp_path / "data.csv"
    path.write_text(f"x1,d,r,y\n0.5,1,1,1.0\n0.1,0,1,{bad}\n0.2,0,0,NA\n")
    with pytest.raises(DataValidationError,
                       match=r"data\.csv: non-finite outcome on responding rows \[1\]"):
        load_csv(path, CSV_MAPPING)


@pytest.mark.parametrize("bad", ["inf", "-inf", "nan"])
def test_nonfinite_covariate_in_csv_is_structural_error(tmp_path, bad):
    path = tmp_path / "data.csv"
    path.write_text(f"x1,d,r,y\n0.5,1,1,1.0\n0.1,0,1,2.0\n{bad},0,0,NA\n")
    with pytest.raises(DataValidationError,
                       match=r"data\.csv: non-finite covariate values at rows \[2\]"):
        load_csv(path, CSV_MAPPING)


def test_nan_outcome_token_on_attrited_row_loads(tmp_path):
    # "nan" parses to the same NaN as an NA token; only a NaN on a
    # responding row breaks the data model
    path = tmp_path / "data.csv"
    path.write_text("x1,d,r,y\n0.5,1,1,1.0\n0.1,0,0,nan\n")
    ds = load_csv(path, CSV_MAPPING)
    assert ds.r.tolist() == [1, 0] and np.isnan(ds.y[1])
    path.write_text("x1,d,r,y\n0.5,1,1,nan\n0.1,0,0,NA\n")
    with pytest.raises(DataValidationError,
                       match=r"data\.csv: outcome missing on responding rows \[0\]"):
        load_csv(path, CSV_MAPPING)


def test_nonbinary_treatment_rejected():
    x = np.ones((2, 2))
    with pytest.raises(DataValidationError, match=r"non-binary treatment at rows \[0\]"):
        ExperimentDataset(x=x, d=[2, 0], r=[1, 1], y=[1.0, 2.0])


def test_fractional_indicators_are_rejected_not_truncated():
    # an int64 cast would read d = 0.5 as 0 and r = 1.7 as 1
    x = np.ones((3, 1))
    with pytest.raises(DataValidationError, match=r"non-binary treatment at rows \[0\]"):
        ExperimentDataset(x=x, d=[0.5, 1, 0], r=[1, 1, 1], y=[1.0, 2.0, 3.0])
    with pytest.raises(DataValidationError, match=r"non-binary response at rows \[1\]"):
        ExperimentDataset(x=x, d=[0, 1, 0], r=[1, 1.7, 1], y=[1.0, 2.0, 3.0])
    ds = ExperimentDataset(x=x, d=[0.0, 1.0, True], r=np.array([1.0, 1.0, 0.0]),
                           y=[1.0, 2.0, np.nan])
    assert ds.d.dtype == ds.r.dtype == np.int64
    assert ds.d.tolist() == [0, 1, 1] and ds.r.tolist() == [1, 1, 0]


def test_fractional_indicator_in_csv_is_rejected(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,d,r,y\n0.5,1,1,1.0\n0.1,0.5,1,2.0\n")
    with pytest.raises(DataValidationError, match=r"data\.csv: non-binary treatment at rows \[1\]"):
        load_csv(path, CSV_MAPPING)
    path.write_text("x1,d,r,y\n0.5,1,1.7,1.0\n0.1,0,1,2.0\n")
    with pytest.raises(DataValidationError, match=r"data\.csv: non-binary response at rows \[0\]"):
        load_csv(path, CSV_MAPPING)


def test_empty_control_cell_is_warning_not_error():
    # a dataset without responding controls is well formed; only the
    # estimates that compare the arms refuse it
    r = np.tile([1, 1, 0], 4)
    ds = ExperimentDataset(x=np.ones((12, 1)), d=np.ones(12), r=r,
                           y=np.where(r == 1, 1.0, np.nan))
    cfg = ConformalConfig()
    for estimate in (diff_in_means, lambda ds: ipw_ate(ds, cfg),
                     lambda ds: run_cise(ds, cfg),
                     lambda ds: wcqr_nested_baseline(ds, cfg)):
        with pytest.raises(DataValidationError, match="no responding rows in treatment arm 0"):
            estimate(ds)


def test_nonfinite_covariates_rejected():
    with pytest.raises(DataValidationError, match=r"non-finite covariate values at rows \[1\]"):
        ExperimentDataset(x=[[1.0], [np.inf]], d=[0, 1], r=[1, 1], y=[1.0, 2.0])


_ODD = st.sampled_from([0.5, 2.0, -0.0, np.nan, np.inf, -np.inf])
_INDICATOR = st.one_of(st.sampled_from([0.0, 1.0]), _ODD)
_VALUE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), _ODD)


def _follows_data_model(x, d, r, y) -> bool:
    """The data model written out row by row: finite x, binary d and r, and
    y NaN exactly where r = 0 and finite where r = 1."""
    return all(np.isfinite(xi) and di in (0.0, 1.0) and ri in (0.0, 1.0)
               and (np.isnan(yi) if ri == 0.0 else np.isfinite(yi))
               for xi, di, ri, yi in zip(x, d, r, y))


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(st.tuples(_VALUE, _INDICATOR, _INDICATOR,
                               st.one_of(st.just(np.nan), _VALUE)),
                     min_size=1, max_size=6))
def test_dataset_accepts_exactly_the_data_model(tmp_path_factory, rows):
    x, d, r, y = (np.array(col) for col in zip(*rows))
    try:
        ds = ExperimentDataset(x=x[:, None], d=d, r=r, y=y)
    except DataValidationError:
        assert not _follows_data_model(x, d, r, y)
        return
    assert _follows_data_model(x, d, r, y)
    path = tmp_path_factory.mktemp("round_trip") / "data.csv"
    back = load_csv(path, save_csv(ds, path))
    for name in ("x", "d", "r", "y"):
        a, b = getattr(ds, name), getattr(back, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


_CSV2_MAPPING = ColumnMapping(outcome_col="y", treatment_col="d", response_col="r",
                              covariate_cols=("x1", "x2"))
_NUMBER = st.one_of(st.floats(allow_nan=False, allow_infinity=False).map(repr),
                    st.integers(-10**20, 10**20).map(str),
                    st.sampled_from(["+1.", ".5", "1e5", "-0.0", "1_0", "0.1000000000000000055511"]))
_ODD_TOKEN = st.sampled_from(["inf", "-inf", "nan", "Infinity", "NA", " NA", "NA ", "", "  ",
                              " 1.5 ", '"1.5"', '"NA"', '"a,b"', "0x10", "abc", "0.5", "2",
                              "١", "1 ", "-nan",
                              '"', ' "1"', '"1"5', '"a""b"', 'a"b'])


@st.composite
def _csv_text(draw):
    """A CSV text near the data model: mostly well-formed rows, with odd
    tokens, NA tokens with spaces, short and long rows (some files all of
    one shape), blank and whitespace-only lines, CRLF and an optional
    unmapped string column."""
    unmapped = draw(st.booleans())
    every_row = draw(st.sampled_from([None] * 4 + ["short", "long", "trailing comma"]))
    lines = ["x1,x2,d,r,y" + (",s" if unmapped else "")]
    for _ in range(draw(st.integers(0, 5))):
        r = draw(st.sampled_from(["0", "1"]))
        fields = [draw(_NUMBER), draw(_NUMBER), draw(st.sampled_from(["0", "1"])), r,
                  draw(_NUMBER) if r == "1"
                  else draw(st.sampled_from(["NA", "", "nan", " NA", "NA ", " ", "na"]))]
        if unmapped:
            fields.append(draw(st.sampled_from(["id7", "", "3"])))
        if draw(st.integers(0, 4)) == 0:
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_ODD_TOKEN)
        shape = every_row or draw(st.sampled_from(
            ["row"] * 10 + ["short", "long", "trailing comma", "blank line", "whitespace line"]))
        if shape == "short":
            fields.pop()
        elif shape == "long":
            fields.append(draw(_NUMBER))
        elif shape == "trailing comma":
            fields.append("")
        elif shape in ("blank line", "whitespace line"):
            lines.append("" if shape == "blank line" else " \t")
        lines.append(",".join(fields))
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return eol.join(lines) + draw(st.sampled_from([eol, ""]))


def _loaded(path):
    """The dataset's arrays as (dtype, shape, bytes), or the error message."""
    try:
        ds = load_csv(path, _CSV2_MAPPING)
    except DataValidationError as exc:
        return str(exc)
    return [(a.dtype.str, a.shape, a.tobytes()) for a in (ds.x, ds.d, ds.r, ds.y)]


@settings(max_examples=500, deadline=None)
@given(text=_csv_text())
def test_array_parse_matches_row_loop(tmp_path_factory, text):
    # where the file parses as arrays, the row loop reads the same bits;
    # where it does not, the row loop's message is the one raised
    path = tmp_path_factory.mktemp("parse") / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    fast = _loaded(path)
    with mock.patch.object(io, "_parse_arrays", return_value=None):
        assert _loaded(path) == fast


def test_clean_csv_is_parsed_as_arrays(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,x2,d,r,y\n0.5,1.0,1,1,2.5\n-0.3,0.2,0,1,1.1\n0.0,0.0,0,0,NA\n")
    with mock.patch.object(io, "_parse_rows", side_effect=AssertionError("row loop ran")):
        ds = load_csv(path, _CSV2_MAPPING)
    # a fancy-indexed column selection would be F-ordered
    assert ds.x.flags.c_contiguous
    assert ds.x.tolist() == [[0.5, 1.0], [-0.3, 0.2], [0.0, 0.0]]


@pytest.mark.parametrize("header, row", [("id,{}", "u{},{}"),
                                         ("id,id,{},id", "u{0},u{0},{1},u{0}"),
                                         ("{},z,k", "{1},{0}.25,{0}"),
                                         ('"id",{}', '"u,""{}""",{}')],
                         ids=["leading id", "id repeated", "numeric", "quoted id"])
def test_unmapped_columns_are_parsed_as_arrays(tmp_path, header, row):
    # a string ID column the mapping does not name keeps the array path, and
    # the dataset is the row loop's; repeated unmapped names, numeric
    # unmapped columns and quoted IDs holding the delimiter are covered too
    plain = tmp_path / "plain.csv"
    mapping = save_csv(generate(DgpSpec(kind="dgp2", n=200, seed=3)).dataset, plain)
    head, *rows = plain.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "ids.csv"
    path.write_text("\n".join([header.format(head), *(row.format(i, line)
                                                      for i, line in enumerate(rows))]) + "\n")
    with mock.patch.object(io, "_parse_rows", side_effect=AssertionError("row loop ran")):
        fast = load_csv(path, mapping)
    with mock.patch.object(io, "_parse_arrays", return_value=None):
        slow = load_csv(path, mapping)
    for name in ("x", "d", "r", "y"):
        a, b = getattr(fast, name), getattr(slow, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_quoted_unmapped_field_is_left_to_the_row_loop(tmp_path):
    # split at every comma, '"a,b"' fills the two unmapped columns and the row
    # looks complete; csv reads it as one field, so the row is one field short
    path = tmp_path / "data.csv"
    path.write_text('id,s,x1,x2,d,r,y\n"a,b",0.5,1.0,1,1,2.5\n')
    with pytest.raises(DataValidationError, match="no value in column 'y' at data row 0"):
        load_csv(path, _CSV2_MAPPING)


def test_utf8_byte_order_mark_is_skipped(tmp_path):
    # spreadsheet "CSV UTF-8" exports start the file with a byte-order mark
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    mapping = save_csv(generate(DgpSpec(kind="dgp2", n=200, seed=3)).dataset, plain)
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    map_path = tmp_path / "map.json"
    map_path.write_bytes(b"\xef\xbb\xbf" + json.dumps(
        {"outcome": "y", "treatment": "d", "response": "r",
         "covariates": list(mapping.covariate_cols)}).encode("utf-8"))
    assert ColumnMapping.from_json(map_path) == mapping
    with mock.patch.object(io, "_parse_rows", side_effect=AssertionError("row loop ran")):
        fast = load_csv(bom, mapping)
    expected = load_csv(plain, mapping)
    for name in ("x", "d", "r", "y"):
        a, b = getattr(fast, name), getattr(expected, name)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_token_only_float_reads_loads_through_the_row_loop(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("x1,d,r,y\n1_0,1,1,2.0\n0.5,0,1,1_5\n")
    ds = load_csv(path, CSV_MAPPING)
    assert ds.x[:, 0].tolist() == [10.0, 0.5] and ds.y.tolist() == [2.0, 15.0]


@pytest.mark.parametrize("rows, message", [
    ("0.5,1,1,1.0,7\n0.1,0,1,2.0,8\n", "data row 0 has 1 more fields than the header"),
    ("0.5,1,1\n0.1,0,1\n", r"no value in column 'y' at data row 0 \(too few fields\)")])
def test_every_row_the_wrong_width_is_data_error(tmp_path, rows, message):
    # rows of one width parse as an array, so the width is checked against the header
    path = tmp_path / "data.csv"
    path.write_text("x1,d,r,y\n" + rows)
    with pytest.raises(DataValidationError, match=rf"data\.csv: {message}"):
        load_csv(path, CSV_MAPPING)


@pytest.mark.parametrize("text", ["x1,d,r,y\n", "x1,d,r,y\r\n\r\n", "x1,d,r,y"])
def test_header_only_csv_has_no_data_rows(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    with pytest.raises(DataValidationError, match=r"data\.csv: no data rows"):
        load_csv(path, CSV_MAPPING)


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
    # cise_step2's response weights r / pi hold only while the two step-2
    # folds' counts differ by at most one row
    assert abs(plan.step2_train.size - plan.step2_cal.size) <= 1


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


def test_every_fold_is_nonempty_from_the_fewest_rows():
    # the rounded fold fractions leave no fold empty at any n >= MIN_ROWS, so
    # make_splits needs no empty-fold check; n = 8 gives folds of 2/2/2/2
    for n in range(MIN_ROWS, 3001):
        plan = make_splits(n, np.ones(n, dtype=int), ConformalConfig(seed=n))
        assert min(plan.pretrain.size, plan.train1.size, plan.train2.size,
                   plan.calibration.size) > 0, n
    plan = make_splits(MIN_ROWS, np.ones(MIN_ROWS, dtype=int), ConformalConfig())
    assert (plan.pretrain.size, plan.train1.size, plan.train2.size,
            plan.calibration.size) == (2, 2, 2, 2)


def test_split_too_small():
    with pytest.raises(InsufficientDataError):
        make_splits(7, np.ones(7, dtype=int), ConformalConfig())
