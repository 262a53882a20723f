import math

import functools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import Phase, given, settings, strategies as st
from scipy.special import expit, ndtri

from attrition_conformal import simulation
from attrition_conformal.data import ConformalConfig, ExperimentDataset, InsufficientDataError
from attrition_conformal.pipelines import run_cise
from attrition_conformal.rng import child_seed
from attrition_conformal.simulation import (DgpSpec, appendix_e_e_r, compute_metrics,
                                            dgp1_e_d, dgp1_f, dgp2_e_d, dgp2_e_r,
                                            generate, oracle_interval, run_mc,
                                            run_replicates)


def test_dgp_spec_validation():
    with pytest.raises(ValueError):
        DgpSpec(kind="dgp3", n=10)
    with pytest.raises(ValueError):
        DgpSpec(kind="dgp1", n=10, missingness="MCAR")
    with pytest.raises(ValueError):
        DgpSpec(kind="appendixE", n=10, rho=0.5)
    assert DgpSpec(kind="dgp1", n=10).k == 10
    assert DgpSpec(kind="appendixE", n=10).k == 5


def test_dgp1_outcome_surface():
    assert dgp1_f(0.5) == pytest.approx(1.0)  # logistic midpoint
    e = dgp1_e_d(np.random.default_rng(0).standard_normal((5000, 2)))
    assert e.min() >= 0.25 and e.max() <= 0.5


def test_dgp1_equicorrelation():
    for rho in (0.0, 0.9):
        draw = generate(DgpSpec(kind="dgp1", n=50_000, rho=rho, seed=5))
        c = np.corrcoef(draw.dataset.x[:, :4].T)
        off = c[np.triu_indices(4, 1)]
        assert np.all(np.abs(off - rho) < 0.01)
        assert np.all(np.abs(np.var(draw.dataset.x, axis=0) - 1.0) < 0.03)


def test_dgp1_observation_pattern():
    draw = generate(DgpSpec(kind="dgp1", n=2000, seed=1))
    ds = draw.dataset
    assert np.isnan(ds.y[ds.r == 0]).all()
    obs = ds.r == 1
    want = np.where(ds.d[obs] == 1, draw.y1[obs], draw.y0[obs])
    assert np.array_equal(ds.y[obs], want)
    # ITE noise variance is 2 (independent unit-variance noises)
    resid = draw.ite - draw.cate
    assert abs(resid.var() - 2.0) < 0.1


def test_dgp2_spot_values():
    assert dgp2_e_d(np.zeros((1, 10)))[0] == pytest.approx(0.5)
    assert dgp2_e_r(np.zeros((1, 10)), np.zeros(1))[0] == pytest.approx(expit(-1.0))
    assert expit(-1.0) == pytest.approx(0.2689, abs=1e-4)
    # structural ITE at the origin: 0^2 + 0.2*0 + 0.8*exp(0) = 0.8
    from attrition_conformal.simulation import dgp2_cate

    assert dgp2_cate(np.zeros((1, 10)))[0] == pytest.approx(0.8)
    draw = generate(DgpSpec(kind="dgp2", n=5000, seed=2))
    resid = draw.ite - draw.cate
    assert abs(resid.var() - 2.0) < 0.15  # two independent unit noises


def test_appendix_e_rates():
    mcar = generate(DgpSpec(kind="appendixE", n=50_000, seed=3, missingness="MCAR"))
    assert abs((mcar.dataset.r == 0).mean() - 0.2) < 0.01
    assert appendix_e_e_r(np.zeros((1, 5)), np.ones(1))[0] == pytest.approx(expit(0.3))
    assert expit(0.3) == pytest.approx(0.5744, abs=1e-4)
    mar = generate(DgpSpec(kind="appendixE", n=50_000, seed=4))
    # E[Y1 | X=0] = 0: the CATE at the origin vanishes
    near0 = np.all(np.abs(mar.dataset.x) < 0.3, axis=1)
    assert abs(mar.cate[near0].mean()) < 0.2


def test_oracle_interval_constant():
    draw = generate(DgpSpec(kind="dgp1", n=100, seed=6))
    lo, hi, length = oracle_interval(draw, 0.05)
    assert length == pytest.approx(5.5437, abs=1e-3)
    assert length == pytest.approx(2 * ndtri(0.975) * math.sqrt(2), abs=1e-9)
    assert np.allclose(hi - lo, length)
    _, _, half_level = oracle_interval(draw, 0.5)
    assert half_level == pytest.approx(1.9078, abs=1e-3)


def test_oracle_interval_covers_at_nominal_rate():
    draw = generate(DgpSpec(kind="dgp1", n=50_000, seed=7))
    lo, hi, _ = oracle_interval(draw, 0.05)
    cover = ((lo <= draw.ite) & (draw.ite <= hi)).mean()
    assert abs(cover - 0.95) < 3 * math.sqrt(0.05 * 0.95 / 50_000)


def test_compute_metrics_edge_cases():
    m = compute_metrics([-math.inf, 0.0], [math.inf, 1.0], [5.0, 0.0])
    assert m.coverage == 1.0  # infinite interval counts as covering
    assert m.infinite_count == 1
    assert m.avg_length == math.inf
    # closed intervals: truths at the endpoints are covered
    m2 = compute_metrics([0.0, 0.0], [1.0, 1.0], [0.0, 1.0])
    assert m2.coverage == 1.0
    with pytest.raises(ValueError):
        compute_metrics([], [], [])


def test_compute_metrics_matches_hand_means():
    rng = np.random.default_rng(8)
    lo = rng.standard_normal(100)
    hi = lo + rng.random(100)
    truths = rng.standard_normal(100)
    m = compute_metrics(lo, hi, truths)
    want_cov = float(np.mean((lo <= truths) & (truths <= hi)))
    want_len = float(np.mean(hi - lo))
    assert abs(m.coverage - want_cov) < 1e-12
    assert abs(m.avg_length - want_len) < 1e-12


def test_truths_never_reach_estimators():
    # estimation entry points accept only ExperimentDataset
    from attrition_conformal.pipelines import run_cise, wcqr_nested_baseline
    import inspect

    for fn in (run_cise, wcqr_nested_baseline):
        params = inspect.signature(fn).parameters
        assert params["ds"].annotation in ("ExperimentDataset", ExperimentDataset)


def test_run_mc_single_rep_and_determinism():
    dgp = DgpSpec(kind="dgp1", n=500, seed=9)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=9)
    one = run_mc(dgp, "cise", cfg, reps=1)
    assert len(one.reps) == 1
    assert math.isnan(one.aggregate["sd_coverage"])  # no spread with a single replicate

    a = run_mc(dgp, "cise", cfg, reps=3)
    b = run_mc(dgp, "cise", cfg, reps=3)
    for ra, rb in zip(a.reps, b.reps):
        assert ra == rb
    assert a.aggregate["mean_coverage"] == b.aggregate["mean_coverage"]


def test_run_mc_rejects_unknown_method():
    with pytest.raises(ValueError):
        run_mc(DgpSpec(kind="dgp1", n=100, seed=0), "magic",
               ConformalConfig(), reps=1)


@pytest.mark.parametrize("method, workers", [("bogus", 1), ("cise", 0), ("cise", -4)])
def test_run_replicates_rejects_a_usage_error_before_any_replicate(monkeypatch, method,
                                                                   workers):
    # a usage error is raised, never counted as failed replicates
    from attrition_conformal import simulation

    def no_draw(*args, **kwargs):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(simulation, "generate", no_draw)
    with pytest.raises(ValueError, match="method must be|workers must be"):
        simulation.run_replicates(DgpSpec(kind="dgp1", n=100, seed=0), method,
                                  ConformalConfig(), reps=5, summarize=simulation._rep_record,
                                  workers=workers)


def test_run_mc_covers_on_every_generator():
    cfg = ConformalConfig(alpha=0.05, gamma=0.05, seed=3)
    for kind, rho in (("dgp2", 0.0), ("dgp2", 0.9), ("appendixE", 0.0)):
        report = run_mc(DgpSpec(kind=kind, n=1000, rho=rho, seed=3), "cise",
                        cfg, reps=3)
        assert report.n_failed == 0
        assert report.aggregate["mean_coverage"] >= 0.85


def test_coverage_monotone_in_miscoverage_budget():
    # a smaller total budget alpha + gamma is more conservative: matched
    # seeds, coverage must not drop by more than Monte Carlo noise
    dgp = DgpSpec(kind="dgp1", n=800, seed=42)
    wide = run_mc(dgp, "cise", ConformalConfig(alpha=0.05, gamma=0.05, seed=42), reps=5)
    tight = run_mc(dgp, "cise", ConformalConfig(alpha=0.01, gamma=0.01, seed=42), reps=5)
    assert tight.aggregate["mean_coverage"] >= wide.aggregate["mean_coverage"] - 0.05


def test_run_mc_dgp1_glm_coverage_and_length_band():
    # 25 replicates at n=1000: coverage at least 0.90 and mean length between
    # the oracle constant and three times it
    dgp = DgpSpec(kind="dgp1", n=1000, rho=0.0, seed=20260810)
    cfg = ConformalConfig(alpha=0.025, gamma=0.025, seed=20260810)
    report = run_mc(dgp, "cise", cfg, reps=25)
    assert report.aggregate["mean_coverage"] >= 0.90
    assert 5.5436 <= report.aggregate["mean_length"] <= 3 * 5.5436


def test_run_mc_parallel_matches_serial():
    dgp = DgpSpec(kind="dgp1", n=500, seed=11)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=11)
    serial = run_mc(dgp, "cise", cfg, reps=4, workers=1)
    parallel = run_mc(dgp, "cise", cfg, reps=4, workers=2)
    for rs, rp in zip(serial.reps, parallel.reps):
        assert rs == rp


def test_run_mc_programming_error_escapes(monkeypatch):
    # only data shortfalls and numerical errors count as failed replicates
    from attrition_conformal import simulation

    def broken(*args, **kwargs):
        raise TypeError("a bug, not a failed replicate")

    monkeypatch.setattr(simulation, "run_method", broken)
    with pytest.raises(TypeError, match="a bug"):
        run_mc(DgpSpec(kind="dgp1", n=200, seed=0), "cise", ConformalConfig(), reps=5)


def test_run_mc_value_error_escapes(monkeypatch):
    # a ValueError other than numpy's LinAlgError is a bug, even in one replicate of six
    run_method = simulation.run_method

    def broken_rep_two(ds, method, cfg):
        if cfg.seed == child_seed(9, 2):
            raise ValueError("operands could not be broadcast together")
        return run_method(ds, method, cfg)

    monkeypatch.setattr(simulation, "run_method", broken_rep_two)
    with pytest.raises(ValueError, match="operands could not be broadcast"):
        run_mc(DgpSpec(kind="dgp1", n=500, seed=9), "cise",
               ConformalConfig(alpha=0.1, gamma=0.1, seed=9), reps=6)


def test_rep_record_rejects_a_draw_without_attrition():
    draw = generate(DgpSpec(kind="dgp1", n=300, seed=5))
    ds = draw.dataset
    full = ExperimentDataset(x=ds.x, d=ds.d, r=np.ones(ds.n, dtype=int),
                             y=np.where(ds.d == 1, draw.y1, draw.y0))
    result = run_cise(full, ConformalConfig(alpha=0.1, gamma=0.1, seed=5))
    with pytest.raises(InsufficientDataError, match="no attrition rows in draw"):
        simulation._rep_record(0, replace(draw, dataset=full), result)


def test_run_replicates_error_taxonomy(monkeypatch):
    from attrition_conformal import simulation
    from attrition_conformal.data import DataValidationError, InsufficientDataError

    def failing(exc):
        def run(*args, **kwargs):
            raise exc
        return run

    dgp = DgpSpec(kind="dgp1", n=200, seed=0)
    cfg = ConformalConfig()
    monkeypatch.setattr(simulation, "run_method", failing(InsufficientDataError("few rows")))
    with pytest.raises(InsufficientDataError, match=r"5/5 replicates failed; first errors: "
                                                    r"\['rep 0: InsufficientDataError: few rows'"):
        simulation.run_replicates(dgp, "cise", cfg, reps=5,
                                   summarize=simulation._rep_record)
    monkeypatch.setattr(simulation, "run_method", failing(DataValidationError("bad column")))
    with pytest.raises(DataValidationError, match="bad column"):
        simulation.run_replicates(dgp, "cise", cfg, reps=5,
                                   summarize=simulation._rep_record)


def test_run_mc_records_failed_replicate_within_budget(monkeypatch):
    # rep 2 fails; rep 1 succeeds with every attrition interval unbounded, so
    # it has no attrition ATE and the aggregate averages reps 0, 3 and 4
    import dataclasses

    from attrition_conformal import simulation

    run_method = simulation.run_method

    def fail_rep_two(ds, method, cfg):
        if cfg.seed == child_seed(9, 2):
            raise np.linalg.LinAlgError("singular system")
        result = run_method(ds, method, cfg)
        if cfg.seed == child_seed(9, 1):
            inf = np.full(result.che_lo.shape, np.inf)
            result = dataclasses.replace(result, che_lo=-inf, che_hi=inf)
        return result

    monkeypatch.setattr(simulation, "run_method", fail_rep_two)
    report = run_mc(DgpSpec(kind="dgp1", n=500, seed=9), "cise",
                    ConformalConfig(alpha=0.1, gamma=0.1, seed=9), reps=5)
    assert report.n_failed == 1
    assert report.reps[2].error == "LinAlgError: singular system"
    assert report.reps[2].coverage is None
    assert all(r.error is None for i, r in enumerate(report.reps) if i != 2)
    assert report.reps[1].ate_attrition is None
    assert report.aggregate["mean_ate_attrition"] == pytest.approx(
        np.mean([report.reps[i].ate_attrition for i in (0, 3, 4)]))


# summarize functions for pool runs live at module level, so that they pickle


def _bits_failing_at(fail_rep, rep, draw, result):
    # a replicate's whole output, as bytes; replicate fail_rep is held back as too little data
    if rep == fail_rep:
        raise InsufficientDataError("held back")
    return (result.att_idx.tobytes(), result.che_lo.tobytes(), result.che_hi.tobytes(),
            None if draw is None else draw.ite.tobytes())


def _blas_threads(rep, draw, result):
    return simulation._openblas()[0]()


def _broken_summary(rep, draw, result):
    raise TypeError("a bug, not a failed replicate")


@settings(max_examples=4, deadline=None, derandomize=True, phases=[Phase.generate])
@given(kind=st.sampled_from(("dgp1", "dgp2", "appendixE")),
       method=st.sampled_from(("cise", "wcqr_nested_exact")),
       seed=st.integers(0, 2**32 - 1), fail_rep=st.integers(0, 4))
def test_run_replicates_same_output_for_one_and_two_workers(kind, method, seed, fail_rep):
    # bitwise, for a drawn and for a fixed source, with one replicate failing within budget
    spec = DgpSpec(kind=kind, n=300, seed=seed)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=seed)
    summarize = functools.partial(_bits_failing_at, fail_rep)
    for source in (spec, generate(spec).dataset):
        serial = run_replicates(source, method, cfg, reps=5, summarize=summarize, workers=1)
        pooled = run_replicates(source, method, cfg, reps=5, summarize=summarize, workers=2)
        assert pooled == serial
        assert [error for _, _, error in serial].count("InsufficientDataError: held back") == 1


def test_replicates_run_on_one_blas_thread_and_keep_the_callers_count():
    blas = simulation._openblas()
    if blas is None:
        pytest.skip("numpy bundles no OpenBLAS")
    get, put = blas
    before = get()
    put(2)
    try:
        for workers in (1, 2):
            out = run_replicates(DgpSpec(kind="dgp1", n=200, seed=1), "cise",
                                 ConformalConfig(seed=1), reps=2, summarize=_blas_threads,
                                 workers=workers)
            assert [value for _, value, _ in out] == [1, 1]
            assert get() == 2
    finally:
        put(before)


def test_programming_error_in_a_worker_escapes():
    # a TypeError in a pool worker is raised as one, not counted as a failed replicate
    ds = generate(DgpSpec(kind="dgp1", n=200, seed=2)).dataset
    with pytest.raises(TypeError, match="a bug"):
        run_replicates(ds, "cise", ConformalConfig(seed=2), reps=3, summarize=_broken_summary,
                       workers=2)
