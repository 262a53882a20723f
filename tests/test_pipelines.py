import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest

from attrition_conformal import pipelines, rng
from attrition_conformal.data import (ConformalConfig, DataValidationError,
                                      ExperimentDataset, InsufficientDataError, make_splits)
from attrition_conformal.eif import EtaSolution
from attrition_conformal.pipelines import (CiseResult, aggregate_ate, cise_step1,
                                           cise_step2, ipw_ate, run_cise,
                                           wcqr_nested_baseline)
from attrition_conformal.rng import child_seed, make_rng
from attrition_conformal.simulation import DgpSpec, compute_metrics, generate

def _linear_draw(n=600, attrition=True, noise=1.0, seed=0):
    """Simple linear DGP with known potential outcomes for pipeline checks."""
    rng = make_rng(seed)
    x = rng.standard_normal((n, 3))
    y1 = x[:, 0] + 1.0 + noise * rng.standard_normal(n)
    y0 = x[:, 0] + noise * rng.standard_normal(n)
    d = (rng.random(n) < 0.5).astype(int)
    if attrition:
        r = (rng.random(n) < 0.7).astype(int)
    else:
        r = np.ones(n, dtype=int)
    y_obs = np.where(d == 1, y1, y0)
    ds = ExperimentDataset(x=x, d=d, r=r, y=np.where(r == 1, y_obs, np.nan))
    return ds, y1 - y0


@pytest.mark.parametrize("pipeline", [
    lambda ds, cfg: cise_step1(ds, make_splits(ds.n, ds.r, cfg), cfg),
    lambda ds, cfg: wcqr_nested_baseline(ds, cfg, exact=True),
    lambda ds, cfg: wcqr_nested_baseline(ds, cfg, exact=False),
], ids=["cise_step1", "wcqr_nested_exact", "wcqr_nested_inexact"])
def test_eq5_arithmetic_on_output(pipeline):
    ds, _ = _linear_draw()
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=2)
    state = pipeline(ds, cfg)
    # every method keeps the counterfactual intervals its ITE intervals come from
    assert np.isfinite(state.c_cf_lo).all() and np.isfinite(state.c_cf_hi).all()
    # treated rows: C_ITE = [y - cf_hi, y - cf_lo]; controls mirrored
    y = ds.y[state.cal_obs_idx]
    d = ds.d[state.cal_obs_idx]
    treated = d == 1
    assert np.allclose(state.c_ite_lo[treated], y[treated] - state.c_cf_hi[treated])
    assert np.allclose(state.c_ite_hi[treated], y[treated] - state.c_cf_lo[treated])
    assert np.allclose(state.c_ite_lo[~treated], state.c_cf_lo[~treated] - y[~treated])
    assert np.allclose(state.c_ite_hi[~treated], state.c_cf_hi[~treated] - y[~treated])


def test_factual_coverage_duality():
    # y is inside the factual arm's own band at eta iff its score <= eta;
    # verified through the emitted counterfactual intervals' construction
    ds, _ = _linear_draw(seed=4)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=7)
    plan = make_splits(ds.n, ds.r, cfg)
    state = cise_step1(ds, plan, cfg)
    for arm in (0, 1):
        eta = state.eta_solutions[arm].eta
        rows = state.cal_obs_idx[ds.d[state.cal_obs_idx] == arm]
        lo, hi = state.q_models[arm].predict(ds.x[rows])
        scores = np.maximum(lo - ds.y[rows], ds.y[rows] - hi)
        inside = (lo - eta <= ds.y[rows]) & (ds.y[rows] <= hi + eta)
        assert np.array_equal(inside, scores <= eta)


def test_cise_step1_trivial_interval_arithmetic():
    # D=1 row with y=2 and counterfactual interval [-1, 1] -> C_ITE = [1, 3]
    assert (2.0 - 1.0, 2.0 - (-1.0)) == (1.0, 3.0)
    # D=0 row with y=0 and counterfactual interval [-1, 1] -> C_ITE = [-1, 1]
    assert ((-1.0) - 0.0, 1.0 - 0.0) == (-1.0, 1.0)


def test_noiseless_dgp_ite_intervals_contain_zero():
    # y(1) = y(0) = x1 exactly: true ITE is 0 for every unit
    rng = make_rng(9)
    n = 2000
    x = rng.standard_normal((n, 3))
    y1 = x[:, 0].copy()
    d = (rng.random(n) < 0.5).astype(int)
    r = (rng.random(n) < 0.8).astype(int)
    ds = ExperimentDataset(x=x, d=d, r=r, y=np.where(r == 1, y1, np.nan))
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=3)
    plan = make_splits(ds.n, ds.r, cfg)
    state = cise_step1(ds, plan, cfg)
    finite = np.isfinite(state.c_ite_lo)
    # the noiseless construction collapses intervals to float-dust width, so
    # containment is evaluated up to that dust
    tol = 1e-6
    contains0 = (state.c_ite_lo[finite] <= tol) & (-tol <= state.c_ite_hi[finite])
    assert contains0.mean() >= 0.95


def test_cise_step2_zero_attrition():
    ds, _ = _linear_draw(attrition=False)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=11)
    res = run_cise(ds, cfg)
    assert res.att_idx.size == 0
    assert res.che_lo.size == 0
    assert any("no attrition rows" in f for f in res.flags)
    # step-1 results intact
    assert res.c_ite_lo.size > 0


def test_cise_step2_rejects_rows_outside_step1():
    # a plan whose step-2 rows are not step 1's observed calibration rows is
    # a programming error, not a failed replicate
    ds, _ = _linear_draw()
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=2)
    plan = make_splits(ds.n, ds.r, cfg)
    state = cise_step1(ds, plan, cfg)
    foreign = replace(plan, step2_cal=np.concatenate([plan.step2_cal, plan.pretrain[:1]]))
    with pytest.raises(KeyError, match="step-2 rows"):
        cise_step2(state, ds, foreign, cfg)


def test_run_cise_keeps_the_step1_part_bitwise():
    # the full run returns the same step-1 fields that step 1 alone returns
    ds, _ = _linear_draw(seed=9)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=3)
    step1 = cise_step1(ds, make_splits(ds.n, ds.r, cfg), cfg)
    res = run_cise(ds, cfg)
    for name in ("cal_obs_idx", "c_cf_lo", "c_cf_hi", "c_ite_lo", "c_ite_hi"):
        assert np.array_equal(getattr(res, name), getattr(step1, name)), name
    assert res.eta_solutions == step1.eta_solutions
    for arm in (0, 1):
        for got, want in zip(res.q_models[arm].predict(ds.x), step1.q_models[arm].predict(ds.x)):
            assert np.array_equal(got, want)
    # step 1 alone leaves the step-2 part empty
    assert step1.att_idx.size == 0 and step1.che_lo.size == 0 and math.isnan(step1.eta_gamma)
    with pytest.raises(RuntimeError, match="no extrapolation models"):
        step1.extrapolate(ds.x[:3])


def test_cise_constant_surrogates_expand_nonnegatively():
    ds, _ = _linear_draw(seed=21)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=13)
    res = run_cise(ds, cfg)
    assert math.isfinite(res.eta_gamma)
    # every attrition interval is the endpoint model value +- eta_gamma
    lo, hi = res.extrapolate(ds.x[res.att_idx])
    assert np.allclose(lo, res.che_lo)
    assert np.allclose(hi, res.che_hi)


def test_cise_step2_constant_surrogates_hand_fixture():
    # identical surrogate intervals [a, b] and constant endpoint models give
    # zero scores everywhere; the moment's indicator part is constant and
    # already nonnegative at the first candidate, so eta_gamma = 0 and the
    # expansion returns [a, b] itself
    rng = make_rng(71)
    n = 60
    x = rng.standard_normal((n, 2))
    d = np.tile([0, 1], n // 2)
    r = np.ones(n, dtype=int)
    r[:20] = 0  # attrition block
    y = np.where(r == 1, rng.standard_normal(n), np.nan)
    ds = ExperimentDataset(x=x, d=d, r=r, y=y)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=5)
    plan = make_splits(ds.n, ds.r, cfg)
    obs = plan.calibration[ds.r[plan.calibration] == 1]
    a, b = -1.5, 2.5
    state = CiseResult(cal_obs_idx=obs,
                       c_cf_lo=np.full(obs.size, a), c_cf_hi=np.full(obs.size, b),
                       c_ite_lo=np.full(obs.size, a), c_ite_hi=np.full(obs.size, b))
    res = cise_step2(state, ds, plan, cfg)
    assert res.eta_gamma >= 0.0
    assert res.eta_gamma == pytest.approx(0.0, abs=1e-9)
    assert np.allclose(res.che_lo, a, atol=1e-8)
    assert np.allclose(res.che_hi, b, atol=1e-8)


def test_cise_attrition_coverage_on_dgp1():
    # desk-scale version of the paper-style experiment: 5 replicates
    covs = []
    for rep in range(5):
        draw = generate(DgpSpec(kind="dgp1", n=1000, seed=100 + rep))
        cfg = ConformalConfig(alpha=0.025, gamma=0.025, seed=rep)
        res = run_cise(draw.dataset, cfg)
        m = compute_metrics(res.che_lo, res.che_hi, draw.ite[res.att_idx])
        covs.append(m.coverage)
    assert np.mean(covs) >= 0.90


def test_extrapolation_nesting_on_holdout():
    # pseudo-attrition: relabel a slice of responding rows as attrited, then
    # check their would-be surrogate intervals nest inside the expansion
    rng = make_rng(33)
    total, nested = 0, 0
    for rep in range(4):
        draw = generate(DgpSpec(kind="dgp1", n=2000, seed=500 + rep))
        ds = draw.dataset
        obs = np.flatnonzero(ds.r == 1)
        pseudo = obs[rng.random(obs.size) < 0.25]
        r2 = ds.r.copy()
        r2[pseudo] = 0
        ds2 = ExperimentDataset(x=ds.x, d=ds.d, r=r2,
                                y=np.where(r2 == 1, ds.y, np.nan))
        cfg = ConformalConfig(alpha=0.025, gamma=0.025, seed=rep)
        res = run_cise(ds2, cfg)
        if not math.isfinite(res.eta_gamma):
            continue
        # rebuild the surrogate interval each pseudo row would have received
        # in step 1, from the same run's fitted models and thresholds
        d = ds.d[pseudo]
        for arm in (0, 1):
            rows = pseudo[d == arm]
            if rows.size == 0:
                continue
            cf = 1 - arm
            qlo, qhi = res.q_models[cf].predict(ds.x[rows])
            eta = res.eta_solutions[cf].eta
            if not math.isfinite(eta):
                continue
            cf_lo, cf_hi = qlo - eta, qhi + eta
            if arm == 1:
                ite_lo, ite_hi = ds.y[rows] - cf_hi, ds.y[rows] - cf_lo
            else:
                ite_lo, ite_hi = cf_lo - ds.y[rows], cf_hi - ds.y[rows]
            che_lo, che_hi = res.extrapolate(ds.x[rows])
            total += rows.size
            nested += int(np.sum((che_lo <= ite_lo) & (ite_hi <= che_hi)))
    assert total > 300
    assert nested / total >= 1 - 0.025 - 0.03


def test_wcqr_unit_weights_reduce_to_unweighted():
    # e_D == 0.5 gives w == 1 on both arms: all capped flags absent and the
    # baseline runs as plain CQR
    ds, _ = _linear_draw(n=900, seed=17)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=19)
    res = wcqr_nested_baseline(ds, cfg, exact=True)
    finite = np.isfinite(res.c_ite_lo)
    assert finite.mean() > 0.95
    assert math.isfinite(res.eta_gamma)


def test_wcqr_inexact_variant_produces_intervals():
    ds, _ = _linear_draw(n=900, seed=23)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=29)
    res = wcqr_nested_baseline(ds, cfg, exact=False)
    assert res.che_lo.size == res.att_idx.size
    assert (res.che_lo <= res.che_hi).all()


def test_baseline_guards_count_the_rows_their_fits_get(monkeypatch):
    # an arm's quantile pair is fitted on half of its z1 rows and needs 4, so
    # 10 controls (7 observed) stop at the arm guard, never inside that fit
    ds, _ = _linear_draw(n=60, seed=0)
    ds = replace(ds, d=np.repeat([0, 1], [10, 50]))
    for seed in range(3):
        with pytest.raises(InsufficientDataError,
                           match="too few arm-0 rows in the baseline folds"):
            wcqr_nested_baseline(ds, ConformalConfig(seed=seed), exact=True)

    # the exact step fits each endpoint on half of the finite ITE intervals
    # and needs 4 of them: one finite counterfactual interval per arm is too few
    real = pipelines.weighted_split_cqr_batch

    def unbounded_but_one(*args, **kwargs):
        band = real(*args, **kwargs)
        return replace(band, lo=np.where(np.arange(band.lo.size) == 0, band.lo, -math.inf))

    monkeypatch.setattr(pipelines, "weighted_split_cqr_batch", unbounded_but_one)
    ds, _ = _linear_draw(n=300, seed=5)
    with pytest.raises(InsufficientDataError, match="too few finite baseline ITE intervals"):
        wcqr_nested_baseline(ds, ConformalConfig(alpha=0.1, gamma=0.1, seed=3), exact=True)


@pytest.mark.parametrize("kind, seed, exact", [("dgp2", 1, False), ("dgp2", 1, True),
                                              ("dgp1", 4, False)])
def test_baselines_cannot_extrapolate(kind, seed, exact):
    # the baselines keep no endpoint models; on dgp2 seed 1 the inexact
    # baseline's raw endpoint quantiles cross on some rows, which only its
    # reported (repaired) intervals account for
    ds = generate(DgpSpec(kind, n=300, seed=seed)).dataset
    res = wcqr_nested_baseline(ds, ConformalConfig(seed=seed), exact=exact)
    assert res.att_idx.size > 0
    assert (res.che_lo <= res.che_hi).all()
    with pytest.raises(RuntimeError, match="no extrapolation models"):
        res.extrapolate(ds.x[res.att_idx])


def test_wcqr_noiseless_linear_contains_truth():
    ds, ite = _linear_draw(n=1200, noise=0.0, seed=31)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=37)
    res = wcqr_nested_baseline(ds, cfg, exact=True)
    m = compute_metrics(res.che_lo, res.che_hi, ite[res.att_idx])
    assert m.coverage == 1.0


def test_ipw_reduces_to_diff_in_means_under_constant_propensities():
    # force constant fitted propensities with feature-free labels
    rng = make_rng(41)
    n = 4000
    x = rng.standard_normal((n, 2))
    d = np.tile([0, 1], n // 2)
    y = 1.5 * d + rng.standard_normal(n)
    ds = ExperimentDataset(x=x, d=d, r=np.ones(n, dtype=int), y=y)
    est = ipw_ate(ds, ConformalConfig(seed=5))
    diff = y[d == 1].mean() - y[d == 0].mean()
    assert est.estimate == pytest.approx(diff, abs=0.02)
    assert est.se > 0


def test_ipw_matches_truth_on_dgp1():
    # oracle: the observed-group ATE from the hidden truths of a large draw
    draw = generate(DgpSpec(kind="dgp1", n=5000, seed=77))
    ds = draw.dataset
    obs = ds.r == 1
    truth = float(draw.ite[obs].mean())
    est = ipw_ate(ds, ConformalConfig(seed=5))
    assert abs(est.estimate - truth) < 3 * max(est.se, 0.05)


def test_ipw_requires_both_arms():
    rng = make_rng(43)
    n = 50
    x = rng.standard_normal((n, 2))
    ds = ExperimentDataset(x=x, d=np.ones(n, dtype=int), r=np.ones(n, dtype=int),
                           y=rng.standard_normal(n))
    with pytest.raises(DataValidationError):
        ipw_ate(ds, ConformalConfig(seed=5))


def test_ipw_fits_its_propensities_on_their_own_streams():
    # two forests seeded alike draw identical bootstrap rows, and a replicate
    # seed under the same run seed is another replicate's stream
    ds, _ = _linear_draw(seed=59)
    cfg = ConformalConfig(seed=5)
    seeds, fit = [], pipelines.fit_propensity

    def record(features, labels, learner, seed):
        seeds.append(seed)
        return fit(features, labels, learner, seed)

    with mock.patch.object(pipelines, "fit_propensity", record):
        ipw_ate(ds, cfg)
    assert len(seeds) == 2 and seeds[0] != seeds[1]
    replicate_seeds = {cfg.seed, *(child_seed(cfg.seed, r) for r in range(2000))}
    assert not replicate_seeds & set(seeds)


def test_every_stream_is_read_once_through_the_two_helpers(monkeypatch):
    # _fit derives every fit seed and _halves every shuffle; with make_splits'
    # two fold streams the pipelines read each named stream, none twice in a run
    ds, _ = _linear_draw(seed=61)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=3)
    fit, halves, fit_propensity = pipelines._fit, pipelines._halves, pipelines.fit_propensity
    reads, propensity_fits = [], []

    def record_fit(cfg, stream, fit_fn, *data, seed_of=rng.stream_seed):
        reads.append((stream, seed_of))
        return fit(cfg, stream, fit_fn, *data, seed_of=seed_of)

    def record_halves(cfg, stream, rows):
        reads.append((stream, rng.stream_seed))
        return halves(cfg, stream, rows)

    def counting_fit_propensity(*args):
        propensity_fits.append(args[-1])
        return fit_propensity(*args)

    monkeypatch.setattr(pipelines, "_fit", record_fit)
    monkeypatch.setattr(pipelines, "_halves", record_halves)
    # the tracer rebinds fits by module attribute, so call sites look them up at call time
    monkeypatch.setattr(pipelines, "fit_propensity", counting_fit_propensity)

    def streams(run) -> set:
        reads.clear()
        run()
        names = [name for name, _ in reads]
        assert len(names) == len(set(names))
        assert all(seed_of is rng.stream_seed for _, seed_of in reads)
        return set(names)

    cise = streams(lambda: run_cise(ds, cfg))
    exact = streams(lambda: wcqr_nested_baseline(ds, cfg, exact=True))
    inexact = streams(lambda: wcqr_nested_baseline(ds, cfg, exact=False))
    assert (len(cise), len(exact), len(inexact)) == (15, 9, 8)
    assert cise | exact | inexact | {"folds", "step2_folds"} == set(rng.STREAMS)

    reads.clear()
    ipw_ate(ds, cfg)
    assert reads == [("treatment_propensity", rng.run_stream_seed),
                     ("response_propensity", rng.run_stream_seed)]
    assert len(propensity_fits) == 3 + 1 + 1 + 2


def test_cise_finds_every_threshold_through_one_call_point(monkeypatch):
    # both cise steps localize, floor and solve eta through _threshold, named
    # by their CDF stream and target level; the baselines never do
    ds, _ = _linear_draw(seed=61)
    cfg = ConformalConfig(alpha=0.1, gamma=0.2, seed=3)
    threshold, calls = pipelines._threshold, []

    def record(cfg, stream, level, *args):
        calls.append((stream, level))
        return threshold(cfg, stream, level, *args)

    monkeypatch.setattr(pipelines, "_threshold", record)
    run_cise(ds, cfg)
    assert calls == [("cdf_1", 1.0 - cfg.alpha), ("cdf_0", 1.0 - cfg.alpha),
                     ("step2_cdf", 1.0 - cfg.gamma)]
    calls.clear()
    wcqr_nested_baseline(ds, cfg, exact=True)
    wcqr_nested_baseline(ds, cfg, exact=False)
    assert calls == []


def test_step1_threshold_of_zero_keeps_the_quantile_pairs(monkeypatch):
    # eta_alpha = 0 for both arms, reached by stream name: each row's
    # counterfactual interval is then the other arm's fitted quantile pair
    ds, _ = _linear_draw(seed=4)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=7)
    threshold = pipelines._threshold
    zero = EtaSolution(0.0, math.nan, 0, False)

    def zero_in_step1(cfg, stream, *args):
        return zero if stream.startswith("cdf_") else threshold(cfg, stream, *args)

    monkeypatch.setattr(pipelines, "_threshold", zero_in_step1)
    state = cise_step1(ds, make_splits(ds.n, ds.r, cfg), cfg)
    assert state.eta_solutions == {1: zero, 0: zero}
    for arm in (0, 1):
        other = ds.d[state.cal_obs_idx] != arm
        lo, hi = state.q_models[arm].predict(ds.x[state.cal_obs_idx[other]])
        assert np.array_equal(state.c_cf_lo[other], lo)
        assert np.array_equal(state.c_cf_hi[other], hi)


def test_attrition_intervals_never_cross():
    # the endpoint models cross by more than 2 * eta_gamma on one attrited
    # row of this draw; the expanded interval is then the midpoint, not an
    # interval of negative length
    seed = child_seed(13, 2)
    ds = generate(DgpSpec(kind="dgp1", n=400, seed=seed)).dataset
    res = run_cise(ds, ConformalConfig(alpha=0.05, gamma=0.05, seed=seed))
    assert res.che_lo.size == 197
    assert np.all(res.che_lo <= res.che_hi)


def test_aggregate_ate_weighted_combination():
    ds, _ = _linear_draw(seed=47)
    intervals = []
    for seed in (53, 54):
        res = run_cise(ds, ConformalConfig(alpha=0.1, gamma=0.1, seed=seed))
        intervals.append((res.che_lo, res.che_hi))
    summary = aggregate_ate(intervals, ds, ate_r1=1.0, se_r1=0.1)
    mids, lengths = [], []
    for lo, hi in intervals:
        finite = np.isfinite(lo) & np.isfinite(hi)
        mids.append(np.mean((lo[finite] + hi[finite]) / 2))
        lengths.append(np.mean(hi[finite] - lo[finite]))
    assert summary.ate_r0 == pytest.approx(np.mean(mids))
    assert summary.se_r0 == pytest.approx(np.std(mids, ddof=1))
    assert summary.length == pytest.approx(np.mean(lengths))
    assert summary.se_length == pytest.approx(np.std(lengths, ddof=1))
    n1, n0 = summary.n_r1, summary.n_r0
    assert summary.ate_all == pytest.approx((n1 * 1.0 + n0 * summary.ate_r0) / (n1 + n0))
    w1, w0 = n1 / (n1 + n0), n0 / (n1 + n0)
    assert summary.se_all == pytest.approx(math.hypot(w1 * 0.1, w0 * summary.se_r0))


def test_aggregate_ate_skips_replicates_without_finite_intervals():
    ds, _ = _linear_draw(seed=47)
    res = run_cise(ds, ConformalConfig(alpha=0.1, gamma=0.1, seed=53))
    unbounded = (np.full(res.att_idx.size, -math.inf), np.full(res.att_idx.size, math.inf))
    one = aggregate_ate([(res.che_lo, res.che_hi), unbounded], ds, ate_r1=1.0, se_r1=0.1)
    assert one.ate_r0 == aggregate_ate([(res.che_lo, res.che_hi)], ds, 1.0, 0.1).ate_r0
    assert math.isnan(one.se_r0)  # a single replicate has no spread
    finite = np.isfinite(res.che_lo) & np.isfinite(res.che_hi)
    np.testing.assert_array_equal(one.att_idx, res.att_idx)
    np.testing.assert_array_equal(one.finite_reps, finite.astype(int))
    np.testing.assert_array_equal(one.mean_lo[finite], res.che_lo[finite])
    assert np.isnan(one.mean_hi[~finite]).all()
    none = aggregate_ate([unbounded], ds, ate_r1=1.0, se_r1=0.1)
    assert none.ate_r0 is None and none.length is None
    assert none.ate_all == 1.0 and none.se_all == 0.1
    assert (none.finite_reps == 0).all() and np.isnan(none.mean_lo).all()


def test_aggregate_ate_fold_matches_stacked_sums():
    # the running per-row sums equal a sum over the stacked replicates, bit
    # for bit, with infinite, NaN and -0.0 ends among the intervals
    ds, _ = _linear_draw(seed=47)
    n_r0 = int((ds.r == 0).sum())
    rng = make_rng(71)
    intervals = []
    for _ in range(7):
        lo = rng.standard_normal(n_r0) * 10.0 ** rng.integers(-6, 6, n_r0)
        hi = lo + rng.exponential(size=n_r0)
        for ends, odd in ((lo, -math.inf), (hi, math.inf), (lo, math.nan), (hi, math.nan)):
            ends[rng.random(n_r0) < 0.1] = odd
        lo[:3], hi[:3] = -0.0, -0.0  # an all -0.0 row sums to +0.0 either way
        intervals.append((lo, hi))
    summary = aggregate_ate(iter(intervals), ds, ate_r1=1.0, se_r1=0.1)
    lo = np.vstack([lo for lo, _ in intervals])
    hi = np.vstack([hi for _, hi in intervals])
    finite = np.isfinite(lo) & np.isfinite(hi)
    cnt = finite.sum(axis=0)
    for got, ends in ((summary.mean_lo, lo), (summary.mean_hi, hi)):
        want = np.where(cnt > 0, np.where(finite, ends, 0.0).sum(axis=0) / np.maximum(cnt, 1),
                        math.nan)
        assert got.tobytes() == want.tobytes()
    assert summary.finite_reps.tobytes() == cnt.tobytes()
    assert math.copysign(1.0, summary.mean_lo[0]) == 1.0
    mids = [float((0.5 * (lo_k[f] + hi_k[f])).mean()) for lo_k, hi_k, f in zip(lo, hi, finite)]
    assert summary.ate_r0 == float(np.mean(mids))


def test_aggregate_ate_no_attrition_passthrough():
    ds, _ = _linear_draw(attrition=False, seed=59)
    cfg = ConformalConfig(alpha=0.1, gamma=0.1, seed=61)
    res = run_cise(ds, cfg)
    summary = aggregate_ate([(res.che_lo, res.che_hi)], ds, ate_r1=0.42, se_r1=0.05)
    assert summary.ate_r0 is None
    assert summary.ate_all == 0.42
    assert summary.se_all == 0.05


def test_aggregate_ate_reproduces_reported_scale():
    # n_r1=2223, n_r0=480, ATE_r1=0.098, ATE_r0=0.190 -> ATE_all = 0.114
    ate_all = (2223 * 0.098 + 480 * 0.190) / (2223 + 480)
    assert round(ate_all, 3) == 0.114
