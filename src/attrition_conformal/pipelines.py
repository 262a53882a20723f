"""End-to-end interval pipelines: the two-step EIF method, the weighted-CQR
nested baseline, IPW for the observed group, and ATE aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .conformal import (cqr_score, expand_interval, interval_score,
                        unweighted_interval_conformal_batch, weighted_split_cqr_batch)
from .data import (ConformalConfig, DataValidationError, ExperimentDataset,
                   InsufficientDataError, SplitPlan, make_splits, validate_dataset)
from .eif import counterfactual_terms, extrapolation_terms, initial_eta, solve_smallest_eta
from .learners import (MeanModel, ProbabilityModel, fit_conditional_cdf, fit_mean,
                       fit_propensity, fit_quantile, fit_quantile_pair, repair_crossing)
from .rng import child_seed, make_rng


def _with_treatment(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.column_stack([x, d.astype(np.float64)])


def _role_seed(cfg_seed: int, role: int) -> int:
    return child_seed(cfg_seed, 1000 + role)


@dataclass
class Step1State:
    """Everything produced by the counterfactual step of the two-step method."""

    cfg: ConformalConfig
    q_models: dict
    e_d_model: ProbabilityModel
    e_r_model: ProbabilityModel
    eta_init: dict
    eta_solutions: dict
    cal_obs_idx: np.ndarray    # calibration rows with r = 1, original indices
    c_cf_lo: np.ndarray        # counterfactual-arm interval per such row
    c_cf_hi: np.ndarray
    c_ite_lo: np.ndarray       # ITE interval per such row
    c_ite_hi: np.ndarray
    flags: list = field(default_factory=list)

    @property
    def eta_hat(self) -> dict:
        return {arm: sol.eta for arm, sol in self.eta_solutions.items()}


@dataclass
class CiseResult:
    """Output of a full pipeline run: step-1 intervals, thresholds, and the
    extrapolated attrition-group intervals with their expansion models."""

    cal_obs_idx: np.ndarray
    c_cf_lo: np.ndarray
    c_cf_hi: np.ndarray
    c_ite_lo: np.ndarray
    c_ite_hi: np.ndarray
    att_idx: np.ndarray
    che_lo: np.ndarray
    che_hi: np.ndarray
    eta_alpha: dict
    eta_gamma: float
    h_lo_model: MeanModel | None
    h_hi_model: MeanModel | None
    flags: list = field(default_factory=list)

    def extrapolate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Attrition-group interval at arbitrary covariates."""
        if self.h_lo_model is None:
            raise RuntimeError("no extrapolation models (empty attrition set)")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return expand_interval(self.h_lo_model.predict(x), self.h_hi_model.predict(x),
                               self.eta_gamma)


def _arm_rows(ds: ExperimentDataset, fold: np.ndarray, arm: int) -> np.ndarray:
    return fold[(ds.r[fold] == 1) & (ds.d[fold] == arm)]


def cise_step1(ds: ExperimentDataset, plan: SplitPlan, cfg: ConformalConfig) -> Step1State:
    """Counterfactual step: nuisances on the pretraining fold, localized
    conditional CDFs on the training subfolds, thresholds on calibration."""
    validate_dataset(ds, require_both_arms=True)
    flags = []

    for name, fold in (("pretrain", plan.pretrain), ("train1", plan.train1),
                       ("train2", plan.train2), ("calibration", plan.calibration)):
        for arm in (0, 1):
            if _arm_rows(ds, fold, arm).size == 0:
                raise InsufficientDataError(f"empty arm {arm} in {name} fold")

    q_models = {}
    for arm in (0, 1):
        rows = _arm_rows(ds, plan.pretrain, arm)
        q_models[arm] = fit_quantile_pair(ds.x[rows], ds.y[rows], cfg.alpha / 2.0,
                                          1.0 - cfg.alpha / 2.0, cfg.learner,
                                          _role_seed(cfg.seed, arm))

    e_d_model = fit_propensity(ds.x[plan.pretrain], ds.d[plan.pretrain], cfg.learner,
                               _role_seed(cfg.seed, 2))
    e_r_model = fit_propensity(_with_treatment(ds.x[plan.pretrain], ds.d[plan.pretrain]),
                               ds.r[plan.pretrain], cfg.learner, _role_seed(cfg.seed, 3))

    def own_arm_scores(rows: np.ndarray) -> np.ndarray:
        v = np.full(rows.size, np.nan)
        for arm in (0, 1):
            sel = (ds.r[rows] == 1) & (ds.d[rows] == arm)
            if sel.any():
                lo, hi = q_models[arm].predict(ds.x[rows[sel]])
                v[sel] = cqr_score(ds.y[rows[sel]], lo, hi)
        return v

    eta_init = {}
    m_models = {}
    for arm in (0, 1):
        tr1 = _arm_rows(ds, plan.train1, arm)
        v1 = own_arm_scores(tr1)
        eta_init[arm] = initial_eta(v1, 1.0 - cfg.alpha)
        tr2 = _arm_rows(ds, plan.train2, arm)
        v2 = own_arm_scores(tr2)
        m_models[arm] = fit_conditional_cdf(ds.x[tr2], v2, eta_init[arm], cfg.learner,
                                            _role_seed(cfg.seed, 4 + arm))

    cal = plan.calibration
    v_cal = own_arm_scores(cal)
    e_d = e_d_model.predict_proba(ds.x[cal])
    pi_d = e_d / (1.0 - e_d)
    e_r1 = e_r_model.predict_proba(_with_treatment(ds.x[cal], np.ones(cal.size)))
    e_r0 = e_r_model.predict_proba(_with_treatment(ds.x[cal], np.zeros(cal.size)))

    eta_solutions = {}
    for arm in (1, 0):
        v_arm = np.where((ds.r[cal] == 1) & (ds.d[cal] == arm), v_cal, np.nan)
        # The frozen CDF surrogate sits at its target level by construction,
        # so its sampling noise alone can push the moment's ceiling below
        # zero and degenerate the root to +inf; flooring at the target level
        # (the constant of the double-robustness route) removes that failure
        # mode without moving the root's first-order location.
        m_hat = np.maximum(m_models[arm].predict_proba(ds.x[cal]), 1.0 - cfg.alpha)
        sol = solve_smallest_eta(counterfactual_terms(arm, ds.d[cal], ds.r[cal], v_arm, m_hat,
                                                      e_r1, e_r0, pi_d, cfg.alpha))
        if sol.degenerate:
            flags.append(f"eta_alpha_{arm} is infinite; counterfactual intervals unbounded")
        eta_solutions[arm] = sol

    obs = cal[ds.r[cal] == 1]
    c_cf_lo = np.empty(obs.size)
    c_cf_hi = np.empty(obs.size)
    c_ite_lo = np.empty(obs.size)
    c_ite_hi = np.empty(obs.size)
    for arm in (0, 1):
        # rows observed in arm `arm` get the counterfactual interval of 1 - arm
        sel = ds.d[obs] == arm
        if not sel.any():
            continue
        cf = 1 - arm
        cf_lo, cf_hi = expand_interval(*q_models[cf].predict(ds.x[obs[sel]]),
                                       eta_solutions[cf].eta)
        c_cf_lo[sel], c_cf_hi[sel] = cf_lo, cf_hi
        y = ds.y[obs[sel]]
        if arm == 1:
            c_ite_lo[sel], c_ite_hi[sel] = y - cf_hi, y - cf_lo
        else:
            c_ite_lo[sel], c_ite_hi[sel] = cf_lo - y, cf_hi - y

    return Step1State(cfg=cfg, q_models=q_models, e_d_model=e_d_model,
                      e_r_model=e_r_model, eta_init=eta_init,
                      eta_solutions=eta_solutions, cal_obs_idx=obs,
                      c_cf_lo=c_cf_lo, c_cf_hi=c_cf_hi,
                      c_ite_lo=c_ite_lo, c_ite_hi=c_ite_hi, flags=flags)


def cise_step2(state: Step1State, ds: ExperimentDataset, plan: SplitPlan,
               cfg: ConformalConfig) -> CiseResult:
    """Extrapolation step: expand the step-1 ITE intervals to attrited rows."""
    flags = list(state.flags)
    att = np.flatnonzero(ds.r == 0)

    finite = np.isfinite(state.c_ite_lo) & np.isfinite(state.c_ite_hi)
    if finite.sum() < 8:
        raise InsufficientDataError("step 1 produced fewer than 8 finite ITE intervals")

    if att.size == 0:
        flags.append("no attrition rows; extrapolation skipped")
        return CiseResult(cal_obs_idx=state.cal_obs_idx, c_cf_lo=state.c_cf_lo,
                          c_cf_hi=state.c_cf_hi, c_ite_lo=state.c_ite_lo,
                          c_ite_hi=state.c_ite_hi, att_idx=att,
                          che_lo=np.empty(0), che_hi=np.empty(0),
                          eta_alpha=state.eta_hat, eta_gamma=math.nan,
                          h_lo_model=None, h_hi_model=None, flags=flags)

    pos = {int(row): i for i, row in enumerate(state.cal_obs_idx)}
    obstr = plan.step2_train
    obsca = plan.step2_cal
    if obstr.size == 0 or obsca.size == 0:
        raise InsufficientDataError("empty step-2 fold")
    tr_pos = np.array([pos[int(r)] for r in obstr], dtype=np.int64)
    ca_pos = np.array([pos[int(r)] for r in obsca], dtype=np.int64)

    # Endpoint models can only learn from finite surrogate intervals; rows
    # with an unbounded step-1 interval keep a +inf score and stay in the
    # moment, where they honestly count as never covered.
    tr_finite = np.isfinite(state.c_ite_lo[tr_pos]) & np.isfinite(state.c_ite_hi[tr_pos])
    if tr_finite.sum() < obstr.size:
        flags.append(f"{int(obstr.size - tr_finite.sum())} unbounded surrogates "
                     "excluded from endpoint fits")
    h_lo = fit_mean(ds.x[obstr[tr_finite]], state.c_ite_lo[tr_pos[tr_finite]], cfg.learner,
                    _role_seed(cfg.seed, 6))
    h_hi = fit_mean(ds.x[obstr[tr_finite]], state.c_ite_hi[tr_pos[tr_finite]], cfg.learner,
                    _role_seed(cfg.seed, 7))

    # P(R | X, D) needs both classes; the step-2 training fold has none with
    # r = 0, so the attrition rows join the fit.
    pi_rows = np.concatenate([obstr, att])
    pi_model = fit_propensity(_with_treatment(ds.x[pi_rows], ds.d[pi_rows]),
                              ds.r[pi_rows], cfg.learner, _role_seed(cfg.seed, 8))

    def v_c(rows_pos: np.ndarray, rows: np.ndarray) -> np.ndarray:
        return interval_score(state.c_ite_lo[rows_pos], state.c_ite_hi[rows_pos],
                              h_lo.predict(ds.x[rows]), h_hi.predict(ds.x[rows]))

    # The localized CDF needs out-of-sample scores: endpoint models evaluated
    # on their own fitting rows understate the nonconformity, which drags the
    # initial threshold (and with it the whole moment) below its target.
    # Cross-fit the endpoint models across two halves of the training fold.
    v_tr = np.full(obstr.size, np.nan)
    perm = make_rng(child_seed(cfg.seed, 11)).permutation(obstr.size)
    halves = (perm[:obstr.size // 2], perm[obstr.size // 2:])
    for a, b in ((0, 1), (1, 0)):
        fit_rows, fit_pos = obstr[halves[a]], tr_pos[halves[a]]
        fin = np.isfinite(state.c_ite_lo[fit_pos]) & np.isfinite(state.c_ite_hi[fit_pos])
        g_lo = fit_mean(ds.x[fit_rows[fin]], state.c_ite_lo[fit_pos[fin]], cfg.learner,
                        _role_seed(cfg.seed, 12 + a))
        g_hi = fit_mean(ds.x[fit_rows[fin]], state.c_ite_hi[fit_pos[fin]], cfg.learner,
                        _role_seed(cfg.seed, 14 + a))
        out_rows, out_pos = obstr[halves[b]], tr_pos[halves[b]]
        v_tr[halves[b]] = interval_score(state.c_ite_lo[out_pos], state.c_ite_hi[out_pos],
                                         g_lo.predict(ds.x[out_rows]),
                                         g_hi.predict(ds.x[out_rows]))
    eta_init_c = initial_eta(v_tr[np.isfinite(v_tr)], 1.0 - cfg.gamma)

    m_c = fit_conditional_cdf(_with_treatment(ds.x[obstr], ds.d[obstr]), v_tr, eta_init_c,
                              cfg.learner, _role_seed(cfg.seed, 9))

    solve_rows = np.concatenate([obsca, att])
    v_solve = np.full(solve_rows.size, np.nan)
    v_solve[:obsca.size] = v_c(ca_pos, obsca)
    e_r = pi_model.predict_proba(_with_treatment(ds.x[solve_rows], ds.d[solve_rows]))
    # same target-level floor as in step 1 (see the comment there)
    m_hat = np.maximum(m_c.predict_proba(_with_treatment(ds.x[solve_rows], ds.d[solve_rows])),
                       1.0 - cfg.gamma)
    sol = solve_smallest_eta(extrapolation_terms(ds.r[solve_rows], v_solve, m_hat,
                                                 e_r / (1.0 - e_r), cfg.gamma))
    if sol.degenerate:
        flags.append("eta_gamma is infinite; attrition intervals unbounded")

    che_lo, che_hi = expand_interval(h_lo.predict(ds.x[att]), h_hi.predict(ds.x[att]),
                                     sol.eta)

    return CiseResult(cal_obs_idx=state.cal_obs_idx, c_cf_lo=state.c_cf_lo,
                      c_cf_hi=state.c_cf_hi, c_ite_lo=state.c_ite_lo,
                      c_ite_hi=state.c_ite_hi, att_idx=att, che_lo=che_lo,
                      che_hi=che_hi, eta_alpha=state.eta_hat, eta_gamma=sol.eta,
                      h_lo_model=h_lo, h_hi_model=h_hi, flags=flags)


def run_cise(ds: ExperimentDataset, cfg: ConformalConfig) -> CiseResult:
    """Full two-step pipeline on one dataset."""
    plan = make_splits(ds.n, ds.r, cfg)
    state = cise_step1(ds, plan, cfg)
    return cise_step2(state, ds, plan, cfg)


def wcqr_nested_baseline(ds: ExperimentDataset, cfg: ConformalConfig,
                         exact: bool = True) -> CiseResult:
    """Nested weighted-CQR baseline: counterfactual intervals by weighted
    split CQR on one half of the observed rows, then an unweighted second
    conformal step (exact) or direct endpoint-quantile fits (inexact)."""
    validate_dataset(ds, require_both_arms=True)
    flags = []
    obs = np.flatnonzero(ds.r == 1)
    att = np.flatnonzero(ds.r == 0)

    rng = make_rng(child_seed(cfg.seed, 2))
    order = obs[rng.permutation(obs.size)]
    half = order.size // 2
    z1, z2 = order[:half], order[half:]
    for arm in (0, 1):
        if (ds.d[z1] == arm).sum() < 4 or (ds.d[z2] == arm).sum() < 1:
            raise InsufficientDataError(f"too few arm-{arm} rows in the baseline folds")

    e_d_model = fit_propensity(ds.x[z1], ds.d[z1], cfg.learner, _role_seed(cfg.seed, 20))

    c_ite_lo = np.empty(z2.size)
    c_ite_hi = np.empty(z2.size)
    for arm in (0, 1):
        # counterfactual arm cf = 1 - arm, fitted on z1 rows observed in cf
        cf = 1 - arm
        src = z1[ds.d[z1] == cf]
        rng_arm = make_rng(child_seed(cfg.seed, 3 + arm))
        perm = src[rng_arm.permutation(src.size)]
        n_tr = perm.size // 2
        tr, ca = perm[:n_tr], perm[n_tr:]
        if tr.size == 0 or ca.size == 0:
            raise InsufficientDataError(f"too few arm-{cf} rows for weighted CQR")

        if cf == 0:
            def weight_fn(x):
                p = e_d_model.predict_proba(x)
                return p / (1.0 - p)
        else:
            def weight_fn(x):
                p = e_d_model.predict_proba(x)
                return (1.0 - p) / p

        test = z2[ds.d[z2] == arm]
        # unreachable weighted quantiles fall back to the largest score so
        # the baseline keeps producing (very wide) finite intervals
        band = weighted_split_cqr_batch(ds.x[tr], ds.y[tr], ds.x[ca], ds.y[ca],
                                        ds.x[test], cfg.alpha, weight_fn, cfg.learner,
                                        _role_seed(cfg.seed, 22 + arm), cap_at_max=True)
        if band.uninformative.any():
            flags.append(f"{int(band.uninformative.sum())} capped counterfactual intervals (arm {cf})")
        sel = ds.d[z2] == arm
        y = ds.y[test]
        if arm == 1:
            c_ite_lo[sel], c_ite_hi[sel] = y - band.hi, y - band.lo
        else:
            c_ite_lo[sel], c_ite_hi[sel] = band.lo - y, band.hi - y

    eta_gamma = math.nan
    h_lo_model = h_hi_model = None
    if att.size == 0:
        flags.append("no attrition rows; extrapolation skipped")
        che_lo = np.empty(0)
        che_hi = np.empty(0)
    else:
        finite = np.isfinite(c_ite_lo) & np.isfinite(c_ite_hi)
        if finite.sum() < 4:
            raise InsufficientDataError("too few finite baseline ITE intervals")
        fz = z2[finite]
        flo = c_ite_lo[finite]
        fhi = c_ite_hi[finite]
        if exact:
            band = unweighted_interval_conformal_batch(
                ds.x[fz], flo, fhi, ds.x[att], cfg.gamma, cfg.learner,
                _role_seed(cfg.seed, 24), _role_seed(cfg.seed, 25), child_seed(cfg.seed, 5))
            if band.uninformative.any():
                flags.append("baseline eta_gamma is infinite; attrition intervals unbounded")
            eta_gamma = float(band.eta[0])
            che_lo, che_hi = band.lo, band.hi
            h_lo_model, h_hi_model = band.lo_model, band.hi_model
        else:
            h_lo_model = fit_quantile(ds.x[fz], flo, cfg.gamma / 2.0, cfg.learner,
                                      _role_seed(cfg.seed, 26))
            h_hi_model = fit_quantile(ds.x[fz], fhi, 1.0 - cfg.gamma / 2.0, cfg.learner,
                                      _role_seed(cfg.seed, 27))
            eta_gamma = 0.0
            che_lo, che_hi = repair_crossing(h_lo_model.predict(ds.x[att]),
                                             h_hi_model.predict(ds.x[att]))

    return CiseResult(cal_obs_idx=z2, c_cf_lo=np.full(z2.size, np.nan),
                      c_cf_hi=np.full(z2.size, np.nan), c_ite_lo=c_ite_lo,
                      c_ite_hi=c_ite_hi, att_idx=att, che_lo=che_lo, che_hi=che_hi,
                      eta_alpha={}, eta_gamma=eta_gamma,
                      h_lo_model=h_lo_model, h_hi_model=h_hi_model, flags=flags)


@dataclass(frozen=True)
class AteEstimate:
    estimate: float
    se: float


def ipw_ate(ds: ExperimentDataset, cfg: ConformalConfig) -> AteEstimate:
    """Hajek-style IPW ATE on the observed rows, weighting by the inverse of
    the treatment and response propensities (both fits seeded ``cfg.seed``)."""
    obs = np.flatnonzero(ds.r == 1)
    if (ds.d[obs] == 1).sum() == 0 or (ds.d[obs] == 0).sum() == 0:
        raise DataValidationError("IPW needs observed rows in both arms")
    e_d_model = fit_propensity(ds.x, ds.d, cfg.learner, cfg.seed)
    e_r_model = fit_propensity(_with_treatment(ds.x, ds.d), ds.r, cfg.learner, cfg.seed)

    x_obs = ds.x[obs]
    d_obs = ds.d[obs]
    y_obs = ds.y[obs]
    e_d = e_d_model.predict_proba(x_obs)
    e_r = e_r_model.predict_proba(_with_treatment(x_obs, d_obs))

    means = {}
    variances = {}
    for arm in (1, 0):
        sel = d_obs == arm
        p_arm = e_d if arm == 1 else 1.0 - e_d
        w = 1.0 / (p_arm[sel] * e_r[sel])
        mu = float(np.sum(w * y_obs[sel]) / np.sum(w))
        # linearized variance of the weighted mean
        var = float(np.sum((w * (y_obs[sel] - mu)) ** 2) / np.sum(w) ** 2)
        means[arm] = mu
        variances[arm] = var
    return AteEstimate(estimate=means[1] - means[0],
                       se=math.sqrt(variances[1] + variances[0]))


def diff_in_means(ds: ExperimentDataset) -> AteEstimate:
    """Observed-group ATE: the difference in arm means over responding rows,
    with the unpooled two-sample SE."""
    obs = np.flatnonzero(ds.r == 1)
    y, d = ds.y[obs], ds.d[obs]
    y1, y0 = y[d == 1], y[d == 0]
    return AteEstimate(estimate=float(y1.mean() - y0.mean()),
                       se=math.sqrt(y1.var(ddof=1) / y1.size + y0.var(ddof=1) / y0.size))


@dataclass(frozen=True)
class AteSummary:
    ate_r1: float
    se_r1: float
    ate_r0: float | None
    se_r0: float | None
    ate_all: float
    se_all: float
    n_r1: int
    n_r0: int
    att_idx: np.ndarray
    mean_lo: np.ndarray
    mean_hi: np.ndarray
    finite_reps: np.ndarray
    length: float | None = None
    se_length: float | None = None


def _mean_and_spread(values: list) -> tuple[float, float]:
    spread = float(np.std(values, ddof=1)) if len(values) > 1 else math.nan
    return float(np.mean(values)), spread


def aggregate_ate(intervals: list, ds: ExperimentDataset, ate_r1: float,
                  se_r1: float) -> AteSummary:
    """Combine the observed-group ATE with the attrition-group midpoint ATE.

    ``intervals`` holds each replicate's attrition intervals ``(che_lo,
    che_hi)`` for the rows ``att_idx``.  Only finite intervals count.  Every
    replicate with one gives a midpoint ATE (the mean midpoint) and a mean
    length; ATER0 and Length are their means across replicates, with the
    spread across replicates as SE (NaN for a single one).  SE(ATE over
    everyone) follows the weighted-average variance formula; without an
    attrition estimate the ATE over everyone is the observed-group ATE.
    ``mean_lo``/``mean_hi`` average each row's finite intervals over the
    ``finite_reps`` replicates that have one (NaN for none).
    """
    att_idx = np.flatnonzero(ds.r == 0)
    n_r1 = int((ds.r == 1).sum())
    n_r0 = int(att_idx.size)
    lo = np.vstack([lo for lo, _ in intervals])
    hi = np.vstack([hi for _, hi in intervals])
    finite = np.isfinite(lo) & np.isfinite(hi)
    ates, lengths = [], []
    for lo_k, hi_k, fin_k in zip(lo, hi, finite):
        if fin_k.any():
            ates.append(float((0.5 * (lo_k[fin_k] + hi_k[fin_k])).mean()))
            lengths.append(float((hi_k - lo_k)[fin_k].mean()))
    cnt = finite.sum(axis=0)
    mean_lo = np.where(cnt > 0, np.where(finite, lo, 0.0).sum(axis=0) / np.maximum(cnt, 1), math.nan)
    mean_hi = np.where(cnt > 0, np.where(finite, hi, 0.0).sum(axis=0) / np.maximum(cnt, 1), math.nan)
    rows = dict(att_idx=att_idx, mean_lo=mean_lo, mean_hi=mean_hi, finite_reps=cnt)
    if n_r0 == 0 or not ates:
        return AteSummary(ate_r1=ate_r1, se_r1=se_r1, ate_r0=None, se_r0=None,
                          ate_all=ate_r1, se_all=se_r1, n_r1=n_r1, n_r0=n_r0, **rows)
    ate_r0, se_r0 = _mean_and_spread(ates)
    length, se_length = _mean_and_spread(lengths)
    n_all = n_r1 + n_r0
    ate_all = (n_r1 * ate_r1 + n_r0 * ate_r0) / n_all
    se_all = math.sqrt((n_r1 / n_all * se_r1) ** 2 + (n_r0 / n_all * se_r0) ** 2)
    return AteSummary(ate_r1=ate_r1, se_r1=se_r1, ate_r0=ate_r0, se_r0=se_r0,
                      ate_all=ate_all, se_all=se_all, n_r1=n_r1, n_r0=n_r0,
                      length=length, se_length=se_length, **rows)
