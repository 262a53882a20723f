"""End-to-end interval pipelines: the two-step EIF method, the weighted-CQR
nested baseline, IPW for the observed group, and ATE aggregation."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math

import numpy as np

from .conformal import (cqr_score, expand_interval, interval_score,
                        unweighted_interval_conformal_batch, weighted_split_cqr_batch)
from .data import (MIN_ROWS, ConformalConfig, DataValidationError, ExperimentDataset,
                   InsufficientDataError, SplitPlan)
from .eif import counterfactual_terms, extrapolation_terms, initial_eta, solve_smallest_eta
from .learners import (MeanModel, fit_conditional_cdf, fit_mean,
                       fit_propensity, fit_quantile, fit_quantile_pair, repair_crossing)
from .rng import make_rng, run_seed, stream_seed

# fold fractions of make_splits and of step 2's two folds
PRETRAIN_FRAC = 0.20
TRAIN_FRAC_OF_REST = 0.75
STEP2_TRAIN_FRAC = 0.50


def _fit(cfg: ConformalConfig, stream: str, fit, *data):
    """``fit`` on ``data`` with the run's learner, seeded by the named stream."""
    return fit(*data, cfg.learner, stream_seed(cfg.seed, stream))


def _shuffled(cfg: ConformalConfig, stream: str, rows: np.ndarray) -> np.ndarray:
    """``rows`` permuted on the named stream."""
    return rows[make_rng(stream_seed(cfg.seed, stream)).permutation(rows.size)]


def _threshold(cfg: ConformalConfig, stream: str, level: float, v_init: np.ndarray,
               fit_x: np.ndarray, fit_v: np.ndarray, eval_x: np.ndarray, terms):
    """The smallest root of ``terms(m_hat)``: ``m_hat`` is the localized
    conditional CDF, fitted on the named stream from the ``level`` quantile
    of ``v_init``'s finite scores, at ``eval_x`` and floored at ``level``.
    The frozen surrogate sits at its target level by construction, so its
    noise alone can push the moment's ceiling below zero and degenerate the
    root to +inf; the floor (the constant of the double-robustness route)
    removes that failure mode without moving the root's first-order location."""
    m_model = _fit(cfg, stream, fit_conditional_cdf, fit_x, fit_v,
                   initial_eta(v_init[np.isfinite(v_init)], level))
    return solve_smallest_eta(terms(np.maximum(m_model.predict_proba(eval_x), level)))


def _halves(cfg: ConformalConfig, stream: str, rows: np.ndarray) -> tuple:
    """``rows`` shuffled on the named stream, cut at half."""
    perm = _shuffled(cfg, stream, rows)
    return perm[:rows.size // 2], perm[rows.size // 2:]


def make_splits(n_rows: int, cfg: ConformalConfig) -> SplitPlan:
    """Step 1's folds: the rows shuffled on the ``folds`` stream, then cut
    into contiguous slices.

    Fold sizes are rounded fractions: pretrain ``PRETRAIN_FRAC`` of all rows,
    training ``TRAIN_FRAC_OF_REST`` of the remainder (halved into train1 and
    train2), the rest calibration.  Deterministic given ``cfg.seed``.
    """
    if n_rows < MIN_ROWS:
        raise InsufficientDataError("insufficient data for split plan "
                                    f"(need at least {MIN_ROWS} rows)")
    order = _shuffled(cfg, "folds", np.arange(n_rows))

    n_pr = int(round(PRETRAIN_FRAC * n_rows))
    rest = n_rows - n_pr
    n_tr = int(round(TRAIN_FRAC_OF_REST * rest))
    n_tr1 = n_tr // 2
    pretrain = order[:n_pr]
    train1 = order[n_pr:n_pr + n_tr1]
    train2 = order[n_pr + n_tr1:n_pr + n_tr]
    calibration = order[n_pr + n_tr:]
    return SplitPlan(pretrain=pretrain, train1=train1, train2=train2, calibration=calibration)


def _with_treatment(x: np.ndarray, d: np.ndarray) -> np.ndarray:
    return np.column_stack([x, d.astype(np.float64)])


def _require_both_arms(ds: ExperimentDataset) -> None:
    """Every pipeline and ATE estimate compares the arms on responding rows."""
    for arm in (0, 1):
        if not np.any((ds.r == 1) & (ds.d == arm)):
            raise DataValidationError(f"no responding rows in treatment arm {arm}; "
                                      "both arms need rows with r = 1")


def _ite_interval(d: np.ndarray, y: np.ndarray, cf_lo: np.ndarray,
                  cf_hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """ITE interval of rows observed in arm ``d`` with outcome ``y``, given
    their counterfactual-arm interval [cf_lo, cf_hi]."""
    treated = d == 1
    return np.where(treated, y - cf_hi, cf_lo - y), np.where(treated, y - cf_lo, cf_hi - y)


@dataclass
class CiseResult:
    """Output of a pipeline run.

    Step 1 fills the intervals of the observed calibration rows; the
    two-step method also keeps its fitted quantile pairs and thresholds.
    Step 2 adds the attrition-group intervals, their threshold and, for the
    two-step method, the endpoint models that :meth:`extrapolate` uses.
    """

    cal_obs_idx: np.ndarray    # calibration rows with r = 1, original indices
    c_cf_lo: np.ndarray        # counterfactual-arm interval per such row
    c_cf_hi: np.ndarray
    c_ite_lo: np.ndarray       # ITE interval per such row
    c_ite_hi: np.ndarray
    q_models: dict = field(default_factory=dict)       # arm -> fitted quantile pair
    eta_solutions: dict = field(default_factory=dict)  # arm -> EtaSolution
    att_idx: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.intp))
    che_lo: np.ndarray = field(default_factory=lambda: np.empty(0))
    che_hi: np.ndarray = field(default_factory=lambda: np.empty(0))
    eta_gamma: float = math.nan
    h_lo_model: MeanModel | None = None
    h_hi_model: MeanModel | None = None
    flags: list = field(default_factory=list)

    def extrapolate(self, x) -> tuple[np.ndarray, np.ndarray]:
        """Attrition-group interval at arbitrary covariates."""
        if self.h_lo_model is None:
            raise RuntimeError("no extrapolation models: only a cise result whose "
                               "step 2 ran on attrition rows keeps them")
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return expand_interval(self.h_lo_model.predict(x), self.h_hi_model.predict(x),
                               self.eta_gamma)


def _arm_rows(ds: ExperimentDataset, fold: np.ndarray, arm: int) -> np.ndarray:
    return fold[(ds.r[fold] == 1) & (ds.d[fold] == arm)]


def cise_step1(ds: ExperimentDataset, plan: SplitPlan, cfg: ConformalConfig) -> CiseResult:
    """Counterfactual step: nuisances on the pretraining fold, localized
    conditional CDFs on the training subfolds, thresholds on calibration.
    Returns a :class:`CiseResult` holding only the step-1 part."""
    _require_both_arms(ds)
    flags = []

    for name, fold in (("pretrain", plan.pretrain), ("train1", plan.train1),
                       ("train2", plan.train2), ("calibration", plan.calibration)):
        for arm in (0, 1):
            if _arm_rows(ds, fold, arm).size == 0:
                raise InsufficientDataError(f"empty arm {arm} in {name} fold")

    pre = plan.pretrain
    e_d_model = _fit(cfg, "treatment_propensity", fit_propensity, ds.x[pre], ds.d[pre])
    e_r_model = _fit(cfg, "response_propensity", fit_propensity,
                     _with_treatment(ds.x[pre], ds.d[pre]), ds.r[pre])
    cal = plan.calibration
    e_d = e_d_model.predict_proba(ds.x[cal])
    pi_d = e_d / (1.0 - e_d)
    e_r1 = e_r_model.predict_proba(_with_treatment(ds.x[cal], np.ones(cal.size)))
    e_r0 = e_r_model.predict_proba(_with_treatment(ds.x[cal], np.zeros(cal.size)))
    obs = cal[ds.r[cal] == 1]
    c_cf_lo, c_cf_hi = np.empty(obs.size), np.empty(obs.size)

    q_models, eta_solutions = {}, {}
    for arm in (1, 0):
        rows = _arm_rows(ds, plan.pretrain, arm)
        q = q_models[arm] = _fit(cfg, f"quantile_pair_{arm}", fit_quantile_pair, ds.x[rows],
                                 ds.y[rows], cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0)
        tr1 = _arm_rows(ds, plan.train1, arm)
        tr2 = _arm_rows(ds, plan.train2, arm)
        own = (ds.r[cal] == 1) & (ds.d[cal] == arm)
        v_tr1 = cqr_score(ds.y[tr1], *q.predict(ds.x[tr1]))
        v_tr2 = cqr_score(ds.y[tr2], *q.predict(ds.x[tr2]))
        v_cal = np.full(cal.size, np.nan)  # NaN off the arm's observed rows
        v_cal[own] = cqr_score(ds.y[cal[own]], *q.predict(ds.x[cal[own]]))
        sol = eta_solutions[arm] = _threshold(
            cfg, f"cdf_{arm}", 1.0 - cfg.alpha, v_tr1, ds.x[tr2], v_tr2, ds.x[cal],
            lambda m_hat: counterfactual_terms(arm, ds.d[cal], ds.r[cal], v_cal, m_hat,
                                               e_r1, e_r0, pi_d, cfg.alpha))
        if sol.degenerate:
            flags.append(f"eta_alpha_{arm} is infinite; counterfactual intervals unbounded")
        # rows observed in the other arm get this arm's counterfactual interval
        other = ds.d[obs] != arm
        c_cf_lo[other], c_cf_hi[other] = expand_interval(*q.predict(ds.x[obs[other]]), sol.eta)
    c_ite_lo, c_ite_hi = _ite_interval(ds.d[obs], ds.y[obs], c_cf_lo, c_cf_hi)

    return CiseResult(cal_obs_idx=obs, c_cf_lo=c_cf_lo, c_cf_hi=c_cf_hi,
                      c_ite_lo=c_ite_lo, c_ite_hi=c_ite_hi, q_models=q_models,
                      eta_solutions=eta_solutions, flags=flags)


def cise_step2(state: CiseResult, ds: ExperimentDataset, cfg: ConformalConfig) -> CiseResult:
    """Extrapolation step: expand the step-1 ITE intervals to attrited rows.
    Step 1's observed calibration rows, shuffled on the ``step2_folds`` stream,
    split at ``STEP2_TRAIN_FRAC`` into a training and a calibration fold.
    Returns ``state`` with the step-2 part filled in."""
    flags = list(state.flags)
    att = np.flatnonzero(ds.r == 0)
    lo, hi = np.full(ds.n, np.nan), np.full(ds.n, np.nan)  # step-1 ITE interval by row
    lo[state.cal_obs_idx], hi[state.cal_obs_idx] = state.c_ite_lo, state.c_ite_hi

    finite = np.isfinite(lo) & np.isfinite(hi)
    if finite.sum() < 8:
        raise InsufficientDataError("step 1 produced fewer than 8 finite ITE intervals")

    if att.size == 0:
        flags.append("no attrition rows; extrapolation skipped")
        return replace(state, att_idx=att, flags=flags)

    # 8 finite step-1 intervals leave at least 4 rows in each fold
    obs = _shuffled(cfg, "step2_folds", state.cal_obs_idx)
    n_tr = int(round(STEP2_TRAIN_FRAC * obs.size))
    obstr, obsca = obs[:n_tr], obs[n_tr:]

    # Endpoint models can only learn from finite surrogate intervals; rows
    # with an unbounded step-1 interval keep a +inf score and stay in the
    # moment, where they honestly count as never covered.
    def fit_endpoints(rows: np.ndarray, lo_stream: str, hi_stream: str) -> tuple:
        rows = rows[finite[rows]]
        x = ds.x[rows]
        return (_fit(cfg, lo_stream, fit_mean, x, lo[rows]),
                _fit(cfg, hi_stream, fit_mean, x, hi[rows]))

    def scores(endpoints: tuple, rows: np.ndarray) -> np.ndarray:
        x = ds.x[rows]
        return interval_score(lo[rows], hi[rows], endpoints[0].predict(x),
                              endpoints[1].predict(x))

    if n_unbounded := int(obstr.size - finite[obstr].sum()):
        flags.append(f"{n_unbounded} unbounded surrogates excluded from endpoint fits")
    h_lo, h_hi = fit_endpoints(obstr, "endpoint_lo", "endpoint_hi")

    # P(R | X, D) needs both classes; the step-2 training fold has none with
    # r = 0, so the attrition rows join the fit.  Its odds carry this frame's
    # share of observed rows, and the solve frame below swaps the training
    # fold for the calibration fold: r / pi is right only while the two folds'
    # counts differ by at most one row, as STEP2_TRAIN_FRAC = 0.5 makes them.
    pi_rows = np.concatenate([obstr, att])
    pi_model = _fit(cfg, "step2_response_propensity", fit_propensity,
                    _with_treatment(ds.x[pi_rows], ds.d[pi_rows]), ds.r[pi_rows])

    # The localized CDF needs out-of-sample scores: endpoint models evaluated
    # on their own fitting rows understate the nonconformity, which drags the
    # initial threshold (and with it the whole moment) below its target.
    # Cross-fit the endpoint models across two halves of the training fold.
    v_tr = np.full(obstr.size, np.nan)
    halves = _halves(cfg, "crossfit_halves", np.arange(obstr.size))
    for a, b in ((0, 1), (1, 0)):
        v_tr[halves[b]] = scores(fit_endpoints(obstr[halves[a]], f"crossfit_lo_{a}",
                                               f"crossfit_hi_{a}"), obstr[halves[b]])

    solve_rows = np.concatenate([obsca, att])
    xd_solve = _with_treatment(ds.x[solve_rows], ds.d[solve_rows])
    v_solve = np.concatenate([scores((h_lo, h_hi), obsca), np.full(att.size, np.nan)])
    e_r = pi_model.predict_proba(xd_solve)
    sol = _threshold(cfg, "step2_cdf", 1.0 - cfg.gamma, v_tr,
                     _with_treatment(ds.x[obstr], ds.d[obstr]), v_tr, xd_solve,
                     lambda m_hat: extrapolation_terms(ds.r[solve_rows], v_solve, m_hat,
                                                       e_r / (1.0 - e_r), cfg.gamma))
    if sol.degenerate:
        flags.append("eta_gamma is infinite; attrition intervals unbounded")

    che_lo, che_hi = expand_interval(h_lo.predict(ds.x[att]), h_hi.predict(ds.x[att]),
                                     sol.eta)
    return replace(state, att_idx=att, che_lo=che_lo, che_hi=che_hi, eta_gamma=sol.eta,
                   h_lo_model=h_lo, h_hi_model=h_hi, flags=flags)


def run_cise(ds: ExperimentDataset, cfg: ConformalConfig) -> CiseResult:
    """Full two-step pipeline on one dataset."""
    _require_both_arms(ds)
    state = cise_step1(ds, make_splits(ds.n, cfg), cfg)
    return cise_step2(state, ds, cfg)


def wcqr_nested_baseline(ds: ExperimentDataset, cfg: ConformalConfig,
                         exact: bool = True) -> CiseResult:
    """Nested weighted-CQR baseline: counterfactual intervals by weighted
    split CQR on one half of the observed rows, then an unweighted second
    conformal step (exact) or direct endpoint-quantile fits (inexact).
    The result keeps no models, so it cannot :meth:`~CiseResult.extrapolate`."""
    _require_both_arms(ds)
    flags = []
    obs = np.flatnonzero(ds.r == 1)
    att = np.flatnonzero(ds.r == 0)

    z1, z2 = _halves(cfg, "baseline_halves", obs)
    for arm in (0, 1):  # an arm's quantile pair is fitted on half its z1 rows and needs 4
        if (ds.d[z1] == arm).sum() < 8 or (ds.d[z2] == arm).sum() < 1:
            raise InsufficientDataError(f"too few arm-{arm} rows in the baseline folds "
                                        "(z1 needs 8, z2 needs 1)")

    e_d_model = _fit(cfg, "baseline_propensity", fit_propensity, ds.x[z1], ds.d[z1])

    c_cf_lo, c_cf_hi = np.empty(z2.size), np.empty(z2.size)
    for arm in (0, 1):
        # counterfactual arm cf = 1 - arm, fitted on z1 rows observed in cf
        cf = 1 - arm
        tr, ca = _halves(cfg, f"baseline_cqr_split_{arm}", z1[ds.d[z1] == cf])
        qp = _fit(cfg, f"baseline_cqr_{arm}", fit_quantile_pair, ds.x[tr], ds.y[tr],
                  cfg.alpha / 2.0, 1.0 - cfg.alpha / 2.0)

        def shift_odds(rows):  # covariate shift from arm cf to arm: P(D = arm | x) / P(D = cf | x)
            p = e_d_model.predict_proba(ds.x[rows])
            return p / (1.0 - p) if cf == 0 else (1.0 - p) / p

        sel = ds.d[z2] == arm
        band = weighted_split_cqr_batch(qp, ds.x[ca], ds.y[ca], ds.x[z2[sel]], cfg.alpha,
                                        shift_odds(ca), shift_odds(z2[sel]))
        if band.uninformative.any():
            flags.append(f"{int(band.uninformative.sum())} capped counterfactual intervals (arm {cf})")
        c_cf_lo[sel], c_cf_hi[sel] = band.lo, band.hi
    c_ite_lo, c_ite_hi = _ite_interval(ds.d[z2], ds.y[z2], c_cf_lo, c_cf_hi)

    result = CiseResult(cal_obs_idx=z2, c_cf_lo=c_cf_lo, c_cf_hi=c_cf_hi, c_ite_lo=c_ite_lo,
                        c_ite_hi=c_ite_hi, att_idx=att, flags=flags)
    if att.size == 0:
        result.flags.append("no attrition rows; extrapolation skipped")
        return result
    finite = np.isfinite(c_ite_lo) & np.isfinite(c_ite_hi)
    if finite.sum() < 4:
        raise InsufficientDataError("too few finite baseline ITE intervals")
    fz, flo, fhi = z2[finite], c_ite_lo[finite], c_ite_hi[finite]
    if exact:
        # endpoint models on one half of the finite rows, calibrated on the other
        tr, ca = _halves(cfg, "exact_endpoint_split", np.arange(fz.size))
        h_lo = _fit(cfg, "exact_endpoint_lo", fit_mean, ds.x[fz[tr]], flo[tr])
        h_hi = _fit(cfg, "exact_endpoint_hi", fit_mean, ds.x[fz[tr]], fhi[tr])
        band = unweighted_interval_conformal_batch(h_lo, h_hi, ds.x[fz[ca]], flo[ca], fhi[ca],
                                                   ds.x[att], cfg.gamma)
        if band.uninformative.any():
            result.flags.append("baseline eta_gamma is infinite; attrition intervals unbounded")
        return replace(result, che_lo=band.lo, che_hi=band.hi, eta_gamma=float(band.eta[0]))
    q_lo = _fit(cfg, "inexact_endpoint_lo", fit_quantile, ds.x[fz], flo, cfg.gamma / 2.0)
    q_hi = _fit(cfg, "inexact_endpoint_hi", fit_quantile, ds.x[fz], fhi, 1.0 - cfg.gamma / 2.0)
    che_lo, che_hi = repair_crossing(q_lo.predict(ds.x[att]), q_hi.predict(ds.x[att]))
    return replace(result, che_lo=che_lo, che_hi=che_hi, eta_gamma=0.0)


@dataclass(frozen=True)
class AteEstimate:
    estimate: float
    se: float


def ipw_ate(ds: ExperimentDataset, cfg: ConformalConfig) -> AteEstimate:
    """Hajek-style IPW ATE on the observed rows, weighting by the inverse of
    the treatment and response propensities, each fitted on its own stream
    under :func:`~.rng.run_seed`."""
    _require_both_arms(ds)
    obs = np.flatnonzero(ds.r == 1)
    run_cfg = replace(cfg, seed=run_seed(cfg.seed))
    e_d_model = _fit(run_cfg, "treatment_propensity", fit_propensity, ds.x, ds.d)
    e_r_model = _fit(run_cfg, "response_propensity", fit_propensity,
                     _with_treatment(ds.x, ds.d), ds.r)

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
    _require_both_arms(ds)
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


def mean_and_spread(values: list) -> tuple[float, float]:
    """The mean and the ddof=1 spread, which is NaN for one value or an infinite mean."""
    mean = float(np.mean(values))
    if len(values) < 2 or math.isinf(mean):
        return mean, math.nan
    return mean, float(np.std(values, ddof=1))


def aggregate_ate(intervals, ds: ExperimentDataset, ate_r1: float,
                  se_r1: float) -> AteSummary:
    """Combine the observed-group ATE with the attrition-group midpoint ATE.

    ``intervals`` yields each replicate's attrition intervals ``(che_lo,
    che_hi)`` for the rows ``att_idx``, folded in one at a time, so memory
    does not grow with the replicates.  Only finite intervals count.  Every
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
    # running sums from zero in replicate order: the bits of a sum over axis 0
    sum_lo, sum_hi = np.zeros(n_r0), np.zeros(n_r0)
    cnt = np.zeros(n_r0, dtype=np.int64)
    ates, lengths = [], []
    for lo_k, hi_k in intervals:
        fin_k = np.isfinite(lo_k) & np.isfinite(hi_k)
        if fin_k.any():
            ates.append(float((0.5 * (lo_k[fin_k] + hi_k[fin_k])).mean()))
            lengths.append(float((hi_k - lo_k)[fin_k].mean()))
        sum_lo += np.where(fin_k, lo_k, 0.0)
        sum_hi += np.where(fin_k, hi_k, 0.0)
        cnt += fin_k
    mean_lo = np.where(cnt > 0, sum_lo / np.maximum(cnt, 1), math.nan)
    mean_hi = np.where(cnt > 0, sum_hi / np.maximum(cnt, 1), math.nan)
    rows = dict(att_idx=att_idx, mean_lo=mean_lo, mean_hi=mean_hi, finite_reps=cnt)
    if n_r0 == 0 or not ates:
        return AteSummary(ate_r1=ate_r1, se_r1=se_r1, ate_r0=None, se_r0=None,
                          ate_all=ate_r1, se_all=se_r1, n_r1=n_r1, n_r0=n_r0, **rows)
    ate_r0, se_r0 = mean_and_spread(ates)
    length, se_length = mean_and_spread(lengths)
    n_all = n_r1 + n_r0
    ate_all = (n_r1 * ate_r1 + n_r0 * ate_r0) / n_all
    se_all = math.sqrt((n_r1 / n_all * se_r1) ** 2 + (n_r0 / n_all * se_r0) ** 2)
    return AteSummary(ate_r1=ate_r1, se_r1=se_r1, ate_r0=ate_r0, se_r0=se_r0,
                      ate_all=ate_all, se_all=se_all, n_r1=n_r1, n_r0=n_r0,
                      length=length, se_length=se_length, **rows)
