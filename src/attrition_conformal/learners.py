"""Built-in base learners for every nuisance function.

Two families, named by a learner string: ``glm`` (ridge-IRLS logistic for
probabilities, least squares for means, linear conditional quantiles via
iteratively reweighted least squares on a smoothed pinball loss) and
``random_forest`` (bootstrap CART forest; probabilities and means by leaf
averaging, quantiles by leaf pooling).  Every fit takes the learner and a
seed; only the forest draws from the seed.

Every fitted model is a fitted column (:class:`MeanModel`: linear or
forest; a constant is a zero-slope :class:`LinearMean`) followed by at most
a link, a clip or a crossing repair, and carries ``degenerate`` (the data
left nothing to fit) and ``warning`` (None, or why the fit is suspect).
"""

from __future__ import annotations

import numpy as np

from .data import RANDOM_FOREST, InsufficientDataError, check_learner
from .forest import FittedForest, fit_forest

RIDGE = 1e-6             # ridge penalty of the linear fits
SMOOTHING = 1e-4         # pinball smoothing width of the quantile IRLS
MAX_ITER = 200           # quantile IRLS iterations
LOGISTIC_MAX_ITER = 100  # logistic IRLS iterations
LOGISTIC_TOL = 1e-10     # logistic IRLS step tolerance, relative to the largest coefficient
PROPENSITY_CLIP = 0.01   # the clip of every fitted probability


def _as_matrix(features) -> np.ndarray:
    x = np.asarray(features, dtype=np.float64)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ValueError("features must be a matrix")
    return x


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class MeanModel:
    """One fitted column x -> R^n."""

    def __init__(self, degenerate: bool = False, warning: str | None = None):
        self.degenerate = degenerate
        self.warning = warning

    def predict(self, features) -> np.ndarray:
        raise NotImplementedError


class LinearMean(MeanModel):
    def __init__(self, intercept: float, coef: np.ndarray, degenerate: bool = False,
                 warning: str | None = None):
        super().__init__(degenerate, warning)
        self.intercept_ = float(intercept)
        self.coef_ = np.asarray(coef, dtype=np.float64)

    def predict(self, features):
        return self.intercept_ + _as_matrix(features) @ self.coef_


class ForestMean(MeanModel):
    def __init__(self, forest: FittedForest):
        super().__init__()
        self.forest = forest

    def predict(self, features):
        return self.forest.predict_mean(_as_matrix(features))


class _QuantileAsMean(MeanModel):
    """The pooled ``level`` quantile of a forest's leaves."""

    def __init__(self, forest: FittedForest, level: float):
        super().__init__()
        self.forest = forest
        self.level = level

    def predict(self, features):
        return self.forest.predict_quantiles(_as_matrix(features), self.level, self.level)[0]


class ProbabilityModel:
    """A fitted column, the logistic link if ``logistic``, then the clip to
    [clip, 1 - clip]; the diagnostics are the column's."""

    def __init__(self, score: MeanModel, logistic: bool = False):
        self.score = score
        self.logistic = logistic
        self.degenerate = score.degenerate
        self.warning = score.warning

    def predict_proba(self, features) -> np.ndarray:
        p = self.score.predict(features)
        if self.logistic:
            p = _sigmoid(p)
        return np.clip(p, PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)


def repair_crossing(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Move crossed quantile pairs (lo > hi) to their midpoint; inputs stay as they are."""
    crossed = lo > hi
    if crossed.any():
        mid = 0.5 * (lo[crossed] + hi[crossed])
        lo = lo.copy()
        hi = hi.copy()
        lo[crossed] = mid
        hi[crossed] = mid
    return lo, hi


class QuantilePairModel:
    """Two fitted columns (q_lo(x), q_hi(x)); crossings are repaired to their
    midpoint.  The pair is degenerate or warns if either column does."""

    def __init__(self, lo: MeanModel, hi: MeanModel):
        self.lo = lo
        self.hi = hi
        self.degenerate = lo.degenerate or hi.degenerate
        self.warning = lo.warning or hi.warning

    def _raw(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        return self.lo.predict(x), self.hi.predict(x)

    def predict(self, features) -> tuple[np.ndarray, np.ndarray]:
        return repair_crossing(*self._raw(_as_matrix(features)))


class ForestQuantilePair(QuantilePairModel):
    """Both columns from one forest, predicted in one routing and pooling pass."""

    def __init__(self, forest: FittedForest, lo_level: float, hi_level: float):
        super().__init__(_QuantileAsMean(forest, lo_level), _QuantileAsMean(forest, hi_level))

    def _raw(self, x):
        return self.lo.forest.predict_quantiles(x, self.lo.level, self.hi.level)


def _standardise(x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The design [1, (x - mean) / sd] with its column means and sds (sd 0 read as 1)."""
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    return np.hstack([np.ones((x.shape[0], 1)), (x - mu) / sd]), mu, sd


def _unstandardise(beta: np.ndarray, mu: np.ndarray, sd: np.ndarray,
                   warning: str | None) -> LinearMean:
    """The linear fit on the original scale from coefficients on the standardised design."""
    coef = beta[1:] / sd
    return LinearMean(beta[0] - float(mu @ coef), coef, warning=warning)


def _irls_logistic(x: np.ndarray, y: np.ndarray) -> LinearMean:
    """Ridge-penalized logistic regression by IRLS; intercept unpenalized.
    Returns the logit as a linear column."""
    design, mu, sd = _standardise(x)
    beta = np.zeros(design.shape[1])
    pen = np.full(design.shape[1], RIDGE)
    pen[0] = 0.0
    warning = "logistic IRLS reached max iterations"
    for _ in range(LOGISTIC_MAX_ITER):
        eta = design @ beta
        p = _sigmoid(eta)
        w = np.maximum(p * (1.0 - p), 1e-10)
        z = eta + (y - p) / w
        a = design.T @ (design * w[:, None]) + np.diag(pen)
        b = design.T @ (w * z)
        try:
            new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            # separation can drive the working weights to the floor; keep the
            # last well-defined iterate
            warning = "logistic IRLS hit a singular system"
            break
        step = np.max(np.abs(new - beta))
        beta = new
        if step < LOGISTIC_TOL * (1.0 + np.max(np.abs(beta))):
            warning = None
            break
    return _unstandardise(beta, mu, sd, warning)


def _irls_quantile(x: np.ndarray, y: np.ndarray, level: float) -> LinearMean:
    """Linear quantile fit: IRLS on the smoothed (Huberized) pinball loss.

    Majorize-minimize with residual weights 1 / (2 max(|r|, smoothing));
    converges to the pinball minimizer up to the smoothing width.
    """
    design, mu, sd = _standardise(x)
    pen = np.full(design.shape[1], RIDGE)
    pen[0] = 1e-12
    scale = max(np.std(y), 1e-12)

    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    warning = "quantile IRLS reached max iterations"
    for _ in range(MAX_ITER):
        r = y - design @ beta
        w = 1.0 / (2.0 * np.maximum(np.abs(r), SMOOTHING))
        a = design.T @ (design * w[:, None]) + np.diag(pen)
        b = design.T @ (w * y + (level - 0.5))
        try:
            new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            warning = "quantile IRLS hit a singular system"
            break
        step = np.max(np.abs(new - beta))
        beta = new
        if step < 1e-7 * scale:
            warning = None
            break
    return _unstandardise(beta, mu, sd, warning)


def _fit_inputs(name: str, features, targets, learner: str,
                min_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """The input check of every fit: a known learner, aligned features and
    targets, and at least ``min_rows`` rows."""
    check_learner(learner)
    x = _as_matrix(features)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must align")
    if x.shape[0] < min_rows:
        raise InsufficientDataError(f"{name} needs at least {min_rows} "
                                    f"row{'s' if min_rows > 1 else ''}")
    return x, y


def fit_propensity(features, labels, learner: str, seed: int) -> ProbabilityModel:
    """Fit a clipped binary-probability model (treatment or response propensity)."""
    x, y = _fit_inputs("fit_propensity", features, labels, learner, 1)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    if y.min() == y.max():
        p = PROPENSITY_CLIP if y[0] == 0.0 else 1.0 - PROPENSITY_CLIP
        return ProbabilityModel(LinearMean(p, np.zeros(x.shape[1]), degenerate=True,
                                           warning="single-class labels"))
    if learner == RANDOM_FOREST:
        return ProbabilityModel(ForestMean(fit_forest(x, y, seed)))
    return ProbabilityModel(_irls_logistic(x, y), logistic=True)


def fit_mean(features, targets, learner: str, seed: int) -> MeanModel:
    """Fit a conditional-mean regressor (least squares or regression forest)."""
    x, y = _fit_inputs("fit_mean", features, targets, learner, 2)
    if learner == RANDOM_FOREST:
        return ForestMean(fit_forest(x, y, seed))
    design = np.hstack([np.ones((x.shape[0], 1)), x])
    sol, _, rank, _ = np.linalg.lstsq(design, y, rcond=None)
    if rank < design.shape[1]:
        # rank-deficient design: fall back to the ridge-regularized solve
        pen = np.full(design.shape[1], RIDGE)
        pen[0] = 0.0
        sol = np.linalg.solve(design.T @ design + np.diag(pen), design.T @ y)
        return LinearMean(sol[0], sol[1:], degenerate=True, warning="rank-deficient design")
    return LinearMean(sol[0], sol[1:])


def fit_quantile(features, targets, level: float, learner: str, seed: int) -> MeanModel:
    """Fit a single conditional quantile at ``level``."""
    x, y = _fit_inputs("fit_quantile", features, targets, learner, 1)
    if not (0.0 < level < 1.0):
        raise ValueError("quantile level must lie in (0, 1)")
    if learner == RANDOM_FOREST:
        return _QuantileAsMean(fit_forest(x, y, seed), level)
    return _irls_quantile(x, y, level)


def fit_quantile_pair(features, targets, lo_level: float, hi_level: float,
                      learner: str, seed: int) -> QuantilePairModel:
    """Fit the (lo_level, hi_level) conditional-quantile pair with crossing repair."""
    x, y = _fit_inputs("fit_quantile_pair", features, targets, learner, 4)
    if not (0.0 < lo_level < hi_level < 1.0):
        raise ValueError("need 0 < lo_level < hi_level < 1")
    if y.min() == y.max():
        constant = LinearMean(y[0], np.zeros(x.shape[1]), degenerate=True)
        return QuantilePairModel(constant, constant)
    if learner == RANDOM_FOREST:
        return ForestQuantilePair(fit_forest(x, y, seed), lo_level, hi_level)
    return QuantilePairModel(_irls_quantile(x, y, lo_level), _irls_quantile(x, y, hi_level))


def fit_conditional_cdf(features, scores, eta0: float, learner: str,
                        seed: int) -> ProbabilityModel:
    """Fit the localized conditional CDF surrogate: P(score < eta0 | x).

    The label is the strict indicator 1{score < eta0}; the fitted model is
    held fixed at eta0 during threshold root-finding.
    """
    if not np.isfinite(eta0):
        raise ValueError("eta0 must be finite")
    scores = np.asarray(scores, dtype=np.float64)
    labels = (scores < eta0).astype(np.float64)
    return fit_propensity(features, labels, learner, seed)
