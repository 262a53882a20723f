"""Built-in base learners for every nuisance function.

Two families, named by a learner string: ``glm`` (ridge-IRLS logistic for
probabilities, least squares for means, linear conditional quantiles via
iteratively reweighted least squares on a smoothed pinball loss) and
``random_forest`` (bootstrap CART forest; probabilities and means by leaf
averaging, quantiles by leaf pooling).  Every fit takes the learner and a
seed; only the forest draws from the seed.
"""

from __future__ import annotations

import numpy as np

from .data import RANDOM_FOREST, InsufficientDataError, check_learner
from .forest import FittedForest, fit_forest

RIDGE = 1e-6             # ridge penalty of the linear fits
SMOOTHING = 1e-4         # pinball smoothing width of the quantile IRLS
MAX_ITER = 200           # quantile IRLS iterations
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


class ProbabilityModel:
    """Binary-probability predictor; outputs clipped to [clip, 1-clip]."""

    def __init__(self, degenerate: bool = False, warning: str | None = None):
        self.degenerate = degenerate
        self.warning = warning

    def _raw(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def predict_proba(self, features) -> np.ndarray:
        p = self._raw(_as_matrix(features))
        return np.clip(p, PROPENSITY_CLIP, 1.0 - PROPENSITY_CLIP)


class ConstantProbability(ProbabilityModel):
    def __init__(self, p: float, degenerate: bool = True, warning: str | None = None):
        super().__init__(degenerate, warning)
        self.p = float(p)

    def _raw(self, x):
        return np.full(x.shape[0], self.p)


class LogisticModel(ProbabilityModel):
    def __init__(self, intercept: float, coef: np.ndarray, warning: str | None = None):
        super().__init__(degenerate=False, warning=warning)
        self.intercept_ = float(intercept)
        self.coef_ = np.asarray(coef, dtype=np.float64)

    def _raw(self, x):
        return _sigmoid(self.intercept_ + x @ self.coef_)


class ForestProbability(ProbabilityModel):
    def __init__(self, forest: FittedForest):
        super().__init__()
        self.forest = forest

    def _raw(self, x):
        return self.forest.predict_mean(x)


class MeanModel:
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
    """Predicts (q_lo(x), q_hi(x)); crossings are repaired to their midpoint."""

    def __init__(self, converged: bool = True, warning: str | None = None):
        self.converged = converged
        self.warning = warning

    def _raw(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        raise NotImplementedError

    def predict(self, features) -> tuple[np.ndarray, np.ndarray]:
        return repair_crossing(*self._raw(_as_matrix(features)))


class LinearQuantilePair(QuantilePairModel):
    def __init__(self, lo_model: LinearMean, hi_model: LinearMean, converged: bool,
                 warning: str | None = None):
        super().__init__(converged, warning)
        self.lo_model = lo_model
        self.hi_model = hi_model

    def _raw(self, x):
        return self.lo_model.predict(x), self.hi_model.predict(x)


class ForestQuantilePair(QuantilePairModel):
    def __init__(self, forest: FittedForest, lo_level: float, hi_level: float):
        super().__init__()
        self.forest = forest
        self.lo_level = lo_level
        self.hi_level = hi_level

    def _raw(self, x):
        return self.forest.predict_quantiles(x, self.lo_level, self.hi_level)


class ConstantQuantilePair(QuantilePairModel):
    def __init__(self, lo: float, hi: float):
        super().__init__()
        self.lo = lo
        self.hi = hi

    def _raw(self, x):
        n = x.shape[0]
        return np.full(n, self.lo), np.full(n, self.hi)


def _irls_logistic(x: np.ndarray, y: np.ndarray,
                   max_iter: int = 100, tol: float = 1e-10) -> tuple[float, np.ndarray, str | None]:
    """Ridge-penalized logistic regression by IRLS; intercept unpenalized."""
    n, k = x.shape
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    xs = (x - mu) / sd
    design = np.hstack([np.ones((n, 1)), xs])
    beta = np.zeros(k + 1)
    pen = np.full(k + 1, RIDGE)
    pen[0] = 0.0
    warning = None
    for _ in range(max_iter):
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
        if step < tol * (1.0 + np.max(np.abs(beta))):
            break
    else:
        warning = "logistic IRLS reached max iterations"
    coef = beta[1:] / sd
    intercept = beta[0] - float(mu @ coef)
    return intercept, coef, warning


def _irls_quantile(x: np.ndarray, y: np.ndarray, level: float) -> tuple[float, np.ndarray, bool]:
    """Linear quantile fit: IRLS on the smoothed (Huberized) pinball loss.

    Majorize-minimize with residual weights 1 / (2 max(|r|, smoothing));
    converges to the pinball minimizer up to the smoothing width.
    """
    n, k = x.shape
    mu = x.mean(axis=0)
    sd = x.std(axis=0)
    sd[sd == 0] = 1.0
    xs = (x - mu) / sd
    design = np.hstack([np.ones((n, 1)), xs])
    pen = np.full(k + 1, RIDGE)
    pen[0] = 1e-12
    scale = max(np.std(y), 1e-12)

    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    converged = False
    for _ in range(MAX_ITER):
        r = y - design @ beta
        w = 1.0 / (2.0 * np.maximum(np.abs(r), SMOOTHING))
        a = design.T @ (design * w[:, None]) + np.diag(pen)
        b = design.T @ (w * y + (level - 0.5))
        try:
            new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            break
        step = np.max(np.abs(new - beta))
        beta = new
        if step < 1e-7 * scale:
            converged = True
            break
    coef = beta[1:] / sd
    intercept = beta[0] - float(mu @ coef)
    return intercept, coef, converged


def fit_propensity(features, labels, learner: str, seed: int) -> ProbabilityModel:
    """Fit a clipped binary-probability model (treatment or response propensity)."""
    check_learner(learner)
    x = _as_matrix(features)
    y = np.asarray(labels, dtype=np.float64)
    if not np.isin(y, (0.0, 1.0)).all():
        raise ValueError("labels must be binary")
    if x.shape[0] != y.shape[0] or x.shape[0] < 1:
        raise ValueError("features and labels must align and be non-empty")
    if y.min() == y.max():
        p = PROPENSITY_CLIP if y[0] == 0.0 else 1.0 - PROPENSITY_CLIP
        return ConstantProbability(p, degenerate=True, warning="single-class labels")
    if learner == RANDOM_FOREST:
        return ForestProbability(fit_forest(x, y, seed))
    intercept, coef, warning = _irls_logistic(x, y)
    return LogisticModel(intercept, coef, warning)


def fit_mean(features, targets, learner: str, seed: int) -> MeanModel:
    """Fit a conditional-mean regressor (least squares or regression forest)."""
    check_learner(learner)
    x = _as_matrix(features)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must align")
    if x.shape[0] < 2:
        raise InsufficientDataError("fit_mean needs at least 2 rows")
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
    check_learner(learner)
    x = _as_matrix(features)
    y = np.asarray(targets, dtype=np.float64)
    if not (0.0 < level < 1.0):
        raise ValueError("quantile level must lie in (0, 1)")
    if learner == RANDOM_FOREST:
        return _QuantileAsMean(ForestQuantilePair(fit_forest(x, y, seed), level, level))
    intercept, coef, converged = _irls_quantile(x, y, level)
    warning = None if converged else "quantile IRLS reached max iterations"
    return LinearMean(intercept, coef, warning=warning)


class _QuantileAsMean(MeanModel):
    def __init__(self, pair: QuantilePairModel):
        super().__init__()
        self.pair = pair

    def predict(self, features):
        lo, _ = self.pair.predict(features)
        return lo


def fit_quantile_pair(features, targets, lo_level: float, hi_level: float,
                      learner: str, seed: int) -> QuantilePairModel:
    """Fit the (lo_level, hi_level) conditional-quantile pair with crossing repair."""
    check_learner(learner)
    if not (0.0 < lo_level < hi_level < 1.0):
        raise ValueError("need 0 < lo_level < hi_level < 1")
    x = _as_matrix(features)
    y = np.asarray(targets, dtype=np.float64)
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and targets must align")
    if x.shape[0] < 4:
        raise InsufficientDataError("fit_quantile_pair needs at least 4 rows")
    if y.min() == y.max():
        return ConstantQuantilePair(y[0], y[0])
    if learner == RANDOM_FOREST:
        return ForestQuantilePair(fit_forest(x, y, seed), lo_level, hi_level)
    i_lo, c_lo, ok_lo = _irls_quantile(x, y, lo_level)
    i_hi, c_hi, ok_hi = _irls_quantile(x, y, hi_level)
    converged = ok_lo and ok_hi
    warning = None if converged else "quantile IRLS reached max iterations"
    return LinearQuantilePair(LinearMean(i_lo, c_lo), LinearMean(i_hi, c_hi),
                              converged, warning)


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
