"""Nonconformity scores and split conformal calibration, weighted and not."""

from __future__ import annotations

from dataclasses import dataclass, field
import math

import numpy as np

from .learners import repair_crossing

# Relative slack when comparing cumulative weights against the target level;
# absorbs float dust in normalized-weight sums without changing exact ties.
_CUM_EPS = 1e-12


def cqr_score(y, q_lo, q_hi):
    """CQR nonconformity (Romano, Patterson & Candes, 2019): the interval
    score of the point [y, y], max(q_lo - y, y - q_hi); negative strictly inside."""
    if np.any(np.asarray(q_lo, dtype=np.float64) > np.asarray(q_hi, dtype=np.float64)):
        raise ValueError("quantile pair out of order")
    return interval_score(y, y, q_lo, q_hi)


def interval_score(c_lo, c_hi, h_lo, h_hi):
    """Interval nonconformity: max(h_lo - c_lo, c_hi - h_hi); <= 0 iff nested."""
    c_lo = np.asarray(c_lo, dtype=np.float64)
    c_hi = np.asarray(c_hi, dtype=np.float64)
    if np.any(c_lo > c_hi):
        raise ValueError("interval endpoints out of order")
    out = np.maximum(np.asarray(h_lo, dtype=np.float64) - c_lo,
                     c_hi - np.asarray(h_hi, dtype=np.float64))
    return float(out) if out.ndim == 0 else out


@dataclass(frozen=True)
class ScoreSet:
    """Calibration scores with optional weights and the test weight mass.

    Empty ``weights`` selects the unweighted rule, where the test point
    contributes one extra unit mass.  ``test_weight`` may be an array with
    one mass per test point.
    """

    scores: np.ndarray
    weights: np.ndarray = field(default_factory=lambda: np.empty(0))
    test_weight: float | np.ndarray = 1.0

    def __post_init__(self):
        scores = np.asarray(self.scores, dtype=np.float64)
        weights = np.asarray(self.weights, dtype=np.float64)
        if weights.size and weights.shape != scores.shape:
            raise ValueError("weights must match scores in length")
        if np.any(~np.isfinite(scores)):
            raise ValueError("scores must be finite")
        if weights.size and (np.any(~np.isfinite(weights)) or np.any(weights < 0)):
            raise ValueError("weights must be finite and nonnegative")
        if not np.all(np.asarray(self.test_weight) >= 0):
            raise ValueError("test_weight must be nonnegative")
        object.__setattr__(self, "scores", scores)
        object.__setattr__(self, "weights", weights)


def _order_rank(level: float, n: int) -> int:
    """ceil(level * (n + 1)), the split-conformal rank among n scores (Lei &
    Candes, 2021); it exceeds n when the level asks for more than the sample."""
    return math.ceil(level * (n + 1))


def unweighted_quantile(scores: np.ndarray, level: float) -> float:
    """The :func:`_order_rank`-th order statistic, or +inf past the sample."""
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    k = _order_rank(level, n)
    return math.inf if n == 0 or k > n else float(np.sort(scores)[k - 1])


def weighted_quantile(ss: ScoreSet, level: float) -> float | np.ndarray:
    """Quantile of the weighted score distribution with an infinity atom.

    Normalizes p_i = w_i / (sum w + test_weight) and puts the remaining mass
    p_inf at +inf; returns the smallest score whose cumulative mass reaches
    ``level``, or +inf when only the infinity atom does.  Ties take the
    smallest qualifying score.  An array of test weights gives an array with
    one quantile per weight.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    if ss.weights.size == 0:  # empty scores included
        q = unweighted_quantile(ss.scores, level)
        return q if np.ndim(ss.test_weight) == 0 else np.full(np.shape(ss.test_weight), q)
    order = np.argsort(ss.scores, kind="stable")
    sorted_scores, cum_w = ss.scores[order], np.cumsum(ss.weights[order])
    total = cum_w[-1] + np.asarray(ss.test_weight, dtype=np.float64)
    hit = np.searchsorted(cum_w, level * total - _CUM_EPS * total, side="left")
    n = sorted_scores.size
    q = np.where((hit < n) & (total > 0), sorted_scores[np.minimum(hit, n - 1)], math.inf)
    return float(q) if q.ndim == 0 else q


def expand_interval(lo, hi, eta) -> tuple[np.ndarray, np.ndarray]:
    """[lo - eta, hi + eta], or (-inf, +inf) where eta is not finite.

    A negative eta can cross the ends; that conformal set is empty and is
    shown as the point at its midpoint, as quantile crossings are.
    """
    finite = np.isfinite(eta)
    return repair_crossing(np.where(finite, lo - eta, -math.inf),
                           np.where(finite, hi + eta, math.inf))


@dataclass(frozen=True)
class CalibratedBand:
    """A conformal band: quantile predictions plus the calibration margin."""

    lo: np.ndarray
    hi: np.ndarray
    eta: np.ndarray
    uninformative: np.ndarray  # True where eta = +inf


def weighted_split_cqr_batch(qp, cal_x, cal_y, x_test, level: float, w_cal, w_test,
                             cap_at_max: bool = False) -> CalibratedBand:
    """Weighted split CQR for a batch of test points.

    Scores the calibration rows against the fitted (level/2, 1 - level/2)
    quantile pair ``qp`` and calibrates each test point with the weighted
    score quantile at 1 - level: calibration row i carries ``w_cal[i]`` and
    test point j enters as the infinity atom of mass ``w_test[j]``.  eta =
    +inf yields (-inf, +inf), flagged uninformative; with ``cap_at_max`` an
    unreachable quantile falls back to the largest calibration score instead
    (still flagged), trading the finite-sample guarantee for a finite, very
    wide interval.
    """
    scores = cqr_score(cal_y, *qp.predict(cal_x))
    w_cal = np.asarray(w_cal, dtype=np.float64)
    w_test = np.asarray(w_test, dtype=np.float64)
    if np.any(~np.isfinite(w_cal)) or np.any(w_cal <= 0) or np.any(~np.isfinite(w_test)) or np.any(w_test <= 0):
        raise ValueError("weights must be finite and positive")

    t_lo, t_hi = qp.predict(x_test)
    eta = weighted_quantile(ScoreSet(scores, w_cal, w_test), 1.0 - level)
    uninformative = ~np.isfinite(eta)
    if cap_at_max:
        eta = np.where(uninformative, scores.max(), eta)
    lo, hi = expand_interval(t_lo, t_hi, eta)
    return CalibratedBand(lo=lo, hi=hi, eta=eta, uninformative=uninformative)


def unweighted_interval_conformal_batch(h_lo, h_hi, cal_x, cal_lo, cal_hi, x_test,
                                        gamma: float) -> CalibratedBand:
    """Conformal inference for interval outcomes (unweighted) at many points.

    Scores the calibration rows' intervals [cal_lo, cal_hi] against the
    fitted endpoint mean models ``h_lo`` and ``h_hi`` with the interval
    nonconformity, and expands their predictions at ``x_test`` by the
    ceil((1 - gamma)(n_cal + 1))-th order statistic.
    """
    scores = interval_score(cal_lo, cal_hi, h_lo.predict(cal_x), h_hi.predict(cal_x))
    t_lo = h_lo.predict(x_test)
    eta = np.full(t_lo.shape, unweighted_quantile(scores, 1.0 - gamma))
    lo, hi = expand_interval(t_lo, h_hi.predict(x_test), eta)
    return CalibratedBand(lo=lo, hi=hi, eta=eta, uninformative=~np.isfinite(eta))
