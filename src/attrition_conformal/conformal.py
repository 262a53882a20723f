"""Nonconformity scores and split conformal calibration, weighted and not."""

from __future__ import annotations

from dataclasses import dataclass
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


def _order_rank(level: float, n: int) -> int:
    """ceil(level * (n + 1)), the split-conformal rank among n scores (Lei &
    Candes, 2021); it exceeds n when the level asks for more than the sample."""
    return math.ceil(level * (n + 1))


def unweighted_quantile(scores: np.ndarray, level: float) -> float:
    """The :func:`_order_rank`-th order statistic, or +inf past the sample."""
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    k = _order_rank(level, scores.size)
    return math.inf if k > scores.size else float(np.sort(scores)[k - 1])


def weighted_quantile(scores, weights, test_weight, level: float) -> float | np.ndarray:
    """Quantile of the weighted score distribution with an infinity atom.

    Normalizes p_i = w_i / (sum w + test_weight) and puts the remaining mass
    p_inf at +inf; returns the smallest score whose cumulative mass reaches
    ``level``, or +inf when only the infinity atom does.  Ties take the
    smallest qualifying score.  Needs at least one finite score, one finite
    nonnegative weight per score and a nonnegative test weight; an array of
    test weights gives an array with one quantile per weight.
    """
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    scores = np.asarray(scores, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    test_weight = np.asarray(test_weight, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("weighted_quantile needs at least one score")
    if weights.shape != scores.shape:
        raise ValueError("weights must match scores in length")
    if np.any(~np.isfinite(scores)):
        raise ValueError("scores must be finite")
    if np.any(~np.isfinite(weights)) or np.any(weights < 0):
        raise ValueError("weights must be finite and nonnegative")
    if not np.all(test_weight >= 0):
        raise ValueError("test_weight must be nonnegative")
    order = np.argsort(scores, kind="stable")
    cum_w = np.cumsum(weights[order])
    total = cum_w[-1] + test_weight
    hit = np.searchsorted(cum_w, level * total - _CUM_EPS * total, side="left")
    n = scores.size
    q = np.where((hit < n) & (total > 0), scores[order[np.minimum(hit, n - 1)]], math.inf)
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
    uninformative: np.ndarray  # True where the quantile is +inf; weighted CQR caps eta there


def weighted_split_cqr_batch(qp, cal_x, cal_y, x_test, level: float, w_cal,
                             w_test) -> CalibratedBand:
    """Weighted split CQR for a batch of test points.

    Scores the calibration rows against the fitted (level/2, 1 - level/2)
    quantile pair ``qp`` and calibrates each test point with the weighted
    score quantile at 1 - level: calibration row i carries ``w_cal[i]`` and
    test point j enters as the infinity atom of mass ``w_test[j]``.  Where
    that quantile is +inf, eta falls back to the largest calibration score
    and the point is flagged uninformative: a finite, very wide interval
    without the finite-sample guarantee.
    """
    scores = cqr_score(cal_y, *qp.predict(cal_x))
    w_cal = np.asarray(w_cal, dtype=np.float64)
    w_test = np.asarray(w_test, dtype=np.float64)
    if np.any(~np.isfinite(w_cal)) or np.any(w_cal <= 0) or np.any(~np.isfinite(w_test)) or np.any(w_test <= 0):
        raise ValueError("weights must be finite and positive")

    t_lo, t_hi = qp.predict(x_test)
    eta = weighted_quantile(scores, w_cal, w_test, 1.0 - level)
    uninformative = ~np.isfinite(eta)
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
