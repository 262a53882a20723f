"""Influence-function terms and the smallest-threshold moment solver.

The two counterfactual influence functions and the extrapolation one share
one form: a row's value at threshold eta is
``first + weight * (1{score < eta} - m)``, where ``first`` and the
nonnegative ``weight`` do not depend on eta.  :class:`PsiTerms` holds those
per-row terms, two builders compute them, and :func:`psi_eval` evaluates
any of them.  The sample mean is therefore a nondecreasing step function of
eta with jumps exactly at the observed scores, and the smallest root is
found by bisection over the sorted scores, each taken as the infimum
threshold strictly above it.
"""

from __future__ import annotations

from dataclasses import dataclass
import math

import numpy as np

from .conformal import _order_rank


@dataclass(frozen=True)
class PsiTerms:
    """Per-row terms of one influence function.

    ``v`` holds the nonconformity score, NaN on rows without one; ``m`` the
    localized conditional CDF held fixed at its initial threshold.
    """

    first: np.ndarray
    weight: np.ndarray
    v: np.ndarray
    m: np.ndarray

    def __post_init__(self):
        if not (np.isfinite(self.weight).all() and (self.weight >= 0).all()):
            raise ValueError("influence-function weights must be finite and nonnegative")


def counterfactual_terms(arm: int, d, r, v, m, e_r1, e_r0, pi_d, alpha: float) -> PsiTerms:
    """Terms of the influence function calibrating intervals for Y(arm).

    ``v`` is NaN off the source arm; ``e_r1``/``e_r0`` are the response
    propensities at both treatment values; ``pi_d`` the treatment odds
    e_D / (1 - e_D).
    """
    d, r, v, m, e_r1, e_r0, pi_d = (np.asarray(a, dtype=np.float64)
                                    for a in (d, r, v, m, e_r1, e_r0, pi_d))
    if arm == 1:
        return PsiTerms(first=r * (1.0 - d) * (m - (1.0 - alpha)),
                        weight=d * r * e_r0 / (pi_d * e_r1), v=v, m=m)
    if arm == 0:
        return PsiTerms(first=r * d * (m - (1.0 - alpha)),
                        weight=(1.0 - d) * r * e_r1 * pi_d / e_r0, v=v, m=m)
    raise ValueError(f"arm must be 0 or 1, got {arm!r}")


def extrapolation_terms(r, v, m, pi_r, gamma: float) -> PsiTerms:
    """Terms of the influence function extrapolating intervals to attrition.

    ``v`` is the interval nonconformity score, NaN on attrited rows; ``pi_r``
    the response odds e_R / (1 - e_R).
    """
    r, v, m, pi_r = (np.asarray(a, dtype=np.float64) for a in (r, v, m, pi_r))
    return PsiTerms(first=(1.0 - r) * (m - (1.0 - gamma)), weight=r / pi_r, v=v, m=m)


def psi_eval(terms: PsiTerms, eta: float) -> np.ndarray:
    """Per-row influence-function values at threshold ``eta``."""
    # NaN scores compare False: such rows never count as covered
    return terms.first + terms.weight * (np.less(terms.v, eta) - terms.m)


# perfbench's tracer wraps the evaluator under these names
psi1_eval = psi0_eval = psiC_eval = psi_eval


def initial_eta(scores, level: float) -> float:
    """The split-conformal order statistic, clamped to the maximum."""
    scores = np.asarray(scores, dtype=np.float64)
    if scores.size == 0:
        raise ValueError("initial_eta needs at least one score")
    if not (0.0 < level < 1.0):
        raise ValueError("level must lie in (0, 1)")
    k = min(_order_rank(level, scores.size), scores.size)
    return float(np.sort(scores)[k - 1])


@dataclass(frozen=True)
class EtaSolution:
    eta: float
    moment_value_at_eta: float
    candidates_scanned: int  # moment evaluations
    degenerate: bool


def solve_smallest_eta(terms: PsiTerms) -> EtaSolution:
    """Smallest finite score with nonnegative mean influence.

    Each score c is evaluated at eta = c+ (the next representable float), so
    the strict indicator counts scores <= c; the returned eta is the score
    itself.  With nonnegative weights each row's value is nondecreasing in
    eta, and rounding keeps that order through the fixed-order mean, so
    bisection finds the score that a scan in increasing order would.  When
    no score reaches a nonnegative mean the solution is +inf with the
    degenerate flag set.
    """
    candidates = np.sort(terms.v[np.isfinite(terms.v)])
    lo, hi, evaluations, moment = 0, candidates.size, 0, math.nan
    while lo < hi:
        mid = (lo + hi) // 2
        value = float(np.mean(psi_eval(terms, np.nextafter(candidates[mid], math.inf))))
        evaluations += 1
        if value >= 0.0:
            hi, moment = mid, value
        else:
            lo = mid + 1
    if lo < candidates.size:
        return EtaSolution(eta=float(candidates[lo]), moment_value_at_eta=moment,
                           candidates_scanned=evaluations, degenerate=False)
    moment = float(np.mean(psi_eval(terms, math.inf)))
    return EtaSolution(eta=math.inf, moment_value_at_eta=moment,
                       candidates_scanned=evaluations + 1, degenerate=True)
