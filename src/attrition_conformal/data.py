"""Core data types: experiment datasets, configuration, splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class DataValidationError(ValueError):
    """Structural problem in input data (exit code 3 at the CLI)."""


class InsufficientDataError(ValueError):
    """Not enough rows to honor a split plan or a fitting precondition."""


def _as_readonly(a: np.ndarray) -> np.ndarray:
    a = np.array(a, copy=True)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class ExperimentDataset:
    """Rows of (covariates x, treatment d, response r, outcome y observed iff r=1).

    Construction checks the whole data model: x is finite, d and r are 0 or
    1 as given, and y is NaN exactly where ``r == 0`` and finite where
    ``r == 1``.  A violation is a :class:`DataValidationError` naming the
    first five offending rows.  Arrays are frozen after construction and
    safe to share across parallel workers.
    """

    x: np.ndarray
    d: np.ndarray
    r: np.ndarray
    y: np.ndarray

    def __post_init__(self):
        x = _as_readonly(np.asarray(self.x, dtype=np.float64))
        d = np.asarray(self.d)
        r = np.asarray(self.r)
        y = _as_readonly(np.asarray(self.y, dtype=np.float64))
        if x.ndim != 2:
            raise DataValidationError("covariates must be a 2-d matrix")
        n, k = x.shape
        if n < 1 or k < 1:
            raise DataValidationError("need at least one row and one covariate column")
        if not (d.shape == r.shape == y.shape == (n,)):
            raise DataValidationError("d, r, y must be vectors of length n")
        y_missing = np.isnan(y)
        for bad, what in ((~np.isfinite(x).all(axis=1), "non-finite covariate values at"),
                          (~np.isin(d, (0, 1)), "non-binary treatment at"),
                          (~np.isin(r, (0, 1)), "non-binary response at"),
                          (~y_missing & (r == 0), "outcome present on attrited"),
                          (y_missing & (r == 1), "outcome missing on responding"),
                          (np.isinf(y), "non-finite outcome on responding")):
            if bad.any():
                raise DataValidationError(f"{what} rows {np.flatnonzero(bad)[:5].tolist()}")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "d", _as_readonly(np.asarray(d, dtype=np.int64)))
        object.__setattr__(self, "r", _as_readonly(np.asarray(r, dtype=np.int64)))
        object.__setattr__(self, "y", y)

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def k(self) -> int:
        return self.x.shape[1]


GLM = "glm"
RANDOM_FOREST = "random_forest"
LEARNERS = (GLM, RANDOM_FOREST)

MIN_ROWS = 8  # the fewest rows pipelines.make_splits splits


def check_learner(learner: str) -> None:
    if learner not in LEARNERS:
        raise ValueError(f"unknown learner {learner!r}; choose one of {LEARNERS}")


@dataclass(frozen=True)
class ConformalConfig:
    """Miscoverage budgets, the run seed and the nuisance-learner family.

    ``learner`` is ``glm`` (ridge-IRLS logistic, least squares, linear
    quantiles) or ``random_forest``; one family serves every nuisance role.
    """

    alpha: float = 0.025
    gamma: float = 0.025
    seed: int = 0
    learner: str = GLM

    def __post_init__(self):
        if not (0.0 < self.alpha < 1.0 and 0.0 < self.gamma < 1.0):
            raise ValueError("alpha and gamma must lie in (0, 1)")
        if self.alpha + self.gamma >= 1.0:
            raise ValueError("alpha + gamma must be < 1")
        check_learner(self.learner)


@dataclass(frozen=True)
class SplitPlan:
    """Step 1's folds: ``pretrain``/``train1``/``train2``/``calibration``
    partition all rows."""

    pretrain: np.ndarray
    train1: np.ndarray
    train2: np.ndarray
    calibration: np.ndarray

    def __post_init__(self):
        for name in ("pretrain", "train1", "train2", "calibration"):
            object.__setattr__(self, name, _as_readonly(np.asarray(getattr(self, name), dtype=np.int64)))
