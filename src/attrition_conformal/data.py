"""Core data types: experiment datasets, configuration, splits."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rng import make_rng, stream_seed


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

# fold fractions of make_splits, and the fewest rows it splits
PRETRAIN_FRAC = 0.20
TRAIN_FRAC_OF_REST = 0.75
STEP2_TRAIN_FRAC = 0.50
MIN_ROWS = 8


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
    """Disjoint row-index sets for the two conformal steps.

    ``pretrain``/``train1``/``train2``/``calibration`` partition all rows;
    ``step2_train``/``step2_cal`` partition the calibration rows with r = 1.
    """

    pretrain: np.ndarray
    train1: np.ndarray
    train2: np.ndarray
    calibration: np.ndarray
    step2_train: np.ndarray
    step2_cal: np.ndarray

    def __post_init__(self):
        for name in ("pretrain", "train1", "train2", "calibration", "step2_train", "step2_cal"):
            object.__setattr__(self, name, _as_readonly(np.asarray(getattr(self, name), dtype=np.int64)))


def make_splits(n_rows: int, r_flags: np.ndarray, cfg: ConformalConfig) -> SplitPlan:
    """Seeded uniform shuffle, then contiguous slices into the spec'd folds.

    Fold sizes are rounded fractions: pretrain ``PRETRAIN_FRAC`` of all rows,
    training ``TRAIN_FRAC_OF_REST`` of the remainder (halved into train1 and
    train2), the rest calibration.  Step-2 folds split the calibration rows
    with r = 1 at ``STEP2_TRAIN_FRAC``.  Deterministic given ``cfg.seed``.
    """
    if n_rows < MIN_ROWS:
        raise InsufficientDataError("insufficient data for split plan "
                                    f"(need at least {MIN_ROWS} rows)")
    r_flags = np.asarray(r_flags, dtype=np.int64)
    if r_flags.shape != (n_rows,):
        raise ValueError("r_flags must have length n_rows")

    rng = make_rng(stream_seed(cfg.seed, "folds"))
    order = rng.permutation(n_rows)

    n_pr = int(round(PRETRAIN_FRAC * n_rows))
    rest = n_rows - n_pr
    n_tr = int(round(TRAIN_FRAC_OF_REST * rest))
    n_tr1 = n_tr // 2
    pretrain = order[:n_pr]
    train1 = order[n_pr:n_pr + n_tr1]
    train2 = order[n_pr + n_tr1:n_pr + n_tr]
    calibration = order[n_pr + n_tr:]

    cal_obs = calibration[r_flags[calibration] == 1]
    rng2 = make_rng(stream_seed(cfg.seed, "step2_folds"))
    cal_obs = cal_obs[rng2.permutation(cal_obs.size)]
    n_s2tr = int(round(STEP2_TRAIN_FRAC * cal_obs.size))
    step2_train = cal_obs[:n_s2tr]
    step2_cal = cal_obs[n_s2tr:]

    return SplitPlan(pretrain=pretrain, train1=train1, train2=train2,
                     calibration=calibration, step2_train=step2_train, step2_cal=step2_cal)
