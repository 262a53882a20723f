"""Random forest regressor with mean, probability, and pooled-quantile prediction."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .rng import child_seed, make_rng


# fixed forest settings; each split draws mtry ~ sqrt(k) candidate features
N_TREES = 200
MAX_DEPTH = 8
MIN_LEAF = 5


@dataclass
class FittedForest:
    """Stacked per-tree arrays plus leaf-grouped targets for quantile pooling."""

    features: np.ndarray    # (T, max_nodes) split feature, -1 at leaves
    thresholds: np.ndarray  # (T, max_nodes)
    lefts: np.ndarray       # (T, max_nodes)
    rights: np.ndarray      # (T, max_nodes)
    values: np.ndarray      # (T, max_nodes) node means
    grouped_targets: np.ndarray  # (T * n,) fitting targets ordered by leaf per tree
    leaf_start: np.ndarray  # (T, max_nodes) offsets into grouped_targets
    leaf_count: np.ndarray  # (T, max_nodes)
    n_fit: int
    k: int

    def _flat(self, x: np.ndarray) -> tuple[np.ndarray, int]:
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if x.shape[1] != self.k:
            raise ValueError(f"expected {self.k} features, got {x.shape[1]}")
        return x.reshape(-1), x.shape[0]

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        x_flat, n = self._flat(x)
        return kernels.forest_mean(x_flat, n, self.k, self.features, self.thresholds,
                                   self.lefts, self.rights, self.values)

    def predict_quantiles(self, x: np.ndarray, q_lo: float, q_hi: float) -> tuple[np.ndarray, np.ndarray]:
        x_flat, n = self._flat(x)
        leaf_mat = kernels.forest_leaf_matrix(x_flat, n, self.k, self.features,
                                              self.thresholds, self.lefts, self.rights)
        buf = np.empty(self.n_fit * self.features.shape[0], np.float64)
        return kernels.forest_pooled_quantiles(leaf_mat, self.grouped_targets,
                                               self.leaf_start, self.leaf_count,
                                               float(q_lo), float(q_hi), buf)


def fit_forest(x: np.ndarray, y: np.ndarray, seed: int) -> FittedForest:
    """Grow ``N_TREES`` bootstrap CART trees with per-tree derived seeds.

    Tree t draws its bootstrap sample and feature-subsample stream from
    ``child_seed(seed, t)``, so results do not depend on evaluation
    order and are reproducible tree by tree.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    n, k = x.shape
    if y.shape != (n,):
        raise ValueError("y must be a vector matching x rows")
    if n < 1:
        raise ValueError("empty fitting sample")

    mtry = max(1, min(k, int(round(np.sqrt(k) / k * k))))
    max_nodes = 2 ** (MAX_DEPTH + 1)
    T = N_TREES

    features = np.full((T, max_nodes), -1, np.int64)
    thresholds = np.zeros((T, max_nodes), np.float64)
    lefts = np.full((T, max_nodes), -1, np.int64)
    rights = np.full((T, max_nodes), -1, np.int64)
    values = np.zeros((T, max_nodes), np.float64)
    grouped = np.empty(T * n, np.float64)
    leaf_start = np.zeros((T, max_nodes), np.int64)
    leaf_count = np.zeros((T, max_nodes), np.int64)

    leaf_id = np.empty(n, np.int64)
    for t in range(T):
        rng = make_rng(child_seed(seed, t))
        boot = rng.integers(0, n, size=n)
        feat_rand = rng.random(max_nodes * mtry)
        xb = np.ascontiguousarray(x[boot])
        yb = y[boot]
        kernels.grow_tree(xb, yb, MAX_DEPTH, MIN_LEAF, mtry, feat_rand,
                          features[t], thresholds[t], lefts[t], rights[t], values[t],
                          leaf_id)
        order = np.argsort(leaf_id, kind="stable")
        grouped[t * n:(t + 1) * n] = yb[order]
        leaves, counts = np.unique(leaf_id, return_counts=True)
        starts = t * n + np.concatenate(([0], np.cumsum(counts)[:-1]))
        leaf_start[t, leaves] = starts
        leaf_count[t, leaves] = counts

    return FittedForest(features=features, thresholds=thresholds, lefts=lefts,
                        rights=rights, values=values, grouped_targets=grouped,
                        leaf_start=leaf_start, leaf_count=leaf_count, n_fit=n, k=k)
