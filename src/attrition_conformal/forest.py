"""Random forest regressor with mean, probability, and pooled-quantile prediction."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .rng import child_seed, make_rng


# fixed forest settings; each split draws mtry ~ sqrt(k) candidate features
N_TREES = 200
MAX_DEPTH = 8
MIN_LEAF = 5
# bootstrap rows grown together; bounds the grower's working arrays
BLOCK_ROWS = 1 << 18


@dataclass
class FittedForest:
    """Stacked per-tree arrays plus leaf-grouped targets for quantile pooling.

    The node arrays are as wide as the forest's largest tree; a tree's
    unused columns hold leaf defaults.
    """

    features: np.ndarray    # (T, width) int32 split feature, -1 at leaves
    thresholds: np.ndarray  # (T, width)
    lefts: np.ndarray       # (T, width) int32
    rights: np.ndarray      # (T, width) int32
    values: np.ndarray      # (T, width) node means
    grouped_targets: np.ndarray  # (T * n,) fitting targets ordered by leaf per tree
    leaf_start: np.ndarray  # (T, width) int32 offsets into grouped_targets
    leaf_count: np.ndarray  # (T, width) int32
    k: int

    def _matrix(self, x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(np.atleast_2d(np.asarray(x, dtype=np.float64)))
        if x.shape[1] != self.k:
            raise ValueError(f"expected {self.k} features, got {x.shape[1]}")
        return x

    def predict_mean(self, x: np.ndarray) -> np.ndarray:
        return kernels.forest_mean(self._matrix(x), self.features, self.thresholds,
                                   self.lefts, self.rights, self.values)

    def predict_quantiles(self, x: np.ndarray, q_lo: float, q_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Pooled quantiles, routed and pooled ``kernels.ROUTE_ROWS`` rows at a
        time so that memory does not grow with the batch."""
        x = self._matrix(x)
        lo, hi = np.empty(x.shape[0]), np.empty(x.shape[0])
        for a in range(0, x.shape[0], kernels.ROUTE_ROWS):
            rows = slice(a, a + kernels.ROUTE_ROWS)
            leaf_mat = kernels.forest_leaf_matrix(x[rows], self.features, self.thresholds,
                                                  self.lefts, self.rights)
            lo[rows], hi[rows] = kernels.forest_pooled_quantiles(
                leaf_mat, self.grouped_targets, self.leaf_start, self.leaf_count,
                float(q_lo), float(q_hi))
        return lo, hi


def fit_forest(x: np.ndarray, y: np.ndarray, seed: int) -> FittedForest:
    """Grow ``N_TREES`` bootstrap CART trees with per-tree derived seeds.

    Tree t draws its bootstrap sample and feature-subsample stream from
    ``child_seed(seed, t)``, so results do not depend on evaluation
    order and are reproducible tree by tree.  Trees are grown in blocks of
    at most ``BLOCK_ROWS`` bootstrap rows.
    """
    x = np.ascontiguousarray(np.asarray(x, dtype=np.float64))
    y = np.ascontiguousarray(np.asarray(y, dtype=np.float64))
    n, k = x.shape
    if y.shape != (n,):
        raise ValueError("y must be a vector matching x rows")
    if n < 1:
        raise ValueError("empty fitting sample")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError("forest covariates and targets must be finite")
    if N_TREES * n > np.iinfo(np.int32).max:
        raise ValueError(f"{n} fitting rows exceed the forest's int32 leaf offsets")

    mtry = max(1, round(math.sqrt(k)))
    max_nodes = 2 ** (MAX_DEPTH + 1)
    T = N_TREES

    features = np.full((T, max_nodes), -1, np.int32)
    thresholds = np.zeros((T, max_nodes), np.float64)
    lefts = np.full((T, max_nodes), -1, np.int32)
    rights = np.full((T, max_nodes), -1, np.int32)
    values = np.zeros((T, max_nodes), np.float64)
    grouped = np.empty(T * n, np.float64)
    leaf_start = np.zeros((T, max_nodes), np.int32)
    leaf_count = np.zeros((T, max_nodes), np.int32)

    n_nodes = np.empty(T, np.int64)
    n_blocks = -(-T // max(1, BLOCK_ROWS // n))
    per_block = -(-T // n_blocks)  # blocks of equal size
    for t0 in range(0, T, per_block):
        block = range(t0, min(T, t0 + per_block))
        boot = np.empty((len(block), n), np.int64)
        feat_rand = np.empty((len(block), max_nodes * mtry))
        for b, t in enumerate(block):
            rng = make_rng(child_seed(seed, t))
            boot[b] = rng.integers(0, n, size=n)
            feat_rand[b] = rng.random(max_nodes * mtry)
        rows = slice(t0, block.stop)
        n_nodes[rows] = kernels.grow_tree(
            x, y, boot, feat_rand, MAX_DEPTH, MIN_LEAF, mtry, features[rows],
            thresholds[rows], lefts[rows], rights[rows], values[rows],
            leaf_start[rows], leaf_count[rows], grouped[t0 * n:block.stop * n])
        leaf_start[rows] += np.where(leaf_count[rows] > 0, t0 * n, 0).astype(np.int32)

    width = int(n_nodes.max())
    features, thresholds, lefts, rights, values, leaf_start, leaf_count = (
        np.ascontiguousarray(a[:, :width]) for a in
        (features, thresholds, lefts, rights, values, leaf_start, leaf_count))
    return FittedForest(features=features, thresholds=thresholds, lefts=lefts,
                        rights=rights, values=values, grouped_targets=grouped,
                        leaf_start=leaf_start, leaf_count=leaf_count, k=k)
