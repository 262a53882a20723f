"""Hot numeric kernels behind the tree learners.

Each kernel is written once against the numpy array API.  When numba is
installed (the optional ``jit`` extra) the kernels are compiled with
``@njit``; without it, or with ``ATTRITION_CONFORMAL_NO_NUMBA=1`` set before
import, they run as plain numpy.  Both paths execute the same code, so their
outputs are identical.
"""

from __future__ import annotations

import os

import numpy as np

NUMBA_ENV_FLAG = "ATTRITION_CONFORMAL_NO_NUMBA"

try:
    import numba

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover
    numba = None
    HAVE_NUMBA = False

USE_NUMBA = HAVE_NUMBA and os.environ.get(NUMBA_ENV_FLAG, "") not in ("1", "true", "yes")


def _jit(func):
    if USE_NUMBA:
        return numba.njit(cache=True)(func)
    return func


def _grow_tree_impl(x, y, max_depth, min_leaf, mtry, feat_rand,
                    feature, threshold, left, right, value, leaf_id):
    """Grow one CART regression tree; returns the number of nodes used.

    ``x``/``y`` are the (bootstrap) fitting sample.  Split search maximizes
    the variance reduction over ``mtry`` features drawn per node from the
    pre-filled uniform stream ``feat_rand`` (a partial Fisher-Yates draw per
    node, indexed by node id).  Thresholds equal the largest left-child
    value with the rule "x <= threshold goes left", so partitions are exact
    in floating point.  ``leaf_id`` receives the leaf index of every
    fitting row.
    """
    n, k = x.shape
    idx = np.arange(n)
    max_nodes = feature.shape[0]

    stack_node = np.empty(max_nodes, np.int64)
    stack_start = np.empty(max_nodes, np.int64)
    stack_end = np.empty(max_nodes, np.int64)
    stack_depth = np.empty(max_nodes, np.int64)
    feat_ids = np.empty(k, np.int64)

    stack_node[0] = 0
    stack_start[0] = 0
    stack_end[0] = n
    stack_depth[0] = 0
    top = 1
    n_nodes = 1
    n_try = mtry if mtry < k else k

    while top > 0:
        top -= 1
        node = stack_node[top]
        s = stack_start[top]
        e = stack_end[top]
        depth = stack_depth[top]
        m = e - s

        sub = idx[s:e].copy()
        ysub = y[sub]
        # cumsum is sequential in both numpy and numba; .sum() is not, and the
        # two paths must agree bit for bit.
        total = np.cumsum(ysub)[m - 1]
        value[node] = total / m
        feature[node] = -1
        threshold[node] = 0.0
        left[node] = -1
        right[node] = -1

        can_split = depth < max_depth and m >= 2 * min_leaf and n_nodes + 2 <= max_nodes
        best_feat = -1
        best_thr = 0.0
        if can_split:
            parent_term = total * total / m
            best_gain = parent_term + 1e-12 * (1.0 + np.abs(parent_term))
            base = node * n_try
            for j in range(k):
                feat_ids[j] = j
            for t in range(n_try):
                u = feat_rand[base + t]
                j = t + int(u * (k - t))
                if j > k - 1:
                    j = k - 1
                tmp = feat_ids[t]
                feat_ids[t] = feat_ids[j]
                feat_ids[j] = tmp
            lo = min_leaf
            hi = m - min_leaf
            for t in range(n_try):
                f = feat_ids[t]
                col = x[:, f]
                vals = col[sub]
                order = np.argsort(vals, kind="mergesort")
                vs = vals[order]
                ys = ysub[order]
                prefix = np.cumsum(ys)
                boundary = vs[lo:hi + 1] > vs[lo - 1:hi]
                sl = prefix[lo - 1:hi]
                p = np.arange(lo, hi + 1).astype(np.float64)
                gains = sl * sl / p + (total - sl) * (total - sl) / (m - p)
                gains = np.where(boundary, gains, -np.inf)
                b = int(np.argmax(gains))
                g = gains[b]
                if g > best_gain:
                    best_gain = g
                    best_feat = f
                    best_thr = vs[lo + b - 1]

        if best_feat < 0:
            for i in range(s, e):
                leaf_id[idx[i]] = node
            continue

        colf = x[:, best_feat]
        mask = colf[sub] <= best_thr
        idx[s:e] = np.concatenate((sub[mask], sub[~mask]))
        nl = int(mask.sum())

        lnode = n_nodes
        rnode = n_nodes + 1
        n_nodes += 2
        feature[node] = best_feat
        threshold[node] = best_thr
        left[node] = lnode
        right[node] = rnode

        stack_node[top] = rnode
        stack_start[top] = s + nl
        stack_end[top] = e
        stack_depth[top] = depth + 1
        top += 1
        stack_node[top] = lnode
        stack_start[top] = s
        stack_end[top] = s + nl
        stack_depth[top] = depth + 1
        top += 1

    return n_nodes


grow_tree = _jit(_grow_tree_impl)


def _apply_tree_impl(x_flat, n, k, feature, threshold, left, right):
    """Route ``n`` rows (features flattened in C order) to their leaf ids."""
    rows = np.arange(n) * k
    node = np.zeros(n, np.int64)
    active = feature[node] >= 0
    while active.any():
        f = feature[node]
        fsafe = np.where(f >= 0, f, 0)
        vals = x_flat[rows + fsafe]
        go_left = vals <= threshold[node]
        nxt = np.where(go_left, left[node], right[node])
        node = np.where(active, nxt, node)
        active = feature[node] >= 0
    return node


apply_tree = _jit(_apply_tree_impl)


def _quantile_sorted_impl(a, m, q):
    """Linearly interpolated empirical quantile of the first ``m`` sorted entries."""
    if m == 1:
        return a[0]
    h = q * (m - 1)
    i = int(h)
    if i >= m - 1:
        return a[m - 1]
    frac = h - i
    return a[i] + frac * (a[i + 1] - a[i])


quantile_sorted = _jit(_quantile_sorted_impl)


def _forest_mean_impl(x_flat, n, k, features, thresholds, lefts, rights, values):
    """Average of per-tree leaf means; trees are the rows of the stacked arrays."""
    n_trees = features.shape[0]
    acc = np.zeros(n, np.float64)
    for t in range(n_trees):
        leaves = apply_tree(x_flat, n, k, features[t], thresholds[t], lefts[t], rights[t])
        acc += values[t][leaves]
    return acc / n_trees


forest_mean = _jit(_forest_mean_impl)


def _forest_leaf_matrix_impl(x_flat, n, k, features, thresholds, lefts, rights):
    """Per-tree leaf id of every row: shape (n, n_trees)."""
    n_trees = features.shape[0]
    out = np.empty((n, n_trees), np.int64)
    for t in range(n_trees):
        out[:, t] = apply_tree(x_flat, n, k, features[t], thresholds[t], lefts[t], rights[t])
    return out


forest_leaf_matrix = _jit(_forest_leaf_matrix_impl)


def _forest_pooled_quantiles_impl(leaf_mat, grouped_targets, leaf_start, leaf_count,
                                  q_lo, q_hi, buf):
    """Pool each test point's leaf targets across trees and take two quantiles.

    ``grouped_targets`` concatenates every tree's fitting targets ordered by
    leaf; ``leaf_start``/``leaf_count`` index into it per (tree, leaf).
    """
    n, n_trees = leaf_mat.shape
    lo = np.empty(n, np.float64)
    hi = np.empty(n, np.float64)
    for i in range(n):
        pos = 0
        for t in range(n_trees):
            leaf = leaf_mat[i, t]
            a = leaf_start[t, leaf]
            c = leaf_count[t, leaf]
            buf[pos:pos + c] = grouped_targets[a:a + c]
            pos += c
        pooled = np.sort(buf[:pos])
        lo[i] = quantile_sorted(pooled, pos, q_lo)
        hi[i] = quantile_sorted(pooled, pos, q_hi)
    return lo, hi


forest_pooled_quantiles = _jit(_forest_pooled_quantiles_impl)
