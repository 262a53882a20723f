"""Numeric kernels behind the tree learners, all plain numpy.

``grow_tree`` grows a block of trees in lockstep: each step pops one node
from every tree's own depth-first stack and scores all of the popped nodes
together.  Every tree keeps the node numbering of a one-tree-at-a-time
depth-first grower, so node ``i`` draws its candidate features from the
same uniforms and the fitted trees are the same bit for bit.  Between
steps the grower keeps one array of each node's rows in row order; a node
sorts its rows by its drawn features only when it is scored.
``apply_tree`` routes rows through every tree at once.
``forest_pooled_quantiles`` counts each test point's pooled leaf targets
per distinct value and reads the two order statistics of each quantile
from the running counts, chunk by chunk, with the interpolation of sorting
the pooled sample.
"""

from __future__ import annotations

import numpy as np

# read by the benchmark's environment report; there is one kernel path
HAVE_NUMBA = USE_NUMBA = False
NUMBA_ENV_FLAG = "ATTRITION_CONFORMAL_NO_NUMBA"

# rows routed through all trees at once; bounds the (n_trees, rows) temporaries
ROUTE_ROWS = 2048
# segments of up to 2**_MIN_WIDTH_BITS rows share one padded width
_MIN_WIDTH_BITS = 5
# cells handled at once; bounds the temporaries of the split search and of
# the pooled quantiles
_SCORE_CELLS = 1 << 16


def _ragged(start: np.ndarray, length: np.ndarray) -> np.ndarray:
    """Concatenation of ``arange(s, s + l)`` over the (start, length) pairs."""
    ends = np.cumsum(length)
    return np.repeat(start - (ends - length), length) + np.arange(ends[-1] if ends.size else 0)


def _partition(order, goes_left, start, length, n_left):
    """Stable partition of the segments ``[start, start + length)`` of
    ``order``, rows flagged in ``goes_left`` first; clears their flags."""
    moved = order[_ragged(start, length)]
    is_left = goes_left[moved]
    order[_ragged(start, n_left)] = moved[is_left]
    order[_ragged(start + n_left, length - n_left)] = moved[~is_left]
    goes_left[moved] = False


def _draw_features(feat_rand, n_try, k):
    """Candidate features of every node slot of every tree, shape
    (n_trees, slots, n_try): node i's partial Fisher-Yates draw uses the
    uniforms ``feat_rand[:, i * n_try:(i + 1) * n_try]``."""
    u = feat_rand.reshape(-1, n_try)
    ids = np.tile(np.arange(k, dtype=np.int32), (u.shape[0], 1))
    r = np.arange(u.shape[0])
    for t in range(n_try):
        j = np.minimum(t + (u[:, t] * (k - t)).astype(np.int64), k - 1)
        ids[r, t], ids[r, j] = ids[r, j], ids[r, t]
    return ids[:, :n_try].astype(np.int64).reshape(feat_rand.shape[0], -1, n_try)


def grow_tree(x, y, boot, feat_rand, max_depth, min_leaf, mtry,
              feature, threshold, left, value, leaf_start, leaf_count, grouped):
    """Grow one CART regression tree per row of ``boot``, all in lockstep.

    Tree b fits ``x[boot[b]]``, ``y[boot[b]]``.  Split search maximizes the
    variance reduction over ``mtry`` features drawn per node from
    ``feat_rand[b]`` (a partial Fisher-Yates draw per node, indexed by node
    id), which holds ``min(mtry, k)`` uniforms for every node id the tree
    can reach.
    Thresholds equal the largest left-child value with the rule
    "x <= threshold goes left", so partitions are exact in floating point.
    A split node's right child is its left child + 1.

    Row b of the node arrays (``feature`` ... ``leaf_count``) arrives filled
    with leaf defaults and receives tree b.  ``grouped`` receives each
    tree's targets ordered by leaf id, then by row, and ``leaf_start`` /
    ``leaf_count`` index into it.  Returns each tree's node count.

    One array holds each node's rows in row order, kept by a stable
    partition at every split.  A node that may split sorts its rows by each
    drawn feature's dense rank when it is scored, ties in row order.
    Prefix sums of the targets run sequentially within each node, as a
    one-tree grower's ``cumsum`` does: nodes of similar size are padded
    into the rows of one 2-D array.
    """
    n_trees, n = boot.shape
    k = x.shape[1]
    n_try = min(mtry, k)
    max_nodes = feature.shape[1]
    n_rows = n_trees * n  # block rows: tree b holds rows b*n .. b*n + n - 1
    flat_boot = boot.ravel()
    yb = y[flat_boot]

    # dense ranks of x's rows decide every comparison.  ``order`` holds each
    # node's rows in row order and is padded by n rows, so a node's padded
    # width stays inside.
    rank = np.stack([np.unique(c, return_inverse=True)[1] for c in x.T]).ravel()
    order = np.zeros(n_rows + n, np.int32)
    order[:n_rows] = np.arange(n_rows)
    drawn = _draw_features(feat_rand, n_try, k)

    # a depth-first stack per tree: (node, start, end, depth) entries
    stack = np.empty((n_trees, max_depth + 1, 4), np.int64)
    stack[:, 0] = (0, 0, n, 0)
    top = np.ones(n_trees, np.int64)
    n_nodes = np.ones(n_trees, np.int64)
    goes_left = np.zeros(n_rows, bool)
    leaves = []

    while True:
        act = np.flatnonzero(top)
        if act.size == 0:
            break
        top[act] -= 1
        node, s, e, depth = stack[act, top[act]].T
        m = e - s
        start = act * n + s
        a = act.size

        can = (depth < max_depth) & (m >= 2 * min_leaf) & (n_nodes[act] + 2 <= max_nodes)
        feats = drawn[act, node]

        total = np.empty(a)
        best_feat = np.full(a, -1, np.int64)
        best_thr = np.zeros(a)
        n_left = np.zeros(a, np.int64)
        width_class = np.maximum(np.frexp(m - 1)[1], _MIN_WIDTH_BITS)
        batches = []
        for cls in np.unique(width_class):
            members = np.flatnonzero(width_class == cls)
            width = int(m[members].max())
            per_batch = max(1, _SCORE_CELLS // ((1 + n_try) * width))
            batches += [(members[i:i + per_batch], width)
                        for i in range(0, members.size, per_batch)]
        for sel, width in batches:
            col = np.arange(width)
            rows = order[start[sel][:, None] + col]
            # a padded row runs on into other nodes' rows; the sums are
            # sequential, so its first m entries are the node's own prefix sums
            total[sel] = np.cumsum(yb[rows], axis=1)[np.arange(sel.size), m[sel] - 1]
            spl = sel[can[sel]]
            if spl.size == 0:
                continue

            # sort the keys (rank << 32) | row of each drawn feature: ties
            # fall in row order, and columns past the node's end take rank n
            # and sort last
            lo = min_leaf
            ms = m[spl]
            tot = total[spl]
            rows = rows[can[sel]]
            rk = rank[feats[spl][:, :, None] * n + flat_boot[rows][:, None, :]]
            key = np.where(col < ms[:, None, None], rk, np.int64(n))
            key <<= 32
            key |= rows[:, None, :]
            key.sort(axis=2)
            rows_f = key & 0xFFFFFFFF
            # left child sizes p = lo .. width - lo; sorted position p - 1 is
            # the threshold row
            sl = np.cumsum(yb[rows_f], axis=2)[:, :, lo - 1:width - lo]
            p = np.arange(lo, width - lo + 1).astype(np.float64)
            tt = tot[:, None, None]
            with np.errstate(all="ignore"):  # columns past a node's end
                # sl * sl / p + (total - sl) * (total - sl) / (m - p), in place
                gains = sl * sl
                gains /= p
                right_term = tt - sl
                right_term *= right_term
                right_term /= ms[:, None, None] - p
                gains += right_term
            # a threshold must separate two ranks: the keys' high bits differ
            ok = (key[:, :, lo:width - lo + 1] ^ key[:, :, lo - 1:width - lo]) >= 1 << 32
            ok &= p <= (ms - lo)[:, None, None]
            gains[~ok] = -np.inf
            b = gains.argmax(axis=2)
            g = gains.max(axis=2)
            t = g.argmax(axis=1)
            r = np.arange(spl.size)
            parent_term = tot * tot / ms
            win = g[r, t] > parent_term + 1e-12 * (1.0 + np.abs(parent_term))
            if not win.any():
                continue
            w, rw, tw = spl[win], r[win], t[win]
            cut = lo - 1 + b[rw, tw]
            thr_rows = rows_f[rw, tw]
            best_feat[w] = feats[w, tw]
            best_thr[w] = x[flat_boot[thr_rows[np.arange(w.size), cut]], best_feat[w]]
            n_left[w] = cut + 1
            goes_left[thr_rows[col <= cut[:, None]]] = True

        value[act, node] = total / m
        leaf = best_feat < 0
        leaves.append((act[leaf], node[leaf], start[leaf], m[leaf]))
        split = np.flatnonzero(~leaf)
        if split.size == 0:
            continue

        tree = act[split]
        lnode = n_nodes[tree]
        n_nodes[tree] += 2
        sn = node[split]
        feature[tree, sn] = best_feat[split]
        threshold[tree, sn] = best_thr[split]
        left[tree, sn] = lnode
        ss, se, nl, d1 = s[split], e[split], n_left[split], depth[split] + 1
        sp = top[tree]
        stack[tree, sp] = np.stack((lnode + 1, ss + nl, se, d1), axis=1)
        stack[tree, sp + 1] = np.stack((lnode, ss, ss + nl, d1), axis=1)
        top[tree] += 2
        _partition(order, goes_left, start[split], m[split], nl)

    tree, node, seg_start, seg_len = (np.concatenate(c) for c in zip(*leaves))
    by_id = np.lexsort((node, tree))
    tree, node, seg_start, seg_len = tree[by_id], node[by_id], seg_start[by_id], seg_len[by_id]
    leaf_count[tree, node] = seg_len
    leaf_start[tree, node] = np.cumsum(seg_len) - seg_len
    grouped[:] = yb[order[_ragged(seg_start, seg_len)]]
    return n_nodes


def apply_tree(x, features, thresholds, lefts):
    """Leaf id of every row of ``x`` in every tree: shape (n_trees, n).  A
    row goes to the left child if its value is at most the threshold, else
    to the left child + 1 (so a NaN goes right)."""
    n_trees, width = features.shape
    n, k = x.shape
    base = np.arange(n_trees)[:, None] * width
    feat, thr, left = features.ravel(), thresholds.ravel(), lefts.ravel()
    x_flat = x.ravel()
    row = np.arange(n) * k
    cell = np.repeat(base, n, axis=1)  # flat position of each row's current node
    while True:
        f = feat[cell]
        inner = f >= 0
        if not inner.any():
            return cell - base
        nxt = left[cell] + ~(x_flat[row + np.maximum(f, 0)] <= thr[cell])
        cell = np.where(inner, base + nxt, cell)


def forest_mean(x, features, thresholds, lefts, values):
    """Average of per-tree leaf means, summed in tree order."""
    n_trees = features.shape[0]
    out = np.empty(x.shape[0])
    for lo in range(0, x.shape[0], ROUTE_ROWS):
        chunk = x[lo:lo + ROUTE_ROWS]
        leaf_values = np.take_along_axis(values, apply_tree(chunk, features, thresholds, lefts),
                                         axis=1)
        acc = np.zeros(chunk.shape[0])
        for t in range(n_trees):
            acc += leaf_values[t]
        out[lo:lo + ROUTE_ROWS] = acc / n_trees
    return out


def forest_leaf_matrix(x, features, thresholds, lefts):
    """Per-tree leaf id of every row: shape (n, n_trees); the caller chunks the rows."""
    return np.ascontiguousarray(apply_tree(x, features, thresholds, lefts).T, np.int32)


def forest_pooled_quantiles(leaf_mat, grouped_targets, leaf_start, leaf_count, q_lo, q_hi):
    """Pool each test point's leaf targets across trees and take two quantiles.

    ``grouped_targets`` concatenates every tree's fitting targets ordered by
    leaf; ``leaf_start``/``leaf_count`` index into it per (tree, leaf).  A
    point's pooled sample is held as the count of each distinct target in
    its leaves (Meinshausen's weight form).  Of its m entries, the order
    statistics ``i = int(q * (m - 1))`` and ``i + 1`` are interpolated
    linearly, as sorting the pooled sample would give them.
    """
    n, n_trees = leaf_mat.shape
    values, code = np.unique(grouped_targets, return_inverse=True)
    n_values = values.size
    cell = np.arange(n_trees, dtype=np.int32) * np.int32(leaf_start.shape[1])
    starts, counts = leaf_start.ravel(), leaf_count.ravel()
    # a point pools at most each tree's largest leaf; a chunk of points
    # holds its pooled entries and its counts of every distinct target
    step = max(1, _SCORE_CELLS // (int(leaf_count.max(axis=1).sum()) + n_values))
    lo, hi = np.empty(n), np.empty(n)
    for a in range(0, n, step):
        at = leaf_mat[a:a + step] + cell
        c = counts[at]
        m = c.sum(axis=1)
        base = np.arange(m.size) * n_values
        pooled = code[_ragged(starts[at].ravel(), c.ravel())] + np.repeat(base, m)
        # entries at or below each distinct target, counted on through the rows
        cum = np.cumsum(np.bincount(pooled, minlength=m.size * n_values))
        before = np.cumsum(m) - m
        for q, out in ((q_lo, lo), (q_hi, hi)):
            h = q * (m - 1)
            i = h.astype(np.int64)
            # each row's pooled entries i and i + 1 (the last one at most)
            k = np.stack((i, np.minimum(i + 1, m - 1)))
            below, above = values[np.searchsorted(cum, before + k, side="right") - base]
            out[a:a + step] = np.where(i >= m - 1, above, below + (h - i) * (above - below))
    return lo, hi
