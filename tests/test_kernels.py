"""Kernel-level checks: the lockstep grower and the pooled quantiles match
per-node and per-point references bit for bit, trees are deterministic,
storage is compact, and chunked prediction gives the same results as
predicting piece by piece."""

import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from attrition_conformal import forest, kernels
from attrition_conformal.forest import MAX_DEPTH, MIN_LEAF, N_TREES, fit_forest
from attrition_conformal.rng import child_seed, make_rng


def _grow_tree_impl(x, y, max_depth, min_leaf, mtry, feat_rand,
                    feature, threshold, left, right, value, leaf_id):
    """Reference grower: one CART tree, one node at a time, depth first.

    ``x``/``y`` are the (bootstrap) fitting sample.  Split search maximizes
    the variance reduction over ``mtry`` features drawn per node from the
    pre-filled uniform stream ``feat_rand`` (a partial Fisher-Yates draw per
    node, indexed by node id).  Thresholds equal the largest left-child
    value with the rule "x <= threshold goes left".  ``leaf_id`` receives
    the leaf index of every fitting row.  Returns the number of nodes used.
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


def _apply_tree_impl(x, feature, threshold, left, right):
    """Reference router: the leaf id of every row of ``x`` in one tree."""
    node = np.zeros(x.shape[0], np.int64)
    active = feature[node] >= 0
    while active.any():
        f = feature[node]
        vals = x[np.arange(x.shape[0]), np.where(f >= 0, f, 0)]
        nxt = np.where(vals <= threshold[node], left[node], right[node])
        node = np.where(active, nxt, node)
        active = feature[node] >= 0
    return node


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


def _forest_pooled_quantiles_impl(leaf_mat, grouped_targets, leaf_start, leaf_count,
                                  q_lo, q_hi):
    """Reference pooling: for each test point, copy its leaves' targets from
    every tree, sort them and interpolate two quantiles."""
    n, n_trees = leaf_mat.shape
    buf = np.empty(grouped_targets.size, np.float64)
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
        lo[i] = _quantile_sorted_impl(pooled, pos, q_lo)
        hi[i] = _quantile_sorted_impl(pooled, pos, q_hi)
    return lo, hi


_ORACLE_FIELDS = ("features", "thresholds", "lefts", "values", "grouped_targets",
                  "leaf_start", "leaf_count")


def _oracle_forest(x, y, seed):
    """The forest's arrays grown tree by tree with ``_grow_tree_impl``,
    plus the reference's right children."""
    n, k = x.shape
    mtry = max(1, min(k, int(round(np.sqrt(k) / k * k))))
    max_nodes = 2 ** (MAX_DEPTH + 1)
    T = forest.N_TREES
    features = np.full((T, max_nodes), -1, np.int64)
    thresholds = np.zeros((T, max_nodes), np.float64)
    lefts = np.full((T, max_nodes), -1, np.int64)
    rights = np.full((T, max_nodes), -1, np.int64)
    values = np.zeros((T, max_nodes), np.float64)
    grouped = np.empty(T * n, np.float64)
    leaf_start = np.zeros((T, max_nodes), np.int64)
    leaf_count = np.zeros((T, max_nodes), np.int64)
    leaf_id = np.empty(n, np.int64)
    width = 0
    for t in range(T):
        rng = make_rng(child_seed(seed, t))
        boot = rng.integers(0, n, size=n)
        feat_rand = rng.random(max_nodes * mtry)
        yb = y[boot]
        used = _grow_tree_impl(np.ascontiguousarray(x[boot]), yb, MAX_DEPTH, MIN_LEAF, mtry,
                               feat_rand, features[t], thresholds[t], lefts[t], rights[t],
                               values[t], leaf_id)
        width = max(width, used)
        grouped[t * n:(t + 1) * n] = yb[np.argsort(leaf_id, kind="stable")]
        leaves, counts = np.unique(leaf_id, return_counts=True)
        leaf_start[t, leaves] = t * n + np.concatenate(([0], np.cumsum(counts)[:-1]))
        leaf_count[t, leaves] = counts
    trim = lambda a, dtype: np.ascontiguousarray(a[:, :width].astype(dtype))  # noqa: E731
    return {"features": trim(features, np.int32), "thresholds": trim(thresholds, np.float64),
            "lefts": trim(lefts, np.int32), "rights": trim(rights, np.int32),
            "values": trim(values, np.float64), "grouped_targets": grouped,
            "leaf_start": trim(leaf_start, np.int32), "leaf_count": trim(leaf_count, np.int32)}


def _assert_matches_oracle(x, y, seed, x_new, levels):
    """``fit_forest`` equals the per-node oracle bit for bit, and routing,
    the mean and the pooled quantiles equal their per-tree references."""
    n, k = x.shape
    T = forest.N_TREES
    got = fit_forest(x, y, seed)
    want = _oracle_forest(x, y, seed)
    assert got.k == k
    for name in _ORACLE_FIELDS:
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype and a.shape == b.shape, name
        if a.ndim == 1:
            a, b = a.reshape(T, n), b.reshape(T, n)
        for t in range(T):
            assert a[t].tobytes() == b[t].tobytes(), f"{name} differs in tree {t}"
    # routing reads a split node's right child as its left child + 1
    inner = want["lefts"] >= 0
    assert np.array_equal(want["rights"][inner], want["lefts"][inner] + 1)

    # routing all trees at once matches routing tree by tree, and the mean
    # sums the trees in order
    leaves = np.stack([_apply_tree_impl(x_new, got.features[t], got.thresholds[t],
                                        want["lefts"][t], want["rights"][t]) for t in range(T)])
    want_mean = np.zeros(x_new.shape[0])
    for t in range(T):
        want_mean += got.values[t][leaves[t]]
    assert got.predict_mean(x_new).tobytes() == (want_mean / T).tobytes()
    assert np.array_equal(kernels.forest_leaf_matrix(x_new, got.features, got.thresholds,
                                                     got.lefts), leaves.T)
    # pooled quantiles equal sorting each point's pooled targets; binary y ties
    q_lo, q_hi = levels
    want_q = _forest_pooled_quantiles_impl(leaves.T, got.grouped_targets, got.leaf_start,
                                           got.leaf_count, q_lo, q_hi)
    for a, b in zip(got.predict_quantiles(x_new, q_lo, q_hi), want_q):
        assert a.tobytes() == b.tobytes()


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 80), k=st.integers(1, 6), seed=st.integers(0, 2**64 - 1),
       data_seed=st.integers(0, 2**32 - 1), decimals=st.sampled_from([None, 0, 1]),
       duplicate=st.booleans(), constant=st.booleans(), binary=st.booleans(),
       levels=st.lists(st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0), min_size=2,
                       max_size=2))
def test_fit_forest_matches_per_node_oracle(n, k, seed, data_seed, decimals, duplicate,
                                            constant, binary, levels):
    rng = np.random.default_rng(data_seed)
    x = rng.standard_normal((n, k))
    if decimals is not None:
        x = np.round(x, decimals)  # ties
    if duplicate:
        x[n // 2:] = x[:n - n // 2]
    if constant:
        x[:, rng.integers(k)] = 0.5
    y = (rng.random(n) < 0.4).astype(float) if binary else x.sum(axis=1) + rng.standard_normal(n)
    x_new = np.concatenate((x, rng.standard_normal((20, k))))
    _assert_matches_oracle(x, y, seed, x_new, levels)


@pytest.mark.parametrize("k, binary, trees_per_block",
                         [(10, False, None), (10, True, None), (11, False, None),
                          (11, True, None), (10, False, 16)])
def test_fit_forest_matches_per_node_oracle_at_the_workload_shape(monkeypatch, k, binary,
                                                                  trees_per_block):
    """The simulation's forest fits have k = 10 or 11 and up to ~600 rows:
    nodes wider than 128 rows, several width classes in one step, and root
    steps that span several scoring batches; one case grows in 3 blocks."""
    n, n_trees = 600, 40
    monkeypatch.setattr(forest, "N_TREES", n_trees)
    n_try = round(np.sqrt(k))
    assert n_trees * (1 + n_try) * n > kernels._SCORE_CELLS
    if trees_per_block is not None:
        monkeypatch.setattr(forest, "BLOCK_ROWS", trees_per_block * n)
        assert -(-n_trees // trees_per_block) == 3
    rng = np.random.default_rng(100 + k)
    x = np.round(rng.standard_normal((n, k)), 1)  # ties
    y = (rng.random(n) < 0.3).astype(float) if binary else x[:, 0] - x[:, 1] ** 2 + rng.standard_normal(n)
    x_new = np.concatenate((x[:50], np.round(rng.standard_normal((50, k)), 1)))
    _assert_matches_oracle(x, y, 7 + k, x_new, (0.025, 0.975))


def _toy_data(n=400, k=6, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, k))
    y = 1.5 * x[:, 0] - x[:, 1] ** 2 + 0.2 * rng.standard_normal(n)
    return x, y


def test_forest_deterministic_given_seed():
    x, y = _toy_data()
    a = fit_forest(x, y, 7)
    b = fit_forest(x, y, 7)
    assert np.array_equal(a.predict_mean(x), b.predict_mean(x))
    qa = a.predict_quantiles(x[:40], 0.1, 0.9)
    qb = b.predict_quantiles(x[:40], 0.1, 0.9)
    assert np.array_equal(qa[0], qb[0]) and np.array_equal(qa[1], qb[1])
    c = fit_forest(x, y, 8)
    assert not np.array_equal(a.predict_mean(x), c.predict_mean(x))


def test_forest_respects_min_leaf_and_depth():
    x, y = _toy_data(n=200)
    f = fit_forest(x, y, 1)
    assert f.features.shape[0] == N_TREES
    deepest = 0
    for t in range(N_TREES):
        # children are numbered after their parent, so one pass gives depths
        depth = np.zeros(f.features.shape[1], np.int64)
        for node in np.flatnonzero(f.lefts[t] >= 0):
            depth[f.lefts[t][node]] = depth[f.lefts[t][node] + 1] = depth[node] + 1
        leaves = np.flatnonzero(f.leaf_count[t] > 0)
        assert f.leaf_count[t][leaves].min() >= MIN_LEAF
        deepest = max(deepest, int(depth[leaves].max()))
    # the depth limit binds on this sample
    assert deepest == MAX_DEPTH


def test_forest_quantiles_bracket_mean():
    x, y = _toy_data(n=600)
    f = fit_forest(x, y, 3)
    lo, hi = f.predict_quantiles(x[:100], 0.05, 0.95)
    assert (lo <= hi).all()
    mean = f.predict_mean(x[:100])
    assert (lo <= mean).mean() > 0.9 and (mean <= hi).mean() > 0.9


def test_one_batch_past_the_routing_chunk_matches_its_pieces():
    x, y = _toy_data(n=300, k=4, seed=2)
    f = fit_forest(x, y, 9)
    xt = np.random.default_rng(3).standard_normal((2 * kernels.ROUTE_ROWS + 37, 4))
    pieces = np.array_split(np.arange(xt.shape[0]), 7)  # not aligned with the chunks
    mean = f.predict_mean(xt)
    assert mean.tobytes() == np.concatenate([f.predict_mean(xt[p]) for p in pieces]).tobytes()
    route = (f.features, f.thresholds, f.lefts)
    leaves = kernels.forest_leaf_matrix(xt, *route)
    assert np.array_equal(leaves, np.concatenate([kernels.forest_leaf_matrix(xt[p], *route)
                                                  for p in pieces]))
    # every leaf holds MIN_LEAF targets or more, so a pooling chunk holds fewer
    # than _SCORE_CELLS / (N_TREES * MIN_LEAF) points and each piece spans several
    assert min(p.size for p in pieces) * N_TREES * MIN_LEAF > kernels._SCORE_CELLS
    lo, hi = f.predict_quantiles(xt, 0.1, 0.9)
    parts = [f.predict_quantiles(xt[p], 0.1, 0.9) for p in pieces]
    assert lo.tobytes() == np.concatenate([p[0] for p in parts]).tobytes()
    assert hi.tobytes() == np.concatenate([p[1] for p in parts]).tobytes()
    # the whole batch pooled at once, as one leaf matrix
    whole = kernels.forest_pooled_quantiles(leaves, f.grouped_targets, f.leaf_start,
                                            f.leaf_count, 0.1, 0.9)
    assert lo.tobytes() == whole[0].tobytes() and hi.tobytes() == whole[1].tobytes()


def test_quantile_prediction_memory_does_not_grow_with_the_batch():
    x, y = _toy_data(n=100, k=3, seed=4)
    f = fit_forest(x, y, 1)
    xt = np.random.default_rng(5).standard_normal((20000, 3))

    def peak_bytes(batch):
        tracemalloc.start()
        try:
            f.predict_quantiles(batch, 0.1, 0.9)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    one_chunk = peak_bytes(xt[:kernels.ROUTE_ROWS])
    # a whole-batch (20000, N_TREES) leaf matrix alone would add 16 MB
    assert peak_bytes(xt) < 1.5 * one_chunk


def test_forest_storage_is_as_wide_as_its_largest_tree():
    x, y = _toy_data(n=25, k=3, seed=5)
    f = fit_forest(x, y, 2)
    node_counts = 1 + 2 * (f.features >= 0).sum(axis=1)
    for name in ("features", "thresholds", "lefts", "values",
                 "leaf_start", "leaf_count"):
        assert getattr(f, name).shape == (N_TREES, node_counts.max()), name
    for name in ("features", "lefts", "leaf_start", "leaf_count"):
        assert getattr(f, name).dtype == np.int32, name
    # six (N_TREES, 2 ** (MAX_DEPTH + 1)) arrays of 8-byte entries: 4.9 MB
    full_width = 6 * N_TREES * 2 ** (MAX_DEPTH + 1) * 8
    held = sum(v.nbytes for v in vars(f).values() if isinstance(v, np.ndarray))
    assert 10 * held <= full_width


def test_fit_forest_rejects_non_finite_input():
    # split search compares ranks, which assume every value is finite
    x, y = _toy_data(n=30, k=2)
    bad_x, bad_y = x.copy(), y.copy()
    bad_x[3, 1] = np.nan
    bad_y[4] = np.inf
    for xs, ys in ((bad_x, y), (x, bad_y)):
        with pytest.raises(ValueError, match="finite"):
            fit_forest(xs, ys, 0)


def test_fit_in_a_fresh_process_reproduces_predictions_bitwise():
    """Run the same fit in a subprocess and compare every prediction bitwise."""
    x, y = _toy_data(n=300, k=5, seed=11)
    f = fit_forest(x, y, 5)
    got_mean = f.predict_mean(x)
    got_lo, got_hi = f.predict_quantiles(x[:50], 0.25, 0.75)

    script = (
        "import sys\n"
        "sys.path.insert(0, {src!r})\n"
        "import numpy as np\n"
        "from attrition_conformal.forest import fit_forest\n"
        "rng = np.random.default_rng(11)\n"
        "x = rng.standard_normal((300, 5))\n"
        "y = 1.5 * x[:, 0] - x[:, 1] ** 2 + 0.2 * rng.standard_normal(300)\n"
        "f = fit_forest(x, y, 5)\n"
        "np.save('{out}/mean.npy', f.predict_mean(x))\n"
        "lo, hi = f.predict_quantiles(x[:50], 0.25, 0.75)\n"
        "np.save('{out}/lo.npy', lo)\n"
        "np.save('{out}/hi.npy', hi)\n"
    )
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        # the fresh process imports the package from where this one did
        src = str(Path(kernels.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script.format(src=src, out=tmp)], check=True)
        assert np.array_equal(np.load(f"{tmp}/mean.npy"), got_mean)
        assert np.array_equal(np.load(f"{tmp}/lo.npy"), got_lo)
        assert np.array_equal(np.load(f"{tmp}/hi.npy"), got_hi)


def test_quantile_sorted_matches_numpy_type7():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 40))
        a = np.sort(rng.standard_normal(m))
        q = float(rng.random())
        got = _quantile_sorted_impl(a, m, q)
        want = np.quantile(a, q)  # numpy default = linear interpolation
        assert abs(got - want) < 1e-12
