"""Kernel-level checks: both dispatch paths agree bit for bit, trees are
deterministic, and the fallback is importable without numba."""

import os
import subprocess
import sys

import numpy as np

from attrition_conformal import kernels
from attrition_conformal.forest import MAX_DEPTH, MIN_LEAF, N_TREES, fit_forest


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
            depth[f.lefts[t][node]] = depth[f.rights[t][node]] = depth[node] + 1
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


def test_numpy_fallback_path_matches_numba_exactly():
    """Run the same fit in a subprocess with the kernels env flag set and
    compare every prediction bitwise."""
    x, y = _toy_data(n=300, k=5, seed=11)
    f = fit_forest(x, y, 5)
    got_mean = f.predict_mean(x)
    got_lo, got_hi = f.predict_quantiles(x[:50], 0.25, 0.75)

    script = (
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
        env = dict(os.environ, **{kernels.NUMBA_ENV_FLAG: "1"})
        subprocess.run([sys.executable, "-c", script.format(out=tmp)],
                       check=True, env=env)
        assert np.array_equal(np.load(f"{tmp}/mean.npy"), got_mean)
        assert np.array_equal(np.load(f"{tmp}/lo.npy"), got_lo)
        assert np.array_equal(np.load(f"{tmp}/hi.npy"), got_hi)


def test_quantile_sorted_matches_numpy_type7():
    rng = np.random.default_rng(4)
    for _ in range(50):
        m = int(rng.integers(1, 40))
        a = np.sort(rng.standard_normal(m))
        q = float(rng.random())
        got = kernels.quantile_sorted(a, m, q)
        want = np.quantile(a, q)  # numpy default = linear interpolation
        assert abs(got - want) < 1e-12
