#!/usr/bin/env python3
"""Benchmark the tree kernels: numba @njit versus the plain-numpy fallback.

Both paths execute the same source, so outputs are verified bitwise before
timing.  The numpy path is obtained by calling the undecorated ``*_impl``
functions directly; the jitted path goes through the module-level names.
When the JIT path is off (numba is not installed, or
``ATTRITION_CONFORMAL_NO_NUMBA=1`` is set) the script says why and times
only the numpy path.

Usage: python benchmarks/bench_kernels.py [--n 2000] [--trees 100] [--reps 5]
"""

import argparse
import time

import numpy as np

from attrition_conformal import kernels
from attrition_conformal.forest import ForestParams, fit_forest
from attrition_conformal.rng import child_seed, make_rng


def _tree_args(n, k, max_depth, min_leaf, mtry, seed):
    rng = make_rng(seed)
    x = np.ascontiguousarray(rng.standard_normal((n, k)))
    y = x[:, 0] - 0.5 * x[:, 1] ** 2 + 0.3 * rng.standard_normal(n)
    max_nodes = 2 ** (max_depth + 1)
    feat_rand = rng.random(max_nodes * mtry)
    out = dict(feature=np.full(max_nodes, -1, np.int64),
               threshold=np.zeros(max_nodes),
               left=np.full(max_nodes, -1, np.int64),
               right=np.full(max_nodes, -1, np.int64),
               value=np.zeros(max_nodes),
               leaf_id=np.empty(n, np.int64))
    return x, y, feat_rand, out


def _time(fn, reps):
    best = np.inf
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def bench_grow(n, k, reps):
    max_depth, min_leaf, mtry = 8, 5, max(1, round(np.sqrt(k)))
    x, y, feat_rand, out = _tree_args(n, k, max_depth, min_leaf, mtry, seed=1)

    def run(fn, buf):
        return fn(x, y, max_depth, min_leaf, mtry, feat_rand,
                  buf["feature"], buf["threshold"], buf["left"], buf["right"],
                  buf["value"], buf["leaf_id"])

    buf_np = {k_: v.copy() for k_, v in out.items()}
    t_np = _time(lambda: run(kernels._grow_tree_impl, buf_np), reps)
    if not kernels.USE_NUMBA:
        return None, t_np
    buf_jit = {k_: v.copy() for k_, v in out.items()}
    run(kernels.grow_tree, buf_jit)  # warm the JIT
    for name in out:
        assert np.array_equal(buf_jit[name], buf_np[name]), f"{name} differs between paths"
    return _time(lambda: run(kernels.grow_tree, buf_jit), reps), t_np


def bench_forest(n, k, trees, reps):
    rng = make_rng(child_seed(2, 0))
    x = rng.standard_normal((n, k))
    y = x[:, 0] + np.sin(2 * x[:, 1]) + 0.3 * rng.standard_normal(n)
    params = ForestParams(n_trees=trees, seed=3)

    forest = fit_forest(x, y, params)  # warm the apply/quantile kernels
    forest.predict_mean(x)
    forest.predict_quantiles(x[:200], 0.05, 0.95)

    t_fit = _time(lambda: fit_forest(x, y, params), reps)
    t_mean = _time(lambda: forest.predict_mean(x), reps)
    t_quant = _time(lambda: forest.predict_quantiles(x[:200], 0.05, 0.95), reps)
    return t_fit, t_mean, t_quant


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=2000)
    parser.add_argument("--k", type=int, default=10)
    parser.add_argument("--trees", type=int, default=100)
    parser.add_argument("--reps", type=int, default=5)
    args = parser.parse_args()

    if kernels.USE_NUMBA:
        print("kernel path: numba JIT")
    elif kernels.HAVE_NUMBA:
        print(f"kernel path: numpy (JIT path disabled by {kernels.NUMBA_ENV_FLAG}; "
              "unset it to compare against the JIT path)")
    else:
        print("kernel path: numpy (JIT path unavailable: numba is not installed)")

    t_jit, t_np = bench_grow(args.n, args.k, args.reps)
    print(f"grow_tree (n={args.n}, k={args.k}):")
    if t_jit is not None:
        print(f"  numba  {t_jit * 1e3:8.2f} ms   speedup x{t_np / t_jit:.1f}")
    print(f"  numpy  {t_np * 1e3:8.2f} ms")

    t_fit, t_mean, t_quant = bench_forest(args.n, args.k, args.trees, args.reps)
    print(f"forest of {args.trees} trees (current path):")
    print(f"  fit              {t_fit * 1e3:8.1f} ms")
    print(f"  predict_mean     {t_mean * 1e3:8.1f} ms")
    print(f"  predict_quantile {t_quant * 1e3:8.1f} ms")


if __name__ == "__main__":
    main()
