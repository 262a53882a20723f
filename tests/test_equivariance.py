"""Equivariance of the three methods under relabellings and changes of units.

In exact arithmetic the folds do not depend on d, the linear fits
standardise x, trees split on ranks and CQR and interval scores scale with
y.  So these maps may move an interval only by rounding, and where the
arithmetic is exact not at all.
"""

import numpy as np
from hypothesis import Phase, given, settings, strategies as st

from attrition_conformal.data import ConformalConfig, ExperimentDataset
from attrition_conformal.simulation import METHODS, DgpSpec, generate, run_method

SEEDS = st.integers(0, 2**32 - 1)
# no shrinking: a smaller seed is no simpler case, and each example runs whole
# pipelines, so shrinking a failure would cost minutes
PROPERTY = dict(deadline=None, derandomize=True, phases=[Phase.generate])


def _intervals(ds, method, cfg):
    """The step-1 ITE intervals and the attrition intervals, in that order."""
    res = run_method(ds, method, cfg)
    return res.c_ite_lo, res.c_ite_hi, res.che_lo, res.che_hi


def _draw(kind, n, seed):
    return generate(DgpSpec(kind, n=n, seed=seed)).dataset


@settings(max_examples=10, **PROPERTY)
@given(kind=st.sampled_from(["dgp1", "dgp2"]), data_seed=SEEDS, run_seed=SEEDS)
def test_arm_relabelling_negates_and_swaps_glm_cise(kind, data_seed, run_seed):
    ds = _draw(kind, 1000, data_seed)
    cfg = ConformalConfig(seed=run_seed)
    c_lo, c_hi, a_lo, a_hi = _intervals(ds, "cise", cfg)
    flipped = ExperimentDataset(x=ds.x, d=1 - ds.d, r=ds.r, y=ds.y)
    f_c_lo, f_c_hi, f_a_lo, f_a_hi = _intervals(flipped, "cise", cfg)
    for got, want in ((f_c_lo, -c_hi), (f_c_hi, -c_lo), (f_a_lo, -a_hi), (f_a_hi, -a_lo)):
        assert got.tobytes() == want.tobytes()


@settings(max_examples=6, **PROPERTY)
@given(kind=st.sampled_from(["dgp1", "dgp2"]), data_seed=SEEDS, run_seed=SEEDS,
       scale=st.sampled_from([0.02, 50.0]), shift=st.sampled_from([-7.0, 7.0]))
def test_affine_covariate_map_keeps_glm_cise_and_exact_baseline(kind, data_seed, run_seed,
                                                                 scale, shift):
    ds = _draw(kind, 1000, data_seed)
    mapped = ExperimentDataset(x=scale * ds.x + shift, d=ds.d, r=ds.r, y=ds.y)
    cfg = ConformalConfig(seed=run_seed)
    for method in ("cise", "wcqr_nested_exact"):
        for got, want in zip(_intervals(mapped, method, cfg), _intervals(ds, method, cfg)):
            assert (np.isfinite(got) == np.isfinite(want)).all()
            fin = np.isfinite(want)
            assert np.all(np.abs(got[fin] - want[fin])
                          <= 1e-9 * np.maximum(np.abs(want[fin]), 1.0)), method


@settings(max_examples=2, **PROPERTY)
@given(data_seed=SEEDS, run_seed=SEEDS)
def test_forest_methods_ignore_monotone_covariate_maps_and_power_of_two_units(data_seed,
                                                                            run_seed):
    ds = _draw("dgp1", 400, data_seed)
    cfg = ConformalConfig(seed=run_seed, learner="random_forest")
    warped = ExperimentDataset(x=np.exp(ds.x / 3.0), d=ds.d, r=ds.r, y=ds.y)
    rescaled = ExperimentDataset(x=ds.x, d=ds.d, r=ds.r, y=1024.0 * ds.y)
    for method in METHODS:
        want = _intervals(ds, method, cfg)
        for got, base in zip(_intervals(warped, method, cfg), want):
            assert got.tobytes() == base.tobytes(), method
        for got, base in zip(_intervals(rescaled, method, cfg), want):
            assert got.tobytes() == (1024.0 * base).tobytes(), method
