"""Deterministic random streams shared by every stochastic component.

All randomness is drawn from numpy's Philox bit generator, a counter-based
64-bit generator with a documented stream (Philox4x64-10, keyed by the
64-bit seed).  Child streams are derived with a SplitMix64 hash of
``(seed, index)`` so that independent components (Monte Carlo replicates,
forest trees, data splits) never share a stream and can be reproduced in
isolation.  The same derivation rule is recorded in every run manifest.
"""

from __future__ import annotations

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15


def splitmix64(state: int) -> int:
    """One SplitMix64 mixing step of a 64-bit state."""
    z = (state + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def child_seed(seed: int, index: int) -> int:
    """Derive the child stream seed: splitmix64(splitmix64(seed) XOR splitmix64(index + 1))."""
    return splitmix64(splitmix64(seed & _MASK64) ^ splitmix64((index + 1) & _MASK64))


def make_rng(seed: int) -> np.random.Generator:
    """Philox4x64-10 generator keyed by ``seed``."""
    return np.random.Generator(np.random.Philox(key=seed & _MASK64))


# The streams of one pipeline run by name, as indices under its replicate seed
# (a run seed's indices count replicates, a fit seed's count forest trees):
# fold shuffles at small indices, nuisance fits at 1000 + role.
STREAMS = {
    "folds": 0, "step2_folds": 1, "crossfit_halves": 11, "baseline_halves": 2,
    "baseline_cqr_split_0": 3, "baseline_cqr_split_1": 4, "exact_endpoint_split": 5,
    "quantile_pair_0": 1000, "quantile_pair_1": 1001, "treatment_propensity": 1002,
    "response_propensity": 1003, "cdf_0": 1004, "cdf_1": 1005,
    "endpoint_lo": 1006, "endpoint_hi": 1007, "step2_response_propensity": 1008,
    "step2_cdf": 1009, "crossfit_lo_0": 1012, "crossfit_lo_1": 1013,
    "crossfit_hi_0": 1014, "crossfit_hi_1": 1015, "baseline_propensity": 1020,
    "baseline_cqr_0": 1022, "baseline_cqr_1": 1023, "exact_endpoint_lo": 1024,
    "exact_endpoint_hi": 1025, "inexact_endpoint_lo": 1026, "inexact_endpoint_hi": 1027,
}


def stream_seed(seed: int, name: str) -> int:
    """Seed of the named :data:`STREAMS` entry under a replicate seed."""
    return child_seed(seed, STREAMS[name])


def run_seed(seed: int) -> int:
    """The seed under which a run names the :data:`STREAMS` of fits it makes once,
    not per replicate: the run seed's index -1.  No replicate takes it, so (splitmix64
    being a bijection) no run-level stream equals the same-named stream of a replicate."""
    return child_seed(seed, -1)
