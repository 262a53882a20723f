from pathlib import Path

import pytest

from attrition_conformal import rng
from attrition_conformal.rng import STREAMS, child_seed, run_stream_seed, stream_seed


def test_stream_indices_are_distinct():
    assert len(set(STREAMS.values())) == len(STREAMS)


@pytest.mark.parametrize("name, index", [("folds", 0), ("crossfit_halves", 11),
                                         ("quantile_pair_1", 1001),
                                         ("inexact_endpoint_hi", 1027)])
@pytest.mark.parametrize("seed", [0, 13, 2**64 - 1])
def test_stream_seed_keeps_the_pinned_indices(name, index, seed):
    assert stream_seed(seed, name) == child_seed(seed, index)


@pytest.mark.parametrize("seed", [0, 13, 2**64 - 1])
def test_run_stream_seed_hangs_off_index_minus_one(seed):
    # index -1 hashes splitmix64(0), which no replicate index r >= 0 reaches
    assert (run_stream_seed(seed, "response_propensity")
            == stream_seed(child_seed(seed, -1), "response_propensity")
            == child_seed(child_seed(seed, -1), 1003))
    assert run_stream_seed(seed, "response_propensity") != stream_seed(seed, "response_propensity")


def test_run_stream_seed_pinned():
    # the IPW fits of a run with seed 13, as the analyze reports use them
    assert run_stream_seed(13, "treatment_propensity") == 2952083980023519140
    assert run_stream_seed(13, "response_propensity") == 2672386839014801933


def test_child_seed_is_called_only_at_the_three_seed_levels():
    # rng derives the named streams of a replicate seed, forest the trees of
    # a fit seed and simulation the replicates of a run seed; every other
    # module names its streams through stream_seed
    src = Path(rng.__file__).parent
    callers = {p.name for p in src.glob("*.py") if "child_seed(" in p.read_text(encoding="utf-8")}
    assert callers == {"rng.py", "forest.py", "simulation.py"}
