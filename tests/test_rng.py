from pathlib import Path

import pytest

from attrition_conformal import rng
from attrition_conformal.rng import STREAMS, child_seed, stream_seed


def test_stream_indices_are_distinct():
    assert len(set(STREAMS.values())) == len(STREAMS)


@pytest.mark.parametrize("name, index", [("folds", 0), ("crossfit_halves", 11),
                                         ("quantile_pair_1", 1001),
                                         ("inexact_endpoint_hi", 1027)])
@pytest.mark.parametrize("seed", [0, 13, 2**64 - 1])
def test_stream_seed_keeps_the_pinned_indices(name, index, seed):
    assert stream_seed(seed, name) == child_seed(seed, index)


def test_child_seed_is_called_only_at_the_three_seed_levels():
    # rng derives the named streams of a replicate seed, forest the trees of
    # a fit seed and simulation the replicates of a run seed; every other
    # module names its streams through stream_seed
    src = Path(rng.__file__).parent
    callers = {p.name for p in src.glob("*.py") if "child_seed(" in p.read_text(encoding="utf-8")}
    assert callers == {"rng.py", "forest.py", "simulation.py"}
