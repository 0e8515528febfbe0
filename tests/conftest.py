import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

# make the sibling helper modules (oracles, properties) importable
sys.path.insert(0, str(Path(__file__).parent))

from strictqst import estimators
from strictqst.measurement import noiseless_record, povm_from_bases
from strictqst.quantum import global_random_bases, random_pure_state, random_rank_r_state


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def make_noiseless_problem(d: int, k: int, rank: int = 1, seed: int = 0):
    """(state, povm, record) for a random rank-r state measured in k
    random global bases."""
    gen = np.random.default_rng(seed)
    state = random_pure_state(d, gen) if rank == 1 else random_rank_r_state(d, rank, gen)
    povm = povm_from_bases(global_random_bases(d, k, gen))
    return state, povm, noiseless_record(povm, state)


@contextmanager
def no_polish():
    """Solves inside run on gradient steps alone: the face polish's rank
    window never opens."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(estimators, "_RANK_WINDOW", 10**9)
        yield
