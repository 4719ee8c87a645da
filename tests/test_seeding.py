"""The block seeding reproduces NumPy's own ``SeedSequence`` and PCG64 states.

Every Monte Carlo tally rests on replicate ``i`` drawing from
``PCG64(SeedSequence(seed, spawn_key=(i,)))``.  ``rankeffect._seeding``
computes those states a block at a time; a NumPy release that changed either
algorithm must fail here rather than silently move every tally.
"""

import random

import numpy as np
import pytest

from rankeffect import Scenario, draw_sample, run_grid
from rankeffect._seeding import pcg64_states, seed_words

RNG = random.Random(36)
# past 2**128 the seed's entropy is longer than the pool of four words
SEEDS = [0, 1, 7, 2**32 - 1, 2**32, 2**63 + 5, 2**64 - 1, 2**130 + 3, 2**200 - 1] + [
    RNG.getrandbits(64) for _ in range(30)
]
INDICES = [*range(60), 999, 2**31, 2**32 - 1]


def numpys_state(seed, index):
    state = np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(index,))).state
    assert (state["has_uint32"], state["uinteger"]) == (0, 0)
    return state["state"]["state"], state["state"]["inc"]


@pytest.mark.parametrize("seed", SEEDS)
def test_block_states_are_numpys_seed_sequence_states(seed):
    assert pcg64_states(seed, INDICES) == [numpys_state(seed, i) for i in INDICES]
    # an index of 2**32 or more has a two-word spawn key, so one more mixing round
    block = [5, 2**32, 2**32 + 5, 2**64 - 1]
    assert pcg64_states(seed, block) == [numpys_state(seed, i) for i in block]


def test_an_index_outside_uint64_fails_loudly():
    with pytest.raises(ValueError, match="replicate index -1 is negative"):
        pcg64_states(7, [3, -1])
    with pytest.raises(OverflowError):
        pcg64_states(7, [2**64])


@pytest.mark.parametrize("master_seed", [0, 1, 3, 7, 2**64 - 1])
def test_derived_seeds_are_numpys_first_state_words(master_seed):
    expected = [
        int(np.random.SeedSequence(master_seed, spawn_key=(i,)).generate_state(1)[0])
        for i in range(216)
    ]
    assert seed_words(master_seed, range(216))[0].tolist() == expected


def test_run_grid_reseeds_from_the_derived_seeds():
    grid = [
        Scenario(distribution="normal", d=2, rho=(0.1, 0.1, 0.1), sigma_sq=(1.0, 1.0),
                 delta=(0.0, 0.0), sizes=(5, 2, 3), replications=1, seed=s)
        for s in (0, 1, 2)
    ]
    seeds = [r.scenario.seed for r in run_grid(grid, master_seed=7)]
    assert seeds == [
        int(np.random.SeedSequence(7, spawn_key=(i,)).generate_state(1)[0]) for i in range(3)
    ]
    assert all(type(seed) is int for seed in seeds)


@pytest.mark.parametrize("index", [0, 3, 2**32 + 5])
def test_a_replicate_draws_its_own_seed_sequence_stream(index):
    # a discretized normal is exact, so the draw compares with numpy's own stream
    s = Scenario(distribution="normal", d=2, rho=(0.1, 0.1, 0.1), sigma_sq=(1.0, 5.0),
                 delta=(0.0, 0.0), sizes=(30, 10, 10), seed=2**64 - 1)
    sample = draw_sample(s, index)
    rng = np.random.default_rng(np.random.SeedSequence(s.seed, spawn_key=(index,)))
    expected = np.rint(s._chol @ rng.standard_normal(sample.observed.shape))
    assert np.array_equal(sample.values[sample.observed], expected[sample.observed])
