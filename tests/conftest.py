from pathlib import Path

import numpy as np
import pytest

from rankeffect import build_masked_sample, derive_pattern_index

DATA_DIR = Path(__file__).parent / "data"


def draw_values(rng, shape, ties=True):
    """Measurement matrix; small integer support when ties are wanted."""
    if ties:
        return rng.integers(0, 6, size=shape).astype(float)
    return rng.standard_normal(shape)


def simple_mask(d, n_c, n_1, n_2):
    """Treatment-level observedness: paired block, then one-sided blocks."""
    n = n_c + n_1 + n_2
    obs = np.zeros((2 * d, n), dtype=bool)
    obs[:, :n_c] = True
    obs[:d, n_c:n_c + n_1] = True
    obs[d:, n_c + n_1:] = True
    return obs


def random_simple_sample(rng, d=None, ties=True, min_part=0):
    """Random treatment-level instance with estimable components.

    ``min_part`` requires at least one of the three case blocks to have
    that many subjects (use 2 for covariance estimation).
    """
    d = d if d is not None else int(rng.integers(1, 4))
    while True:
        n_c = int(rng.integers(0, 10))
        n_1 = int(rng.integers(0, 8))
        n_2 = int(rng.integers(0, 8))
        if n_c + n_1 < 1 or n_c + n_2 < 1 or n_c + n_1 + n_2 < 2:
            continue
        if min_part and max(n_c, n_1, n_2) < min_part:
            continue
        break
    obs = simple_mask(d, n_c, n_1, n_2)
    sample = build_masked_sample(draw_values(rng, obs.shape, ties), obs)
    return sample, derive_pattern_index(sample)


def random_general_sample(rng, d=None, n=None, ties=True, p_obs=0.7):
    """Random per-cell observedness instance with every component estimable."""
    d = d if d is not None else int(rng.integers(1, 4))
    n = n if n is not None else int(rng.integers(4, 30))
    while True:
        obs = rng.random((2 * d, n)) < p_obs
        if not obs.any(axis=0).all():
            continue
        idx_ok = True
        for l in range(d):
            if not obs[l].any() or not obs[d + l].any():
                idx_ok = False
                break
        if idx_ok:
            break
    sample = build_masked_sample(draw_values(rng, obs.shape, ties), obs)
    return sample, derive_pattern_index(sample)


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
