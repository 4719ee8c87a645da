import warnings
from contextlib import suppress
from pathlib import Path

import numpy as np
import pytest

from rankeffect import build_masked_sample, derive_pattern_index, inference

DATA_DIR = Path(__file__).parent / "data"

# Hypothesis imports this module, and libcst with it, to report a failing
# example.  libcst's import warns about one of its own dependencies, which
# filterwarnings = "error" would turn into a pytest internal error that
# aborts the run and hides the example.  Loading it here silences only that
# third-party import; warnings raised by the package or the tests still fail.
with suppress(ImportError), warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    import hypothesis.extra._patching  # noqa: F401


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


def assert_wald_as_eigenpairs(report, cov):
    """A one-replicate Wald report against the eigenpair oracle, ``oracles.wald_eigh``.

    df and flags always agree.  An estimate that ``inference._eliminate``
    certifies full rank takes the elimination's form and agrees within
    16 d eps kappa relative, kappa its condition number: both forms are
    backward stable, and the certificate bounds kappa.  Any other estimate
    takes the eigenpairs and gives the oracle's bits.
    """
    from oracles import wald_eigh

    d = cov.p_hat.size
    dev = cov.p_hat - 0.5
    statistic, df, flags = wald_eigh(dev, cov.v_hat, cov.n)
    if not np.isnan(statistic):
        flags = cov.degenerate + flags
    assert report.flags == flags
    assert np.array_equal(report.df, df, equal_nan=True)
    certified = inference._eliminate(cov.v_hat[None], dev[None], np.atleast_1d(cov.trace))[1][0]
    if certified:
        eigvals = np.linalg.eigh(cov.v_hat)[0]
        bound = 16 * d * np.finfo(float).eps * eigvals[-1] / eigvals[0]
        assert abs(report.statistic - statistic) <= bound * statistic
    else:
        assert np.array_equal(report.statistic, statistic, equal_nan=True)
