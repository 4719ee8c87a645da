"""The counts, effects and covariance keep the bits of their masked-pass forms.

``build_rank_table``, ``estimate_effects`` and the covariance kernel read
the per-cell masks with plain arithmetic, and ``nan_unless`` builds the NaN
addend of a mask from its bits; ``oracles`` and ``np.where`` keep the forms
that wrote through the masks.  Every value must agree bit for bit, the sign
of every zero and the place of every NaN included.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankeffect import (
    build_masked_sample,
    build_rank_table,
    covariance_general,
    derive_pattern_index,
    estimate_effects,
)
from rankeffect.covariance import CovarianceEstimate, _kernel
from rankeffect.errors import InestimableComponent
from rankeffect.ranks import nan_unless

from conftest import simple_mask
from oracles import build_rank_table_masked, covariance_kernel_masked, estimate_effects_masked

# ties, signed zeros and values far apart; counts see only their order
_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 0.5, 1e-300, -1e300, 1e300])


@st.composite
def samples(draw):
    """One dataset or a block of up to 4 replicates, on a scattered or treatment-level mask.

    A scattered mask gives its components unequal observed counts, so the
    padding of the shorter pooled rows lands on unobserved cells; small
    ``n`` gives single-subject intersections, and the few values give ties
    and zero counts.
    """
    d = draw(st.integers(1, 4))
    if draw(st.booleans()):
        n = draw(st.integers(2, 12))
        observed = draw(hnp.arrays(bool, (2 * d, n)))
        empty = ~observed.any(axis=0)
        observed[np.flatnonzero(empty) % (2 * d), empty] = True  # every subject has a cell
    else:
        sizes = draw(st.tuples(*[st.integers(0, 4)] * 3).filter(lambda s: sum(s) >= 2))
        observed = simple_mask(d, *sizes)
    leading = draw(st.sampled_from([(), (1,), (2,), (4,)]))
    values = draw(hnp.arrays(float, leading + observed.shape, elements=_VALUES))
    return build_masked_sample(values, observed)


def assert_same_bits(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.shape == expected.shape
    assert np.array_equal(got, expected, equal_nan=True)
    assert np.array_equal(np.signbit(got), np.signbit(expected))


# g1-only cells whose count is zero, which the masked form negates to -0.0
@example(build_masked_sample(np.array([[0.0, 0.0, 5.0], [1.0, 9.0, 9.0]]),
                             np.array([[True, True, True], [True, False, False]])))
# blocks of 2 whose kernel stacks the complete set alone, then the one-sided
# sets alone; the first replicate's constant rows give zero terms
@example(build_masked_sample(
    np.array([[[1.0, 1.0, 1.0], [-0.0, 2.0, 0.5], [1.0, 1.0, 1.0], [0.0, -1.0, 0.5]],
              [[2.0, -1.0, 0.0], [0.5, 1e300, 0.5], [-1.0, 2.0, 2.0], [1e-300, 0.0, -0.0]]]),
    simple_mask(2, 3, 0, 0)))
@example(build_masked_sample(
    np.array([[[1.0, 1.0, 0.0, 0.0, 0.0], [0.5, -2.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, 1.0, 1.0, 1.0], [0.0, 0.0, 2.0, -0.0, 2.0]],
              [[-1e300, 2.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0, 0.0],
               [0.0, 0.0, -1.0, 1e300, 0.5], [0.0, 0.0, 0.0, 0.0, 0.0]]]),
    simple_mask(2, 0, 2, 3)))
@given(samples())
@settings(max_examples=400, deadline=None)
def test_plain_passes_keep_the_masked_bits(sample):
    b = build_rank_table(sample)
    assert_same_bits(b, build_rank_table_masked(sample))
    try:
        idx = derive_pattern_index(sample)
    except InestimableComponent:
        return  # counts need no index; effects and covariances do
    p_hat = estimate_effects(b, idx)
    assert_same_bits(p_hat, estimate_effects_masked(b, idx))
    v = covariance_kernel_masked(b, idx)
    assert_same_bits(_kernel(b, idx)[0], v)
    expected = CovarianceEstimate(p_hat, v, "general", idx.n)
    assert_same_bits(covariance_general(b, idx).v_hat, expected.v_hat)


def test_wide_scattered_block():
    # a block of larger rows, as the Monte Carlo grids and analyze_wide see them
    rng = np.random.default_rng(3)
    observed = rng.random((6, 400)) >= 0.3
    observed[0, ~observed.any(axis=0)] = True
    values = np.round(rng.standard_normal((3, 6, 400)), 1)
    sample = build_masked_sample(values, observed)
    b = build_rank_table(sample)
    assert_same_bits(b, build_rank_table_masked(sample))
    idx = derive_pattern_index(sample)
    assert_same_bits(estimate_effects(b, idx), estimate_effects_masked(b, idx))
    assert_same_bits(_kernel(b, idx)[0], covariance_kernel_masked(b, idx))


@given(hnp.arrays(bool, hnp.array_shapes(min_dims=1, max_dims=3, max_side=9)))
@settings(max_examples=200, deadline=None)
def test_nan_addend_is_the_where_form(observed):
    # every bit, the NaN's sign and payload included, on a strided view too
    for mask in (observed, observed[..., ::2]):
        assert nan_unless(mask).tobytes() == np.where(mask, -0.0, np.nan).tobytes()


@pytest.mark.parametrize("n", [13, 27])
@pytest.mark.parametrize("leading", [(), (3,)], ids=["single", "block-of-3"])
def test_unobserved_cells_hold_the_canonical_nan(n, leading):
    # -nan, a payload NaN and +-inf in every unobserved cell, in the SIMD body
    # and in the tail after it.  Adding a NaN addend (ranks.nan_unless), in
    # either order, keeps the value's own NaN bits at some of these positions,
    # which ones depending on body and tail; a select writes the canonical NaN
    canonical = np.float64(np.nan).view(np.uint64)
    specials = np.array([0xFFF8000000000000, 0x7FF8DEADBEEF0000,
                         0x7FF0000000000000, 0xFFF0000000000000], np.uint64).view(float)
    observed = np.zeros((2, n), bool)
    observed[0] = True
    observed[1, ::5] = True
    values = np.resize(specials, leading + observed.shape)
    values[..., observed] = 1.0
    sample = build_masked_sample(values, observed)
    bits = sample.values.view(np.uint64)
    assert (bits[..., ~observed] == canonical).all()
    assert (sample.values[..., observed] == 1.0).all()
