import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankeffect import (
    MaskedSample,
    build_masked_sample,
    build_rank_table,
    derive_pattern_index,
    estimate_effects,
    placements,
    restrict_method,
)
from rankeffect.errors import DimensionMismatch, EverythingFiltered, InestimableComponent
from rankeffect.simulate import builtin_grid, draw_sample

from conftest import random_general_sample, simple_mask
from oracles import placement_counts_bruteforce, placement_counts_rankdata


_MAX = np.finfo(float).max
# integer ties, signed zeros, and finite values next to the float64 limits
_CELL_VALUES = st.one_of(
    st.integers(-3, 3).map(float),
    st.sampled_from([0.0, -0.0, _MAX, -_MAX, np.nextafter(_MAX, 0.0), 1e308, -1e308]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@st.composite
def masked_samples(draw):
    """Per-cell masks, small enough that single-observation and empty groups are common."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    values = np.array(draw(st.lists(_CELL_VALUES, min_size=2 * d * n, max_size=2 * d * n)))
    observed = np.array(draw(st.lists(st.booleans(), min_size=2 * d * n, max_size=2 * d * n)))
    observed = observed.reshape(2 * d, n)
    empty = ~observed.any(axis=0)
    observed[np.flatnonzero(empty) % (2 * d), empty] = True  # every subject has a cell
    return build_masked_sample(values.reshape(2 * d, n), observed)


@st.composite
def masked_blocks(draw):
    """A ``masked_samples`` sample, or a block of one to four replicates on its mask."""
    sample = draw(masked_samples())
    reps = draw(st.integers(0, 4))
    if not reps:
        return sample
    size = (reps - 1) * sample.values.size
    values = np.array(draw(st.lists(_CELL_VALUES, min_size=size, max_size=size)))
    block = np.concatenate([sample.values[None], values.reshape(reps - 1, *sample.values.shape)])
    return build_masked_sample(block, sample.observed)


class TestRankTable:
    def test_distinct_complete_case(self):
        obs = np.ones((2, 2), bool)
        s = build_masked_sample([[1.0, 3.0], [2.0, 4.0]], obs)
        b = build_rank_table(s)
        assert list(b[0]) == [0.0, 1.0]
        assert list(b[1]) == [1.0, 2.0]

    def test_total_tie_gives_midpoint(self):
        # every cell ties with all three cells of the other group
        obs = simple_mask(1, 2, 1, 1)
        vals = np.full(obs.shape, 3.0)
        s = build_masked_sample(vals, obs)
        b = build_rank_table(s)
        assert np.array_equal(b[obs], np.full(6, 1.5))

    def test_component_with_no_data(self):
        # counting leaves the component's rows NaN; the pattern index rejects it
        obs = np.zeros((4, 3), bool)
        obs[0] = True
        obs[2] = True  # var 1 observed in both groups, var 2 nowhere
        s = build_masked_sample(np.zeros((4, 3)), obs)
        b = build_rank_table(s)
        assert np.isnan(b[[1, 3]]).all() and not np.isnan(b[[0, 2]]).any()
        with pytest.raises(InestimableComponent) as exc:
            derive_pattern_index(s)
        assert exc.value.component == 1

    def test_matches_bruteforce_on_random_masks(self, rng):
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            b = build_rank_table(sample)
            assert np.array_equal(b, placement_counts_bruteforce(sample), equal_nan=True)

    @given(masked_samples())
    # component 1: a single group-1 observation against a group with none
    @example(build_masked_sample(
        [[1.0, 2.0, 2.0], [5.0, 0.0, 0.0], [2.0, -0.0, 0.0], [0.0, 0.0, 0.0]],
        [[True, True, True], [True, False, False], [True, True, True], [False, False, False]],
    ))
    # -0.0 in group 1 ties with 0.0 in group 2
    @example(build_masked_sample([[-0.0, 1.0], [0.0, 0.0]], np.ones((2, 2), bool)))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_rankdata_per_component(self, sample):
        # exact: counts are half-integers; rows without an observation stay NaN
        b = build_rank_table(sample)
        assert np.array_equal(b, placement_counts_rankdata(sample), equal_nan=True)
        assert np.isnan(b[~sample.observed]).all()

    def test_rank_sum_identities_on_random_masks(self, rng):
        # every cross-group pair adds 1 to one side or 1/2 to both
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            b = build_rank_table(sample)
            d = sample.d
            for l in range(d):
                b1 = b[l][sample.observed[l]]
                b2 = b[d + l][sample.observed[d + l]]
                assert b1.sum() + b2.sum() == idx.m1[l] * idx.m2[l]
                assert b1.min() >= 0.0 and b1.max() <= idx.m2[l]
                assert b2.min() >= 0.0 and b2.max() <= idx.m1[l]

    def test_monotone_invariance(self, rng):
        for _ in range(10):
            sample, idx = random_general_sample(rng, ties=True)
            b = build_rank_table(sample)
            transformed = np.exp(0.3 * sample.values) + sample.values**3
            s2 = build_masked_sample(
                np.where(sample.observed, transformed, 0.0), sample.observed
            )
            assert np.array_equal(b, build_rank_table(s2), equal_nan=True)

    def test_permutation_equivariance(self, rng):
        for _ in range(10):
            sample, idx = random_general_sample(rng, ties=True)
            order = rng.permutation(sample.n)
            shuffled = build_masked_sample(
                np.nan_to_num(sample.values[:, order]), sample.observed[:, order]
            )
            b = build_rank_table(sample)
            assert np.array_equal(build_rank_table(shuffled), b[:, order], equal_nan=True)


def _sample(values, observed):
    return build_masked_sample(np.array(values), np.array(observed, dtype=bool))


class TestSplit:
    """Counts split by case class, from the full sample's one sort."""

    @given(masked_blocks())
    # a -0.0 complete cell of group 1 ties with a 0.0 one-sided cell of group 2
    @example(_sample([[-0.0, -0.0, 0.0], [0.0, 0.0, 0.0]],
                     [[True, True, False], [True, False, True]]))
    # component 1 has no complete cell
    @example(_sample([[1.0, 2.0, 0.0, 1.0], [1.0, 0.0, 1.0, 0.0],
                      [2.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 3.0]],
                     [[1, 1, 0, 1], [1, 0, 1, 0], [1, 1, 1, 0], [0, 1, 0, 1]]))
    # component 0 has no one-sided cell
    @example(_sample([[1.0, 0.0, 0.0, 2.0], [0.0, 3.0, 1.0, 1.0],
                      [1.0, 1.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0]],
                     [[1, 1, 0, 1], [1, 0, 1, 1], [1, 1, 0, 1], [1, 1, 0, 0]]))
    @settings(max_examples=300, deadline=None)
    def test_each_side_equals_its_restricted_sample(self, sample):
        # bit for bit: values, NaN positions and the signs of zeros
        complete = sample.observed[: sample.d] & sample.observed[sample.d:]
        b, own = build_rank_table(sample, split=complete)
        assert b.tobytes() == build_rank_table(sample).tobytes()
        assert own.shape == b.shape and not own.flags.writeable
        assert np.array_equal(np.isnan(own), np.isnan(b))
        try:
            idx = derive_pattern_index(sample)
        except InestimableComponent:
            return
        for method in ("complete", "incomplete"):
            try:
                sub, _ = restrict_method(sample, idx, method)
            except EverythingFiltered:
                continue
            side = np.concatenate([complete, complete]) == (method == "complete")
            keep = (sample.observed & side).any(axis=0)
            table = own[..., keep] + np.where(sub.observed, -0.0, np.nan)
            assert table.tobytes() == build_rank_table(sub).tobytes()

    @pytest.mark.parametrize("side", [False, True])
    def test_a_split_with_one_side_empty_keeps_the_full_counts(self, rng, side):
        sample, _ = random_general_sample(rng, d=3, n=20)
        b, own = build_rank_table(sample, split=np.full((3, 20), side))
        assert own.tobytes() == b.tobytes()

    def test_a_split_that_is_not_a_d_by_n_bool_mask_is_a_dimension_mismatch(self, rng):
        # a transposed mask has as many cells as the right one and once gave
        # other counts without an error; a short one ended in an IndexError
        sample, _ = random_general_sample(rng, d=2, n=8)
        complete = sample.observed[:2] & sample.observed[2:]
        for split in (complete.T, complete[:, :4], complete.astype(np.int8)):
            with pytest.raises(DimensionMismatch):
                build_rank_table(sample, split=split)


def assert_equals_rankdata_per_replicate(values, observed):
    """A block's counts equal each replicate's ``rankdata`` counts, bit for bit."""
    block = build_masked_sample(values, observed)
    b = build_rank_table(block)
    assert b.shape == block.values.shape and not b.flags.writeable
    for r, values_r in enumerate(block.values):
        alone = placement_counts_rankdata(build_masked_sample(values_r, observed))
        assert np.array_equal(b[r], alone, equal_nan=True)
    return b


class TestObservedCellsOnly:
    """Pooled rows hold observed cells only, cut at the largest count and padded."""

    def test_very_unequal_observed_counts(self, rng):
        d, n = 3, 12
        observed = np.zeros((2 * d, n), bool)
        observed[[0, d]] = True  # component 0: every cell, so L = 2n
        observed[1, 0] = observed[d + 1, 1] = True  # component 1: one cell per group
        observed[2, ::2] = observed[d + 2, 1::3] = True
        assert_equals_rankdata_per_replicate(rng.integers(0, 4, (3, 2 * d, n)) * 1.0, observed)

    def test_component_without_group1_cell(self, rng):
        d, n = 2, 5
        observed = np.ones((2 * d, n), bool)
        observed[1] = False  # component 1: group 2 only
        observed[d + 1, 2] = False
        b = assert_equals_rankdata_per_replicate(rng.standard_normal((2, 2 * d, n)), observed)
        assert np.isnan(b[:, 1]).all()
        assert (b[:, d + 1][:, observed[d + 1]] == 0.0).all()

    def test_block_with_every_cell_observed(self, rng):
        d, n = 2, 7
        observed = np.ones((2 * d, n), bool)
        assert_equals_rankdata_per_replicate(rng.integers(0, 3, (4, 2 * d, n)) * 1.0, observed)

    def test_negative_zero_ties_with_zero(self):
        observed = np.array([[True, True, False], [False, True, True]])
        values = np.array([[[-0.0, 1.0, 5.0], [5.0, 0.0, -1.0]],
                           [[0.0, -0.0, 5.0], [5.0, -0.0, 0.0]]])
        b = assert_equals_rankdata_per_replicate(values, observed)
        assert list(b[0, 0, :2]) == [1.5, 2.0] and list(b[0, 1, 1:]) == [0.5, 0.0]
        assert (b[1][observed] == 1.0).all()

    def test_values_at_unobserved_cells_are_ignored(self, rng):
        # the constructor writes NaN into every unobserved cell, so what a
        # caller left there never reaches the counts or the +inf padding
        d, n = 2, 6
        observed = rng.random((2 * d, n)) < 0.5
        observed[:, 0] = observed[0] = True
        values = rng.integers(0, 3, (2, 2 * d, n)) * 1.0
        sample = MaskedSample(values, observed)
        assert np.isnan(sample.values[:, ~observed]).all()
        assert np.array_equal(sample.values[:, observed], values[:, observed])
        other = build_masked_sample(np.where(observed, values, -7.0), observed)
        assert np.array_equal(build_rank_table(other), build_rank_table(sample),
                              equal_nan=True)

    @pytest.mark.parametrize("grid, dims", [("table3", (5,)), ("design1", None),
                                            ("design3", None)])
    def test_first_scenario_of_a_grid(self, grid, dims):
        block = draw_sample(builtin_grid(grid, dims=dims)[0], range(3))
        assert_equals_rankdata_per_replicate(block.values, block.observed)


class TestPlacements:
    def test_hand_example(self):
        obs = np.ones((2, 2), bool)
        s = build_masked_sample([[1.0, 3.0], [2.0, 4.0]], obs)
        idx = derive_pattern_index(s)
        y = placements(build_rank_table(s), idx)
        assert y[1, 0] == pytest.approx(0.5)   # group-2 value 2
        assert y[1, 1] == pytest.approx(1.0)   # group-2 value 4

    def test_separated_groups(self, rng):
        obs = simple_mask(1, 3, 2, 2)
        vals = rng.standard_normal(obs.shape)
        vals[1] += 100.0  # group 2 entirely above group 1
        s = build_masked_sample(vals, obs)
        idx = derive_pattern_index(s)
        y = placements(build_rank_table(s), idx)
        assert np.allclose(y[1][~np.isnan(y[1])], 1.0)
        assert np.allclose(y[0][~np.isnan(y[0])], 0.0)

    def test_mean_placement_half_under_symmetry(self):
        # both groups hold the same value multiset: mean placement must be 1/2
        obs = np.ones((2, 4), bool)
        vals = np.array([[1.0, 2.0, 3.0, 4.0], [4.0, 3.0, 2.0, 1.0]])
        s = build_masked_sample(vals, obs)
        idx = derive_pattern_index(s)
        y = placements(build_rank_table(s), idx)
        assert y[1].mean() == pytest.approx(0.5)
        assert y[0].mean() == pytest.approx(0.5)

    def test_range_on_random_masks(self, rng):
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            y = placements(build_rank_table(sample), idx)
            finite = y[~np.isnan(y)]
            assert (finite >= 0.0).all() and (finite <= 1.0).all()

    def test_mean_placements_reproduce_effect(self, rng):
        """Per component, the effect is the mean group-2 placement and one
        minus the mean group-1 placement."""
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            rt = build_rank_table(sample)
            y = placements(rt, idx)
            p = estimate_effects(rt, idx)
            d = sample.d
            for l in range(d):
                y2 = y[d + l, sample.observed[d + l]]
                y1 = y[l, sample.observed[l]]
                assert y2.mean() == pytest.approx(p[l], abs=1e-12)
                assert 1.0 - y1.mean() == pytest.approx(p[l], abs=1e-12)
