import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import rankdata

from rankeffect import (
    build_masked_sample,
    build_rank_table,
    derive_pattern_index,
    estimate_effects,
    midranks,
    placements,
)
from rankeffect.errors import InestimableComponent

from conftest import random_general_sample, simple_mask
from oracles import midranks_bruteforce


class TestMidranks:
    def test_tied_pair(self):
        assert list(midranks([2, 2, 5])) == [1.5, 1.5, 3.0]

    def test_single_element(self):
        assert list(midranks([7])) == [1.0]

    def test_sorted_distinct(self):
        assert list(midranks([1, 2, 3])) == [1.0, 2.0, 3.0]

    def test_empty_sample_gives_empty_array(self):
        ranks = midranks([])
        assert ranks.shape == (0,) and ranks.dtype == float

    @given(st.one_of(
        st.lists(st.integers(-3, 3), max_size=30),
        st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.25]), max_size=30),
        st.lists(st.floats(allow_nan=False), max_size=30),
    ))
    @settings(max_examples=200, deadline=None)
    def test_equals_scipy_rankdata(self, values):
        # exact: midranks are half-integers, and -0.0 ties with 0.0
        assert np.array_equal(midranks(values), rankdata(np.asarray(values, dtype=float)))

    @given(st.lists(st.integers(-3, 3), min_size=1, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_matches_pairwise_definition(self, values):
        assert np.array_equal(midranks(values), midranks_bruteforce(values))

    @given(st.lists(st.integers(-5, 5), min_size=1, max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_rank_sum_identity(self, values):
        n = len(values)
        assert midranks(values).sum() == pytest.approx(n * (n + 1) / 2)

    @given(st.lists(st.integers(-5, 5), min_size=2, max_size=20), st.randoms())
    @settings(max_examples=50, deadline=None)
    def test_permutation_equivariance(self, values, rand):
        order = list(range(len(values)))
        rand.shuffle(order)
        base = midranks(values)
        shuffled = midranks([values[i] for i in order])
        assert np.array_equal(shuffled, base[order])


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


def rankdata_tables(sample):
    """Rank table from per-component ``scipy.stats.rankdata`` calls."""
    d = sample.d
    overall = np.full((2 * d, sample.n), np.nan)
    internal = np.full((2 * d, sample.n), np.nan)
    for l in range(d):
        c1 = np.flatnonzero(sample.observed[l])
        c2 = np.flatnonzero(sample.observed[d + l])
        pooled = rankdata(np.concatenate([sample.values[l, c1], sample.values[d + l, c2]]))
        overall[l, c1], overall[d + l, c2] = pooled[: c1.size], pooled[c1.size:]
        internal[l, c1] = rankdata(sample.values[l, c1])
        internal[d + l, c2] = rankdata(sample.values[d + l, c2])
    return overall, internal


class TestRankTable:
    def test_distinct_complete_case(self):
        obs = np.ones((2, 2), bool)
        s = build_masked_sample([[1.0, 3.0], [2.0, 4.0]], obs)
        idx = derive_pattern_index(s)
        rt = build_rank_table(s)
        assert list(rt.overall[0]) == [1.0, 3.0]
        assert list(rt.overall[1]) == [2.0, 4.0]
        assert list(rt.internal[0]) == [1.0, 2.0]
        assert list(rt.internal[1]) == [1.0, 2.0]

    def test_total_tie_gives_midpoint(self):
        obs = simple_mask(1, 2, 1, 1)
        vals = np.full(obs.shape, 3.0)
        s = build_masked_sample(vals, obs)
        idx = derive_pattern_index(s)
        rt = build_rank_table(s)
        n_pooled = 6
        observed = rt.overall[~np.isnan(rt.overall)]
        assert np.array_equal(observed, np.full(n_pooled, (n_pooled + 1) / 2))

    def test_component_with_no_data(self):
        # ranking leaves the component's rows NaN; the pattern index rejects it
        obs = np.zeros((4, 3), bool)
        obs[0] = True
        obs[2] = True  # var 1 observed in both groups, var 2 nowhere
        s = build_masked_sample(np.zeros((4, 3)), obs)
        rt = build_rank_table(s)
        for table in (rt.overall, rt.internal):
            assert np.isnan(table[[1, 3]]).all() and not np.isnan(table[[0, 2]]).any()
        with pytest.raises(InestimableComponent) as exc:
            derive_pattern_index(s)
        assert exc.value.component == 1

    def test_matches_bruteforce_on_random_masks(self, rng):
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            rt = build_rank_table(sample)
            d = sample.d
            for l in range(d):
                c1 = np.flatnonzero(sample.observed[l])
                c2 = np.flatnonzero(sample.observed[d + l])
                pooled = np.concatenate([sample.values[l, c1], sample.values[d + l, c2]])
                expect = midranks_bruteforce(pooled)
                got = np.concatenate([rt.overall[l, c1], rt.overall[d + l, c2]])
                assert np.array_equal(got, expect)

    @given(masked_samples())
    # component 1: a single group-1 observation against a group with none
    @example(build_masked_sample(
        [[1.0, 2.0, 2.0], [5.0, 0.0, 0.0], [2.0, -0.0, 0.0], [0.0, 0.0, 0.0]],
        [[True, True, True], [True, False, False], [True, True, True], [False, False, False]],
    ))
    @settings(max_examples=300, deadline=None)
    def test_equals_scipy_rankdata_per_component(self, sample):
        # exact: both tables are half-integers; rows without an observation stay NaN
        rt = build_rank_table(sample)
        overall, internal = rankdata_tables(sample)
        assert np.array_equal(rt.overall, overall, equal_nan=True)
        assert np.array_equal(rt.internal, internal, equal_nan=True)
        assert np.isnan(rt.overall[~sample.observed]).all()
        assert np.isnan(rt.internal[~sample.observed]).all()

    def test_rank_sum_identities_on_random_masks(self, rng):
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            rt = build_rank_table(sample)
            d = sample.d
            for l in range(d):
                pooled = np.concatenate([rt.overall[l], rt.overall[d + l]])
                pooled = pooled[~np.isnan(pooled)]
                total = idx.pooled_counts[l]
                assert pooled.sum() == pytest.approx(total * (total + 1) / 2)
                assert pooled.min() > 0.5 and pooled.max() <= total
                for row, m in ((l, idx.m1[l]), (d + l, idx.m2[l])):
                    internal = rt.internal[row][~np.isnan(rt.internal[row])]
                    assert internal.sum() == pytest.approx(m * (m + 1) / 2)

    def test_monotone_invariance(self, rng):
        for _ in range(10):
            sample, idx = random_general_sample(rng, ties=True)
            rt = build_rank_table(sample)
            transformed = np.exp(0.3 * sample.values) + sample.values**3
            s2 = build_masked_sample(
                np.where(sample.observed, transformed, 0.0), sample.observed
            )
            rt2 = build_rank_table(s2)
            assert np.array_equal(rt.overall, rt2.overall, equal_nan=True)
            assert np.array_equal(rt.internal, rt2.internal, equal_nan=True)


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
            p = estimate_effects(sample, idx, rt)
            d = sample.d
            for l in range(d):
                y2 = y[d + l, sample.observed[d + l]]
                y1 = y[l, sample.observed[l]]
                assert y2.mean() == pytest.approx(p[l], abs=1e-12)
                assert 1.0 - y1.mean() == pytest.approx(p[l], abs=1e-12)
