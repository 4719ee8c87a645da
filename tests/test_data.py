from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankeffect import (
    MaskedSample,
    PatternIndex,
    build_masked_sample,
    check_assumptions,
    derive_pattern_index,
)
from rankeffect.errors import (
    DimensionMismatch,
    EmptySubject,
    InestimableComponent,
    NonFiniteObservedValue,
)
from rankeffect.simulate import builtin_grid, draw_sample

from conftest import random_general_sample, simple_mask


class TestBuildMaskedSample:
    def test_fully_observed_is_valid_and_simple(self):
        s = build_masked_sample([[1.0, 3.0], [2.0, 4.0]], np.ones((2, 2), bool))
        assert s.d == 1 and s.n == 2
        assert derive_pattern_index(s).is_simple_pattern

    def test_empty_subject_rejected(self):
        obs = np.ones((2, 3), bool)
        obs[:, 1] = False
        with pytest.raises(EmptySubject) as exc:
            build_masked_sample(np.zeros((2, 3)), obs)
        assert exc.value.column == 1

    def test_non_finite_observed_value_rejected(self):
        vals = np.array([[1.0, np.nan], [2.0, 4.0]])
        with pytest.raises(NonFiniteObservedValue):
            build_masked_sample(vals, np.ones((2, 2), bool))

    def test_masked_nan_is_tolerated(self):
        vals = np.array([[1.0, np.inf], [2.0, 4.0]])
        obs = np.array([[True, False], [True, True]])
        s = build_masked_sample(vals, obs)
        assert np.isnan(s.values[0, 1])

    def test_shape_problems_rejected(self):
        with pytest.raises(DimensionMismatch):
            build_masked_sample(np.zeros((2, 3)), np.ones((2, 2), bool))
        with pytest.raises(DimensionMismatch):
            build_masked_sample(np.zeros((3, 4)), np.ones((3, 4), bool))
        with pytest.raises(DimensionMismatch):
            build_masked_sample(np.zeros((2, 1)), np.ones((2, 1), bool))

    def test_masked_cells_are_poisoned(self, rng):
        """Garbage behind the mask cannot influence anything downstream."""
        obs = simple_mask(2, 3, 2, 2)
        vals = rng.standard_normal(obs.shape)
        s1 = build_masked_sample(vals, obs)
        vals2 = vals.copy()
        vals2[~obs] = 1e9
        s2 = build_masked_sample(vals2, obs)
        assert np.array_equal(s1.values, s2.values, equal_nan=True)


class TestBuiltOnlyWhenValid:
    """The constructors run the builders' checks; an unchecked object cannot exist."""

    def test_constructors_take_only_what_cannot_be_derived(self):
        assert [f.name for f in fields(MaskedSample) if f.init] == ["values", "observed"]
        assert [f.name for f in fields(PatternIndex) if f.init] == []  # the mask is an InitVar
        with pytest.raises(TypeError):
            MaskedSample(1, 2, np.zeros((2, 2)), np.ones((2, 2), bool))

    def test_nan_in_an_observed_cell_is_rejected(self, rng):
        # built directly, such a sample once went through analyze to a p-value
        obs = simple_mask(2, 20, 5, 5)
        values = rng.standard_normal(obs.shape)
        values[0, 3] = np.nan
        with pytest.raises(NonFiniteObservedValue):
            MaskedSample(values, obs)

    def test_wrong_shape_is_a_dimension_mismatch(self):
        # a stored d or n that disagreed with the arrays once ended in
        # numpy's reshape ValueError; now both are read from the mask
        with pytest.raises(DimensionMismatch):
            MaskedSample(np.zeros((4, 3)), np.ones((4, 2), bool))
        with pytest.raises(DimensionMismatch):
            MaskedSample(np.zeros((3, 4)), np.ones((3, 4), bool))
        s = MaskedSample(np.zeros((2, 4, 3)), np.ones((4, 3), bool))
        assert (s.d, s.n) == (2, 3)

    def test_a_block_with_no_replicate_is_a_dimension_mismatch(self):
        # such a block, built directly or drawn for an empty range, once
        # reached analyze and ended in an IndexError from the counting
        with pytest.raises(DimensionMismatch):
            MaskedSample(np.zeros((0, 4, 10)), np.ones((4, 10), bool))
        scenario = builtin_grid("design1", reps=2)[0]
        with pytest.raises(DimensionMismatch):
            draw_sample(scenario, range(2, 2))
        assert draw_sample(scenario, range(2, 3)).values.shape[0] == 1

    def test_pattern_index_equals_the_builder(self, rng):
        sample, _ = random_general_sample(rng, d=3, n=15)
        built, derived = PatternIndex(sample.observed), derive_pattern_index(sample)
        assert (built.d, built.n) == (derived.d, derived.n) == (sample.d, sample.n)
        assert built.is_simple_pattern == derived.is_simple_pattern
        for f in fields(PatternIndex):
            np.testing.assert_array_equal(getattr(built, f.name), getattr(derived, f.name))
            assert f.name == "is_simple_pattern" or not getattr(built, f.name).flags.writeable

    def test_pattern_index_takes_a_two_dimensional_even_row_mask(self, rng):
        # the index is built from the mask; a sample in its place, or a mask
        # that is not (2d, n), is refused
        sample, _ = random_general_sample(rng, d=2, n=10)
        for observed in (sample, sample.observed[0], sample.observed[:3],
                         sample.observed[:0], sample.observed[None]):
            with pytest.raises(DimensionMismatch):
                PatternIndex(observed)


class TestDerivePatternIndex:
    def test_table_layout(self):
        obs = simple_mask(2, 1, 1, 1)
        s = build_masked_sample(np.arange(12.0).reshape(4, 3), obs)
        idx = derive_pattern_index(s)
        for l in range(2):
            assert list(np.flatnonzero(idx.complete_mask[l])) == [0]
            assert list(np.flatnonzero(idx.g1_only_mask[l])) == [1]
            assert list(np.flatnonzero(idx.g2_only_mask[l])) == [2]
        assert idx.is_simple_pattern

    def test_cross_component_membership(self):
        # subject observed on (group1, var1) and (group2, var2) only
        obs = np.zeros((4, 2), bool)
        obs[:, 0] = True
        obs[0, 1] = True  # g1 var1
        obs[3, 1] = True  # g2 var2
        s = build_masked_sample(np.arange(8.0).reshape(4, 2), obs)
        idx = derive_pattern_index(s)
        assert idx.g1_only_mask[0, 1] and not idx.g2_only_mask[0, 1]
        assert idx.g2_only_mask[1, 1] and not idx.g1_only_mask[1, 1]
        assert not idx.complete_mask[0, 1] and not idx.complete_mask[1, 1]
        assert not idx.is_simple_pattern

    def test_fully_observed_counts(self, rng):
        obs = np.ones((6, 5), bool)
        s = build_masked_sample(rng.standard_normal((6, 5)), obs)
        idx = derive_pattern_index(s)
        assert (idx.n_complete == 5).all()
        assert (idx.n1_only == 0).all() and (idx.n2_only == 0).all()

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_sets_partition_observed_subjects(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        sample, idx = random_general_sample(rng)
        d = sample.d
        for l in range(d):
            c = set(np.flatnonzero(idx.complete_mask[l]))
            g1 = set(np.flatnonzero(idx.g1_only_mask[l]))
            g2 = set(np.flatnonzero(idx.g2_only_mask[l]))
            assert not (c & g1) and not (c & g2) and not (g1 & g2)
            seen = {
                k for k in range(sample.n)
                if sample.observed[l, k] or sample.observed[d + l, k]
            }
            assert c | g1 | g2 == seen
            assert len(c) == idx.n_complete[l]
            assert len(g1) == idx.n1_only[l]
            assert len(g2) == idx.n2_only[l]
            assert idx.n_complete[l] + idx.n1_only[l] + idx.n2_only[l] <= sample.n

    def test_column_permutation_equivariance(self, rng):
        sample, idx = random_general_sample(rng, d=2, n=12)
        perm = rng.permutation(sample.n)
        s2 = build_masked_sample(sample.values[:, perm], sample.observed[:, perm])
        idx2 = derive_pattern_index(s2)
        inverse = np.argsort(perm)
        for l in range(2):
            for before, after in (
                (idx.complete_mask[l], idx2.complete_mask[l]),
                (idx.g1_only_mask[l], idx2.g1_only_mask[l]),
            ):
                assert set(np.flatnonzero(after)) == {inverse[k] for k in np.flatnonzero(before)}

    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_is_simple_matches_bruteforce_scan(self, data):
        seed = data.draw(st.integers(0, 2**32 - 1))
        rng = np.random.default_rng(seed)
        sample, idx = random_general_sample(rng, p_obs=0.85)
        d = sample.d
        brute = all(
            np.array_equal(idx.complete_mask[l], idx.complete_mask[0])
            and np.array_equal(idx.g1_only_mask[l], idx.g1_only_mask[0])
            and np.array_equal(idx.g2_only_mask[l], idx.g2_only_mask[0])
            for l in range(d)
        )
        assert idx.is_simple_pattern == brute

    @given(
        hnp.arrays(
            bool,
            st.tuples(st.integers(1, 4), st.integers(2, 6)).map(lambda s: (2 * s[0], s[1])),
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_raises_exactly_when_a_group_has_no_data(self, observed):
        empty = ~observed.any(axis=0)
        observed[np.flatnonzero(empty) % len(observed), empty] = True  # every subject has a cell
        s = build_masked_sample(np.zeros(observed.shape), observed)
        d = s.d
        m1, m2 = observed[:d].sum(axis=1), observed[d:].sum(axis=1)
        bad = np.flatnonzero((m1 == 0) | (m2 == 0))
        if bad.size:
            with pytest.raises(InestimableComponent) as exc:
                derive_pattern_index(s)
            l = bad[0]
            group = 1 if m1[l] == 0 else 2
            assert (exc.value.component, exc.value.group) == (l, group)
            assert str(exc.value) == f"effect for component {l} is inestimable (group {group})"
        else:
            idx = derive_pattern_index(s)
            assert np.array_equal(idx.m1, m1) and np.array_equal(idx.m2, m2)


class TestCheckAssumptions:
    def test_single_one_sided_subject_warns(self):
        obs = simple_mask(3, 33, 8, 1)
        s = build_masked_sample(np.arange(obs.size, dtype=float).reshape(obs.shape), obs)
        warnings = check_assumptions(derive_pattern_index(s))
        assert any("group-2-only" in w and "inestimable" in w for w in warnings)

    def test_single_complete_case_warns(self):
        obs = simple_mask(2, 1, 5, 5)
        s = build_masked_sample(np.arange(obs.size, dtype=float).reshape(obs.shape), obs)
        warnings = check_assumptions(derive_pattern_index(s))
        assert sum("a single complete case" in w for w in warnings) == 2

    def test_large_groups_no_warnings(self):
        obs = simple_mask(2, 5, 5, 5)
        s = build_masked_sample(np.arange(obs.size, dtype=float).reshape(obs.shape), obs)
        assert check_assumptions(derive_pattern_index(s)) == []

    def test_small_group_floor_warning(self):
        obs = simple_mask(1, 2, 9, 1)  # m2 = 3 below the floor of 5
        s = build_masked_sample(np.arange(obs.size, dtype=float).reshape(obs.shape), obs)
        warnings = check_assumptions(derive_pattern_index(s))
        assert any("group 2 has only 3 observations" in w for w in warnings)
