"""A block of replicates gives exactly what its replicates give one at a time.

Every layer takes a block, values with a leading replicate axis on one
shared mask; the Monte Carlo harness relies on each replicate of a block
coming out bit for bit as it would alone.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from rankeffect import (
    analyze,
    anova_test,
    build_masked_sample,
    build_rank_table,
    covariance_general,
    covariance_simple,
    derive_pattern_index,
    estimate_effects,
    wald_test,
)
from rankeffect.errors import InestimableComponent, NoEstimablePart, ZeroCovariance

from conftest import simple_mask
from oracles import wald_statistic_pinv

# ties, signed zeros, and values far apart; ranks see only their order
_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 0.5, 3.75, 1e-300, -1e300, 1e300])


@st.composite
def blocks(draw):
    """2-4 replicates on one mask, treatment-level or per cell; d = 9 now and then."""
    d = draw(st.sampled_from([1, 2, 3, 9]))
    if draw(st.booleans()):
        sizes = draw(st.tuples(*[st.integers(0, 4)] * 3).filter(lambda s: sum(s) >= 2))
        observed = simple_mask(d, *sizes)
    else:
        n = draw(st.integers(2, 6))
        observed = draw(hnp.arrays(bool, (2 * d, n)))
        empty = ~observed.any(axis=0)
        observed[np.flatnonzero(empty) % (2 * d), empty] = True  # every subject has a cell
    reps = draw(st.integers(2, 4))
    values = draw(hnp.arrays(float, (reps, *observed.shape), elements=_VALUES))
    return build_masked_sample(values, observed)


def assert_stacked(block_value, single_values):
    assert np.array_equal(block_value, np.stack(single_values), equal_nan=True)


def assert_same_tests(eff, cov, effs, covs, n):
    for test in (wald_test, anova_test):
        singles = []
        for e, c in zip(effs, covs):
            try:
                singles.append(test(e, c, n))
            except ZeroCovariance:
                singles.append(None)
        if None in singles:
            with pytest.raises(ZeroCovariance):
                test(eff, cov, n)
            continue
        rep = test(eff, cov, n)
        for field in ("statistic", "df", "p_value", "reject"):
            assert_stacked(getattr(rep, field), [getattr(s, field) for s in singles])
        assert rep.flags == tuple(s.flags for s in singles)
        if test is wald_test:
            for e, c, s in zip(effs, covs, singles):
                if c.trace > 0.0:
                    assert s.statistic == wald_statistic_pinv(e - 0.5, c.v_hat, n)


def assert_same_analyses(block, singles):
    per_replicate = [analyze(s) for s in singles]
    if any(
        isinstance(item.skipped, str) and item.skipped.startswith("covariance estimate is zero")
        for items in per_replicate
        for item in items
    ):
        with pytest.raises(ZeroCovariance):
            analyze(block)
        return
    for item, items in zip(analyze(block), zip(*per_replicate)):
        assert item.skipped == items[0].skipped
        assert item.skipped or item.index.n == items[0].index.n
        for family in ("wald", "anova"):
            rep = getattr(item, family)
            for field in ("statistic", "df", "p_value", "reject"):
                assert_stacked(
                    getattr(rep, field), [getattr(getattr(i, family), field) for i in items]
                )
            assert rep.flags == tuple(getattr(i, family).flags for i in items)


@given(blocks())
# replicate 0 is constant: a zero covariance at the null point
@example(build_masked_sample(
    [np.full((2, 4), 1.0), [[1.0, 2.0, 2.0, 0.0], [3.0, -0.0, 0.0, 1.0]]],
    np.ones((2, 4), bool),
))
# d = 9 on three subjects: every covariance is rank deficient
@example(build_masked_sample(
    np.arange(2 * 18 * 3, dtype=float).reshape(2, 18, 3) % 5, np.ones((18, 3), bool),
))
@settings(max_examples=300, deadline=None)
def test_block_equals_its_replicates(block):
    singles = [build_masked_sample(v, block.observed) for v in block.values]
    rt = build_rank_table(block)
    rts = [build_rank_table(s) for s in singles]
    assert_stacked(rt, rts)
    try:
        idx = derive_pattern_index(block)
    except InestimableComponent:
        return
    eff = estimate_effects(rt, idx)
    effs = [estimate_effects(t, idx) for t in rts]
    assert_stacked(eff, effs)
    estimators = [covariance_general] + [covariance_simple] * idx.is_simple_pattern
    for estimator in estimators:
        try:
            cov = estimator(rt, idx)
        except NoEstimablePart:  # a rule on the mask: each replicate breaks it too
            for t in rts:
                with pytest.raises(NoEstimablePart):
                    estimator(t, idx)
            continue
        covs = [estimator(t, idx) for t in rts]
        for field in ("v_hat", "trace", "trace_sq", "nu_hat"):
            assert_stacked(getattr(cov, field), [getattr(c, field) for c in covs])
        assert all(c.degenerate == cov.degenerate for c in covs)
        assert_same_tests(eff, cov, effs, covs, block.n)
    assert_same_analyses(block, singles)


def test_block_of_one_replicate_skips_a_zero_covariance():
    # the per-replicate rule of analyze: a zero covariance off the null
    # point skips the method instead of raising
    values = np.array([[[0.0, 0.0], [1.0, 1.0]]])
    block = build_masked_sample(values, np.ones((2, 2), bool))
    (item,) = analyze(block, methods=("all",))
    assert item.skipped.startswith("covariance estimate is zero")
    assert item.wald.flags == (("inestimable: " + item.skipped,),)
    twice = build_masked_sample(np.concatenate([values, values]), np.ones((2, 2), bool))
    with pytest.raises(ZeroCovariance):
        analyze(twice, methods=("all",))
