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
    CovarianceEstimate,
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
from rankeffect.errors import InestimableComponent, NoEstimablePart

from conftest import simple_mask
from oracles import wald_statistic_pinv

# ties, signed zeros, and values far apart; ranks see only their order
_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 0.5, 3.75, 1e-300, -1e300, 1e300])


@st.composite
def blocks(draw, d=None, reps=None):
    """2-4 replicates on one mask, treatment-level or per cell; d = 9 now and then.

    ``d`` and ``reps`` fix the dimension and the replicate count, so that
    blocks on masks of their own give estimates of one shape.
    """
    d = d or draw(st.sampled_from([1, 2, 3, 9]))
    if draw(st.booleans()):
        sizes = draw(st.tuples(*[st.integers(0, 4)] * 3).filter(lambda s: sum(s) >= 2))
        observed = simple_mask(d, *sizes)
    else:
        n = draw(st.integers(2, 6))
        observed = draw(hnp.arrays(bool, (2 * d, n)))
        empty = ~observed.any(axis=0)
        observed[np.flatnonzero(empty) % (2 * d), empty] = True  # every subject has a cell
    reps = reps or draw(st.integers(2, 4))
    values = draw(hnp.arrays(float, (reps, *observed.shape), elements=_VALUES))
    return build_masked_sample(values, observed)


def assert_stacked(block_value, single_values):
    assert np.array_equal(block_value, np.stack(single_values), equal_nan=True)


def assert_same_report(got, want):
    """Field for field, plain Python values for a single dataset included."""
    assert (got.family, got.flags) == (want.family, want.flags)
    for field in ("statistic", "df", "p_value", "reject"):
        a, b = getattr(got, field), getattr(want, field)
        assert type(a) is type(b)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype and not a.flags.writeable
        assert np.array_equal(a, b, equal_nan=True)


def assert_stacked_tests(covs):
    """A stacked call gives each estimate's own reports."""
    for test in (wald_test, anova_test):
        stacked = test(covs)
        assert isinstance(stacked, list) and len(stacked) == len(covs)
        for got, cov in zip(stacked, covs):
            assert_same_report(got, test(cov))


def assert_same_tests(cov, effs, covs):
    for test in (wald_test, anova_test):
        singles = [test(c) for c in covs]
        rep = test(cov)
        for field in ("statistic", "df", "p_value", "reject"):
            assert_stacked(getattr(rep, field), [getattr(s, field) for s in singles])
        assert rep.flags == tuple(s.flags for s in singles)
        if test is wald_test:
            for e, c, s in zip(effs, covs, singles):
                if c.trace > 0.0:
                    assert s.statistic == wald_statistic_pinv(e - 0.5, c.v_hat, c.n)
    assert_stacked_tests(covs)
    assert_stacked_tests([cov, cov])


def assert_same_analyses(block, singles):
    per_replicate = [analyze(s) for s in singles]
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
# replicate 0 separates the groups, replicate 1 does not: a zero covariance
# off the null point leaves replicate 0's tests undefined and 1's intact
@example(build_masked_sample(
    [np.repeat([[0.0, 1.0, 2.0, 3.0], [10.0, 11.0, 12.0, 13.0]], 2, axis=0),
     [[0.0, 3.0, 1.0, 2.0], [2.0, 1.0, 0.0, 3.0], [1.0, 0.0, 3.0, 2.0], [3.0, 2.0, 2.0, 0.0]]],
    np.ones((4, 4), bool),
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
        for field in ("p_hat", "v_hat", "trace", "trace_sq", "nu_hat"):
            assert_stacked(getattr(cov, field), [getattr(c, field) for c in covs])
        assert all(c.degenerate == cov.degenerate for c in covs)
        assert_same_tests(cov, effs, covs)
    assert_same_analyses(block, singles)


def estimates_of(sample):
    """Every estimate of ``sample``: none if it is inestimable."""
    try:
        idx = derive_pattern_index(sample)
    except InestimableComponent:
        return []
    b = build_rank_table(sample)
    covs = []
    for estimator in [covariance_general] + [covariance_simple] * idx.is_simple_pattern:
        try:
            covs.append(estimator(b, idx))
        except NoEstimablePart:
            pass
    return covs


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_stack_of_blocks_on_their_own_masks(data):
    # a stack mixes masks, so its estimates' flags and zero rows differ
    first = data.draw(blocks())
    d, reps = first.observed.shape[0] // 2, first.values.shape[0]
    samples = [first] + data.draw(st.lists(blocks(d, reps), max_size=2))
    covs = [cov for sample in samples for cov in estimates_of(sample)]
    if covs:
        assert_stacked_tests(covs)
    singles = [build_masked_sample(s.values[0], s.observed) for s in samples]
    covs = [cov for sample in singles for cov in estimates_of(sample)]
    if covs:
        assert_stacked_tests(covs)


def test_stack_of_every_special_case():
    # each estimate alone takes another branch of the tests
    cases = [
        ([0.5, 0.5], np.zeros((2, 2)), ()),               # zero covariance at the null point
        ([0.7, 0.5], np.zeros((2, 2)), ()),               # zero covariance off the null point
        ([0.6, 0.4], np.ones((2, 2)), ()),                # rank 1 of 2: pseudo-inverse
        ([0.6, 0.4], [[1.0, 3.0], [3.0, 1.0]], ()),       # indefinite: negative form clamped
        ([0.6, 0.45], np.eye(2), ("single-subject intersection",)),  # other flags
        ([0.6, 0.45], [[2.0, 0.5], [0.5, 1.0]], ()),      # a plain full-rank estimate
    ]
    covs = [CovarianceEstimate(np.array(p), np.array(v, float), "general", 20 + k, flags)
            for k, (p, v, flags) in enumerate(cases)]
    reports = {test: [test(c) for c in covs] for test in (wald_test, anova_test)}
    assert reports[wald_test][0].flags == ("zero-covariance-null",)
    assert np.isnan(reports[wald_test][1].statistic)
    assert reports[wald_test][2].df == 1.0
    assert reports[wald_test][3].flags[-1].startswith("negative quadratic form")
    assert reports[anova_test][4].flags == ("single-subject intersection",)
    assert_stacked_tests(covs)
    assert_stacked_tests(covs[::-1])
    # the same cases as blocks of 3, each with a shifted replicate besides
    block = [CovarianceEstimate(np.stack([c.p_hat, c.p_hat, c.p_hat + 0.01]),
                                np.stack([c.v_hat, c.v_hat + np.eye(2), c.v_hat]),
                                "general", c.n, c.degenerate) for c in covs]
    assert_stacked_tests(block)


def test_block_of_one_replicate_skips_a_zero_covariance():
    # a zero covariance off the null point leaves the replicate's tests
    # undefined and skips no method, in a block of one and of two alike
    values = np.array([[[0.0, 0.0], [1.0, 1.0]]])
    flag = "inestimable: covariance estimate is zero while the effect deviates from one half"
    for reps in (1, 2):
        block = build_masked_sample(np.repeat(values, reps, axis=0), np.ones((2, 2), bool))
        (item,) = analyze(block, methods=("all",))
        assert item.skipped is None
        assert np.array_equal(item.effects, np.ones((reps, 1)))
        for rep in (item.wald, item.anova):
            assert np.isnan([rep.statistic, rep.df, rep.p_value]).all()
            assert not rep.reject.any()
            assert rep.flags == ((flag,),) * reps
