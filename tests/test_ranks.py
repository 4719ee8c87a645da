import contextlib

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
from rankeffect import ranks, simulate
from rankeffect.errors import EverythingFiltered, InestimableComponent
from rankeffect.simulate import builtin_grid, draw_sample, run_grid

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
def masks(draw):
    """Per-cell masks, small enough that single-observation and empty groups are common."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(2, 8))
    observed = np.array(draw(st.lists(st.booleans(), min_size=2 * d * n, max_size=2 * d * n)))
    observed = observed.reshape(2 * d, n)
    empty = ~observed.any(axis=0)
    observed[np.flatnonzero(empty) % (2 * d), empty] = True  # every subject has a cell
    return observed


@st.composite
def masked_samples(draw, cell_values=_CELL_VALUES):
    """A ``masks`` mask with values drawn from ``cell_values``."""
    observed = draw(masks())
    values = np.array(draw(st.lists(cell_values, min_size=observed.size, max_size=observed.size)))
    return build_masked_sample(values.reshape(observed.shape), observed)


@st.composite
def masked_blocks(draw, cell_values=_CELL_VALUES):
    """A ``masked_samples`` sample, or a block of one to four replicates on its mask."""
    sample = draw(masked_samples(cell_values))
    reps = draw(st.integers(0, 4))
    if not reps:
        return sample
    size = (reps - 1) * sample.values.size
    values = np.array(draw(st.lists(cell_values, min_size=size, max_size=size)))
    block = np.concatenate([sample.values[None], values.reshape(reps - 1, *sample.values.shape)])
    return build_masked_sample(block, sample.observed)


def assert_zero_form(b, expected, observed):
    """``b`` is ``expected`` on the observed cells and +0.0 off them, bit for bit.

    ``expected`` is an oracle's table, NaN where a cell is unobserved.
    """
    assert b.tobytes() == np.where(observed, expected, 0.0).tobytes()


def both_routes(sample, split=False):
    """``build_rank_table(sample, split)``, equal bit for bit to the sort's on integer data.

    Shifting small integers by +0.25 is exact and keeps their order and
    ties, and makes them non-integers, so the shifted sample is sorted
    whichever route ``sample`` takes.
    """
    tables = build_rank_table(sample, split)
    seen = sample.values[..., sample.observed]
    if (np.rint(seen) == seen).all() and (np.abs(seen) < 2.0**50).all():
        shifted = build_rank_table(MaskedSample(sample.values + 0.25, sample.observed), split)
        assert np.array(tables).tobytes() == np.array(shifted).tobytes()
    return tables


class TestRankTable:
    def test_distinct_complete_case(self):
        obs = np.ones((2, 2), bool)
        s = build_masked_sample([[1.0, 3.0], [2.0, 4.0]], obs)
        b = both_routes(s)
        assert list(b[0]) == [0.0, 1.0]
        assert list(b[1]) == [1.0, 2.0]

    def test_total_tie_gives_midpoint(self):
        # every cell ties with all three cells of the other group
        obs = simple_mask(1, 2, 1, 1)
        vals = np.full(obs.shape, 3.0)
        s = build_masked_sample(vals, obs)
        b = both_routes(s)
        assert np.array_equal(b[obs], np.full(6, 1.5))

    def test_component_with_no_data(self):
        # counting leaves the component's rows +0.0; the pattern index rejects it
        obs = np.zeros((4, 3), bool)
        obs[0] = True
        obs[2] = True  # var 1 observed in both groups, var 2 nowhere
        s = build_masked_sample(np.zeros((4, 3)), obs)
        b = both_routes(s)
        assert not b[[1, 3]].view(np.uint64).any() and (b[[0, 2]] == 1.5).all()
        with pytest.raises(InestimableComponent) as exc:
            derive_pattern_index(s)
        assert exc.value.component == 1

    def test_matches_bruteforce_on_random_masks(self, rng):
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            b = both_routes(sample)
            assert_zero_form(b, placement_counts_bruteforce(sample), sample.observed)

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
        # exact: counts are half-integers; unobserved cells count +0.0
        b = both_routes(sample)
        assert_zero_form(b, placement_counts_rankdata(sample), sample.observed)

    def test_rank_sum_identities_on_random_masks(self, rng):
        # every cross-group pair adds 1 to one side or 1/2 to both
        for _ in range(30):
            sample, idx = random_general_sample(rng)
            b = both_routes(sample)
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
            b = both_routes(sample)
            transformed = np.exp(0.3 * sample.values) + sample.values**3
            s2 = build_masked_sample(
                np.where(sample.observed, transformed, 0.0), sample.observed
            )
            assert b.tobytes() == both_routes(s2).tobytes()

    def test_permutation_equivariance(self, rng):
        for _ in range(10):
            sample, idx = random_general_sample(rng, ties=True)
            order = rng.permutation(sample.n)
            shuffled = build_masked_sample(
                np.nan_to_num(sample.values[:, order]), sample.observed[:, order]
            )
            b = both_routes(sample)
            assert both_routes(shuffled).tobytes() == b[:, order].tobytes()


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
        # bit for bit: values and the signs of zeros
        b, own = both_routes(sample, split=True)
        assert b.tobytes() == both_routes(sample).tobytes()
        assert own.shape == b.shape and not own.flags.writeable
        assert not own[..., ~sample.observed].view(np.uint64).any()
        complete = sample.observed[: sample.d] & sample.observed[sample.d:]
        for method in ("complete", "incomplete"):
            try:
                sub, _ = restrict_method(sample, method)
            except (InestimableComponent, EverythingFiltered):
                continue
            side = np.concatenate([complete, complete]) == (method == "complete")
            keep = (sample.observed & side).any(axis=0)
            table = own[..., keep] * sub.observed
            assert table.tobytes() == both_routes(sub).tobytes()

    @pytest.mark.parametrize("side", [False, True])
    def test_a_split_with_one_side_empty_keeps_the_full_counts(self, rng, side):
        # every cell complete, or every cell one-sided, with ties
        group1 = rng.random((3, 20)) < 0.5
        observed = np.concatenate([group1 | side, ~group1 | side])
        sample = build_masked_sample(rng.integers(0, 6, (2, 6, 20)).astype(float), observed)
        b, own = both_routes(sample, split=True)
        assert own.tobytes() == b.tobytes()

    @pytest.mark.parametrize("leading", [(), (3,)], ids=["single", "block-of-3"])
    def test_unobserved_cells_count_positive_zero(self, rng, leading):
        # components observed 20, 9 and 5 times: the padding of the two
        # shorter pooled rows lands on their unobserved cells
        d, n = 3, 10
        observed = np.zeros((2 * d, n), bool)
        observed[[0, d]] = True
        observed[1, :4] = observed[d + 1, 3:8] = True
        observed[2, ::3] = observed[d + 2, 5] = True
        values = rng.integers(-2, 3, leading + observed.shape) * -1.0  # ties, and -0.0
        sample = build_masked_sample(values, observed)
        for table in both_routes(sample, split=True):
            assert not table[..., ~observed].view(np.uint64).any()

    def test_a_mask_as_split_is_a_type_error(self, rng):
        # another sample's complete mask, a (d, n) bool array like the
        # sample's own, once counted the sample on the other's case classes
        sample, _ = random_general_sample(rng, d=2, n=8)
        other, _ = random_general_sample(rng, d=2, n=8)
        for split in (other.observed[:2] & other.observed[2:], None, 1):
            with pytest.raises(TypeError):
                build_rank_table(sample, split=split)


def assert_equals_rankdata_per_replicate(values, observed):
    """A block's counts equal each replicate's ``rankdata`` counts, bit for bit."""
    block = build_masked_sample(values, observed)
    b = both_routes(block)
    assert b.shape == block.values.shape and not b.flags.writeable
    for r, values_r in enumerate(block.values):
        alone = placement_counts_rankdata(build_masked_sample(values_r, observed))
        assert_zero_form(b[r], alone, observed)
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
        assert not b[:, 1].view(np.uint64).any()
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
        assert both_routes(other).tobytes() == both_routes(sample).tobytes()

    @pytest.mark.parametrize("grid, dims", [("table3", (5,)), ("design1", None),
                                            ("design3", None)])
    def test_first_scenario_of_a_grid(self, grid, dims):
        block = draw_sample(builtin_grid(grid, dims=dims)[0], range(3))
        assert_equals_rankdata_per_replicate(block.values, block.observed)


@contextlib.contextmanager
def routes():
    """Record, for each ``build_rank_table`` call, whether it counted (True) or sorted."""
    taken = []
    counted = ranks._counted

    def spy(sample, split):
        result = counted(sample, split)
        taken.append(result is not None)
        return result

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranks, "_counted", spy)
        yield taken


@contextlib.contextmanager
def sort_routes():
    """Record, for each sorting ``build_rank_table`` call, whether nothing tied (True)."""
    taken = []
    sort, untied = ranks._sorted, ranks._untied

    def sort_spy(sample, split):
        taken.append(False)
        return sort(sample, split)

    def untied_spy(*args):
        taken[-1] = True
        return untied(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ranks, "_sorted", sort_spy)
        patch.setattr(ranks, "_untied", untied_spy)
        yield taken


def fits_histograms(sample, split):
    """The counting route's condition: at most two bins per observed cell."""
    seen = sample.values[..., sample.observed]
    width = seen.max() - seen.min() + 1.0
    return 2 * sample.d * (2 if split else 1) * width <= 2 * sample.observed.sum()


class TestRoutes:
    """Integer data is counted from histograms, other data sorted, with the same bits."""

    @given(
        st.one_of(
            masked_blocks(st.one_of(st.integers(-3, 3).map(float), st.just(-0.0))),
            masked_blocks(st.sampled_from([0.0, 1e6])),  # a range too wide to count
        ),
        st.booleans(),
    )
    # -0.0 ties with 0.0 across the groups and the case classes
    @example(_sample([[-0.0, -0.0, 0.0], [0.0, 0.0, -0.0]],
                     [[True, True, False], [True, False, True]]), True)
    # component 1 has no complete cell, component 0 no one-sided one
    @example(_sample([[1.0, 0.0, 0.0, 2.0], [1.0, 0.0, 1.0, 0.0],
                      [2.0, 1.0, 1.0, 0.0], [0.0, 1.0, 0.0, 3.0]],
                     [[1, 1, 0, 1], [1, 0, 1, 0], [1, 1, 0, 1], [0, 1, 0, 1]]), True)
    # one replicate whose two values are a million apart
    @example(_sample([[0.0, 1e6], [1e6, 0.0]], np.ones((2, 2), bool)), False)
    @settings(max_examples=300, deadline=None)
    def test_counting_equals_sorting(self, sample, split):
        with routes() as taken:
            tables = both_routes(sample, split)
        # the sample takes the route its data picks; the shifted copy is sorted
        assert taken == [fits_histograms(sample, split), False]
        b = tables[0] if split else tables
        if split:
            assert b.tobytes() == both_routes(sample).tobytes()
        for r, values_r in enumerate(sample.values.reshape(-1, *sample.observed.shape)):
            alone = placement_counts_rankdata(build_masked_sample(values_r, sample.observed))
            assert_zero_form(b.reshape(-1, *b.shape[-2:])[r], alone, sample.observed)

    def test_a_wide_range_is_sorted_and_a_narrow_one_counted(self):
        # 8 observed cells, d = 1: 2 * width bins, 4 * width with a split, fit in 16
        observed = np.ones((2, 4), bool)
        for top, split, counted in [(7.0, False, True), (8.0, False, False),
                                    (3.0, True, True), (4.0, True, False), (2.5, False, False)]:
            values = np.array([[0.0, 1.0, 1.0, top], [1.0, 0.0, 0.0, 1.0]])
            with routes() as taken:
                build_rank_table(build_masked_sample(values, observed), split)
            assert taken == [counted]


    def test_a_pack_with_a_non_integer_part_is_sorted_before_the_gather(self, monkeypatch):
        # the first replicate is integral; the second's first observed cell is not
        observed = np.ones((2, 4), bool)
        values = np.array([[[0.0, 1.0, 2.0, 3.0], [1.0, 0.0, 3.0, 2.0]],
                           [[0.5, 1.0, 2.0, 3.0], [1.0, 0.0, 3.0, 2.0]]])
        sample = build_masked_sample(values, observed)

        def no_gather(*args, **kwargs):
            raise AssertionError("the integrality check gathered every observed value")

        monkeypatch.setattr(ranks.np, "take", no_gather)
        assert ranks._counted(sample, False) is None


@st.composite
def untied_blocks(draw):
    """A ``masks`` mask with one to four replicates of distinct non-integer values.

    The values are a permutation of ``k + 1/4`` around zero, so no two cells
    of a block tie and the block is sorted, never counted.
    """
    observed = draw(masks())
    size = draw(st.integers(1, 4)) * observed.size
    order = np.array(draw(st.permutations(range(size))), dtype=float)
    return build_masked_sample((order - size // 2 + 0.25).reshape(-1, *observed.shape), observed)


class TestUntiedRows:
    """Rows with no tie take the untied route, with the run route's bits."""

    @given(untied_blocks(), st.booleans(), st.sampled_from(["value", "signed zero"]), st.data())
    # components observed 7 and 2 times: the second pooled row is padded
    @example(_sample([[[0.25, 3.25, -1.75, 2.25, 1.25], [4.25, 0.0, 0.0, 0.0, 0.0],
                       [5.25, -0.75, 6.25, 7.25, 8.25], [9.25, 0.0, 0.0, 0.0, 0.0]]],
                     [[1, 1, 1, 1, 1], [1, 0, 0, 0, 0], [0, 1, 1, 0, 0], [0, 1, 0, 0, 0]]),
             True, "signed zero", None)
    @settings(max_examples=200, deadline=None)
    def test_untied_counts_equal_the_run_routes(self, sample, split, tie, data):
        with sort_routes() as taken:
            tables = build_rank_table(sample, split)
        assert taken == [True]
        observed, d = sample.observed, sample.d
        values = sample.values.reshape(-1, *observed.shape)
        b = (tables[0] if split else tables).reshape(values.shape)
        for r, values_r in enumerate(values):
            alone = placement_counts_rankdata(build_masked_sample(values_r, observed))
            assert_zero_form(b[r], alone, observed)
        # one tie in one row of one more replicate sends the block down the run route
        pairs = [(l, cells) for l in range(d)
                 if len(cells := np.flatnonzero(observed[[l, d + l]].ravel())) > 1]
        if not pairs:
            return
        if data is None:  # the example: the padded row's two cells
            (l, cells), (x, y) = pairs[-1], pairs[-1][1][:2]
        else:
            l, cells = data.draw(st.sampled_from(pairs))
            x, y = data.draw(st.lists(st.sampled_from(cells), min_size=2, max_size=2, unique=True))
        tied = values[-1].copy()
        rows = tied[[l, d + l]].ravel()
        rows[x], rows[y] = (rows[y], rows[y]) if tie == "value" else (-0.0, 0.0)
        tied[[l, d + l]] = rows.reshape(2, -1)
        block = build_masked_sample(np.concatenate([values, tied[None]]), observed)
        with sort_routes() as taken:
            runs = build_rank_table(block, split)
        assert taken == [False]
        for untied_table, run_table in zip(tables, runs) if split else [(tables, runs)]:
            cut = run_table.reshape(-1, *observed.shape)[: len(values)]
            assert cut.tobytes() == untied_table.reshape(cut.shape).tobytes()
        last = (runs[0] if split else runs).reshape(-1, *observed.shape)[-1]
        assert_zero_form(last, placement_counts_rankdata(build_masked_sample(tied, observed)),
                         observed)


class TestRouteChoice:
    """Which blocks of the built-in grids, at 50 replicates, are counted."""

    @staticmethod
    def block_routes(monkeypatch, grid):
        """``(distributions, counted)`` per block of ``grid`` run at 50 replicates, seed 1.

        ``analyze`` is cut down to its rank-table call, so that the blocks are
        ``run_grid``'s own, in one process.
        """
        blocks = []
        run_pack = simulate._run_pack

        def recorded(pack):
            blocks.append({scenario.distribution for _, scenario, _ in pack})
            return run_pack(pack)

        def rank_tables_only(sample, alpha, methods):
            build_rank_table(sample, split=any(method != "all" for method in methods))
            return []

        monkeypatch.setenv("RANK_EFFECT_THREADS", "1")
        monkeypatch.setattr(simulate, "_run_pack", recorded)
        monkeypatch.setattr(simulate, "analyze", rank_tables_only)
        with routes() as taken:
            run_grid(builtin_grid(grid, reps=50), master_seed=1)
        assert len(taken) == len(blocks)
        return list(zip(blocks, taken))

    @pytest.mark.parametrize("grid, count", [("table3", 12), ("table6", 4)])
    def test_every_block_of_the_normal_grids_is_counted(self, monkeypatch, grid, count):
        assert self.block_routes(monkeypatch, grid) == [({"normal"}, True)] * count

    def test_a_design3_block_with_cauchy_or_lognormal_draws_is_sorted(self, monkeypatch):
        # a block holds one distribution's draws, and only normal ones are
        # counted; no lognormal or Cauchy block ties
        with sort_routes() as untied:
            blocks = self.block_routes(monkeypatch, "design3")
        assert all(len(distributions) == 1 for distributions, _ in blocks)
        assert [counted for _, counted in blocks] == [
            distributions == {"normal"} for distributions, _ in blocks
        ]
        assert sum(counted for _, counted in blocks) == 15 and len(blocks) == 45
        assert untied == [True] * 30

    def test_two_decimal_data_is_sorted(self, rng):
        # the analyze_wide benchmark's kind of data: normal values to two decimals
        observed = rng.random((6, 400)) < 0.7
        observed[0] = True
        sample = build_masked_sample(np.round(rng.standard_normal((6, 400)), 2), observed)
        with routes() as taken:
            build_rank_table(sample)
            build_rank_table(sample, split=True)
        assert taken == [False, False]


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
        assert np.allclose(y[1][obs[1]], 1.0)
        assert np.allclose(y[0][obs[0]], 0.0)

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
            seen = y[sample.observed]
            assert (seen >= 0.0).all() and (seen <= 1.0).all()
            assert not y[~sample.observed].view(np.uint64).any()

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
