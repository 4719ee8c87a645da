"""Placement counts: for every observed cell, the opposite-group values below it.

A cell's placement count ``b`` is the number of the other group's
observations on its component that are smaller than it, plus half the number
that equal it: the cross-group pairs it wins, ties one half.  ``b / m_other``
is the placement; a component's group-2 counts sum over every pair the
effect averages.  ``b`` is also the pooled minus the within-group midrank.  Tie
detection uses exact floating-point equality (``-0.0`` ties with ``0.0``);
noisy continuous data will in general contain no ties.

Two routes give the counts, bit for bit the same, since each is an exact
half-integer.  When every observed value is an integer and the histograms
need at most two bins per observed cell, they are counted: one histogram
per replicate, table row and case class over the observed range, cumulated,
gives each value the row's cells below it plus half those at it, and a cell
reads it in the opposite group's row.  Other data is sorted, in pooled rows
that hold only observed cells: component ``l``'s row is its observed group-1
cells, then its observed group-2 cells, in column order.  Every row is cut
at the largest observed count over the components,
``L = max_l(m1_l + m2_l)``, and a shorter row is padded with ``+inf``;
observed values are finite, so the padding sorts last and never ties with a
cell that is counted.  Split each sorted row into runs of equal values,
count the group-1 cells inside every run and before it, and give each cell
of a run the opposite group's cells before the run plus half of those inside
it; where no row ties, each cell is a run of its own, and one running count
along each row gives every count.  An unobserved cell is in no pair and
counts +0.0, so a sum over a table's row is a sum over its observed cells.

Either route also counts within each cell's case class on its component,
complete (observed in both groups) or one-sided: the sort from the complete
cells of a run's row before and inside it, a one-sided cell getting its full
count minus its count against the complete cells.  Each class's counts are
those of the sample restricted to that class, bit for bit, so the comparison
methods need no count of their own.

Counting needs the sample alone and never fails.
Placements also take a :class:`~rankeffect.data.PatternIndex`, which exists
only when both groups have data on every component, so the group counts
they divide by are positive.
"""

from collections.abc import Iterator

import numpy as np

from .data import MaskedSample, PatternIndex

__all__ = ["build_rank_table", "placements"]

def build_rank_table(
    sample: MaskedSample, split: bool = False
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Placement count ``b`` of every observed cell within its component.

    Integer data whose histograms fit (see the module) is counted, other
    data sorted.  For the sort, component ``l`` of a replicate is one
    pooled row of its observed cells, group 1 then group 2 in column order,
    cut at ``L``, the most cells any component has observed; a row with
    fewer is padded with ``+inf``, which sorts after every finite value and
    ties with none.  The map from pooled positions to table cells depends
    only on the mask, so every replicate of a block shares it, and one
    ``argsort`` of all pooled rows gives every count.  Returns a read-only
    array shaped like the sample, a block's leading replicate axis included,
    +0.0 where a cell is unobserved: such a cell is in no cross-group pair.
    A group with no observation on a component leaves both groups' rows of
    it zero; such a sample has no pattern index, since
    :func:`~rankeffect.data.derive_pattern_index` rejects it.

    With ``split=True`` the call returns ``(b, own)``, where ``own`` is ``b``
    but for counting only the opposite group's cells in the cell's own case
    class, complete or one-sided, by the same route; the classes come from
    the sample's mask, ``observed[:d] & observed[d:]``.  Each class's counts
    are, bit for bit, those of the sample cut down to that class's cells,
    and every term is an exact half-integer.

    Raises
    ------
    TypeError
        ``split`` is not a bool, as when it is a mask.
    """
    if not isinstance(split, bool):
        raise TypeError(f"split must be True or False, got {type(split).__name__}")
    counted = _counted(sample, split)
    tables = []
    for target, counts in _sorted(sample, split) if counted is None else counted:
        table = np.zeros(sample.values.shape)  # not empty: cells no count reaches stay +0.0
        table.reshape(-1)[target] = counts  # the targets are distinct
        del counts
        if counted is None:  # the sort's padding counts land on unobserved cells: +0.0 them
            table *= sample.observed
        table.setflags(write=False)
        tables.append(table)
    return tuple(tables) if split else tables[0]


def _counted(sample: MaskedSample, split: bool) -> list[tuple[np.ndarray, np.ndarray]] | None:
    """Each table's flat cell indices and counts from histograms, or None for the sort's data."""
    d, n = sample.d, sample.n
    flat = sample.values.reshape(-1, 2 * d * n)
    cells = np.flatnonzero(sample.observed)
    # most non-integer data shows in its first row, and a pack's non-integer
    # parts in their replicates' first observed cells
    row, firsts = flat[0, :n], flat[:, cells[:1]]
    if (np.count_nonzero(np.rint(row) == row) < np.count_nonzero(sample.observed[0])
            or not (np.rint(firsts) == firsts).all()):
        return None
    values = np.take(flat, cells, axis=1)
    if not (np.rint(values) == values).all():
        return None
    classes = 2 if split else 1
    low = float(values.min())
    width = float(values.max()) - low + 1.0  # float: a huge range is inf, not an overflow
    if 2 * d * classes * width > 2 * cells.size:
        return None
    width = int(width)
    span = 2 * d * classes * width  # one replicate's bins
    # a cell's bin: (replicate, table row, class, value - low); -0.0 and 0.0 share one
    bins = (values - low).astype(np.intp)
    del values
    rows = np.repeat(np.arange(2 * d), sample.observed.sum(axis=1))  # each cell's table row
    lane = rows * classes
    if split:
        lane += np.tile(sample.observed[:d] & sample.observed[d:], (2, 1)).ravel()[cells]
    bins += lane * width + span * np.arange(len(bins))[:, None]
    hist = np.bincount(bins.ravel(), minlength=span * len(bins)).reshape(-1, width)
    # a lane's cells below each value plus half those at it: (2 cumsum - hist) / 2
    below = np.cumsum(hist, axis=1)
    below *= 2
    below -= hist
    del hist
    below = below * 0.5  # exact; in ints first, as a float cumsum copies hist
    # the opposite group's lane: d rows on from group 1, d rows back from group 2
    bins += np.where(rows < d, d, -d) * classes * width
    target = cells + 2 * d * n * np.arange(len(bins))[:, None]
    counts = np.take(below, bins)
    if not split:
        return [(target, counts)]
    below = below.reshape(-1, 2, width)
    below[:, 0] += below[:, 1]  # both classes' sum, read at the same bins
    below[:, 1] = below[:, 0]
    return [(target, np.take(below, bins)), (target, counts)]


def _sorted(sample: MaskedSample, split: bool) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each table's flat cell indices and counts from one sort, one table at a time."""
    d, n = sample.d, sample.n
    # source[l, k]: the (2d, n) table cell, as a flat index, at position k of
    # component l's pooled row: observed cells first, then unobserved ones,
    # which stand in for the padding so that its counts land on cells the
    # caller zeroes; a row of L cells always has enough of them
    pooled = sample.observed.reshape(2, d, n).swapaxes(0, 1).reshape(d, 2 * n)
    length = pooled.sum(axis=1)
    width = int(length.max())
    # a copy, so that the 2n-wide order is freed
    source = np.argsort(~pooled, axis=1, kind="stable")[:, :width].copy()
    del pooled
    np.add(source, (d - 1) * n, out=source, where=source >= n)
    source += n * np.arange(d)[:, None]
    padding = np.arange(width) >= length[:, None]
    keys = np.take(sample.values.reshape(-1, 2 * d * n), source, axis=1)
    np.copyto(keys, np.inf, where=padding)
    keys = keys.reshape(-1, width)
    # cell[q, k]: position in pooled row q of its k-th smallest cell ...
    cell = np.argsort(keys, axis=1)
    # the sorted values only mark the runs, which do not depend on how the
    # argsort ordered ties: != ties -0.0 with 0.0, and the padding is +inf
    keys.sort(axis=1)
    new_run = np.empty(keys.shape, dtype=bool)
    np.not_equal(keys[:, 1:], keys[:, :-1], out=new_run[:, 1:])
    new_run[:, :1] = True
    del keys  # per-cell temporaries go as soon as they are used
    # nothing ties when every observed position starts a run
    untied = (new_run.reshape(-1, d, width)[:, :, 1:] | padding[:, 1:]).all()
    # int32 halves the per-cell index arrays wherever the positions fit
    index = np.int32 if new_run.size < 2**31 else np.intp
    # per sorted cell: in group 1; with a split also complete, and complete
    # in group 1
    flags = np.empty((3 if split else 1, cell.size), dtype=bool)
    in_group1 = flags[0].reshape(cell.shape)
    rows = cell.reshape(-1, d, width)
    np.less(rows, sample.observed[:d].sum(axis=1)[:, None], out=in_group1.reshape(rows.shape))
    # ... as a flat index into the (..., 2d, n) table; row q = r * d + l
    rows += width * np.arange(d)[:, None]
    target = np.take(source, cell)
    del cell, rows, source
    if split:
        # padding may fall in either class; its runs come last in their rows
        complete = sample.observed[:d] & sample.observed[d:]
        np.take(np.concatenate([complete, complete]).ravel(), target.ravel(), out=flags[1])
        np.logical_and(flags[0], flags[1], out=flags[2])
    replicates = target.reshape(-1, d * width)
    replicates += 2 * d * n * np.arange(len(replicates))[:, None]
    if untied:
        yield from _untied(target, flags, index)
        return
    # runs of equal values, numbered in flat order; a run never crosses a row
    starts = np.flatnonzero(new_run)
    run = np.cumsum(new_run, dtype=index)
    run -= 1
    run = run.reshape(new_run.shape)
    del new_run
    # flagged cells inside each run, and before it in its row
    inside = np.add.reduceat(flags, starts, axis=1, dtype=run.dtype)
    before = np.cumsum(inside, axis=1, dtype=run.dtype)
    before -= inside
    first = run[:, 0]
    per_row = np.diff(first, append=len(starts))  # runs in each row
    before -= np.repeat(before[:, first], per_row, axis=1)
    # a group-2 cell counts the group-1 cells before its run and half of those
    # inside it, and a group-1 cell the same of group 2, so a run's two counts
    # sum to its offset in the row plus half its length
    counts = np.empty((2, len(starts)))
    np.multiply(inside[0], 0.5, out=counts[0])
    counts[0] += before[0]
    np.subtract(starts[1:], starts[:-1], out=counts[1, :-1])
    counts[1, -1] = target.size - starts[-1]
    counts[1] *= 0.5
    starts -= np.repeat(np.arange(0, target.size, width), per_row)  # offsets in their rows
    counts[1] += starts
    counts[1] -= counts[0]
    del starts, per_row
    if split:
        # the same counts within the complete cells, whose cells before and
        # inside a run give its offset and length there: own[1]; off them, own[0]
        own = np.empty((2, *counts.shape))
        np.multiply(inside[2], 0.5, out=own[1, 0])
        own[1, 0] += before[2]
        np.multiply(inside[1], 0.5, out=own[1, 1])
        own[1, 1] += before[1]
        own[1, 1] -= own[1, 0]
        np.subtract(counts, own[1], out=own[0])
    del inside, before
    # runs index the group-2 cells' counts, runs + len(counts[0]) the group-1 ones
    run += in_group1 * run.dtype.type(counts.shape[1])
    del in_group1
    yield target, counts.ravel()[run]
    if split:
        # own's first half is laid out as counts, its second half for complete cells
        run += flags[1].reshape(run.shape) * run.dtype.type(counts.size)
        yield target, own.ravel()[run]


def _untied(
    target: np.ndarray, flags: np.ndarray, index: type
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """:func:`_sorted`'s tables when no row ties: every cell a run of its own.

    A group-2 cell counts the group-1 cells before it, a group-1 cell the rest.
    """
    in_group1 = flags[0].reshape(target.shape)
    before = np.cumsum(flags.reshape(len(flags), *target.shape), axis=2, dtype=index)
    before -= flags.reshape(before.shape)
    counts = before[0] + in_group1 * (np.arange(target.shape[1], dtype=index) - 2 * before[0])
    yield target, counts
    if len(flags) > 1:
        against = before[2] + in_group1 * (before[1] - 2 * before[2])  # the complete cells
        counts -= against  # one-sided: the full count less the count against them
        counts += flags[1].reshape(counts.shape) * (against - counts)  # complete: that count
        yield target, counts


def placements(b: np.ndarray, idx: PatternIndex) -> np.ndarray:
    """Empirical distribution of the opposite group evaluated at each cell.

    ``y[row, k] = b / m_other`` lies in [0, 1]; it is the weighted empirical
    CDF of the other group's sample at the observed value.  Unobserved cells
    hold 0.0, as in ``b``.  Returns a read-only array shaped like ``b``.
    """
    y = b / np.concatenate([idx.m2, idx.m1])[:, None]
    y.setflags(write=False)
    return y
