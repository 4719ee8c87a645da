"""Placement counts: for every observed cell, the opposite-group values below it.

A cell's placement count ``b`` is the number of the other group's
observations on its component that are smaller than it, plus half the number
that equal it: the cross-group pairs it wins, ties one half.  ``b / m_other``
is the placement; a component's group-2 counts sum over every pair the
effect averages.  ``b`` is also the pooled minus the within-group midrank.  Tie
detection uses exact floating-point equality (``-0.0`` ties with ``0.0``);
noisy continuous data will in general contain no ties.

Every route gives the same bits, since each count is an exact
half-integer.  Counts come from histograms, one per replicate, table row and
case class over a range of small integers: cumulated, a histogram gives each
integer the row's cells below it plus half those at it, and a cell reads it
at its own integer in the opposite group's row.  When every observed value
is an integer and the histograms need at most two bins per observed cell,
the integers are the values.  Other data is sorted, in pooled rows that
hold only observed cells: component ``l``'s row is its observed group-1
cells, then its observed group-2 cells, in column order.  Every row is cut
at the largest observed count over the components,
``L = max_l(m1_l + m2_l)``, and a shorter row is padded with ``+inf``;
observed values are finite, so the padding sorts last and never ties with a
cell that is counted.  A cell's run of equal values in its sorted row,
numbered from 0, orders and ties it as its value does, and is its integer;
where no row ties, each cell is a run of its own, and one running count
along each row gives every count.  An unobserved cell is in no pair and
counts +0.0, so a sum over a table's row is a sum over its observed cells.

Every route also counts within each cell's case class on its component,
complete (observed in both groups) or one-sided: the histograms from the
cells of one class, whose sum gives the full counts; the running count from
the complete cells before each cell, a one-sided cell getting its full count
minus its count against the complete cells.  Each class's counts are those
of the sample restricted to that class, bit for bit, so the comparison
methods need no count of their own.

Counting needs the sample alone and never fails.
Placements also take a :class:`~rankeffect.data.PatternIndex`, which exists
only when both groups have data on every component, so the group counts
they divide by are positive.
"""

from collections.abc import Iterable, Iterator

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
    ``argsort`` of all pooled rows gives every count: each cell's run of
    equal values in its sorted row is counted as integer data is.  Returns a read-only
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
    """:func:`_tally` of integer data whose histograms fit, or None for the sort's data."""
    d, n = sample.d, sample.n
    flat = sample.values.reshape(-1, 2 * d * n)
    # most non-integer data shows in its first row, and a pack's non-integer
    # parts in their replicates' first observed cells
    row, firsts = flat[0, :n], flat[:, np.argmax(sample.observed)]
    if (np.count_nonzero(np.rint(row) == row) < np.count_nonzero(sample.observed[0])
            or not (np.rint(firsts) == firsts).all()):
        return None
    cells = np.flatnonzero(sample.observed)
    values = np.take(flat, cells, axis=1)
    if not (np.rint(values) == values).all():
        return None
    low = float(values.min())
    width = float(values.max()) - low + 1.0  # float: a huge range is inf, not an overflow
    if 2 * d * (2 if split else 1) * width > 2 * cells.size:
        return None
    values -= low  # -0.0 and 0.0 share one value
    values = values.astype(np.intp)
    return _tally(sample, split, cells, values, int(width))


def _sorted(sample: MaskedSample, split: bool) -> Iterable[tuple[np.ndarray, np.ndarray]]:
    """:func:`_tally` of each cell's run in its sorted row, or :func:`_untied` where nothing ties."""
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
    new_run[:, :1] = False  # so that the runs, summed, are numbered from 0
    del keys  # per-cell temporaries go as soon as they are used
    # ... as a flat index into the (2d, n) table; row q = r * d + l
    rows = cell.reshape(-1, d, width)
    rows += width * np.arange(d)[:, None]
    target = np.take(source, cell)
    del cell, rows, source
    # some row ties where an observed position other than its first starts no run
    if not (new_run.reshape(-1, d, width)[:, :, 1:] | padding[:, 1:]).all():
        # a cell's run of equal values in its sorted row, numbered from 0,
        # orders and ties it as its value does
        run = new_run.astype(np.intp)  # then summed in place: a cumsum of bools copies them
        np.cumsum(run, axis=1, out=run)
        return _tally(sample, split, target.reshape(-1, d * width), run.reshape(-1, d * width),
                      int(run[:, -1].max()) + 1)
    # int32 halves the per-cell index arrays wherever the positions fit
    index = np.int32 if new_run.size < 2**31 else np.intp
    # per sorted cell: in group 1, the table's first d rows; with a split
    # also complete, and complete in group 1.  The padding, last in its row,
    # may fall in either group and class, and counts only padding after it
    flags = np.empty((3 if split else 1, target.size), dtype=bool)
    np.less(target.ravel(), d * n, out=flags[0])
    if split:
        complete = sample.observed[:d] & sample.observed[d:]
        np.take(np.concatenate([complete, complete]).ravel(), target.ravel(), out=flags[1])
        np.logical_and(flags[0], flags[1], out=flags[2])
    replicates = target.reshape(-1, d * width)
    replicates += 2 * d * n * np.arange(len(replicates))[:, None]
    return _untied(target, flags, index)


def _tally(
    sample: MaskedSample, split: bool, cells: np.ndarray, bins: np.ndarray, width: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each table's flat cell indices and counts from histograms.

    ``bins[r, j]``, in ``range(width)``, orders and ties cell ``cells[j]``,
    or ``cells[r, j]``, a flat index into the (2d, n) table, of replicate
    ``r`` among the cells of its component as its value does; it becomes the
    cell's bin in place.
    """
    d, n = sample.d, sample.n
    classes = 2 if split else 1
    span = 2 * d * classes * width  # one replicate's bins
    # a cell's bin: (replicate, table row, class, value)
    lane = cells // n
    if split:
        lane *= 2
        lane += np.tile(sample.observed[:d] & sample.observed[d:], (2, 1)).ravel()[cells]
    lane *= width
    bins += lane
    del lane
    bins += span * np.arange(len(bins))[:, None]
    hist = np.bincount(bins.ravel(), minlength=span * len(bins)).reshape(-1, width)
    # a lane's cells below each value plus half those at it: (2 cumsum - hist) / 2
    below = np.cumsum(hist, axis=1)
    below *= 2
    below -= hist
    del hist
    # exact; in ints first, as a float cumsum copies hist.  The table's row
    # halves swapped: a cell's own bin reads the opposite group's lane
    below = below.reshape(-1, 2, span // 2)[:, ::-1] * 0.5
    # flat indices into the block; a lone replicate's are the cells, not a copy
    target = cells + 2 * d * n * np.arange(len(bins))[:, None] if len(bins) > 1 else cells
    del cells
    if not split:
        return [(target, np.take(below, bins))]
    own = np.take(below, bins)
    below = below.reshape(-1, 2, width)
    below[:, 0] += below[:, 1]  # both classes' sum, read at the same bins
    below[:, 1] = below[:, 0]
    return [(target, np.take(below, bins)), (target, own)]


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
