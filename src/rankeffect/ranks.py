"""Placement counts: for every observed cell, the opposite-group values below it.

A cell's placement count ``b`` is the number of the other group's
observations on its component that are smaller than it, plus half the number
that equal it: the cross-group pairs it wins, ties one half.  ``b / m_other``
is the placement; a component's group-2 counts sum over every pair the
effect averages.  ``b`` is also the pooled minus the within-group midrank.  Tie
detection uses exact floating-point equality (``-0.0`` ties with ``0.0``);
noisy continuous data will in general contain no ties.

All counts come from one sort of pooled rows that hold only observed cells:
component ``l``'s row is its observed group-1 cells, then its observed
group-2 cells, in column order.  Every row is cut at the largest observed
count over the components, ``L = max_l(m1_l + m2_l)``, and a shorter row is
padded with ``+inf``; observed values are finite, so the padding sorts last
and never ties with a cell that is counted.  Split each sorted row into runs
of equal values, count the group-1 cells inside every run and before it, and
give each cell of a run the opposite group's cells before the run plus half
of those inside it.  Every count is a half-integer computed exactly.

The same sort also counts within the two sides of a split of each
component's subjects, such as complete against one-sided cases: the cells
of a run's side before and inside it give the side's counts as the whole
row's give the full ones, and a cell off the side gets its full count minus
its count on it.  Each side's counts are those of the sample restricted to
that side, bit for bit, so the comparison methods need no sort of their own.

Counting needs the sample alone and fails only on a malformed split.
Placements also take a :class:`~rankeffect.data.PatternIndex`, which exists
only when both groups have data on every component, so the group counts
they divide by are positive.
"""

import numpy as np

from .data import MaskedSample, PatternIndex
from .errors import DimensionMismatch

__all__ = ["build_rank_table", "placements"]

# float64 bits of the NaN of an unobserved cell, and what -0.0 adds to them
_NAN_BITS = np.float64(np.nan).view(np.uint64)
_OBSERVED_STEP = np.float64(-0.0).view(np.uint64) - _NAN_BITS


def nan_unless(observed: np.ndarray) -> np.ndarray:
    """``np.where(observed, -0.0, np.nan)`` bit for bit, by integer arithmetic.

    Added to a table, it makes the cells outside ``observed`` NaN and leaves
    the others as they are: ``x + -0.0`` is ``x`` bit for bit (``-0.0 + 0.0``
    is 0.0).  It takes no branch per cell, which ``np.where`` does, at several
    times the cost on a scattered mask.
    """
    addend = np.empty(observed.shape)
    bits = addend.view(np.uint64)
    np.multiply(observed, _OBSERVED_STEP, out=bits)
    bits += _NAN_BITS
    return addend


def build_rank_table(
    sample: MaskedSample, split: np.ndarray | None = None
) -> np.ndarray | tuple[np.ndarray, np.ndarray]:
    """Placement count ``b`` of every observed cell within its component.

    Component ``l`` of a replicate is one pooled row of its observed cells,
    group 1 then group 2 in column order, cut at ``L``, the most cells any
    component has observed; a row with fewer is padded with ``+inf``, which
    sorts after every finite value and ties with none.  The map from pooled
    positions to table cells depends only on the mask, so every replicate of
    a block shares it, and one ``argsort`` of all pooled rows gives every
    count.  Returns a read-only array shaped like the sample, a block's
    leading replicate axis included, NaN where a cell is unobserved.  A group
    with no observation on a component leaves its row NaN and the other
    group's row zero; such a sample has no pattern index, since
    :func:`~rankeffect.data.derive_pattern_index` rejects it.

    ``split`` is a ``(d, n)`` boolean mask, such as a pattern index's
    ``complete_mask``, that puts both cells of subject ``j`` on component
    ``l`` on side ``split[l, j]``.  With it the call returns ``(b, own)``,
    where ``own`` is ``b`` but for counting only the opposite group's cells
    on the cell's own side, from the same sort.  Each side's counts are, bit
    for bit, those of the sample cut down to that side's cells: a cell off
    the ``True`` side gets its full count minus its count against that side,
    and every term is an exact half-integer.

    Raises
    ------
    DimensionMismatch
        ``split`` is given but is not a ``(d, n)`` boolean array.
    """
    d, n = sample.d, sample.n
    if split is not None:
        split = np.asarray(split)
        if split.shape != (d, n) or split.dtype != bool:
            raise DimensionMismatch(
                f"split must be a ({d}, {n}) bool mask, got {split.dtype} {split.shape}"
            )
    # source[l, k]: the (2d, n) table cell, as a flat index, at position k of
    # component l's pooled row: observed cells first, then unobserved ones,
    # which stand in for the padding so that its counts land on cells set to
    # NaN below; a row of L cells always has enough of them
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
    ordered = np.take_along_axis(keys, cell, axis=1)
    del keys  # per-cell temporaries go as soon as they are used
    new_run = np.empty(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new_run[:, 1:])
    new_run[:, :1] = True
    del ordered
    # runs of equal values, numbered in flat order; a run never crosses a row
    starts = np.flatnonzero(new_run)
    # int32 halves the per-cell index arrays wherever the positions fit
    run = np.cumsum(new_run, dtype=np.int32 if new_run.size < 2**31 else np.intp)
    run -= 1
    run = run.reshape(new_run.shape)
    del new_run
    # per sorted cell: in group 1; with a split also on the True side, and
    # in group 1 on that side
    flags = np.empty((1 if split is None else 3, cell.size), dtype=bool)
    in_group1 = flags[0].reshape(cell.shape)
    rows = cell.reshape(-1, d, width)
    np.less(rows, sample.observed[:d].sum(axis=1)[:, None], out=in_group1.reshape(rows.shape))
    # ... as a flat index into the (..., 2d, n) table; row q = r * d + l
    rows += width * np.arange(d)[:, None]
    target = np.take(source, cell)
    del cell, rows, source
    if split is not None:
        # padding may fall on either side; its runs come last in their rows
        np.take(np.concatenate([split, split]).ravel(), target.ravel(), out=flags[1])
        np.logical_and(flags[0], flags[1], out=flags[2])
    replicates = target.reshape(-1, d * width)
    replicates += 2 * d * n * np.arange(len(replicates))[:, None]
    # flagged cells inside each run, and before it in its row
    inside = np.add.reduceat(flags, starts, axis=1, dtype=run.dtype)
    before = np.cumsum(inside, axis=1, dtype=run.dtype)
    before -= inside
    first = run[:, 0]
    before -= np.repeat(before[:, first], np.diff(first, append=len(starts)), axis=1)
    # a group-2 cell counts the group-1 cells before its run and half of those
    # inside it, and a group-1 cell the same of group 2, so a run's two counts
    # sum to its offset in the row plus half its length
    counts = np.empty((2, len(starts)))
    np.multiply(inside[0], 0.5, out=counts[0])
    counts[0] += before[0]
    np.subtract(starts[1:], starts[:-1], out=counts[1, :-1])
    counts[1, -1] = target.size - starts[-1]
    counts[1] *= 0.5
    starts %= width
    counts[1] += starts
    counts[1] -= counts[0]
    del starts
    if split is not None:
        # the same counts within the True side, whose cells before and inside
        # a run give its offset and length there: own[1]; off it, own[0]
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
    b = np.zeros(sample.values.shape)  # so no stale NaN shows through the add
    np.put(b, target, counts.ravel()[run])
    tables = [b]
    if split is not None:
        # own's first half is laid out as counts, its second half on the True side
        run += flags[1].reshape(run.shape) * run.dtype.type(counts.size)
        tables.append(np.zeros(sample.values.shape))
        np.put(tables[1], target, own.ravel()[run])
        del own
    del counts, flags, run, first, target, replicates
    # unobserved cells, padding counts too, become NaN by a plain add
    unobserved = nan_unless(sample.observed)
    for table in tables:
        table += unobserved
        table.setflags(write=False)
    return b if split is None else (b, tables[1])


def placements(b: np.ndarray, idx: PatternIndex) -> np.ndarray:
    """Empirical distribution of the opposite group evaluated at each cell.

    ``y[row, k] = b / m_other`` lies in [0, 1]; it is the weighted empirical
    CDF of the other group's sample at the observed value.  Unobserved cells
    hold NaN.  Returns a read-only array shaped like ``b``.
    """
    y = b / np.concatenate([idx.m2, idx.m1])[:, None]
    y.setflags(write=False)
    return y
