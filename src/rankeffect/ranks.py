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

Counting needs the sample alone and raises nothing.  Placements also take a
:class:`~rankeffect.data.PatternIndex`, which exists only when both groups
have data on every component, so the group counts they divide by are positive.
"""

import numpy as np

from .data import MaskedSample, PatternIndex

__all__ = ["build_rank_table", "placements"]


def build_rank_table(sample: MaskedSample) -> np.ndarray:
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
    """
    d, n = sample.d, sample.n
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
    rows = cell.reshape(-1, d, width)
    in_group1 = (rows < sample.observed[:d].sum(axis=1)[:, None]).reshape(cell.shape)
    # ... as a flat index into the (..., 2d, n) table; row q = r * d + l
    rows += width * np.arange(d)[:, None]
    target = np.take(source, cell)
    del cell, rows, source
    replicates = target.reshape(-1, d * width)
    replicates += 2 * d * n * np.arange(len(replicates))[:, None]
    # group-1 cells inside each run, and before it in its row
    group1 = np.add.reduceat(in_group1.ravel(), starts, dtype=run.dtype)
    before = np.cumsum(group1, dtype=run.dtype)
    before -= group1
    first = run[:, 0]
    before -= np.repeat(before[first], np.diff(first, append=len(starts)))
    # a group-2 cell counts the group-1 cells before its run and half of those
    # inside it, and a group-1 cell the same of group 2, so a run's two counts
    # sum to its offset in the row plus half its length
    counts = np.empty((2, len(starts)))
    np.multiply(group1, 0.5, out=counts[0])
    counts[0] += before
    del group1, before
    np.subtract(starts[1:], starts[:-1], out=counts[1, :-1])
    counts[1, -1] = target.size - starts[-1]
    counts[1] *= 0.5
    starts %= width
    counts[1] += starts
    counts[1] -= counts[0]
    del starts
    # runs index the group-2 cells' counts, runs + len(counts[0]) the group-1 ones
    run += in_group1 * run.dtype.type(counts.shape[1])
    del in_group1
    b = np.zeros(sample.values.shape)  # so no stale NaN shows through the add
    np.put(b, target, counts.ravel()[run])
    del counts, run, first, target, replicates
    # unobserved cells, padding counts too, become NaN by a plain add; the other
    # addend is -0.0, since ``x + -0.0`` is ``x`` bit for bit (``-0.0 + 0.0`` is 0.0)
    b += np.where(sample.observed, -0.0, np.nan)
    b.setflags(write=False)
    return b


def placements(b: np.ndarray, idx: PatternIndex) -> np.ndarray:
    """Empirical distribution of the opposite group evaluated at each cell.

    ``y[row, k] = b / m_other`` lies in [0, 1]; it is the weighted empirical
    CDF of the other group's sample at the observed value.  Unobserved cells
    hold NaN.  Returns a read-only array shaped like ``b``.
    """
    y = b / np.concatenate([idx.m2, idx.m1])[:, None]
    y.setflags(write=False)
    return y
