"""Midranks over pooled and within-group samples, and placement values.

Ranks follow the tie-aware convention in which each observation receives
one half plus the count of strictly smaller values plus half the count of
equal values (itself included), i.e. tied observations share the average of
the positions they span.  Tie detection uses exact floating-point equality
(``-0.0`` ties with ``0.0``); noisy continuous data will in general contain
no ties.

All ranks come from one rule: sort each row once, split the sorted row into
runs of equal values, and give a run that starts at position ``s`` and holds
``k`` values the midrank ``s + (k + 1) / 2``.  The rank table sorts the pooled
rows of both groups once; a cell's within-group midrank counts, from the
same sort, the cells of its own group before its run and inside it.  Every
rank is a half-integer computed exactly.

Ranking needs the sample alone and raises nothing.  Placements also take a
:class:`~rankeffect.data.PatternIndex`, which exists only when both groups
have data on every component, so the group counts they divide by are positive.
"""

from dataclasses import dataclass

import numpy as np

from .data import MaskedSample, PatternIndex

__all__ = ["RankTable", "midranks", "build_rank_table", "placements"]


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal values in rows that are already sorted.

    Returns the run number of every cell (runs counted in flat order, as an
    ``ordered``-shaped array), and per run its flat start position and its
    midrank within the row.  A run never crosses a row boundary.
    """
    rows, m = ordered.shape
    new_run = np.empty(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new_run[:, 1:])
    new_run[:, :1] = True
    starts = np.flatnonzero(new_run)
    # int32 halves the per-cell index arrays wherever the positions fit
    run = np.cumsum(new_run, dtype=np.int32 if ordered.size < 2**31 else np.intp)
    run -= 1
    ends = np.append(starts[1:], ordered.size)
    midrank = (ends - starts + 1) / 2
    midrank += starts % m
    return run.reshape(rows, m), starts, midrank


def midranks(values) -> np.ndarray:
    """Midranks of a 1-d sample, ties averaged.

    Equivalent to the pairwise definition ``r_i = 1/2 + sum_j c(x_i - x_j)``
    with ``c = 0, 1/2, 1`` for negative/zero/positive argument, but computed
    by one sort in O(N log N): a run of ``k`` equal sorted values starting at
    position ``s`` gets ``s + (k + 1) / 2``.  The values must not be NaN.  An
    empty sample gives an empty array.
    """
    values = np.asarray(values, dtype=float).ravel()
    order = np.argsort(values)
    run, _, midrank = _runs(values[order][None])
    ranks = np.empty(values.size)
    ranks[order] = midrank[run[0]]
    return ranks


@dataclass(frozen=True)
class RankTable:
    """Overall (pooled over both groups) and within-group midranks per cell.

    Arrays are aligned with the sample layout, a block's leading replicate
    axis included; cells without an observation hold NaN.
    """

    overall: np.ndarray   # (2d, n) or (R, 2d, n) float, NaN where unobserved
    internal: np.ndarray  # same shape, NaN where unobserved


def build_rank_table(sample: MaskedSample) -> RankTable:
    """Rank every observed cell within its component's pooled and own-group samples.

    Component ``l`` of a replicate is one pooled row of ``2n`` cells, group 1
    then group 2, with unobserved cells set to ``+inf`` so that they sort
    last; one ``argsort`` of all pooled rows, of every replicate of a block,
    gives both tables.  A group with no observation on a component leaves
    its rows NaN; such a sample has no pattern index, since
    :func:`~rankeffect.data.derive_pattern_index` rejects it.
    """
    d, n = sample.d, sample.n
    keys = np.where(sample.observed, sample.values, np.inf)
    keys = keys.reshape(-1, 2, d, n).swapaxes(1, 2).reshape(-1, 2 * n)
    # cell[q, k]: pooled column of the k-th smallest cell of pooled row q ...
    cell = np.argsort(keys, axis=1)
    ordered = np.take_along_axis(keys, cell, axis=1)
    del keys  # per-cell temporaries go as soon as they are used
    run, starts, overall = _runs(ordered)
    del ordered
    in_group1 = cell < n
    # ... as a flat index into the (..., 2d, n) table; row q = r * d + l
    np.add(cell, (d - 1) * n, out=cell, where=~in_group1)
    q = np.arange(len(cell))
    cell += (n * (q + d * (q // d)))[:, None]
    # group-1 midrank of each run: its group-1 cells, then those before it in the row
    group1 = np.add.reduceat(in_group1.ravel(), starts, dtype=run.dtype)
    before = np.cumsum(group1) - group1
    first = run[:, 0]
    before -= np.repeat(before[first], np.diff(first, append=starts.size))
    internal = (group1 + 1) / 2 + before
    del group1, before
    # a run's group-1 and group-2 midranks sum to its pooled midrank plus 1/2;
    # runs index the group-2 midranks, runs + starts.size the group-1 ones
    internal = np.concatenate([overall + 0.5 - internal, internal])
    ranks = np.empty((2, *sample.values.shape))
    np.put(ranks[0], cell, overall[run])
    np.add(run, starts.size, out=run, where=in_group1)
    np.put(ranks[1], cell, internal[run])
    np.copyto(ranks, np.nan, where=~sample.observed)
    ranks.setflags(write=False)
    return RankTable(overall=ranks[0], internal=ranks[1])


def placements(ranks: RankTable, idx: PatternIndex) -> np.ndarray:
    """Empirical distribution of the opposite group evaluated at each cell.

    ``y[row, k] = (overall - internal) / m_other`` lies in [0, 1]; it is the
    weighted empirical CDF of the other group's sample at the observed value.
    Unobserved cells hold NaN.  Returns a read-only array shaped like the table.
    """
    d = idx.d
    y = ranks.overall - ranks.internal
    y[..., :d, :] /= idx.m2[:, None]
    y[..., d:, :] /= idx.m1[:, None]
    y.setflags(write=False)
    return y
