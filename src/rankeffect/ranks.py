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
"""

from dataclasses import dataclass

import numpy as np

from .data import MaskedSample, PatternIndex

__all__ = ["RankTable", "midranks", "build_rank_table", "placements"]


def _runs(ordered: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Runs of equal values in rows that are already sorted.

    Returns, for every cell of ``ordered``, the flat positions where its run
    starts and ends (exclusive), and its midrank within the row.  A run never
    crosses a row boundary.
    """
    rows, m = ordered.shape
    flat = ordered.ravel()
    new_run = np.empty(flat.size, dtype=bool)
    new_run[1:] = flat[1:] != flat[:-1]
    new_run.reshape(rows, m)[:, :1] = True
    starts = np.flatnonzero(new_run)
    run = np.cumsum(new_run) - 1
    start = starts[run].reshape(rows, m)
    end = np.append(starts[1:], flat.size)[run].reshape(rows, m)
    midrank = (end - start + 1) / 2
    midrank += start - m * np.arange(rows)[:, None]
    return start, end, midrank


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
    ranks = np.empty(values.size)
    ranks[order] = _runs(values[order][None])[2][0]
    return ranks


@dataclass(frozen=True)
class RankTable:
    """Overall (pooled over both groups) and within-group midranks per cell.

    Arrays are aligned with the sample layout; cells without an observation
    hold NaN.
    """

    overall: np.ndarray   # (2d, n) float, NaN where unobserved
    internal: np.ndarray  # (2d, n) float, NaN where unobserved


def build_rank_table(sample: MaskedSample, idx: PatternIndex) -> RankTable:
    """Rank every observed cell within its component's pooled and own-group samples.

    Component ``l`` is one pooled row of ``2n`` cells, group 1 then group 2,
    with unobserved cells set to ``+inf`` so that they sort last; one
    ``argsort`` of the ``(d, 2n)`` rows gives both tables.  A group with no
    observation on a component leaves its rows NaN;
    :func:`~rankeffect.data.check_estimable` is the rule that rejects it.
    """
    d, n = sample.d, sample.n
    keys = np.where(sample.observed, sample.values, np.inf)
    # cell[l, k]: pooled column of the k-th smallest cell of component l ...
    cell = np.argsort(keys.reshape(2, d, n).swapaxes(0, 1).reshape(d, 2 * n), axis=1)
    in_group1 = cell < n
    cell += n * (np.arange(d)[:, None] + (d - 1) * ~in_group1)  # ... as a flat (2d, n) index
    start, end, overall = _runs(keys.ravel()[cell])
    group1_before = np.zeros(cell.size + 1)  # group-1 cells before each flat position
    np.cumsum(in_group1, out=group1_before[1:])
    # group-1 midrank of the run: its group-1 cells, then those before it in the row
    internal = (group1_before[end] - group1_before[start] + 1) / 2
    internal += group1_before[start] - group1_before[start[:, :1]]
    # a run's group-1 and group-2 midranks sum to its pooled midrank plus 1/2
    np.subtract(overall + 0.5, internal, out=internal, where=~in_group1)
    ranks = np.empty((2, 2 * d, n))
    np.put(ranks[0], cell, overall)
    np.put(ranks[1], cell, internal)
    np.copyto(ranks, np.nan, where=~sample.observed)
    ranks.setflags(write=False)
    return RankTable(overall=ranks[0], internal=ranks[1])


def placements(ranks: RankTable, idx: PatternIndex) -> np.ndarray:
    """Empirical distribution of the opposite group evaluated at each cell.

    ``y[row, k] = (overall - internal) / m_other`` lies in [0, 1]; it is the
    weighted empirical CDF of the other group's sample at the observed value.
    Unobserved cells, and cells whose opposite group has no data on the
    component, hold NaN.  Returns a read-only ``(2d, n)`` array.
    """
    d = idx.d
    m1 = idx.m1.astype(float)
    m2 = idx.m2.astype(float)
    y = ranks.overall - ranks.internal
    with np.errstate(invalid="ignore", divide="ignore"):
        y[:d] = y[:d] / np.where(m2 > 0, m2, np.nan)[:, None]
        y[d:] = y[d:] / np.where(m1 > 0, m1, np.nan)[:, None]
    y.setflags(write=False)
    return y
