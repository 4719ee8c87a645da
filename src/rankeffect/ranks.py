"""Midranks over pooled and within-group samples, and placement values.

Ranks follow the tie-aware convention in which each observation receives
one half plus the count of strictly smaller values plus half the count of
equal values (itself included), i.e. tied observations share the average of
the positions they span.  Tie detection uses exact floating-point equality;
noisy continuous data will in general contain no ties.
"""

from dataclasses import dataclass

import numpy as np
from scipy.stats import rankdata

from .data import MaskedSample, PatternIndex

__all__ = ["RankTable", "midranks", "build_rank_table", "placements"]


def midranks(values) -> np.ndarray:
    """Midranks of a 1-d sample, ties averaged.

    Equivalent to the pairwise definition ``r_i = 1/2 + sum_j c(x_i - x_j)``
    with ``c = 0, 1/2, 1`` for negative/zero/positive argument, but computed
    by sorting in O(N log N).  An empty sample gives an empty array.
    """
    return rankdata(np.asarray(values, dtype=float), method="average")


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

    A group with no observation on a component leaves its rows NaN;
    :func:`~rankeffect.data.check_estimable` is the rule that rejects it.
    """
    d, n = sample.d, sample.n
    overall = np.full((2 * d, n), np.nan)
    internal = np.full((2 * d, n), np.nan)
    for l in range(d):
        c1 = np.flatnonzero(sample.observed[l])
        c2 = np.flatnonzero(sample.observed[d + l])
        pooled = np.concatenate([sample.values[l, c1], sample.values[d + l, c2]])
        pooled_ranks = midranks(pooled)
        overall[l, c1] = pooled_ranks[: c1.size]
        overall[d + l, c2] = pooled_ranks[c1.size:]
        internal[l, c1] = midranks(sample.values[l, c1])
        internal[d + l, c2] = midranks(sample.values[d + l, c2])
    overall.setflags(write=False)
    internal.setflags(write=False)
    return RankTable(overall=overall, internal=internal)


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
