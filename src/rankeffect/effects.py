"""Estimation of the per-component two-sample rank effects.

The effect for component ``l`` is the probability that a group-1 observation
is smaller than an independent group-2 observation, counting ties with
weight one half; one half means no tendency either way.  Its estimate is the
mean of that count over all ``m1 * m2`` cross-group pairs of observed cells.
A group-2 cell's placement count ``b`` already counts the group-1 values
below it, ties one half, so the estimate is the sum of the group-2 counts
divided by ``m1 * m2``.  Every count is a half-integer, so the sum is exact
and the estimate is the correctly rounded pairwise mean.  It equals the
difference of the groups' mean pooled midranks, ``(R2 - R1) / N + 1/2``
with ``N`` the pooled count (Brunner and Munzel, 2000), in which the
sample-size weights that pool complete and incomplete cases cancel.
"""

import numpy as np

from .data import MaskedSample, PatternIndex, build_masked_sample
from .errors import EverythingFiltered, InestimableComponent

__all__ = [
    "METHODS",
    "estimate_effects",
    "restrict_method",
]

#: Case-restriction strategies: use everything, paired cases only, or
#: one-sided cases only.
METHODS = ("all", "complete", "incomplete")


def check_methods(methods) -> None:
    """Raise ``ValueError`` unless ``methods`` is a nonempty list of distinct known methods.

    A repeated method would be analyzed, reported and tallied twice.
    """
    if not methods:
        raise ValueError("no method given; choose from " + ", ".join(METHODS))
    for i, m in enumerate(methods):
        if m not in METHODS:
            raise ValueError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")
        if m in methods[:i]:
            raise ValueError(f"method {m!r} is given more than once")


def estimate_effects(b: np.ndarray, idx: PatternIndex) -> np.ndarray:
    """Effect vector: the mean pairwise count, ``sum(b2) / (m1 * m2)``.

    ``b`` holds the placement counts of :func:`~rankeffect.ranks.build_rank_table`,
    zero where a cell is unobserved, and ``idx`` the case counts; only the
    group-2 rows are read.  Returns the read-only ``p_hat`` in [0, 1],
    ``(d,)`` for one dataset and ``(R, d)`` for a block.
    """
    p_hat = b[..., idx.d:, :].sum(axis=-1) / (idx.m1 * idx.m2)
    p_hat.setflags(write=False)
    return p_hat


def restrict_method(sample: MaskedSample, method: str) -> tuple[MaskedSample, PatternIndex]:
    """Filter the sample down to the cases a comparison method may use.

    Returns the restricted sample and its pattern index; the case classes
    come from the sample's own, ``PatternIndex(sample.observed)``.  ``"all"``
    keeps the sample as it is.  ``"complete"`` keeps only cells belonging to
    within-component paired cases; ``"incomplete"`` keeps only one-sided
    cells.  Subjects left with no observed cell are dropped, so the subject
    count of the returned sample is the effective total for test statistics.

    Raises
    ------
    InestimableComponent
        Some group has no observation on a component of ``sample``.
    EverythingFiltered
        The restriction leaves some component with no data in one group.
    """
    check_methods((method,))
    idx = PatternIndex(sample.observed)
    if method == "all":
        return sample, idx
    keep, mask, sub_idx = _restriction(idx, method)
    return build_masked_sample(np.compress(keep, sample.values, axis=-1), mask), sub_idx


def _restriction(idx: PatternIndex, method: str) -> tuple[np.ndarray, np.ndarray, PatternIndex]:
    """A restricted method's kept subjects, their ``(2d, m)`` mask and its pattern index.

    Raises ``EverythingFiltered`` when fewer than two subjects are kept or
    some group has no kept cell on a component.
    """
    if method == "complete":
        cells = np.concatenate([idx.complete_mask, idx.complete_mask])
    else:
        cells = np.concatenate([idx.g1_only_mask, idx.g2_only_mask])
    keep = cells.any(axis=0)
    kept = np.count_nonzero(keep)
    if kept < 2:
        raise EverythingFiltered(f"restriction {method!r} leaves {kept} subject(s)")
    # a boolean index would leave the mask column-ordered, slow to reduce by rows
    mask = np.compress(keep, cells, axis=1)
    try:
        return keep, mask, PatternIndex(mask)
    except InestimableComponent as exc:
        raise EverythingFiltered(
            f"restriction {method!r} leaves no group-{exc.group} data "
            f"on component {exc.component}"
        ) from None
