"""Estimation of the per-component two-sample rank effects.

The effect for component ``l`` is the probability that a group-1 observation
is smaller than an independent group-2 observation, counting ties with
weight one half; one half means no tendency either way.  It is estimated by
the difference of the two groups' mean pooled midranks over every observed
cell, ``(R2 - R1) / N + 1/2`` with ``N`` the pooled count: the sample-size
weights that pool complete and incomplete cases cancel in this form
(Brunner and Munzel, 2000).
"""

from dataclasses import dataclass

import numpy as np

from .data import (
    MaskedSample,
    PatternIndex,
    build_masked_sample,
    check_estimable,
    derive_pattern_index,
)
from .errors import EverythingFiltered, InestimableComponent
from .ranks import RankTable

__all__ = [
    "METHODS",
    "EffectEstimate",
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


@dataclass(frozen=True)
class EffectEstimate:
    """Estimated effect vector with the sample-size bookkeeping behind it."""

    p_hat: np.ndarray      # (d,), or (R, d) for a block; in [0, 1]
    n_complete: np.ndarray
    n1_only: np.ndarray
    n2_only: np.ndarray

    @property
    def deviation(self) -> np.ndarray:
        """Departure from the no-tendency point one half."""
        return self.p_hat - 0.5


def estimate_effects(
    sample: MaskedSample,
    idx: PatternIndex,
    ranks: RankTable,
) -> EffectEstimate:
    """Effect vector from the difference of the groups' mean pooled midranks.

    A block's ranks give one effect vector per replicate.

    Raises
    ------
    InestimableComponent
        Some group has no observation at all on a component.
    """
    check_estimable(idx)
    d = idx.d
    observed = sample.observed
    means = np.where(observed, ranks.overall, 0.0).sum(axis=-1) / observed.sum(axis=-1)
    p_hat = np.clip((means[..., d:] - means[..., :d]) / idx.pooled_counts + 0.5, 0.0, 1.0)
    p_hat.setflags(write=False)
    return EffectEstimate(
        p_hat=p_hat,
        n_complete=idx.n_complete,
        n1_only=idx.n1_only,
        n2_only=idx.n2_only,
    )


def restrict_method(
    sample: MaskedSample,
    idx: PatternIndex,
    method: str,
) -> tuple[MaskedSample, PatternIndex]:
    """Filter the sample down to the cases a comparison method may use.

    ``"all"`` is the identity.  ``"complete"`` keeps only cells belonging to
    within-component paired cases; ``"incomplete"`` keeps only one-sided
    cells.  Subjects left with no observed cell are dropped, so the subject
    count of the returned sample is the effective total for test statistics.

    Raises
    ------
    EverythingFiltered
        The restriction leaves some component with no data in one group.
    """
    check_methods((method,))
    if method == "all":
        return sample, idx
    d = sample.d
    new_obs = np.zeros_like(sample.observed)
    if method == "complete":
        new_obs[:d] = idx.complete_mask
        new_obs[d:] = idx.complete_mask
    else:
        new_obs[:d] = idx.g1_only_mask
        new_obs[d:] = idx.g2_only_mask
    keep = new_obs.any(axis=0)
    if keep.sum() < 2:
        raise EverythingFiltered(
            f"restriction {method!r} leaves {int(keep.sum())} subject(s)"
        )
    restricted = build_masked_sample(sample.values[..., keep], new_obs[:, keep])
    new_idx = derive_pattern_index(restricted)
    try:
        check_estimable(new_idx)
    except InestimableComponent as exc:
        raise EverythingFiltered(
            f"restriction {method!r} leaves no group-{exc.group} data "
            f"on component {exc.component}"
        ) from None
    return restricted, new_idx
