"""Observation matrix with missingness and the per-component index bookkeeping.

Data layout: a ``2d x n`` matrix whose first ``d`` rows hold the group-1
measurements on the ``d`` response variables and whose last ``d`` rows hold
the group-2 measurements; columns are subjects.  A subject may be observed in
both groups on a variable (a *complete* case for that variable), in exactly
one group (an *incomplete* case), or in neither.
"""

from dataclasses import InitVar, dataclass, field

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySubject,
    InestimableComponent,
    NonFiniteObservedValue,
)

__all__ = [
    "MaskedSample",
    "PatternIndex",
    "build_masked_sample",
    "derive_pattern_index",
    "check_assumptions",
]

_MIN_GROUP_SIZE = 5


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class MaskedSample:
    """Validated ``2d x n`` observation matrix with per-cell observedness.

    ``MaskedSample(values, observed)`` takes the ``(2d, n)`` measurements,
    or ``(R, 2d, n)`` for a *block* of ``R`` replicates, and the ``(2d, n)``
    mask, ``True`` where a value is present, which a block shares.  Building
    one validates both, so an unchecked sample cannot exist, and writes NaN
    into every masked cell, so that reads of unobserved data poison any
    arithmetic.  Ranks, effects, covariances and tests of a block carry its
    leading replicate axis.

    Raises
    ------
    DimensionMismatch
        Shapes disagree, the row count is odd, a block has no replicate, or
        sizes are below the minimum (d >= 1, n >= 2).
    EmptySubject
        Some column has no observed cell.
    NonFiniteObservedValue
        An observed cell (of any replicate of a block) holds NaN or infinity.
    """

    values: np.ndarray   # (2d, n), or (R, 2d, n) for a block; float64, NaN where not observed
    observed: np.ndarray  # (2d, n) bool, shared by every replicate of a block

    def __post_init__(self) -> None:
        values = np.asarray(self.values, dtype=float)
        observed = np.asarray(self.observed, dtype=bool)
        if values.ndim not in (2, 3) or observed.shape != values.shape[-2:]:
            raise DimensionMismatch(
                f"values {values.shape} must be (2d, n) or (R, 2d, n) "
                f"and observed {observed.shape} their (2d, n)"
            )
        if values.ndim == 3 and not len(values):
            raise DimensionMismatch("a block needs at least one replicate")
        rows, n = observed.shape
        if rows % 2 != 0 or rows < 2:
            raise DimensionMismatch(f"row count {rows} is not twice a positive dimension")
        if n < 2:
            raise DimensionMismatch(f"need at least 2 subjects, got {n}")
        empty = ~observed.any(axis=0)
        if empty.any():
            raise EmptySubject(int(np.flatnonzero(empty)[0]))
        cleaned = np.where(observed, values, np.nan)
        # masked cells now hold NaN, so all observed cells are finite exactly
        # when the finite cells are as many as the observed ones
        if np.count_nonzero(np.isfinite(cleaned)) != np.count_nonzero(observed) * (
            cleaned.size // observed.size
        ):
            raise NonFiniteObservedValue("observed cells must be finite")
        object.__setattr__(self, "values", _freeze(cleaned))
        object.__setattr__(self, "observed", _freeze(observed.copy()))

    @property
    def d(self) -> int:
        return self.observed.shape[0] // 2

    @property
    def n(self) -> int:
        return self.observed.shape[1]


def build_masked_sample(values, observed) -> MaskedSample:
    """Validate raw arrays into an immutable sample: ``MaskedSample(values, observed)``."""
    return MaskedSample(values, observed)


@dataclass(frozen=True, eq=False)
class PatternIndex:
    """Per-component index sets and counts derived from the observedness mask.

    For component ``l`` the three boolean rows partition the subjects that
    are observed on ``l`` in at least one group: observed in both groups
    (complete), in group 1 only, or in group 2 only.  It is built from a
    ``(2d, n)`` mask alone, ``PatternIndex(sample.observed)``, and exists only
    when both groups have data on every component.  The treatment-level
    layout (each subject either fully paired or observed in exactly one group
    on all components) is reported via ``is_simple_pattern``; it makes the
    treatment-level covariance estimator valid.

    Raises
    ------
    DimensionMismatch
        ``observed`` is not 2-D with an even, positive row count, as when
        it is a sample rather than its mask.
    InestimableComponent
        Some group has no observation at all on a component; the first
        such component, and its first such group, is named.
    """

    observed: InitVar[np.ndarray]
    complete_mask: np.ndarray = field(init=False)  # (d, n) bool
    g1_only_mask: np.ndarray = field(init=False)   # (d, n) bool
    g2_only_mask: np.ndarray = field(init=False)   # (d, n) bool
    n_complete: np.ndarray = field(init=False)     # (d,) counts per component
    n1_only: np.ndarray = field(init=False)
    n2_only: np.ndarray = field(init=False)
    is_simple_pattern: bool = field(init=False)

    def __post_init__(self, observed: np.ndarray) -> None:
        observed = np.asarray(observed, dtype=bool)
        if observed.ndim != 2 or observed.shape[0] % 2 or not observed.shape[0]:
            raise DimensionMismatch(f"mask {observed.shape} must be (2d, n) with d >= 1")
        d = observed.shape[0] // 2
        obs1, obs2 = observed[:d], observed[d:]
        has1, has2 = obs1.any(axis=1), obs2.any(axis=1)
        bad = np.flatnonzero(~(has1 & has2))
        if bad.size:
            l = int(bad[0])
            raise InestimableComponent(l, group=2 if has1[l] else 1)
        complete = obs1 & obs2
        g1_only = obs1 & ~obs2
        g2_only = ~obs1 & obs2
        # treatment-level: every component has the same three index sets
        simple = all((m == m[0]).all() for m in (complete, g1_only, g2_only))
        for name, value in (
            ("complete_mask", _freeze(complete)),
            ("g1_only_mask", _freeze(g1_only)),
            ("g2_only_mask", _freeze(g2_only)),
            ("n_complete", _freeze(complete.sum(axis=1))),
            ("n1_only", _freeze(g1_only.sum(axis=1))),
            ("n2_only", _freeze(g2_only.sum(axis=1))),
            ("is_simple_pattern", simple),
        ):
            object.__setattr__(self, name, value)

    @property
    def d(self) -> int:
        return self.complete_mask.shape[0]

    @property
    def n(self) -> int:
        return self.complete_mask.shape[1]

    @property
    def m1(self) -> np.ndarray:
        """Group-1 observation counts per component (complete + group-1 only)."""
        return self.n_complete + self.n1_only

    @property
    def m2(self) -> np.ndarray:
        return self.n_complete + self.n2_only


def derive_pattern_index(sample: MaskedSample) -> PatternIndex:
    """Classify every (subject, component) pair: ``PatternIndex(sample.observed)``."""
    return PatternIndex(sample.observed)


def check_assumptions(idx: PatternIndex) -> list[str]:
    """Advisory checks on the sample-size allocation; never raises.

    Returns one warning per (group, component) with fewer than five
    observations, and one per covariance part that exists but
    cannot contribute a variance term (exactly one case, so the n-1
    denominator vanishes).
    """
    warnings = []
    for l in range(idx.d):
        for g, m in ((1, idx.m1[l]), (2, idx.m2[l])):
            if m < _MIN_GROUP_SIZE:
                warnings.append(
                    f"component {l}: group {g} has only {m} observations "
                    f"(fewer than {_MIN_GROUP_SIZE}); asymptotic approximations may be poor"
                )
        if idx.n_complete[l] == 1:
            warnings.append(
                f"component {l}: a single complete case; the paired covariance part "
                "is inestimable and will contribute zero"
            )
        for g, cnt in ((1, idx.n1_only[l]), (2, idx.n2_only[l])):
            if cnt == 1:
                warnings.append(
                    f"component {l}: a single group-{g}-only case; its covariance part "
                    "is inestimable and will contribute zero"
                )
    return warnings
