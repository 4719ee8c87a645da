"""Covariance estimation for the scaled effect vector.

One kernel estimates the asymptotic covariance of ``sqrt(n) * (p_hat - p)``
from the rank differences ``b = overall - internal``.  Per component it has
three value rows: ``b2 - b1`` on the complete (paired) cases, ``b2`` on the
group-2-only cases and ``-b1`` on the group-1-only cases.  Entry (l, r) sums
the nine cross-covariances of component ``l``'s rows with component ``r``'s,
each over the intersection of the two index sets with an ``e/(e-1)`` bias
factor (``e`` the intersection size), divided by ``m1_l m2_l m1_r m2_r``.
Single-subject intersections contribute zero and are flagged.  All terms
come from a few masked matrix products, one set per replicate of a block;
the index sets, their sizes and the flags depend on the mask alone and are
shared by the block.

:func:`covariance_general` is this estimator for per-cell missingness;
:func:`covariance_simple` is the same kernel on treatment-level data, where
only the paired, group-1-only and group-2-only parts survive.
"""

from dataclasses import dataclass

import numpy as np

from .data import MaskedSample, PatternIndex, check_estimable
from .errors import NoEstimablePart, PatternMismatch
from .ranks import RankTable

__all__ = [
    "CovarianceEstimate",
    "covariance_simple",
    "covariance_general",
]


@dataclass(frozen=True)
class CovarianceEstimate:
    """Symmetric d x d estimate with trace diagnostics and provenance.

    For a block, ``v_hat`` is ``(R, d, d)`` and the three diagnostics are
    ``(R,)`` arrays; ``degenerate`` is shared, as it depends on the mask alone.
    """

    v_hat: np.ndarray
    trace: float
    trace_sq: float        # trace of v_hat squared
    nu_hat: float          # trace^2 / trace_sq; NaN if v_hat == 0
    estimator: str         # "simple" | "general"
    degenerate: tuple[str, ...] = ()


def _kernel(idx: PatternIndex, ranks: RankTable) -> tuple[np.ndarray, np.ndarray]:
    """Estimate and the (3d, 3d) intersection sizes of the stacked rows.

    Row ``a * d + l`` is component ``l``'s complete (a=0), group-2-only (a=1)
    or group-1-only (a=2) row.  The estimate is exactly symmetric but not
    forced to be positive semidefinite.
    """
    check_estimable(idx)
    d, n = idx.d, idx.n
    b = ranks.overall - ranks.internal
    lo, hi = b[..., :d, :], b[..., d:, :]
    masks = np.concatenate([idx.complete_mask, idx.g2_only_mask, idx.g1_only_mask])
    m = masks.astype(float)
    e = m @ m.T
    x = np.zeros((*b.shape[:-2], 3 * d, n))
    np.subtract(hi, lo, out=x[..., :d, :], where=idx.complete_mask)
    np.copyto(x[..., d:2 * d, :], hi, where=idx.g2_only_mask)
    np.negative(lo, out=x[..., 2 * d:, :], where=idx.g1_only_mask)
    del b, lo, hi  # a block's peak memory is set by its per-cell arrays
    # centring each row on its own-set mean leaves every intersection
    # covariance unchanged and keeps the subtraction below well conditioned
    mean = x.sum(axis=-1) / np.maximum(e.diagonal(), 1.0)
    np.subtract(x, mean[..., None], out=x, where=masks)
    s = x @ m.T  # s[i, j]: sum of row i over the intersection with set j
    # e/(e-1) * (x_i . x_j - s_ij * s_ji / e), zero where e <= 1
    w = np.divide(1.0, e - 1.0, out=np.zeros_like(e), where=e > 1)
    c = (e * (x @ x.swapaxes(-1, -2)) - s * s.swapaxes(-1, -2)) * w
    dm = (idx.m1 * idx.m2).astype(float)
    v = n * c.reshape(*c.shape[:-2], 3, d, 3, d).sum(axis=(-4, -2)) / np.outer(dm, dm)
    return 0.5 * (v + v.swapaxes(-1, -2)), e


def _estimate(v: np.ndarray, estimator: str, flags: list[str]) -> CovarianceEstimate:
    trace = np.trace(v, axis1=-2, axis2=-1)
    trace_sq = np.sum(v * v, axis=(-2, -1))  # == tr(V^2) for symmetric V
    with np.errstate(divide="ignore", invalid="ignore"):
        nu = np.where(trace_sq > 0, trace * trace / trace_sq, np.nan)
    if v.ndim == 2:
        trace, trace_sq, nu = float(trace), float(trace_sq), float(nu)
    v.setflags(write=False)
    return CovarianceEstimate(
        v_hat=v,
        trace=trace,
        trace_sq=trace_sq,
        nu_hat=nu,
        estimator=estimator,
        degenerate=tuple(flags),
    )


def covariance_simple(
    sample: MaskedSample,
    idx: PatternIndex,
    ranks: RankTable,
) -> CovarianceEstimate:
    """Three-part rank-difference estimator for treatment-level missingness.

    The parts are scaled empirical covariances of the paired, group-1-only
    and group-2-only cases; a part whose case count is 1 cannot contribute a
    variance and is replaced by zero with a flag, which is how analyses
    with, say, a single one-sided subject still proceed.

    Raises
    ------
    PatternMismatch
        The data does not have treatment-level missingness.
    NoEstimablePart
        No part has at least two cases.
    """
    if not idx.is_simple_pattern:
        raise PatternMismatch("covariance_simple requires treatment-level missingness")
    n_c = int(idx.n_complete[0])
    n_1 = int(idx.n1_only[0])
    n_2 = int(idx.n2_only[0])
    if n_c < 2 and n_1 < 2 and n_2 < 2:
        raise NoEstimablePart(
            f"no covariance part has two cases (complete={n_c}, g1={n_1}, g2={n_2})"
        )
    flags = []
    if n_c == 1:
        flags.append("complete part degenerate (single paired case); contributed zero")
    for g, cnt in ((1, n_1), (2, n_2)):
        if cnt == 1:
            flags.append(f"group-{g} incomplete part degenerate (single case); contributed zero")
    v, _ = _kernel(idx, ranks)
    return _estimate(v, "simple", flags)


def covariance_general(
    sample: MaskedSample,
    idx: PatternIndex,
    ranks: RankTable,
) -> CovarianceEstimate:
    """Nine-term estimator for per-cell missingness.

    Every single-subject intersection is flagged as term ``C1..C9`` (in the
    order complete, group-2-only, group-1-only for the left then the right
    component) of entry (l, r), r >= l.

    Raises
    ------
    InestimableComponent
        Some group has no observation at all on a component.
    """
    v, e = _kernel(idx, ranks)
    d = idx.d
    # axes (l, r, a, b), so argwhere lists the entries and terms in flag order
    single = e.reshape(3, d, 3, d).transpose(1, 3, 0, 2) == 1
    single &= np.triu(np.ones((d, d), bool))[:, :, None, None]
    flags = [
        f"term C{3 * a + b + 1} for components ({l},{r}) has a single subject; "
        "contributed zero"
        for l, r, a, b in np.argwhere(single)
    ]
    return _estimate(v, "general", flags)
