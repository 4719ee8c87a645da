"""Covariance estimation for the scaled effect vector.

One kernel estimates the asymptotic covariance of ``sqrt(n) * (p_hat - p)``
from the placement counts ``b`` and the pattern index alone, so both entry
points take ``(b, idx)``.  Per component it has three value rows:
``b2 - b1`` on the complete (paired) cases, ``b2`` on the group-2-only
cases and ``-b1`` on the group-1-only cases.  Entry (l, r) sums the nine
cross-covariances of component ``l``'s rows with component ``r``'s, each
over the intersection of the two index sets with an ``e/(e-1)`` bias factor
(``e`` the intersection size), divided by ``m1_l m2_l m1_r m2_r``.
Single-subject intersections contribute zero and are flagged.  Only the
sets with a member are stacked, so a restriction to complete or one-sided
cases works on its own rows alone.  The rows are cut from one difference
row per component, ``b2 - b1``, in which an unobserved cell counts zero.  Its
values are half-integers, and stay so when one pass centres it on the whole
number nearest each set's mean; one product with the 0/1 set masks zeroes
it off each set, so no pass over the cells is masked.  Three matrix
products then give every term exactly in any order (for any data up to n of
about 8e4), one set per replicate of a block; the index sets, their sizes
and the flags are shared by the block.

:func:`covariance_general` is this estimator for per-cell missingness;
:func:`covariance_simple` is the same kernel on treatment-level data, where
only the paired, group-1-only and group-2-only parts survive.
"""

from dataclasses import dataclass, field

import numpy as np

from .data import PatternIndex, _freeze
from .effects import estimate_effects
from .errors import DimensionMismatch, NoEstimablePart, PatternMismatch

__all__ = [
    "CovarianceEstimate",
    "covariance_simple",
    "covariance_general",
]


@dataclass(frozen=True, eq=False)
class CovarianceEstimate:
    """Effect ``p_hat`` of ``(b, idx)``, its d x d covariance estimate and the ``n`` scaling it.

    The tests read all three; the trace diagnostics are computed from
    ``v_hat`` once, at construction.  ``p_hat`` and ``v_hat`` are stored
    read-only, ``v_hat`` symmetrised, ``(v + v^T) / 2``.  For a block,
    ``p_hat`` is ``(R, d)``, ``v_hat`` ``(R, d, d)`` and the diagnostics
    read-only ``(R,)`` arrays; ``degenerate`` is shared, as it depends on the mask.

    Raises
    ------
    DimensionMismatch
        ``v_hat`` is not ``p_hat``'s shape plus its last axis, or ``n < 2``.
    """

    p_hat: np.ndarray
    v_hat: np.ndarray
    estimator: str         # "simple" | "general"
    n: int
    degenerate: tuple[str, ...] = ()
    trace: np.ndarray = field(init=False)
    trace_sq: np.ndarray = field(init=False)  # trace of v_hat squared
    nu_hat: np.ndarray = field(init=False)    # trace**2 / trace_sq, the ANOVA df; NaN at v_hat = 0

    def __post_init__(self) -> None:
        p_hat = np.array(self.p_hat, dtype=float)  # a copy: the caller's array stays writable
        v = np.asarray(self.v_hat, dtype=float)
        if p_hat.ndim not in (1, 2) or v.shape != p_hat.shape + p_hat.shape[-1:] or self.n < 2:
            raise DimensionMismatch(f"v_hat {v.shape}, p_hat {p_hat.shape}, n = {self.n}")
        v = 0.5 * (v + v.swapaxes(-1, -2))
        trace = np.trace(v, axis1=-2, axis2=-1)
        trace_sq = np.sum(v * v, axis=(-2, -1))  # symmetric v
        nu_hat = np.full(np.shape(trace_sq), np.nan)
        np.divide(trace * trace, trace_sq, out=nu_hat, where=trace_sq > 0)
        low = np.flatnonzero(trace_sq < 2.0**-1000)  # where the squares may underflow,
        if low.size:  # from v scaled by 2^k to a largest entry in [1/2, 1), which keeps v's bits
            w = v.reshape(-1, *v.shape[-2:])[low]
            w = np.ldexp(w, -np.frexp(np.abs(w).max(axis=(1, 2)))[1][:, None, None])
            w_sq = np.sum(w * w, axis=(1, 2))
            nu_hat.reshape(-1)[low] = np.divide(np.trace(w, axis1=1, axis2=2) ** 2, w_sq,
                                                out=np.full(low.size, np.nan), where=w_sq > 0)
        object.__setattr__(self, "p_hat", _freeze(p_hat))
        object.__setattr__(self, "v_hat", _freeze(v))
        for name, value in (("trace", trace), ("trace_sq", trace_sq), ("nu_hat", nu_hat)):
            object.__setattr__(self, name, _freeze(value)[()])


def _kernel(b: np.ndarray, idx: PatternIndex) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Estimate, the intersection sizes of the stacked rows and the kept sets.

    ``kept`` lists the index sets with a member, of complete (0),
    group-2-only (1) and group-1-only (2); only they are stacked, as an
    empty set's rows add only exact zeros.  Row ``i * d + l`` is component
    ``l``'s row of kept set ``kept[i]``: the difference row minus the whole
    number nearest its mean over the set, times the set's mask.  Its entries
    are half-integers of size at most 2n + 1/2, so the products are exact, and
    ``v`` the same under every BLAS kernel, while 16 n**3 < 2**53 (n below
    about 8e4).  :class:`CovarianceEstimate` makes the estimate exactly
    symmetric; nothing forces it to be positive semidefinite.
    """
    d, n = idx.d, idx.n
    sets = (idx.complete_mask, idx.g2_only_mask, idx.g1_only_mask)
    # the counts depend on the mask alone, so a block's replicates share them
    kept = [a for a, count in enumerate((idx.n_complete, idx.n2_only, idx.n1_only)) if count.any()]
    k = len(kept)
    m = np.concatenate([sets[a] for a in kept], dtype=float)
    e = m @ m.T
    y = b[..., d:, :] - b[..., :d, :]
    # sums[..., i, l]: component l's row summed over kept set i
    sums = (y @ m.T).reshape(*y.shape[:-1], k, d).diagonal(axis1=-3, axis2=-1)
    # centring each row on the whole number nearest its own-set mean leaves
    # every intersection covariance unchanged, keeps the products below well
    # conditioned and the rows half-integers, so all three products are exact
    mean = np.round(sums / np.maximum(e.diagonal(), 1.0).reshape(k, d))
    x = np.empty((*y.shape[:-2], k * d, n))
    np.subtract(y[..., None, :, :], mean[..., None], out=x.reshape(*y.shape[:-2], k, d, n))
    x *= m
    s = x @ m.T  # s[i, j]: sum of row i over the intersection with set j
    # e/(e-1) * (x_i . x_j - s_ij * s_ji / e), zero where e <= 1
    w = np.divide(1.0, e - 1.0, out=np.zeros_like(e), where=e > 1)
    c = (e * (x @ x.swapaxes(-1, -2)) - s * s.swapaxes(-1, -2)) * w
    dm = (idx.m1 * idx.m2).astype(float)
    v = n * c.reshape(*c.shape[:-2], k, d, k, d).sum(axis=(-4, -2)) / np.outer(dm, dm)
    return v, e, kept


def covariance_simple(b: np.ndarray, idx: PatternIndex) -> CovarianceEstimate:
    """Three-part placement-count estimator for treatment-level missingness.

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
    v = _kernel(b, idx)[0]
    return CovarianceEstimate(estimate_effects(b, idx), v, "simple", idx.n, tuple(flags))


def covariance_general(b: np.ndarray, idx: PatternIndex) -> CovarianceEstimate:
    """Nine-term estimator for per-cell missingness.

    Every single-subject intersection is flagged as term ``C1..C9`` (in the
    order complete, group-2-only, group-1-only for the left then the right
    component) of entry (l, r), r >= l.
    """
    v, e, kept = _kernel(b, idx)
    d, k = idx.d, len(kept)
    # axes (l, r, i, j), so argwhere lists the entries and terms in flag order;
    # an empty set meets every set in no subject, so it has no term to flag
    single = e.reshape(k, d, k, d).transpose(1, 3, 0, 2) == 1
    single &= np.triu(np.ones((d, d), bool))[:, :, None, None]
    flags = [
        f"term C{3 * kept[i] + kept[j] + 1} for components ({l},{r}) has a single subject; "
        "contributed zero"
        for l, r, i, j in np.argwhere(single)
    ]
    return CovarianceEstimate(estimate_effects(b, idx), v, "general", idx.n, tuple(flags))
