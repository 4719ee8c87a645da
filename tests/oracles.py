"""Independent brute-force references the implementation is checked against.

Everything here is written from the defining formulas with the dumbest
possible evaluation strategy (explicit loops, pairwise comparisons,
arbitrary-precision series) and must stay independent of the code paths it
validates.
"""

import csv

import mpmath as mp
import numpy as np
from scipy.stats import rankdata

from rankeffect import placements
from rankeffect.errors import PatternMismatch


def count_fn(x: float) -> float:
    """Tie-aware comparison weight: 0 for negative, 1/2 for zero, 1 for positive."""
    if x < 0:
        return 0.0
    if x == 0:
        return 0.5
    return 1.0


def placement_counts_bruteforce(sample) -> np.ndarray:
    """Placement counts by pairwise comparison: b = sum over the other group of c(x - y).

    Per component, each observed cell is compared with every observed cell of
    the other group; unobserved cells hold NaN.
    """
    d = sample.d
    b = np.full(sample.values.shape, np.nan)
    for row in range(2 * d):
        other = (row + d) % (2 * d)
        ys = sample.values[other, sample.observed[other]]
        for k in np.flatnonzero(sample.observed[row]):
            b[row, k] = sum(count_fn(sample.values[row, k] - y) for y in ys)
    return b


def placement_counts_rankdata(sample) -> np.ndarray:
    """Placement counts as pooled minus own-group midranks from ``scipy.stats.rankdata``."""
    d = sample.d
    b = np.full(sample.values.shape, np.nan)
    for l in range(d):
        c1 = np.flatnonzero(sample.observed[l])
        c2 = np.flatnonzero(sample.observed[d + l])
        x1, x2 = sample.values[l, c1], sample.values[d + l, c2]
        pooled = rankdata(np.concatenate([x1, x2]))
        b[l, c1] = pooled[: c1.size] - rankdata(x1)
        b[d + l, c2] = pooled[c1.size:] - rankdata(x2)
    return b


def effect_bruteforce(sample, idx) -> np.ndarray:
    """Effect per component by explicit pairwise counting over observed values."""
    d = sample.d
    p = np.empty(d)
    for l in range(d):
        x1 = sample.values[l, sample.observed[l]]
        x2 = sample.values[d + l, sample.observed[d + l]]
        total = 0.0
        for b in x2:
            for a in x1:
                total += count_fn(b - a)
        p[l] = total / (len(x1) * len(x2))
    return p


def covariance_simple_placement_scale(place, idx) -> np.ndarray:
    """Three-part covariance assembled from placement values instead of ranks.

    Uses the weighted-difference vectors over paired cases and the raw
    placements over one-sided cases with per-part 1/m_g^2 scaling; must
    agree with the rank-difference form to rounding error.
    """
    d, n = idx.d, idx.n
    n_c = int(idx.n_complete[0])
    n_1 = int(idx.n1_only[0])
    n_2 = int(idx.n2_only[0])
    m1 = n_c + n_1
    m2 = n_c + n_2
    theta1 = n_c / m1
    theta2 = n_c / m2
    y = place
    v = np.zeros((d, d))
    comp = idx.complete_mask[0]
    if n_c >= 2:
        z = theta2 * y[d:, comp] - theta1 * y[:d, comp]
        zc = z - z.mean(axis=1, keepdims=True)
        v += n / (n_c * (n_c - 1)) * (zc @ zc.T)
    for cnt, m_own, rows, cols in (
        (n_1, m1, slice(0, d), idx.g1_only_mask[0]),
        (n_2, m2, slice(d, 2 * d), idx.g2_only_mask[0]),
    ):
        if cnt >= 2:
            yy = y[rows, cols]
            yc = yy - yy.mean(axis=1, keepdims=True)
            v += n * cnt / (m_own * m_own * (cnt - 1)) * (yc @ yc.T)
    return v


# The nine cross-covariance terms of the general-pattern entry (l, r).
# Columns: left variable, right variable, sign, left denominator, right
# denominator; variables are "z" (complete-case weighted difference), "y2"
# (group-2 one-sided placement) or "y1"; denominators are taken per
# component ("nc", "m1", "m2").
NINE_TERMS = (
    ("z", "z", +1, "nc", "nc"),
    ("z", "y2", +1, "nc", "m2"),
    ("z", "y1", -1, "nc", "m1"),
    ("y2", "z", +1, "m2", "nc"),
    ("y2", "y2", +1, "m2", "m2"),
    ("y2", "y1", -1, "m2", "m1"),
    ("y1", "z", -1, "m1", "nc"),
    ("y1", "y2", -1, "m1", "m2"),
    ("y1", "y1", +1, "m1", "m1"),
)


def covariance_nine_term(sample, idx, ranks):
    """General-pattern covariance entry by entry and term by term from placements.

    Entry (l, r) sums the signed cross-covariances of the complete-case
    weighted difference and the one-sided placements over the intersections
    of the two components' index sets, each with an ``e/(e-1)`` factor and
    divided by the per-component case counts.  Returns ``(v, flags, terms)``:
    the symmetric matrix, one flag per single-subject intersection in
    (l, r >= l, term) order, and the (d, d, 9) signed, scaled contribution
    of each term, so that ``v == terms.sum(axis=2)``.
    """
    d, n = idx.d, idx.n
    y = placements(ranks, idx)
    theta1 = idx.n_complete / idx.m1
    theta2 = idx.n_complete / idx.m2
    values = {
        "z": theta2[:, None] * y[d:] - theta1[:, None] * y[:d],
        "y1": y[:d],
        "y2": y[d:],
    }
    masks = {"z": idx.complete_mask, "y1": idx.g1_only_mask, "y2": idx.g2_only_mask}
    denoms = {"nc": idx.n_complete, "m1": idx.m1, "m2": idx.m2}
    terms = np.zeros((d, d, 9))
    flags = []
    for l in range(d):
        for r in range(l, d):
            for j, (left, right, sign, dl, dr) in enumerate(NINE_TERMS):
                members = masks[left][l] & masks[right][r]
                e = int(members.sum())
                if e <= 1:
                    if e == 1:
                        flags.append(
                            f"term C{j + 1} for components ({l},{r}) has a single "
                            "subject; contributed zero"
                        )
                    continue
                a = values[left][l, members]
                b = values[right][r, members]
                c_hat = e / (e - 1) * float(np.dot(a - a.mean(), b - b.mean()))
                terms[l, r, j] = terms[r, l, j] = (
                    n * sign * c_hat / (denoms[dl][l] * denoms[dr][r])
                )
    return terms.sum(axis=2), flags, terms


def covariance_from_marginals(sample, idx, marginal_cdfs) -> np.ndarray:
    """Three-part covariance using true marginal CDFs instead of placements.

    ``marginal_cdfs[l]`` is a pair ``(F1, F2)`` of vectorized CDF callables
    for component ``l`` in groups 1 and 2.  For distributions with atoms,
    pass the normalized CDF (the average of the left- and right-continuous
    versions).  Not computable from data alone; the rank-based estimator
    must converge to it.
    """
    if not idx.is_simple_pattern:
        raise PatternMismatch("the oracle form is defined for treatment-level missingness")
    d, n = idx.d, idx.n
    n_c = int(idx.n_complete[0])
    n_1 = int(idx.n1_only[0])
    n_2 = int(idx.n2_only[0])
    m1 = n_c + n_1
    m2 = n_c + n_2
    theta1 = n_c / m1
    theta2 = n_c / m2

    y = np.full_like(sample.values, np.nan)
    for l in range(d):
        f1, f2 = marginal_cdfs[l]
        obs1 = sample.observed[l]
        obs2 = sample.observed[d + l]
        y[l, obs1] = np.asarray(f2(sample.values[l, obs1]), dtype=float)
        y[d + l, obs2] = np.asarray(f1(sample.values[d + l, obs2]), dtype=float)

    def scatter(x):
        centered = x - x.mean(axis=1, keepdims=True)
        return centered @ centered.T

    v = np.zeros((d, d))
    comp = idx.complete_mask[0]
    if n_c >= 2:
        z = theta2 * y[d:, comp] - theta1 * y[:d, comp]
        v += n / (n_c * (n_c - 1)) * scatter(z)
    for cnt, m_own, rows, cols in (
        (n_1, m1, slice(0, d), idx.g1_only_mask[0]),
        (n_2, m2, slice(d, 2 * d), idx.g2_only_mask[0]),
    ):
        if cnt >= 2:
            v += n * cnt / (m_own * m_own * (cnt - 1)) * scatter(y[rows, cols])
    return v


def wald_eigh(dev, v_hat, n: int) -> tuple[float, float, tuple[str, ...]]:
    """One replicate's Wald statistic, df and flags through the eigenpairs of ``v_hat``.

    The form ``wald_test`` took before it eliminated: ``n * sum_k (u_k .
    dev)^2 / lambda_k`` over the eigenpairs with |lambda_k| above ``1e-10 *
    trace / d``, the Moore-Penrose pseudo-inverse, with their count as df.
    Each projection ``u_k . dev`` is summed by a Python loop in component
    order, with no BLAS call, and ``np.sum`` adds the terms, zero for a
    dropped eigenpair.  At a trace <= 0 the statistic and df are 0 at the
    null point and NaN off it.  The flags are those the test adds, without
    the estimate's own.
    """
    d = dev.size
    trace = np.trace(v_hat)
    if trace <= 0.0:
        if np.any(np.abs(dev) > 1e-12):
            return np.nan, np.nan, (
                "inestimable: covariance estimate is zero while the effect deviates from one half",
            )
        return 0.0, 0.0, ("zero-covariance-null",)
    eigvals, eigvecs = np.linalg.eigh((v_hat + v_hat.T) / 2.0)
    kept = np.abs(eigvals) > 1e-10 * trace / d
    terms = np.zeros(d)
    with np.errstate(over="ignore"):  # a subnormal eigenvalue's term may be inf
        for k in np.flatnonzero(kept):
            proj = 0.0
            for i in range(d):
                proj += float(eigvecs[i, k]) * float(dev[i])
            terms[k] = proj * proj / eigvals[k]
        statistic, rank = float(n * np.sum(terms)), int(kept.sum())
    flags = ()
    if rank < d:
        flags += (f"singular covariance: pseudo-inverse with rank {rank}",)
    if statistic < 0.0:
        flags += ("negative quadratic form clamped to zero for the p-value",)
    return statistic, float(rank), flags


def chisq_upper_tail_highprec(x: float, k: float, dps: int = 50) -> float:
    """Upper chi-square tail via an arbitrary-precision series/continued fraction.

    Evaluates the regularized incomplete gamma Q(s, t) with s = k/2,
    t = x/2: the power series of the lower function for small t and the
    Lentz continued fraction for large t, both carried at ``dps`` decimal
    digits.
    """
    with mp.workdps(dps):
        s = mp.mpf(k) / 2
        t = mp.mpf(x) / 2
        if t == 0:
            return 1.0
        if t < s + 1:
            # lower regularized series: P = t^s e^-t sum_j t^j / Gamma(s+j+1)
            term = mp.mpf(1) / mp.gamma(s + 1)
            total = term
            j = 1
            while True:
                term *= t / (s + j)
                total += term
                if abs(term) < abs(total) * mp.mpf(10) ** (-dps):
                    break
                j += 1
            p_lower = mp.power(t, s) * mp.e**-t * total
            return float(1 - p_lower)
        # Lentz's algorithm for the continued fraction of Q
        tiny = mp.mpf(10) ** (-dps * 2)
        b = t + 1 - s
        c = 1 / tiny
        dd = 1 / b
        h = dd
        for i in range(1, 10000):
            an = -i * (i - s)
            b += 2
            dd = an * dd + b
            if abs(dd) < tiny:
                dd = tiny
            c = b + an / c
            if abs(c) < tiny:
                c = tiny
            dd = 1 / dd
            delta = dd * c
            h *= delta
            if abs(delta - 1) < mp.mpf(10) ** (-dps):
                break
        q = mp.power(t, s) * mp.e**-t * h / mp.gamma(s)
        return float(q)


def write_dataset(sample, path) -> None:
    """Write a sample back to wide CSV with ``NA`` cells; inverse of ``parse_dataset``."""
    d = sample.d
    header = [f"g1_var{l + 1}" for l in range(d)] + [f"g2_var{l + 1}" for l in range(d)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(sample.n):
            row = [
                repr(float(sample.values[j, k])) if sample.observed[j, k] else "NA"
                for j in range(2 * d)
            ]
            writer.writerow(row)


# The forms below are the masked-pass versions of ``build_rank_table``,
# ``estimate_effects`` and the covariance kernel: masked writes
# (``where=``, ``copyto(where=)``, ``np.where``) over the per-cell masks.
# The package computes the same bits with plain arithmetic; these forms pin
# those bits, signs of zero included.

def build_rank_table_masked(sample) -> np.ndarray:
    """Placement counts with the runs, group-1 offsets and NaN cells written by masked passes."""
    d, n = sample.d, sample.n
    pooled = sample.observed.reshape(2, d, n).swapaxes(0, 1).reshape(d, 2 * n)
    length = pooled.sum(axis=1)
    width = int(length.max())
    source = np.argsort(~pooled, axis=1, kind="stable")[:, :width].copy()
    np.add(source, (d - 1) * n, out=source, where=source >= n)
    source += n * np.arange(d)[:, None]
    padding = np.arange(width) >= length[:, None]
    keys = np.take(sample.values.reshape(-1, 2 * d * n), source, axis=1)
    np.copyto(keys, np.inf, where=padding)
    keys = keys.reshape(-1, width)
    cell = np.argsort(keys, axis=1)
    ordered = np.take_along_axis(keys, cell, axis=1)
    new_run = np.empty(ordered.shape, dtype=bool)
    np.not_equal(ordered[:, 1:], ordered[:, :-1], out=new_run[:, 1:])
    new_run[:, :1] = True
    starts = np.flatnonzero(new_run)
    run = (np.cumsum(new_run) - 1).reshape(new_run.shape)
    rows = cell.reshape(-1, d, width)
    in_group1 = (rows < sample.observed[:d].sum(axis=1)[:, None]).reshape(cell.shape)
    rows += width * np.arange(d)[:, None]
    target = np.take(source, cell)
    replicates = target.reshape(-1, d * width)
    replicates += 2 * d * n * np.arange(len(replicates))[:, None]
    group1 = np.add.reduceat(in_group1.ravel(), starts, dtype=run.dtype)
    before = np.cumsum(group1) - group1
    first = run[:, 0]
    before -= np.repeat(before[first], np.diff(first, append=len(starts)))
    counts = np.empty((2, len(starts)))
    np.multiply(group1, 0.5, out=counts[0])
    counts[0] += before
    np.subtract(starts[1:], starts[:-1], out=counts[1, :-1])
    counts[1, -1] = target.size - starts[-1]
    counts[1] *= 0.5
    counts[1] += starts % width
    counts[1] -= counts[0]
    np.add(run, counts.shape[1], out=run, where=in_group1)
    b = np.empty(sample.values.shape)
    np.put(b, target, counts.ravel()[run])
    np.copyto(b, np.nan, where=~sample.observed)
    return b


def estimate_effects_masked(b, idx) -> np.ndarray:
    """Effects with the NaN cells of ``b`` replaced by zero through ``np.where``."""
    b2 = b[..., idx.d:, :]
    return np.where(np.isnan(b2), 0.0, b2).sum(axis=-1) / (idx.m1 * idx.m2)


def covariance_kernel_masked(b, idx) -> np.ndarray:
    """The unsymmetrised covariance estimate, each stacked row written and centred on its mask.

    A row is centred on the whole number nearest its mean, so twice the
    row is integer; its sums and Gram products are taken exactly with
    numpy's int64 matmul, which calls no BLAS, so the bits they pin do not
    depend on any BLAS kernel's summation order.
    """
    d, n = idx.d, idx.n
    lo, hi = b[..., :d, :], b[..., d:, :]
    masks = np.concatenate([idx.complete_mask, idx.g2_only_mask, idx.g1_only_mask])
    ints = masks.astype(np.int64)
    e = (ints @ ints.T).astype(float)
    x = np.zeros((*b.shape[:-2], 3 * d, n))
    np.subtract(hi, lo, out=x[..., :d, :], where=idx.complete_mask)
    np.copyto(x[..., d:2 * d, :], hi, where=idx.g2_only_mask)
    np.negative(lo, out=x[..., 2 * d:, :], where=idx.g1_only_mask)
    mean = np.round(x.sum(axis=-1) / np.maximum(e.diagonal(), 1.0))
    np.subtract(x, mean[..., None], out=x, where=masks)
    twice = np.rint(2.0 * x).astype(np.int64)
    s = (twice @ ints.T) / 2.0
    gram = (twice @ twice.swapaxes(-1, -2)) / 4.0
    w = np.divide(1.0, e - 1.0, out=np.zeros_like(e), where=e > 1)
    c = (e * gram - s * s.swapaxes(-1, -2)) * w
    dm = (idx.m1 * idx.m2).astype(float)
    return n * c.reshape(*c.shape[:-2], 3, d, 3, d).sum(axis=(-4, -2)) / np.outer(dm, dm)
