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


def wald_statistic_pinv(dev, v_hat, n: int) -> float:
    """One replicate's Wald statistic through the eigenpairs its pseudo-inverse keeps.

    The statistic ``n * sum_k (u_k . dev)^2 / lambda_k`` over the kept
    eigenpairs, evaluated as one matrix-vector product of the kept
    eigenvectors; the package must give the same float for every replicate
    of a block.
    """
    d = dev.size
    eigvals, eigvecs = np.linalg.eigh((v_hat + v_hat.T) / 2.0)
    kept = np.abs(eigvals) > 1e-10 * np.trace(v_hat) / d
    proj = eigvecs[:, kept].T @ dev
    return float(n * np.sum(proj * proj / eigvals[kept]))


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
