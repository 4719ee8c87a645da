"""Joint hypothesis tests on the effect vector.

Two statistics against the no-tendency null (all component effects equal
one half), each a function of one :class:`CovarianceEstimate`: its effect,
covariance and subject count.  A Wald-type quadratic form is referred to
chi-square with ``d`` degrees of freedom, and a trace-normalized (ANOVA-type)
form to an F distribution with estimated numerator and infinite denominator
degrees of freedom, through ``P(F(nu, inf) >= f) = P(chi2_nu >= nu * f)``.
The Wald statistic is known to be liberal in small samples; the ANOVA-type
statistic is the small-sample workhorse.  Either test also takes a sequence
of estimates of one shape and tests all their replicates in one stacked pass.

Both tests share one zero-covariance rule, replicate by replicate, each row of
a stack alone: at a trace <= 0 (the only case of a rank-0 Wald pseudo-inverse,
since the largest eigenvalue is >= trace/d) a statistic exists only at the
null point, reported as a non-rejection flagged ``"zero-covariance-null"``.
Off the null point, as under complete separation, the test is undefined: NaN
statistic, df and p-value, no rejection, and an ``"inestimable: ..."`` flag
alone.

Both p-values come from the chi-square upper tail :func:`chisq_upper_tail`,
the regularized upper incomplete gamma function Q(a, x), computed in numpy
in two regimes split at ``x = a + 1`` as in Press et al., *Numerical
Recipes* (3rd ed., 2007), section 6.2: below the split the power series of
the lower function P = 1 - Q, above it Gauss-Laguerre quadrature of the
integral Gamma(a, x), which Numerical Recipes evaluates by a continued
fraction.  DiDonato & Morris (1986, ACM TOMS 12:377) analyse both regimes.
Each element's value depends on its own ``(x, a)`` alone, so a block of
replicates gets exactly the p-values its replicates get one at a time.
"""

import math
from dataclasses import dataclass

import numpy as np

from .covariance import CovarianceEstimate, covariance_general, covariance_simple
from .data import MaskedSample, PatternIndex, _freeze, derive_pattern_index
from .effects import METHODS, _restriction, check_methods
from .errors import (
    DimensionMismatch, DomainError, EverythingFiltered, NoEstimablePart, PatternMismatch,
)
from .ranks import build_rank_table, nan_unless

__all__ = [
    "TestReport",
    "MethodAnalysis",
    "chisq_upper_tail",
    "wald_test",
    "anova_test",
    "analyze",
]

#: Default significance level of every test and of :func:`analyze`.
ALPHA = 0.05
#: Test families, in the order each method reports them.
FAMILIES = ("wald", "anova")
#: Covariance-estimator selections of :func:`analyze`.
PATTERN_CHOICES = ("auto", "simple", "general")

# relative eigenvalue cutoff for rank-aware inversion: |lam| > rel * trace / d
_PINV_RANK_REL = 1e-10
# max |p_hat - 1/2| still treated as the exact null point when the
# covariance estimate is identically zero
_NULL_DEVIATION = 1e-12
_OFF_NULL = "covariance estimate is zero while the effect deviates from one half"


# terms 1..32 of the lower series, one column per term; an element whose own
# last term is still above eps times its own sum gets the next 32
_SERIES_TERMS = np.arange(1.0, 33.0)
# 64-node Gauss-Laguerre rule for the upper regime
_LAGUERRE_NODES, _LAGUERRE_WEIGHTS = np.polynomial.laguerre.laggauss(64)
# largest df the tail supports: just above x = a + 1 the quadrature's error
# grows with a, from about 1e-12 relative at k = 2000 to 7e-10 at k = 3000
_MAX_DF = 2000.0
_EPS = np.finfo(float).eps


def _lgamma(a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(math.lgamma, a.tolist()), float, a.size)


def _lower_series(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(a, x) for x < a + 1, as 1 - P with the power series of P.

    P = x^a e^-x / Gamma(a+1) * (1 + sum_j x^j / ((a+1)...(a+j))).
    """
    total = np.ones(x.shape)
    last = np.ones(x.shape)
    more = slice(None)  # every element takes terms 1..32
    offset = 0.0
    while True:
        ratios = x[more, None] / (a[more, None] + (_SERIES_TERMS + offset))
        terms = np.cumprod(ratios, axis=1) * last[more, None]
        total[more] += terms.sum(axis=1)
        last[more] = terms[:, -1]
        # a finished element's last term and sum no longer change
        more = np.flatnonzero(last > _EPS * total)
        if not more.size:
            break
        offset += 32.0
    log_x = np.log(x, out=np.full(x.shape, -np.inf), where=x > 0.0)
    # P rounds above 1 by an ulp when a is tiny (k below about 1e-15)
    return np.maximum(1.0 - np.exp(a * log_x - x - _lgamma(a + 1.0)) * total, 0.0)


def _laguerre_quadrature(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Q(a, x) for x >= a + 1 by Gauss-Laguerre quadrature.

    Gamma(a, x) = x^(a-1) e^-x int_0^inf (1 + u/x)^(a-1) e^-u du, and for
    x >= a + 1 the integrand's factor (1 + u/x)^(a-1) is at most e^u, so it
    cannot overflow.  The rule's sum is a per-row ``sum``, not a matrix
    product, whose BLAS summation order could depend on the number of rows.
    """
    f = _LAGUERRE_NODES / x[:, None]
    np.log1p(f, out=f)
    f *= (a - 1.0)[:, None]
    np.exp(f, out=f)
    f *= _LAGUERRE_WEIGHTS
    return np.exp((a - 1.0) * np.log(x) - x - _lgamma(a)) * f.sum(axis=1)


def chisq_upper_tail(x: float | np.ndarray, k: float | np.ndarray) -> float | np.ndarray:
    """Upper tail probability of a chi-square variable with ``k`` df at ``x``.

    Equals the regularized upper incomplete gamma function Q(k/2, x/2);
    ``k`` may be any positive real up to 2000, as required by the estimated
    degrees of freedom of the ANOVA-type statistic.  Floats give a float;
    arrays give an array, element by element, and each element is exactly
    what its own scalar call gives.

    Q(a, x) comes from the lower power series for x < a + 1 and from 64-node
    Gauss-Laguerre quadrature of the upper integral otherwise (Press et al.,
    *Numerical Recipes*, section 6.2; DiDonato & Morris 1986).  Against
    scipy's ``gammaincc`` it agrees to about 1e-14 absolute for k <= 10 and
    to about 4e-12 relative for k up to 2000.

    Raises
    ------
    DomainError
        ``x`` negative or not finite, or ``k`` outside (0, 2000].
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    ok = (x >= 0.0) & (x < np.inf)  # false for NaN too
    if not ok.all():
        raise DomainError(f"x must be finite and >= 0, got {x[~ok][0]}")
    ok = (k > 0.0) & (k <= _MAX_DF)
    if not ok.all():
        raise DomainError(f"k must be > 0 and at most {_MAX_DF:g}, got {k[~ok][0]}")
    if x.shape != k.shape:
        x, k = np.broadcast_arrays(x, k)
    a, half_x = k.ravel() / 2.0, x.ravel() / 2.0
    lower = half_x < a + 1.0
    q = np.empty(a.shape)
    for regime, part in ((_lower_series, lower), (_laguerre_quadrature, ~lower)):
        if part.any():  # a regime with no elements would still make a dozen numpy calls
            q[part] = regime(a[part], half_x[part])
    return float(q[0]) if x.ndim == 0 else q.reshape(x.shape)


@dataclass(frozen=True, eq=False)
class TestReport:
    """Outcome of one test: statistic, reference distribution, decision.

    For a block of replicates, ``statistic``, ``df``, ``p_value`` and
    ``reject`` are read-only ``(R,)`` arrays and ``flags`` holds one tuple per replicate.
    """

    statistic: float
    df: float
    p_value: float
    reject: bool
    family: str   # one of FAMILIES
    flags: tuple[str, ...] = ()


def _reports(stat, df, p, alpha, family: str, flags: list, batch: tuple[int, ...],
             undefined: np.ndarray, reason: str = _OFF_NULL) -> list[TestReport]:
    """One report per estimate of a stack; a single dataset's holds plain values.

    A replicate in ``undefined`` has no test: NaN statistic, df and p-value, no
    rejection, and ``"inestimable: <reason>"`` as its only flag.  A block's
    arrays are read-only rows of the stack's.
    """
    stat[undefined] = df[undefined] = p[undefined] = np.nan
    for i in np.flatnonzero(undefined):
        flags[i] = (f"inestimable: {reason}",)
    arrays = (stat, df, p, p <= alpha)
    if batch:
        arrays = [_freeze(a.reshape(-1, *batch)) for a in arrays]
        flags = [tuple(flags[i:i + batch[0]]) for i in range(0, len(flags), batch[0])]
    else:
        arrays = [a.tolist() for a in arrays]
    return [TestReport(*row[:4], family, row[4]) for row in zip(*arrays, flags)]


def _skipped(family: str, reason: str, batch: tuple[int, ...]) -> TestReport:
    size = batch[0] if batch else 1
    stat, df, p = (np.full(size, np.nan) for _ in range(3))
    return _reports(stat, df, p, ALPHA, family, [()] * size, batch, np.ones(size, bool), reason)[0]


def _check_alpha(alpha: float) -> None:
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")


def _stack(cov):
    """The checked estimates of a test call, their batch shape and their stacked rows.

    Per row: ``p_hat - 1/2``, trace, ``n``, whether the covariance is zero and
    whether also off the null point, and the flags so far.
    """
    covs = (cov,) if isinstance(cov, CovarianceEstimate) else tuple(cov)
    if not all(isinstance(c, CovarianceEstimate) for c in covs):
        raise TypeError("the tests take a CovarianceEstimate or a sequence of them")
    shapes = {c.p_hat.shape for c in covs}
    if len(shapes) != 1:
        raise DimensionMismatch(f"need estimates of one shape, got {sorted(shapes)}")
    (shape,) = shapes
    dev = np.concatenate([c.p_hat.reshape(-1, shape[-1]) for c in covs]) - 0.5
    trace = np.concatenate([np.reshape(c.trace, -1) for c in covs])
    reps = trace.size // len(covs)
    zero = trace <= 0.0
    off = zero & (np.abs(dev) > _NULL_DEVIATION).any(axis=1)
    flags = [c.degenerate for c in covs for _ in range(reps)]
    for i in np.flatnonzero(zero):
        flags[i] += ("zero-covariance-null",)
    return covs, shape[:-1], dev, trace, np.repeat([c.n for c in covs], reps), zero, off, flags


def wald_test(cov, *, alpha: float = ALPHA) -> TestReport | list[TestReport]:
    """Quadratic form of ``cov.p_hat - 1/2`` against the inverse covariance, times ``cov.n``.

    The form sums over the eigenpairs of ``cov.v_hat`` with eigenvalues above
    ``1e-10 * trace/d`` in magnitude: the Moore-Penrose pseudo-inverse of a
    singular estimate, whose degrees of freedom shrink to the effective rank
    and whose fallback is flagged.  A block gives one test per replicate.
    A replicate whose estimate vanishes off the null point has no statistic:
    its results are NaN and it is flagged inestimable.  A sequence of
    estimates gives a list of their reports, each what its estimate gives alone.

    Raises
    ------
    ValueError
        ``alpha`` outside (0, 1).
    TypeError
        ``cov`` is neither an estimate nor a sequence of estimates.
    DimensionMismatch
        The sequence is empty or its estimates differ in d or batch shape.
    """
    _check_alpha(alpha)
    covs, batch, dev, trace, n, zero, off, flags = _stack(cov)
    d = dev.shape[1]
    eigvals, eigvecs = np.linalg.eigh(np.concatenate([c.v_hat.reshape(-1, d, d) for c in covs]))
    kept = np.abs(eigvals) > _PINV_RANK_REL * trace[:, None] / d
    rank = kept.sum(axis=1)
    # products summed over the components in order and terms by a row sum: no
    # BLAS call, so the bits depend on neither the BLAS kernel nor the block
    proj = np.sum(eigvecs * dev[:, :, None], axis=1)
    terms = np.divide(proj * proj, eigvals, out=np.zeros(eigvals.shape), where=kept)
    stat = n * np.sum(terms, axis=1)
    for i in np.flatnonzero((rank < d) & ~zero):
        flags[i] += (f"singular covariance: pseudo-inverse with rank {rank[i]}",)
    stat[zero] = 0.0
    df = np.where(zero, 0.0, rank)
    # possible when the general-pattern estimate is indefinite
    for i in np.flatnonzero(stat < 0.0):
        flags[i] += ("negative quadratic form clamped to zero for the p-value",)
    p = np.ones(stat.shape)
    p[~zero] = chisq_upper_tail(np.maximum(stat[~zero], 0.0), df[~zero])
    reports = _reports(stat, df, p, alpha, "wald", flags, batch, off)
    return reports[0] if isinstance(cov, CovarianceEstimate) else reports


def anova_test(cov, *, alpha: float = ALPHA) -> TestReport | list[TestReport]:
    """Trace-normalized quadratic form of ``cov.p_hat - 1/2`` with estimated df.

    It is scaled by ``cov.n``, and the degrees of freedom (df) are ``cov.nu_hat``.
    A block gives one test per replicate; one whose trace vanishes off the
    null point has NaN results and is flagged inestimable.  ``cov`` may be a
    sequence of estimates, and bad arguments raise, as for :func:`wald_test`.
    """
    _check_alpha(alpha)
    covs, batch, dev, trace, n, zero, off, flags = _stack(cov)
    scale = np.divide(n, trace, out=np.zeros(trace.shape), where=~zero)
    stat = scale * np.sum(dev * dev, axis=1)
    df = np.where(zero, 0.0, np.concatenate([np.reshape(c.nu_hat, -1) for c in covs]))
    p = np.ones(stat.shape)
    p[~zero] = chisq_upper_tail(df[~zero] * stat[~zero], df[~zero])
    reports = _reports(stat, df, p, alpha, "anova", flags, batch, off)
    return reports[0] if isinstance(cov, CovarianceEstimate) else reports


@dataclass(frozen=True, eq=False)
class MethodAnalysis:
    """Everything one case-restriction method produced, or why it was skipped.

    ``index`` is the restricted sample's pattern index, with the subject and
    case counts behind ``effects`` (the covariance's ``p_hat`` array); all
    three are ``None`` for a skipped method.  ``skipped`` is a reason on the
    mask, shared by every replicate of a block; a replicate whose test is
    undefined has NaN results and an inestimable flag in ``wald`` and
    ``anova`` instead.
    """

    method: str
    effects: np.ndarray | None
    covariance: CovarianceEstimate | None
    index: PatternIndex | None
    wald: TestReport
    anova: TestReport
    skipped: str | None = None


def _select_covariance(b, idx, pattern: str):
    if pattern == "simple" or (pattern == "auto" and idx.is_simple_pattern):
        return covariance_simple(b, idx)
    return covariance_general(b, idx)


def analyze(
    sample: MaskedSample,
    alpha: float = ALPHA,
    methods: tuple[str, ...] = METHODS,
    pattern: str = "auto",
) -> list[MethodAnalysis]:
    """Run the full pipeline for each requested case-restriction method.

    The pattern index is derived from ``sample`` once the other arguments
    are checked.  ``pattern`` selects the covariance estimator: ``"auto"``
    picks the treatment-level form whenever the (restricted) data allows
    it, ``"simple"`` insists on it and ``"general"`` always uses the
    nine-term form.  Methods whose restriction is inestimable yield
    placeholder reports instead of aborting the run.

    The sample is sorted once for every method: one
    :func:`~rankeffect.ranks.build_rank_table` call split by the complete
    cases gives the counts of ``"all"`` and each cell's counts within its
    own case class, which, cut to a restricted method's columns, are its
    restricted sample's counts bit for bit.  A restricted method's pattern
    index comes from its cut of the mask alone; no restricted sample is
    built, so :func:`~rankeffect.effects.restrict_method` is not called.
    The restricted methods run first, so that their table is freed before
    ``"all"`` estimates its covariance; the results come in the order of
    ``methods``.  One :func:`wald_test` and one :func:`anova_test` call then
    test every estimable method, each replicate of each by its own row.

    ``sample`` may be a block of replicates; every effect, covariance and
    report then has its leading replicate axis, and a skip applies to the
    whole block, since its reasons depend on the shared mask alone.  A zero
    covariance off the null point belongs to one replicate of one method and
    skips nothing: that replicate's tests are NaN and flagged inestimable.
    A block's report arrays are read-only.

    Raises
    ------
    ValueError
        ``alpha`` outside (0, 1), a method list that is empty, repeats a
        method or names an unknown one, or an unknown ``pattern``.
    InestimableComponent
        Some group has no observation on a component of ``sample``.
    PatternMismatch
        ``pattern="simple"`` on data without treatment-level missingness.
    """
    _check_alpha(alpha)
    check_methods(methods)
    if pattern not in PATTERN_CHOICES:
        raise ValueError(f"unknown pattern {pattern!r}")
    idx = derive_pattern_index(sample)
    if pattern == "simple" and not idx.is_simple_pattern:
        raise PatternMismatch(
            "pattern mismatch: data does not have treatment-level missingness"
        )
    batch = sample.values.shape[:-2]
    # each table goes after its last use, so that "all" never holds ``own``
    restricted = [method for method in methods if method != "all"]
    if restricted:
        b, own = build_rank_table(sample, split=idx.complete_mask)
    else:
        b = build_rank_table(sample)
    covs, out = {}, {}
    for method in sorted(methods, key=lambda m: m == "all"):
        try:
            if method == "all":
                table, sub_idx, own = b, idx, None
            else:
                keep, mask, sub_idx = _restriction(idx, method)
                # the own-class counts of the kept columns, NaN off their cells
                table = np.compress(keep, own, axis=-1)
                if method == restricted[-1]:
                    own = None
                table += nan_unless(mask)
                del keep, mask
            covs[method] = _select_covariance(table, sub_idx, pattern), sub_idx
            del table
        except (EverythingFiltered, NoEstimablePart) as exc:
            # both depend on the mask and so hold for every replicate of a block
            reason = str(exc)
            out[method] = MethodAnalysis(
                method,
                None,
                None,
                None,
                _skipped("wald", reason, batch),
                _skipped("anova", reason, batch),
                skipped=reason,
            )
    if covs:
        estimates = [cov for cov, _ in covs.values()]
        tests = zip(wald_test(estimates, alpha=alpha), anova_test(estimates, alpha=alpha))
        for (method, (cov, sub_idx)), (wald, anova) in zip(covs.items(), tests):
            out[method] = MethodAnalysis(method, cov.p_hat, cov, sub_idx, wald, anova)
    return [out[method] for method in methods]
