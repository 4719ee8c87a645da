"""Joint hypothesis tests on the effect vector.

Two statistics against the no-tendency null (all component effects equal
one half): a Wald-type quadratic form referred to chi-square with ``d``
degrees of freedom, and a trace-normalized (ANOVA-type) form referred to an
F distribution with estimated numerator degrees of freedom and infinite
denominator degrees of freedom, which is evaluated through the chi-square
identity ``P(F(nu, inf) >= f) = P(chi2_nu >= nu * f)``.  The Wald statistic
is known to be liberal in small samples; the ANOVA-type statistic is the
small-sample workhorse.

Both tests share one zero-covariance rule: at a trace <= 0 (the only case of
a rank-0 Wald pseudo-inverse, since the largest eigenvalue is >= trace/d) a
statistic exists only at the null point, reported as a non-rejection flagged
``"zero-covariance-null"``; elsewhere :class:`ZeroCovariance` is raised.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from .covariance import CovarianceEstimate, covariance_general, covariance_simple
from .data import MaskedSample, PatternIndex, check_estimable
from .effects import METHODS, EffectEstimate, check_methods, estimate_effects, restrict_method
from .errors import (
    DomainError,
    EverythingFiltered,
    NoEstimablePart,
    PatternMismatch,
    ZeroCovariance,
)
from .ranks import build_rank_table

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


def chisq_upper_tail(x: float | np.ndarray, k: float | np.ndarray) -> float | np.ndarray:
    """Upper tail probability of a chi-square variable with ``k`` df at ``x``.

    Equals the regularized upper incomplete gamma function Q(k/2, x/2);
    ``k`` may be any positive real, as required by the estimated degrees of
    freedom of the ANOVA-type statistic.  Floats give a float; arrays give
    an array, element by element.
    """
    x = np.asarray(x, dtype=float)
    k = np.asarray(k, dtype=float)
    bad = ~(x >= 0.0) | ~np.isfinite(x)
    if bad.any():
        raise DomainError(f"x must be finite and >= 0, got {x[bad][0]}")
    bad = ~(k > 0.0) | ~np.isfinite(k)
    if bad.any():
        raise DomainError(f"k must be finite and > 0, got {k[bad][0]}")
    p = special.gammaincc(k / 2.0, x / 2.0)
    return float(p) if p.ndim == 0 else p


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test: statistic, reference distribution, decision.

    For a block of replicates, ``statistic``, ``df``, ``p_value`` and
    ``reject`` are ``(R,)`` arrays and ``flags`` holds one tuple per replicate.
    """

    statistic: float
    df: float
    p_value: float
    reject: bool
    family: str   # one of FAMILIES
    flags: tuple[str, ...] = ()


def _report(stat, df, p, reject, family: str, flags: list, single: bool) -> TestReport:
    """A report from per-replicate arrays; a single dataset's holds plain values."""
    if single:
        stat, df, p, reject = float(stat[0]), float(df[0]), float(p[0]), bool(reject[0])
        return TestReport(stat, df, p, reject, family, flags[0])
    return TestReport(stat, df, p, reject, family, tuple(flags))


def _skipped(family: str, reason: str, batch: tuple[int, ...]) -> TestReport:
    nan = np.full(batch or (1,), np.nan)
    flags = [(f"inestimable: {reason}",)] * nan.size
    return _report(nan, nan, nan, np.zeros(nan.shape, bool), family, flags, not batch)


def _zero_covariance(dev: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """Replicates whose covariance trace is <= 0; each must sit at the null point.

    Raises
    ------
    ZeroCovariance
        Some such replicate's effect deviates from one half.
    """
    zero = trace <= 0.0
    if (np.abs(dev[zero]) > _NULL_DEVIATION).any():
        raise ZeroCovariance(
            "covariance estimate is zero while the effect deviates from one half"
        )
    return zero


def _flags(base: tuple[str, ...], zero: np.ndarray) -> list:
    """Each replicate's flags: the covariance's, then ``"zero-covariance-null"`` if it applies."""
    flags = [base] * zero.size
    for i in np.flatnonzero(zero):
        flags[i] = base + ("zero-covariance-null",)
    return flags


def wald_test(
    p_hat: EffectEstimate,
    cov: CovarianceEstimate,
    n: int,
    alpha: float = ALPHA,
) -> TestReport:
    """Quadratic form of the deviation against the inverse covariance.

    When the covariance estimate is singular, its Moore-Penrose
    pseudo-inverse is used (eigenvalues below ``1e-10 * trace/d``
    in magnitude dropped) and the reported degrees of freedom shrink to the
    effective rank; the fallback is flagged.  A block gives one test per
    replicate.

    Raises
    ------
    ZeroCovariance
        The covariance estimate vanishes but the effect deviates from the
        null point, leaving the statistic undefined.
    """
    single = p_hat.p_hat.ndim == 1
    d = p_hat.p_hat.shape[-1]
    dev = p_hat.deviation.reshape(-1, d)
    v = cov.v_hat.reshape(-1, d, d)
    trace = np.reshape(cov.trace, -1)
    zero = _zero_covariance(dev, trace)
    eigvals, eigvecs = np.linalg.eigh((v + v.swapaxes(1, 2)) / 2.0)
    kept = np.abs(eigvals) > _PINV_RANK_REL * trace[:, None] / d
    rank = kept.sum(axis=1)
    # eigenvectors as contiguous rows: the layout one replicate's kept
    # columns hand to BLAS, so a block projects exactly as its replicates do
    proj = (np.ascontiguousarray(eigvecs.swapaxes(1, 2)) @ dev[:, :, None])[:, :, 0]
    terms = np.divide(proj * proj, eigvals, out=np.zeros_like(proj), where=kept)
    stat = n * terms.sum(axis=1)
    flags = _flags(cov.degenerate, zero)
    for i in np.flatnonzero((rank < d) & ~zero):
        # a pseudo-inverse projects onto the kept eigenvectors alone
        proj = eigvecs[i][:, kept[i]].T @ dev[i]
        stat[i] = n * np.sum(proj * proj / eigvals[i][kept[i]])
        flags[i] += (f"singular covariance: pseudo-inverse with rank {rank[i]}",)
    stat[zero] = 0.0
    df = np.where(zero, 0.0, rank)
    # possible when the general-pattern estimate is indefinite
    for i in np.flatnonzero(stat < 0.0):
        flags[i] += ("negative quadratic form clamped to zero for the p-value",)
    p = np.ones(stat.shape)
    p[~zero] = chisq_upper_tail(np.maximum(stat[~zero], 0.0), df[~zero])
    return _report(stat, df, p, p <= alpha, "wald", flags, single)


def anova_test(
    p_hat: EffectEstimate,
    cov: CovarianceEstimate,
    n: int,
    alpha: float = ALPHA,
) -> TestReport:
    """Trace-normalized quadratic form with estimated degrees of freedom.

    A block gives one test per replicate.

    Raises
    ------
    ZeroCovariance
        The covariance trace vanishes but the effect deviates from the null
        point.
    """
    single = p_hat.p_hat.ndim == 1
    dev = p_hat.deviation.reshape(-1, p_hat.p_hat.shape[-1])
    trace = np.reshape(cov.trace, -1)
    zero = _zero_covariance(dev, trace)
    scale = np.divide(n, trace, out=np.zeros(trace.shape), where=~zero)
    stat = scale * np.sum(dev * dev, axis=1)
    df = np.where(zero, 0.0, np.reshape(cov.nu_hat, -1))
    p = np.ones(stat.shape)
    p[~zero] = chisq_upper_tail(df[~zero] * stat[~zero], df[~zero])
    return _report(stat, df, p, p <= alpha, "anova", _flags(cov.degenerate, zero), single)


@dataclass(frozen=True)
class MethodAnalysis:
    """Everything one case-restriction method produced, or why it was skipped."""

    method: str
    effects: EffectEstimate | None
    covariance: CovarianceEstimate | None
    n: int
    wald: TestReport
    anova: TestReport
    skipped: str | None = None


def _select_covariance(sample, idx, ranks, pattern: str):
    if pattern == "simple" or (pattern == "auto" and idx.is_simple_pattern):
        return covariance_simple(sample, idx, ranks)
    return covariance_general(sample, idx, ranks)


def analyze(
    sample: MaskedSample,
    idx: PatternIndex,
    alpha: float = ALPHA,
    methods: tuple[str, ...] = METHODS,
    pattern: str = "auto",
) -> list[MethodAnalysis]:
    """Run the full pipeline for each requested case-restriction method.

    ``pattern`` selects the covariance estimator: ``"auto"`` picks the
    treatment-level form whenever the (restricted) data allows it,
    ``"simple"`` insists on it (raising :class:`PatternMismatch` otherwise)
    and ``"general"`` always uses the nine-term form.  Methods whose
    restriction is inestimable yield placeholder reports instead of
    aborting the run.  ``alpha`` outside (0, 1) and a method list that is
    empty, repeats a method or names an unknown one raise ``ValueError``.

    ``sample`` may be a block of replicates; every effect, covariance and
    report then has its leading replicate axis, and a skip applies to the
    whole block, since its reasons depend on the shared mask alone.  The
    exception is a zero covariance off the null point, which belongs to a
    replicate: a block of several raises :class:`ZeroCovariance` instead.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must lie in (0, 1), got {alpha}")
    check_methods(methods)
    if pattern not in PATTERN_CHOICES:
        raise ValueError(f"unknown pattern {pattern!r}")
    if pattern == "simple" and not idx.is_simple_pattern:
        raise PatternMismatch(
            "pattern mismatch: data does not have treatment-level missingness"
        )
    # inestimability of the unrestricted data is a dataset problem and fails
    # hard; methods below only soft-skip when their *restriction* causes it
    check_estimable(idx)
    batch = sample.values.shape[:-2]
    out = []
    for method in methods:
        try:
            sub, sub_idx = restrict_method(sample, idx, method)
            ranks = build_rank_table(sub)
            eff = estimate_effects(sub, sub_idx, ranks)
            cov = _select_covariance(sub, sub_idx, ranks, pattern)
            wald = wald_test(eff, cov, sub.n, alpha)
            anova = anova_test(eff, cov, sub.n, alpha)
            out.append(MethodAnalysis(method, eff, cov, sub.n, wald, anova))
        except (EverythingFiltered, NoEstimablePart, ZeroCovariance) as exc:
            # the first two depend on the mask and so hold for every replicate
            # of a block; a zero covariance is one replicate's, and a block of
            # several raises it for its caller to re-run them one at a time
            if isinstance(exc, ZeroCovariance) and batch and batch[0] > 1:
                raise
            reason = str(exc)
            out.append(
                MethodAnalysis(
                    method,
                    None,
                    None,
                    0,
                    _skipped("wald", reason, batch),
                    _skipped("anova", reason, batch),
                    skipped=reason,
                )
            )
    return out

