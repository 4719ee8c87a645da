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

import math
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


def chisq_upper_tail(x: float, k: float) -> float:
    """Upper tail probability of a chi-square variable with ``k`` df at ``x``.

    Equals the regularized upper incomplete gamma function Q(k/2, x/2);
    ``k`` may be any positive real, as required by the estimated degrees of
    freedom of the ANOVA-type statistic.
    """
    if not (x >= 0.0) or not math.isfinite(x):
        raise DomainError(f"x must be finite and >= 0, got {x}")
    if not (k > 0.0) or not math.isfinite(k):
        raise DomainError(f"k must be finite and > 0, got {k}")
    return float(special.gammaincc(k / 2.0, x / 2.0))


@dataclass(frozen=True)
class TestReport:
    """Outcome of one test: statistic, reference distribution, decision."""

    statistic: float
    df: float
    p_value: float
    reject: bool
    family: str   # one of FAMILIES
    flags: tuple[str, ...] = ()


def _skipped(family: str, reason: str) -> TestReport:
    nan = float("nan")
    return TestReport(nan, nan, nan, False, family, (f"inestimable: {reason}",))


def _zero_covariance(dev, family: str, flags) -> TestReport:
    if np.abs(dev).max() > _NULL_DEVIATION:
        raise ZeroCovariance(
            "covariance estimate is zero while the effect deviates from one half"
        )
    flags.append("zero-covariance-null")
    return TestReport(0.0, 0.0, 1.0, False, family, tuple(flags))


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
    effective rank; the fallback is flagged.

    Raises
    ------
    ZeroCovariance
        The covariance estimate vanishes but the effect deviates from the
        null point, leaving the statistic undefined.
    """
    dev = p_hat.deviation
    d = dev.size
    v = cov.v_hat
    flags = list(cov.degenerate)
    if cov.trace <= 0.0:
        return _zero_covariance(dev, "wald", flags)
    eigvals, eigvecs = np.linalg.eigh((v + v.T) / 2.0)
    kept = np.abs(eigvals) > _PINV_RANK_REL * cov.trace / d
    rank = int(kept.sum())
    proj = eigvecs[:, kept].T @ dev
    stat = float(n * np.sum(proj * proj / eigvals[kept]))
    if rank < d:
        flags.append(f"singular covariance: pseudo-inverse with rank {rank}")
    if stat < 0.0:
        # possible when the general-pattern estimate is indefinite
        flags.append("negative quadratic form clamped to zero for the p-value")
    p = chisq_upper_tail(max(stat, 0.0), float(rank))
    return TestReport(stat, float(rank), p, p <= alpha, "wald", tuple(flags))


def anova_test(
    p_hat: EffectEstimate,
    cov: CovarianceEstimate,
    n: int,
    alpha: float = ALPHA,
) -> TestReport:
    """Trace-normalized quadratic form with estimated degrees of freedom.

    Raises
    ------
    ZeroCovariance
        The covariance trace vanishes but the effect deviates from the null
        point.
    """
    dev = p_hat.deviation
    flags = list(cov.degenerate)
    if cov.trace <= 0.0:
        return _zero_covariance(dev, "anova", flags)
    stat = float(n / cov.trace * np.sum(dev * dev))
    nu = cov.nu_hat
    p = chisq_upper_tail(nu * stat, nu)
    return TestReport(stat, nu, p, p <= alpha, "anova", tuple(flags))


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
    out = []
    for method in methods:
        try:
            sub, sub_idx = restrict_method(sample, idx, method)
            ranks = build_rank_table(sub, sub_idx)
            eff = estimate_effects(sub, sub_idx, ranks)
            cov = _select_covariance(sub, sub_idx, ranks, pattern)
            wald = wald_test(eff, cov, sub.n, alpha)
            anova = anova_test(eff, cov, sub.n, alpha)
            out.append(MethodAnalysis(method, eff, cov, sub.n, wald, anova))
        except (EverythingFiltered, NoEstimablePart, ZeroCovariance) as exc:
            reason = str(exc)
            out.append(
                MethodAnalysis(
                    method,
                    None,
                    None,
                    0,
                    _skipped("wald", reason),
                    _skipped("anova", reason),
                    skipped=reason,
                )
            )
    return out

