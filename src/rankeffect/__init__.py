"""Fully nonparametric effect sizes and joint tests for multivariate
two-sample data with missing values.

The effect for each response variable is the probability (ties counted with
weight one half) that a group-1 observation is smaller than an independent
group-2 observation.  Estimation pools complete (paired) and incomplete
(one-sided) cases via sample-size weights, handles missingness either at
treatment level or per cell, and the joint null of "one half everywhere" is
tested with a Wald-type and a small-sample ANOVA-type statistic.
"""

from ._version import __version__
from .covariance import (
    CovarianceEstimate,
    covariance_general,
    covariance_simple,
)
from .data import (
    MaskedSample,
    PatternIndex,
    build_masked_sample,
    check_assumptions,
    derive_pattern_index,
)
from .effects import (
    METHODS,
    EffectEstimate,
    estimate_effects,
    restrict_method,
)
from .inference import (
    MethodAnalysis,
    TestReport,
    analyze,
    anova_test,
    chisq_upper_tail,
    wald_test,
)
from .ranks import RankTable, build_rank_table, midranks, placements
from .reports import (
    REPORT_SCHEMA,
    build_report,
    parse_dataset,
    write_dataset,
)
from .simulate import (
    Scenario,
    SimulationResult,
    build_sigma,
    builtin_grid,
    draw_sample,
    run_grid,
    run_scenario,
)

__all__ = [
    "__version__",
    "MaskedSample",
    "PatternIndex",
    "build_masked_sample",
    "derive_pattern_index",
    "check_assumptions",
    "RankTable",
    "midranks",
    "build_rank_table",
    "placements",
    "METHODS",
    "EffectEstimate",
    "estimate_effects",
    "restrict_method",
    "CovarianceEstimate",
    "covariance_simple",
    "covariance_general",
    "TestReport",
    "MethodAnalysis",
    "chisq_upper_tail",
    "wald_test",
    "anova_test",
    "analyze",
    "Scenario",
    "SimulationResult",
    "build_sigma",
    "draw_sample",
    "run_scenario",
    "run_grid",
    "builtin_grid",
    "REPORT_SCHEMA",
    "build_report",
    "parse_dataset",
    "write_dataset",
]
