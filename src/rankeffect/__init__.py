"""Fully nonparametric effect sizes and joint tests for multivariate
two-sample data with missing values.

The effect for each response variable is the probability (ties counted with
weight one half) that a group-1 observation is smaller than an independent
group-2 observation.  Estimation pools complete (paired) and incomplete
(one-sided) cases via sample-size weights, handles missingness either at
treatment level or per cell, and the joint null of "one half everywhere" is
tested with a Wald-type and a small-sample ANOVA-type statistic.
"""

from . import covariance, data, effects, inference, ranks, reports, simulate
from ._version import __version__
from .covariance import *  # noqa: F403
from .data import *  # noqa: F403
from .effects import *  # noqa: F403
from .inference import *  # noqa: F403
from .ranks import *  # noqa: F403
from .reports import *  # noqa: F403
from .simulate import *  # noqa: F403

__all__ = ["__version__"] + [
    name
    for module in (covariance, data, effects, inference, ranks, reports, simulate)
    for name in module.__all__
]
