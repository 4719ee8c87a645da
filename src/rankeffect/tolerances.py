"""Numerical tolerance constants, centralized so they are set in one place."""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # relative eigenvalue cutoff for rank-aware inversion: |lam| > rel * trace / d
    pinv_rank_rel: float = 1e-10
    # max |p_hat - 1/2| still treated as the exact null point when the
    # covariance estimate is identically zero
    null_deviation: float = 1e-12


TOL = Tolerances()
