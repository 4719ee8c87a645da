"""Data generators and the Monte Carlo harness for size and power studies.

Samples are drawn from a 2d-variate normal with a block covariance
(within-group equicorrelation, constant cross-group correlation) and then
transformed: rounded to the nearest integer (discrete data), exponentiated
(skewed data) or divided by an independent half-normal per subject, the
elliptical one-degree-of-freedom construction of a multivariate Cauchy
(heavy tails).  Group 2 receives a location shift.  Missingness assigns
each subject an observedness pattern whose bit ``i`` observes row ``i``: the
treatment-level layout has complete, group-1-only and group-2-only blocks
(``2**(2d) - 1``, ``2**d - 1``, ``(2**d - 1) << d``); for two response
variables, three allocation designs spread subjects over all 15 nonempty
patterns, counted down from 15 so the complete case comes first.

Replicates use counter-based seeding, so results are reproducible and
independent of execution order.  :func:`run_scenario` draws each replicate
from its own generator, as :func:`draw_sample` does for one, and stacks the
draws of consecutive replicates into blocks that share the scenario's mask;
each block goes through :func:`~rankeffect.inference.analyze` once.  A
block holds ``max(1, CELLS // (2d * n))`` replicates, so its arrays stay
small whatever the sample size.  Tallies, failures and every output are
the same as one replicate at a time would give.
"""

import os
from dataclasses import dataclass, replace

import numpy as np

from .data import MaskedSample, build_masked_sample
from .effects import METHODS, check_methods
from .errors import NotPositiveDefinite, RankEffectError, ScenarioError
from .inference import ALPHA, FAMILIES, analyze

__all__ = [
    "Scenario",
    "SimulationResult",
    "build_sigma",
    "draw_sample",
    "run_scenario",
    "run_grid",
    "builtin_grid",
]

DISTRIBUTIONS = ("normal", "lognormal", "cauchy")
# each pattern with the number of ``sizes`` values it takes
PATTERNS = {"simple": 3, "design1": 1, "design2": 2, "design3": 1}
#: Dimensions of the built-in grids that vary ``d``.
DIMS = (2, 3, 5)
#: Cells (replicates x 2d x n) of a block of replicates analyzed at once:
#: enough that many small replicates share each call's overhead, few enough
#: that a block's arrays stay within about 2 MB at any sample size (the
#: pipeline peaks near 60 bytes per cell).  Twice as many cells run no
#: faster and hold twice the memory.
CELLS = 32_768


def build_sigma(d, rho1, rho2, rho12, sigma1_sq, sigma2_sq) -> np.ndarray:
    """Block covariance/scale matrix for the 2d-variate generator.

    Within-group blocks are equicorrelated with the group variance;
    the cross-group block is constant at ``rho12 * sigma1 * sigma2``.

    Raises
    ------
    NotPositiveDefinite
        The parameter combination does not yield a valid covariance.
    """
    return _factor_sigma(d, rho1, rho2, rho12, sigma1_sq, sigma2_sq)[0]


def _factor_sigma(d, rho1, rho2, rho12, sigma1_sq, sigma2_sq) -> tuple[np.ndarray, np.ndarray]:
    """:func:`build_sigma`'s matrix and its Cholesky factor, which validates it."""
    eye = np.eye(d)
    ones = np.ones((d, d))
    s1 = float(sigma1_sq)
    s2 = float(sigma2_sq)
    sigma = np.block([
        [s1 * eye + rho1 * s1 * (ones - eye), rho12 * np.sqrt(s1 * s2) * ones],
        [rho12 * np.sqrt(s1 * s2) * ones, s2 * eye + rho2 * s2 * (ones - eye)],
    ])
    try:
        return sigma, np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite(
            f"correlations ({rho1}, {rho2}, {rho12}) with variances "
            f"({sigma1_sq}, {sigma2_sq}) do not give a positive definite matrix"
        ) from None


def _check_count(value, name: str, least: int) -> None:
    """Reject ``value`` unless it is an integer (``bool`` is not) of at least ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ScenarioError(f"{name} must be >= {least}, got {value}")


def _int_exact(x: float, what: str) -> int:
    if abs(x - round(x)) > 1e-9:
        raise ScenarioError(f"{what} = {x} is not an integer")
    return int(round(x))


@dataclass(frozen=True)
class Scenario:
    """One Monte Carlo configuration.

    ``sizes`` depends on ``pattern``:

    * ``"simple"``: ``(n_complete, n_group1_only, n_group2_only)``;
    * ``"design1"``: ``(n,)`` total, split evenly over the 15 patterns;
    * ``"design2"``: ``(n, a)`` total and complete-case proportion, the
      remainder split evenly over the other 14 patterns;
    * ``"design3"``: ``(n_complete,)`` complete cases, with 100 subjects in
      each of the other 14 patterns.

    Designs require ``d == 2``.  Building a scenario (``replace`` too) validates it.
    """

    distribution: str
    d: int
    rho: tuple[float, float, float]
    sigma_sq: tuple[float, float]
    delta: tuple[float, ...]
    sizes: tuple[float, ...]
    pattern: str = "simple"
    replications: int = 1000
    seed: int = 0
    alpha: float = ALPHA
    methods: tuple[str, ...] = ("all",)
    label: str = ""

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.distribution not in DISTRIBUTIONS:
            raise ScenarioError(
                f"distribution {self.distribution!r} not one of {DISTRIBUTIONS}"
            )
        if self.pattern not in PATTERNS:
            raise ScenarioError(f"pattern {self.pattern!r} not one of {tuple(PATTERNS)}")
        _check_count(self.d, "d", 1)
        _check_count(self.replications, "replications", 1)
        _check_count(self.seed, "seed", 0)
        lengths = {"delta": self.d, "rho": 3, "sigma_sq": 2, "sizes": PATTERNS[self.pattern]}
        for name, length in lengths.items():
            value = getattr(self, name)
            if len(value) != length:
                raise ScenarioError(f"{name} needs {length} value(s), got {value}")
            if not np.isfinite(value).all():
                raise ScenarioError(f"{name} values must be finite, got {value}")
        if not 0.0 < self.alpha < 1.0:
            raise ScenarioError(f"alpha must lie in (0, 1), got {self.alpha}")
        try:
            check_methods(self.methods)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        build_sigma(self.d, *self.rho, *self.sigma_sq)
        self.pattern_counts()

    def pattern_counts(self) -> list[int]:
        """Subjects per observedness pattern, in the documented pattern order."""
        if self.pattern == "simple":
            counts = [_int_exact(s, "size") for s in self.sizes]
            if any(c < 0 for c in counts) or sum(counts) < 2:
                raise ScenarioError(f"invalid simple-pattern sizes {self.sizes}")
            for group in (1, 2):  # counts[group] is that group's one-sided cases
                if counts[0] + counts[group] == 0:
                    raise ScenarioError(f"sizes {self.sizes} give group {group} no observation")
            return counts
        if self.d != 2:
            raise ScenarioError("pattern designs are defined for d = 2")
        if self.pattern == "design1":
            (n,) = self.sizes
            n = _int_exact(n, "n")
            if n % 15 != 0:
                raise ScenarioError(f"design1 total n = {n} must be divisible by 15")
            return [n // 15] * 15
        if self.pattern == "design2":
            n, a = self.sizes
            n = _int_exact(n, "n")
            if not 0.0 < a < 1.0:
                raise ScenarioError(f"design2 proportion a = {a} must lie in (0, 1)")
            n_complete = _int_exact(n * a, "n * a")
            per_pattern = _int_exact((n - n_complete) / 14.0, "n * (1 - a) / 14")
            return [n_complete] + [per_pattern] * 14
        (n_complete,) = self.sizes
        return [_int_exact(n_complete, "n_complete")] + [100] * 14


def _draw_plan(scenario: Scenario) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The parts of a draw that depend only on the scenario.

    Returns the Cholesky factor of the covariance, the mean and the
    observedness mask; :func:`draw_sample` builds them once per call, and
    every replicate of a block shares them.
    """
    d = scenario.d
    _, chol = _factor_sigma(d, *scenario.rho, *scenario.sigma_sq)
    mu = np.concatenate([np.zeros(d), np.asarray(scenario.delta, dtype=float)])
    full = 2**(2 * d) - 1
    blocks = [full, 2**d - 1, (2**d - 1) << d]
    bits = blocks if scenario.pattern == "simple" else range(full, 0, -1)
    counts = scenario.pattern_counts()
    observed = (np.repeat(bits, counts)[None, :] >> np.arange(2 * d)[:, None]) & 1 == 1
    return chol, mu, observed


def draw_sample(scenario: Scenario, replicates: int | range) -> MaskedSample:
    """One replicate's masked sample, or the block of a range of replicates.

    Deterministic given (seed, index): each replicate draws from its own
    generator, so a block holds exactly the replicates' own draws.

    Raises
    ------
    NonFiniteObservedValue
        A draw (of any replicate of a block) overflowed.
    """
    chol, mu, observed = _draw_plan(scenario)
    block = isinstance(replicates, range)
    indices = replicates if block else [replicates]
    values = np.empty((len(indices), *observed.shape))
    # an overflowing draw becomes inf, which build_masked_sample rejects
    with np.errstate(over="ignore"):
        for out, index in zip(values, indices):
            rng = np.random.default_rng(np.random.SeedSequence(scenario.seed, spawn_key=(index,)))
            z = rng.standard_normal(observed.shape)
            if scenario.distribution == "cauchy":
                halfnorm = np.abs(rng.standard_normal(observed.shape[1]))
                out[...] = (chol @ z) / halfnorm[None, :] + mu[:, None]
            else:
                w = chol @ z + mu[:, None]
                out[...] = np.rint(w) if scenario.distribution == "normal" else np.exp(w)
    return build_masked_sample(values if block else values[0], observed)


@dataclass(frozen=True)
class MethodTally:
    """Rejection bookkeeping for one (test family, case restriction) pair."""

    rejections: int
    evaluated: int
    skipped: int
    flagged: int

    @property
    def rate(self) -> float:
        return self.rejections / self.evaluated if self.evaluated else float("nan")

    @property
    def mc_se(self) -> float:
        """Binomial Monte Carlo standard error of the rejection rate."""
        if not self.evaluated:
            return float("nan")
        r = self.rate
        return float(np.sqrt(r * (1.0 - r) / self.evaluated))


@dataclass(frozen=True)
class SimulationResult:
    scenario: Scenario
    tallies: dict[str, MethodTally]  # key "<family>:<method>"
    failures: int


def run_scenario(scenario: Scenario) -> SimulationResult:
    """Draw, estimate and test ``replications`` times; tally rejections.

    Replicates run in blocks of ``max(1, CELLS // (2d * n))``, each one
    :func:`analyze` call, which derives the block's pattern index.  A
    replicate that raises a :class:`RankEffectError` is counted as a failure
    and never aborts the run: a block that raises one is run again one
    replicate at a time, so that the error fails (or, for
    :class:`ZeroCovariance`, skips) its own replicate alone.  Any other
    exception is a bug and propagates.
    A method that :func:`analyze` reports as skipped (its ``skipped`` reason
    is set) is tallied as skipped, not as evaluated.
    """
    keys = [f"{fam}:{meth}" for meth in scenario.methods for fam in FAMILIES]
    counters = {k: [0, 0, 0, 0] for k in keys}  # rej, eval, skip, flagged
    failures = 0
    reps = scenario.replications
    size = max(1, CELLS // (2 * scenario.d * sum(scenario.pattern_counts())))
    # a stack: the first block is popped first, then a failed block's replicates
    blocks = [range(r, min(r + size, reps)) for r in range(0, reps, size)][::-1]
    while blocks:
        block = blocks.pop()
        try:
            sample = draw_sample(scenario, block)
            analyses = analyze(sample, alpha=scenario.alpha, methods=scenario.methods)
        except RankEffectError:
            if len(block) == 1:
                failures += 1
            else:
                blocks.extend(range(r, r + 1) for r in reversed(block))
            continue
        for item in analyses:
            for rep in (item.wald, item.anova):
                c = counters[f"{rep.family}:{item.method}"]
                if item.skipped is not None:
                    c[2] += len(block)
                else:
                    c[0] += int(np.count_nonzero(rep.reject))
                    c[1] += len(block)
                    c[3] += sum(map(bool, rep.flags))
    tallies = {k: MethodTally(*v) for k, v in counters.items()}
    return SimulationResult(scenario=scenario, tallies=tallies, failures=failures)


def _derived_seed(master_seed: int, index: int) -> int:
    return int(np.random.SeedSequence(master_seed, spawn_key=(index,)).generate_state(1)[0])


def _worker_count(n_tasks: int) -> int:
    raw = os.environ.get("RANK_EFFECT_THREADS", "1")
    try:
        cap = max(1, int(raw))
    except ValueError:
        cap = 1
    if hasattr(os, "sched_getaffinity"):  # Linux only
        usable = len(os.sched_getaffinity(0))
    else:
        usable = os.cpu_count() or 1
    return min(cap, n_tasks, usable)


def run_grid(scenarios, master_seed: int | None = None) -> list[SimulationResult]:
    """Run scenarios in order, optionally re-seeding each from a master seed.

    With ``master_seed`` given, scenario ``i`` runs under a seed derived
    from ``(master_seed, i)``, so a grid is reproducible regardless of how
    its scenarios were configured.  ``RANK_EFFECT_THREADS`` (default 1) caps
    process-level parallelism, never above the CPUs this process may use;
    results are identical either way.
    """
    scenarios = list(scenarios)
    if master_seed is not None:
        _check_count(master_seed, "master_seed", 0)
        scenarios = [
            replace(s, seed=_derived_seed(master_seed, i)) for i, s in enumerate(scenarios)
        ]
    workers = _worker_count(len(scenarios))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(run_scenario, scenarios))
    return [run_scenario(s) for s in scenarios]


_SIMPLE_SETTINGS = {
    1: (10, 30, 30),
    2: (30, 10, 10),
    3: (30, 30, 10),
    4: (10, 10, 30),
}
_POWER_SHIFTS = ((0.0, 0.3), (0.3, 0.3), (0.6, 0.6), (0.9, 0.9), (0.3, 0.6), (0.3, 0.9))


def _table3(reps: int, dims=DIMS) -> list[Scenario]:
    out = []
    for setting, sizes in _SIMPLE_SETTINGS.items():
        for rho in ((0.1, 0.1, 0.1), (0.1, 0.9, 0.5)):
            for sig in ((1.0, 1.0), (1.0, 5.0)):
                for d in dims:
                    out.append(Scenario(
                        distribution="normal", d=d, rho=rho, sigma_sq=sig,
                        delta=(0.0,) * d, sizes=sizes,
                        replications=reps, methods=METHODS,
                        label=f"setting{setting} rho={rho} sigma2={sig} d={d}",
                    ))
    return out


def _table6(reps: int) -> list[Scenario]:
    out = []
    for setting, sizes in _SIMPLE_SETTINGS.items():
        for sig in ((1.0, 1.0), (1.0, 5.0)):
            for delta in _POWER_SHIFTS:
                out.append(Scenario(
                    distribution="normal", d=2, rho=(0.1, 0.1, 0.1), sigma_sq=sig,
                    delta=delta, sizes=sizes,
                    replications=reps, methods=METHODS,
                    label=f"setting{setting} sigma2={sig} delta={delta}",
                ))
    return out


def _design_grid(pattern: str, size_values, size_name: str):
    def build(reps: int) -> list[Scenario]:
        out = []
        for sv in size_values:
            for rho in ((-0.1, -0.1, -0.1), (0.1, 0.1, 0.1)):
                for sig in ((1.0, 1.0), (1.0, 5.0)):
                    for dist in DISTRIBUTIONS:
                        out.append(Scenario(
                            distribution=dist, d=2, rho=rho, sigma_sq=sig,
                            delta=(0.0, 0.0), pattern=pattern,
                            sizes=sv if isinstance(sv, tuple) else (sv,),
                            replications=reps,
                            label=f"{size_name}={sv} rho={rho} sigma2={sig} {dist}",
                        ))
        return out

    return build

BUILTIN_GRIDS = {
    "table3": _table3,
    "table6": _table6,
    "design1": _design_grid("design1", (75, 150, 300), "n"),
    "design2": _design_grid("design2", ((210, 0.2), (210, 0.4), (210, 0.6), (210, 0.8)), "n,a"),
    "design3": _design_grid("design3", (5, 10, 20), "n1"),
}


def builtin_grid(name: str, reps: int = Scenario.replications, dims=None) -> list[Scenario]:
    """Scenario list for a named built-in grid; only ``table3`` takes ``dims`` (default DIMS)."""
    if name not in BUILTIN_GRIDS:
        raise ScenarioError(
            f"unknown builtin grid {name!r}; valid names: {', '.join(sorted(BUILTIN_GRIDS))}"
        )
    if dims is None:
        return BUILTIN_GRIDS[name](reps)
    if len(set(dims)) < len(dims):
        raise ScenarioError(f"dims {tuple(dims)} repeat a dimension")
    if name != "table3":
        raise ScenarioError(f"builtin grid {name!r} runs at d = 2 and takes no dims")
    return _table3(reps, dims)
