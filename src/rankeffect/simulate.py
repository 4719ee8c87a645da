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
independent of execution order: replicate ``i`` draws from its own stream,
``PCG64(SeedSequence(seed, spawn_key=(i,)))``, whose states are computed a
block at a time (``rankeffect._seeding``), and one generator set to each state
in turn draws the block.  The replicates of the scenarios that share their
mask, ``methods`` and ``alpha`` are laid end to end, in grid order, and cut
into ``ceil(total / size)`` blocks with ``size = max(1, CELLS // (2d * n))``,
so a block's arrays stay small whatever the sample size (``table3`` at 1000
replicates runs in 80 blocks).  Block lengths differ by at most one, so no
short block is left over, and a cut may fall inside a scenario; each block
goes through :func:`~rankeffect.inference.analyze` once.  Each part of a
block is drawn once; a replicate whose draw overflowed in an observed cell
fails, and the rest of the block is analyzed.  Tallies, failures and every
output are the same as one replicate at a time would give.
"""

import copy
import os
from dataclasses import dataclass, field

import numpy as np

from ._heap import keep_freed_heap
from ._seeding import pcg64_states, seed_words
from .data import MaskedSample, build_masked_sample
from .effects import METHODS, check_methods
from .errors import NotPositiveDefinite, ScenarioError
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
#: Cells (replicates x 2d x n) of a block of replicates analyzed at once.
#: Every block pays a fixed cost (the pattern index and many small numpy
#: calls, about 1 ms), so a block holds many replicates even at ``design3``'s
#: n of about 1,410 (46 of them).  Drawing and analyzing one peaks below 44
#: bytes a cell, about 11 MB (33 to 42 on the largest block of each built-in
#: grid, traced).  Blocks this large pay only with freed memory kept on the
#: heap, as :func:`run_grid` keeps it (``rankeffect._heap``); where glibc
#: trims the heap after each block, ``table3`` ran slower than at 98,304.
CELLS = 262_144


def build_sigma(d, rho1, rho2, rho12, sigma1_sq, sigma2_sq) -> np.ndarray:
    """Block covariance/scale matrix for the 2d-variate generator.

    Within-group blocks are equicorrelated with the group variance;
    the cross-group block is constant at ``rho12 * sigma1 * sigma2``.

    Raises
    ------
    NotPositiveDefinite
        The parameter combination does not yield a valid covariance, or
        yields one that is not finite: a variance is not positive, or the
        variances' product overflows.
    """
    return _factor_sigma(d, rho1, rho2, rho12, sigma1_sq, sigma2_sq)[0]


def _factor_sigma(d, rho1, rho2, rho12, sigma1_sq, sigma2_sq) -> tuple[np.ndarray, np.ndarray]:
    """:func:`build_sigma`'s matrix and its Cholesky factor, which validates it."""
    eye = np.eye(d)
    ones = np.ones((d, d))
    s1 = float(sigma1_sq)
    s2 = float(sigma2_sq)
    # a negative or overflowing product of the variances gives NaN or inf
    with np.errstate(invalid="ignore", over="ignore"):
        sigma = np.block([
            [s1 * eye + rho1 * s1 * (ones - eye), rho12 * np.sqrt(s1 * s2) * ones],
            [rho12 * np.sqrt(s1 * s2) * ones, s2 * eye + rho2 * s2 * (ones - eye)],
        ])
    chol = None
    if np.isfinite(sigma).all():
        try:
            chol = np.linalg.cholesky(sigma)
        except np.linalg.LinAlgError:
            pass
    if chol is None:
        raise NotPositiveDefinite(
            f"correlations ({rho1}, {rho2}, {rho12}) with variances "
            f"({sigma1_sq}, {sigma2_sq}) do not give a finite positive definite matrix"
        )
    return sigma, chol


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

    Designs require ``d == 2``.  Building a scenario (``replace`` too)
    validates it and builds what its draws share: the covariance's Cholesky
    factor and the ``(2d, n)`` observedness mask.
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
    _chol: np.ndarray = field(init=False, repr=False, compare=False)
    _observed: np.ndarray = field(init=False, repr=False, compare=False)

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
        if min(self.sigma_sq) <= 0.0:
            raise ScenarioError(f"sigma_sq values must be positive, got {self.sigma_sq}")
        if not 0.0 < self.alpha < 1.0:
            raise ScenarioError(f"alpha must lie in (0, 1), got {self.alpha}")
        try:
            check_methods(self.methods)
        except ValueError as exc:
            raise ScenarioError(str(exc)) from None
        d = self.d
        _, chol = _factor_sigma(d, *self.rho, *self.sigma_sq)
        counts = self.pattern_counts()  # before ``bits``: it rejects designs at d != 2
        full = 2**(2 * d) - 1
        blocks = [full, 2**d - 1, (2**d - 1) << d]
        bits = blocks if self.pattern == "simple" else range(full, 0, -1)
        # bit j marks row j observed; Python ints, as 2**(2d) - 1 overflows int64 at d = 32
        patterns = np.array([[b >> j & 1 for b in bits] for j in range(2 * d)], dtype=bool)
        observed = np.repeat(patterns, counts, axis=1)
        observed.setflags(write=False)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_observed", observed)

    def pattern_counts(self) -> list[int]:
        """Subjects per observedness pattern, in the documented pattern order."""
        if self.pattern == "simple":
            counts = [_int_exact(s, "size") for s in self.sizes]
        elif self.d != 2:
            raise ScenarioError("pattern designs are defined for d = 2")
        elif self.pattern == "design1":
            (n,) = self.sizes
            n = _int_exact(n, "n")
            if n % 15 != 0:
                raise ScenarioError(f"design1 total n = {n} must be divisible by 15")
            counts = [n // 15] * 15
        elif self.pattern == "design2":
            n, a = self.sizes
            n = _int_exact(n, "n")
            if not 0.0 < a < 1.0:
                raise ScenarioError(f"design2 proportion a = {a} must lie in (0, 1)")
            n_complete = _int_exact(n * a, "n * a")
            per_pattern = _int_exact((n - n_complete) / 14.0, "n * (1 - a) / 14")
            counts = [n_complete] + [per_pattern] * 14
        else:
            (n_complete,) = self.sizes
            counts = [_int_exact(n_complete, "n_complete")] + [100] * 14
        if any(c < 0 for c in counts) or sum(counts) < 2:
            raise ScenarioError(f"invalid {self.pattern}-pattern sizes {self.sizes}")
        for group in (1, 2):  # a simple pattern's counts[group]: that group's one-sided cases
            if self.pattern == "simple" and counts[0] + counts[group] == 0:
                raise ScenarioError(f"sizes {self.sizes} give group {group} no observation")
        return counts


def draw_sample(scenario: Scenario, replicates: int | range) -> MaskedSample:
    """One replicate's masked sample, or the block of a range of replicates.

    Deterministic given (seed, index): each replicate draws from its own
    stream, so a block holds exactly the replicates' own draws.

    Raises
    ------
    DimensionMismatch
        ``replicates`` is an empty range.
    NonFiniteObservedValue
        A draw (of any replicate of a block) overflowed.
    """
    block = isinstance(replicates, range)
    values = _draw(scenario, replicates if block else [replicates])
    return build_masked_sample(values if block else values[0], scenario._observed)


def _draw(scenario: Scenario, indices) -> np.ndarray:
    """The ``(len(indices), 2d, n)`` values of the replicates; an overflow is inf."""
    observed = scenario._observed
    mu = np.concatenate([np.zeros(scenario.d), np.asarray(scenario.delta, dtype=float)])
    cauchy = scenario.distribution == "cauchy"
    z = np.empty((len(indices), *observed.shape))
    halfnorm = np.empty((len(indices), 1, observed.shape[1])) if cauchy else None
    bits = np.random.PCG64(0)
    rng = np.random.Generator(bits)
    for i, (state, inc) in enumerate(pcg64_states(scenario.seed, indices)):
        # as if seeded by SeedSequence(seed, spawn_key=(index,)), freshly built
        bits.state = {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        rng.standard_normal(out=z[i])
        if cauchy:
            rng.standard_normal(out=halfnorm[i, 0])
    values = scenario._chol @ z
    del z
    # an overflowing draw becomes inf, which fails its replicate in an observed cell
    with np.errstate(over="ignore"):
        if cauchy:
            values /= np.abs(halfnorm, out=halfnorm)
        values += mu[:, None]
        if scenario.distribution == "normal":
            np.rint(values, out=values)
        elif scenario.distribution == "lognormal":
            np.exp(values, out=values)
    return values


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

    ``run_grid([scenario])[0]``, in this process: a stream of its own, cut
    into ``ceil(replications / size)`` blocks whose lengths differ by at most
    one, and tallied as :func:`run_grid` tallies each scenario, under the
    same heap policy.
    """
    keep_freed_heap()
    return _collect([scenario], map(_run_pack, _packs([scenario])))[0]


def _keys(scenario: Scenario) -> list[str]:
    """The scenario's tally keys, ``"<family>:<method>"``, in output order."""
    return [f"{fam}:{meth}" for meth in scenario.methods for fam in FAMILIES]


def _packs(scenarios: list[Scenario]) -> list[list[tuple[int, Scenario, range]]]:
    """The blocks of a grid, each a list of ``(position, scenario, replicates)`` parts.

    The replicates of the scenarios that share a mask, ``methods`` and
    ``alpha`` form one stream, in grid order, cut into ``ceil(total / size)``
    blocks whose lengths differ by at most one, the first ones the longer; a
    cut may fall inside a scenario.
    """
    streams = {}
    for position, s in enumerate(scenarios):
        key = (s._observed.shape, s._observed.tobytes(), tuple(s.methods), s.alpha)
        streams.setdefault(key, []).append((position, s))
    packs = []
    for stream in streams.values():
        size = max(1, CELLS // stream[0][1]._observed.size)
        edges = np.cumsum([0, *(s.replications for _, s in stream)]).tolist()
        for block in np.array_split(range(edges[-1]), -(-edges[-1] // size)):
            lo, hi = block[0], block[-1] + 1
            packs.append([
                (position, s, range(max(lo, start) - start, min(hi, end) - start))
                for (position, s), start, end in zip(stream, edges, edges[1:])
                if start < hi and lo < end
            ])
    return packs


def _run_pack(pack: list[tuple[int, Scenario, range]]) -> list[tuple[int, int, np.ndarray]]:
    """Each part's ``(position, failures, counts)`` from one :func:`analyze` call.

    ``counts`` holds a row ``(rejected, evaluated, skipped, flagged)`` per
    key of :func:`_keys`.  Each part is drawn once, and a replicate whose
    draw overflowed in an observed cell fails; an overflow in an unobserved
    cell is masked away.  The other replicates of the pack are analyzed in
    one call, row by row, and each part is tallied from its own rows of the
    reports, so a part whose every draw overflowed fails whole.
    """
    _, first, _ = pack[0]  # the parts share the mask, methods and alpha
    keys = _keys(first)
    observed = first._observed
    parts = [_draw(scenario, block) for _, scenario, block in pack]
    values = parts[0] if len(parts) == 1 else np.concatenate(parts)
    del parts  # the pack holds one block's arrays
    finite = (np.isfinite(values) | ~observed).all(axis=(1, 2))
    starts = np.cumsum([0, *(len(block) for *_, block in pack)])
    kept = np.add.reduceat(finite, starts[:-1]).tolist()
    counts = np.zeros((len(pack), len(keys), 4), dtype=int)
    if finite.any():
        sample = build_masked_sample(values if finite.all() else values[finite], observed)
        del values
        edges = np.cumsum([0, *kept])
        for item in analyze(sample, alpha=first.alpha, methods=first.methods):
            for rep in (item.wald, item.anova):
                evaluated = ~np.isnan(rep.p_value)
                flagged = evaluated & np.fromiter(map(bool, rep.flags), bool, len(rep.flags))
                columns = np.stack([rep.reject, evaluated, ~evaluated, flagged], axis=1)
                running = np.concatenate([np.zeros((1, 4), int), columns.cumsum(axis=0)])
                row = keys.index(f"{rep.family}:{item.method}")
                counts[:, row] = np.diff(running[edges], axis=0)
    return [
        (position, len(block) - n, part_counts)
        for (position, _, block), n, part_counts in zip(pack, kept, counts)
    ]


def _collect(scenarios: list[Scenario], outcomes) -> list[SimulationResult]:
    """Each scenario's result: its parts' failures and counts, summed over ``outcomes``."""
    failures = [0] * len(scenarios)
    counts = [0] * len(scenarios)
    for outcome in outcomes:
        for position, failed, part_counts in outcome:
            failures[position] += failed
            counts[position] = counts[position] + part_counts
    return [
        SimulationResult(
            scenario=s,
            tallies={k: MethodTally(*map(int, row)) for k, row in zip(_keys(s), c)},
            failures=f,
        )
        for s, c, f in zip(scenarios, counts, failures)
    ]


def _reseeded(scenario: Scenario, seed: int) -> Scenario:
    """``replace(scenario, seed=seed)`` for a valid ``seed``, keeping the validated plan.

    The seed enters neither the Cholesky factor nor the mask, so the copy is
    not validated again.
    """
    twin = copy.copy(scenario)
    object.__setattr__(twin, "seed", seed)
    return twin


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
    """Run scenarios, optionally re-seeding each from a master seed.

    With ``master_seed`` given, scenario ``i`` runs under the seed
    ``SeedSequence(master_seed, spawn_key=(i,)).generate_state(1)[0]``, so a
    grid is reproducible regardless of how its scenarios were configured; the
    re-seeded copies keep the scenarios' validated covariance factor and mask.
    The replicates of the scenarios that share their mask, ``methods`` and
    ``alpha`` run as one stream, in grid order, cut into
    ``ceil(total / size)`` blocks of at most
    ``size = max(1, CELLS // (2d * n))`` replicates whose lengths differ by
    at most one; a cut may fall inside a scenario.  A block is one draw per
    scenario part and one :func:`analyze` call, and each scenario's result
    equals its :func:`run_scenario`.

    The one data event a validated scenario meets, a draw that overflows in
    an observed cell, fails its replicate alone and never aborts the run:
    each replicate's draw is checked once, and the rest of the block is
    analyzed in one call.  An overflow in an unobserved cell is masked away
    and fails nothing.  Any exception, a :class:`RankEffectError` such as
    :class:`NonFiniteObservedValue` too, is a bug and propagates.  A test
    with a p-value is evaluated and one without (a skipped method, or a zero
    covariance off the null point) is skipped; only evaluated tests count as
    rejected or flagged.  ``RANK_EFFECT_THREADS`` (default 1) caps
    process-level parallelism over the blocks, never above the CPUs this
    process may use; results come in input order and are identical either
    way.  The run sets the heap policy of ``rankeffect._heap`` (glibc only,
    and not over the user's own malloc settings) in this process and in each
    worker, however it is started, so the memory a block frees stays for the
    next; it stays set after the run returns.
    """
    scenarios = list(scenarios)
    if master_seed is not None:
        _check_count(master_seed, "master_seed", 0)
        seeds = seed_words(master_seed, range(len(scenarios)))[0].tolist()
        scenarios = [_reseeded(s, seed) for s, seed in zip(scenarios, seeds)]
    packs = _packs(scenarios)
    keep_freed_heap()
    workers = _worker_count(len(packs))
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        # each worker takes the heap policy, however the platform starts it
        with ProcessPoolExecutor(max_workers=workers, initializer=keep_freed_heap) as pool:
            return _collect(scenarios, pool.map(_run_pack, packs))
    return _collect(scenarios, map(_run_pack, packs))


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
