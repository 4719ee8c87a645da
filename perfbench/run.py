"""Benchmark of rankeffect through its command line entry point.

Run from the repository root:

    python3 perfbench/run.py --workload mc_table3 --seed 1 --seconds 20 --trace 0

Every operation calls ``rankeffect.cli.main`` in this process, as the
``rankeffect`` console script does, minus interpreter start-up, and writes
its output to a temporary directory under ``.perfbench_out/``.  Workloads:

* ``mc_table3``: ``simulate --builtin table3`` (48 scenarios, d = 2, 3, 5,
  n = 50-70, three methods).  Thousands of tiny replicates, treatment-level
  missingness: ``covariance_simple`` runs, ``covariance_general`` does not.
* ``mc_design``: ``simulate --builtin design1`` then ``--builtin design3``
  (d = 2, n = 75-300 and about 1,410, normal, lognormal and Cauchy data, the
  15 per-cell patterns, method ``all`` only): ``covariance_general`` at
  small d, no case restriction.
* ``analyze_wide``: ``analyze`` of a generated CSV with d = 10, n = 20,000
  and 30 % per-cell missingness: few large calls to the parser, the ranks
  and ``covariance_general``; no simulation.

One operation is one Monte Carlo replicate on the mc workloads and one
``analyze`` call on ``analyze_wide``.  With ``--trace 0`` the run reports the
end-to-end metrics.  ``ops_per_s`` is calibrated: ``calibrate()`` is timed
again and again during each timed call, and the call's rate is scaled to the
machine speed at which the calibration takes ``CALIBRATION_NOMINAL_S`` (see
``README.md``); the uncalibrated median is printed with the machine facts.
With ``--trace 1`` it runs a fixed amount of work once
untraced and once traced (see ``tracing.py``) and reports the per-layer
metrics.  Every output is checked in both modes.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine facts.  The
exit code is 0 only when every check passed and no operation failed, and 2
without a result when the program or its test data is missing.
"""

import os

# Before numpy is imported: one process, one thread, so that runs on a small
# shared machine are steady and comparable.
PINNED_ENV = {
    "RANK_EFFECT_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
FIXTURE = ROOT / "tests" / "data" / "paired_qol_42subjects.csv"
GOLDEN = ROOT / "tests" / "data" / "golden_analyze_report.json"
REFERENCE = HERE / "reference"

# The seed the stored references were made with; it is also the CLI's
# default --seed.
REFERENCE_SEED = 0
# The acceptance tolerance of the test suite for effects and covariance.
TOLERANCE = 1e-12
# Set-up is measured in this many fresh interpreters; the median is reported.
SETUP_PROBES = 5
# Call rates are scaled to the speed at which calibrate() takes this long.
# On a shared machine, speed can drift by up to a half within seconds to
# minutes, so calibrate() is timed every CALIBRATION_INTERVAL_S during a
# timed call, and the mean of those timings gives the speed the call ran at.
CALIBRATION_NOMINAL_S = 0.0025
CALIBRATION_INTERVAL_S = 0.1

MC_GRIDS = {"mc_table3": ("table3",), "mc_design": ("design1", "design3")}
# Replications per scenario of a timed call: the harness size of the
# project's roadmap (``--reps 50``), large enough that a kernel batching the
# replicates of a scenario has whole batches to work on.  The warm-up call
# uses fewer, so that set-up stays short; its tallies are the stored
# reference.
MC_REPS = 50
WARM_UP_REPS = 5
# Fixed work of a traced run: CLI calls (mc) or analyze calls.
TRACE_CALLS = {"mc_table3": 1, "mc_design": 1, "analyze_wide": 3}

WIDE_D = 10
WIDE_N = 20_000
WIDE_MISSING = 0.3
WIDE_SHIFT = 0.1
WIDE_METHODS = ("all", "complete", "incomplete")

WORKLOADS = ("mc_table3", "mc_design", "analyze_wide")


class CheckFailed(Exception):
    """An output of the program is not what it must be."""


class Tally:
    """Attempted and failed operations, and how often each problem was seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: Counter = Counter()

    def record(self, ops: int, failed: int = 0, problem: str | None = None) -> None:
        self.attempted += ops
        self.failed += failed
        if problem:
            self.problems[problem] += 1


# --------------------------------------------------------------- inputs


def call_seeds(seed: int):
    """Endless stream of CLI master seeds drawn from the workload seed."""
    rng = random.Random(seed)
    while True:
        yield rng.randrange(1, 2**31)


def wide_dataset(seed: int):
    """Values and observedness of the ``analyze_wide`` dataset for ``seed``.

    Values are standard normal rounded to two decimals, so ties occur;
    group 2 is shifted by ``WIDE_SHIFT``.  Each cell is missing with
    probability ``WIDE_MISSING``; a subject left with no cell keeps one.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    rows = 2 * WIDE_D
    values = np.round(rng.standard_normal((rows, WIDE_N)), 2)
    values[WIDE_D:] = np.round(values[WIDE_D:] + WIDE_SHIFT, 2)
    observed = rng.random((rows, WIDE_N)) >= WIDE_MISSING
    empty = np.flatnonzero(~observed.any(axis=0))
    observed[rng.integers(0, rows, size=empty.size), empty] = True
    return values, observed


def write_wide_csv(values, observed, path) -> None:
    rows, n = values.shape
    d = rows // 2
    header = [f"g1_var{l + 1}" for l in range(d)] + [f"g2_var{l + 1}" for l in range(d)]
    lines = [",".join(header)]
    for k in range(n):
        lines.append(",".join(
            f"{values[j, k]:.2f}" if observed[j, k] else "NA" for j in range(rows)
        ))
    Path(path).write_text("\n".join(lines) + "\n")


# --------------------------------------------------------------- checks


def _close(a, b) -> bool:
    if a is None or b is None:
        return a is b
    return abs(a - b) <= TOLERANCE


def expected_effects(values, observed, method: str):
    """Effects from the rank-mean identity, computed without rankeffect.

    Per component, p = (mean pooled midrank of group 2 - that of group 1)
    / (pooled count) + 1/2 over the cells the method keeps (Brunner and
    Munzel, 2000): the complete-case weights of the estimator cancel.
    """
    import numpy as np
    from scipy.stats import rankdata

    d = values.shape[0] // 2
    p = []
    for l in range(d):
        o1, o2 = observed[l], observed[d + l]
        if method == "complete":
            o1 = o2 = o1 & o2
        elif method == "incomplete":
            o1, o2 = o1 & ~o2, o2 & ~o1
        x1, x2 = values[l, o1], values[d + l, o2]
        r = rankdata(np.concatenate([x1, x2]))
        p.append((r[x1.size:].mean() - r[:x1.size].mean()) / r.size + 0.5)
    return p


def check_wide_report(report: dict, values, observed) -> None:
    """Effects against the independent rank-mean form; covariance sanity."""
    for method in WIDE_METHODS:
        eff = report["effects"].get(method)
        cov = report["covariance"].get(method)
        if eff is None or cov is None:
            raise CheckFailed(f"analyze_wide: method {method} skipped")
        want = expected_effects(values, observed, method)
        if not all(_close(a, b) for a, b in zip(eff["p_hat"], want, strict=True)):
            raise CheckFailed(f"analyze_wide: {method} effects {eff['p_hat']} != {want}")
        v = cov["v_hat"]
        if any(v[i][j] != v[j][i] for i in range(len(v)) for j in range(len(v))):
            raise CheckFailed(f"analyze_wide: {method} covariance is not symmetric")
        if not _close(cov["trace"], sum(v[i][i] for i in range(len(v)))):
            raise CheckFailed(f"analyze_wide: {method} trace is not the diagonal sum")
        if cov["estimator"] != "general":
            raise CheckFailed(f"analyze_wide: {method} used the {cov['estimator']} estimator")


def wide_reference_view(report: dict) -> dict:
    """The part of an analyze report stored as the ``analyze_wide`` reference."""
    return {
        method: {
            "p_hat": report["effects"][method]["p_hat"],
            "v_hat": report["covariance"][method]["v_hat"],
        }
        for method in WIDE_METHODS
    }


def check_wide_reference(report: dict) -> None:
    ref = json.loads((REFERENCE / "analyze_wide.json").read_text())
    got = wide_reference_view(report)
    for method, want in ref["methods"].items():
        pairs = list(zip(got[method]["p_hat"], want["p_hat"], strict=True))
        for row_got, row_want in zip(got[method]["v_hat"], want["v_hat"], strict=True):
            pairs += list(zip(row_got, row_want, strict=True))
        if not all(_close(a, b) for a, b in pairs):
            raise CheckFailed(f"analyze_wide: {method} differs from the stored reference")


def tally_view(doc: dict) -> list:
    """The integer tallies of a simulation document, per scenario."""
    return [
        {
            "label": row["label"],
            "failures": row["failures"],
            "methods": {
                key: [t["rejections"], t["evaluated"], t["skipped"], t["flagged"]]
                for key, t in row["methods"].items()
            },
        }
        for row in doc["results"]
    ]


def check_simulation(doc: dict, scenarios: int, reps: int) -> int:
    """Check a simulation document's bookkeeping; return its failed replicates.

    Every tally must account for every replicate: evaluated + skipped +
    failures = replications, which is evaluated + skipped = replications when
    no replicate failed.
    """
    rows = doc["results"]
    if len(rows) != scenarios:
        raise CheckFailed(f"simulate: {len(rows)} scenarios, expected {scenarios}")
    failures = 0
    for row in rows:
        if row["replications"] != reps:
            raise CheckFailed(f"simulate: {row['label']} ran {row['replications']} reps")
        for key, t in row["methods"].items():
            if t["evaluated"] + t["skipped"] + row["failures"] != reps:
                raise CheckFailed(f"simulate: {row['label']} {key} tally {t} misses replicates")
            if not 0 <= t["rejections"] <= t["evaluated"]:
                raise CheckFailed(f"simulate: {row['label']} {key} rejections out of range")
        failures += row["failures"]
    return failures


def check_fixture(tmp: Path, tally: Tally) -> None:
    """``analyze`` of the 42-subject fixture must equal the golden report exactly."""
    from rankeffect.cli import main

    out = tmp / "fixture.json"
    if main(["analyze", str(FIXTURE), "--output", str(out)]) != 0:
        tally.record(1, 1, "fixture: analyze exited non-zero")
    elif json.loads(out.read_text()) != json.loads(GOLDEN.read_text()):
        tally.record(1, 1, "fixture: report differs from the golden report")
    else:
        tally.record(1)


# --------------------------------------------------------------- operations


class McWorkload:
    """``rankeffect simulate --builtin <grid>`` for each grid of the workload.

    An input is a CLI master seed and a replication count.  The warm-up uses
    the reference seed at ``WARM_UP_REPS``, whose tallies must equal the
    stored ones; timed calls use seeds drawn from the workload seed at
    ``MC_REPS``.
    """

    def __init__(self, name: str, seed: int, tmp: Path):
        from rankeffect.simulate import builtin_grid

        self.grids = MC_GRIDS[name]
        self.scenarios = {g: len(builtin_grid(g)) for g in self.grids}
        self.warm_up_input = (REFERENCE_SEED, WARM_UP_REPS)
        self._seeds = call_seeds(seed)
        self.tmp = tmp

    def next_input(self) -> tuple[int, int]:
        return next(self._seeds), MC_REPS

    def ops(self, item: tuple[int, int]) -> int:
        return item[1] * sum(self.scenarios.values())

    def _stem(self, grid: str, cli_seed: int) -> Path:
        return self.tmp / f"{grid}-{cli_seed}"

    def run(self, item: tuple[int, int]) -> None:
        from rankeffect.cli import main

        cli_seed, reps = item
        for grid in self.grids:
            argv = ["simulate", "--builtin", grid, "--reps", str(reps),
                    "--seed", str(cli_seed), "--output", str(self._stem(grid, cli_seed))]
            if main(argv) != 0:
                raise CheckFailed(f"simulate {grid} --seed {cli_seed} exited non-zero")

    def check(self, item: tuple[int, int]) -> int:
        """Check the call's documents; return its failed replicates."""
        cli_seed, reps = item
        failed = 0
        for grid in self.grids:
            doc = json.loads(Path(f"{self._stem(grid, cli_seed)}.json").read_text())
            failed += check_simulation(doc, self.scenarios[grid], reps)
            if item == self.warm_up_input:
                ref = json.loads((REFERENCE / "mc.json").read_text())["grids"][grid]
                if ref != {"reps": reps, "tallies": tally_view(doc)}:
                    raise CheckFailed(f"simulate {grid}: tallies differ from the reference")
        return failed


class AnalyzeWorkload:
    """``rankeffect analyze`` of the generated wide CSV.

    The warm-up analyzes the reference seed's dataset, which must match the
    stored reference.  Of the seed's own dataset, the first report is checked
    in full and later ones must equal it byte for byte.
    """

    def __init__(self, seed: int, tmp: Path):
        self.tmp = tmp
        self.values, self.observed = wide_dataset(seed)
        self.csv = tmp / f"wide-{seed}.csv"
        write_wide_csv(self.values, self.observed, self.csv)
        self.warm_up_input = tmp / "wide-reference.csv"
        write_wide_csv(*wide_dataset(REFERENCE_SEED), self.warm_up_input)
        self.out = tmp / "analyze.json"
        self.first: bytes | None = None

    def next_input(self) -> Path:
        return self.csv

    def ops(self, csv: Path) -> int:
        return 1

    def run(self, csv: Path) -> None:
        from rankeffect.cli import main

        if main(["analyze", str(csv), "--output", str(self.out)]) != 0:
            raise CheckFailed(f"analyze {csv.name} exited non-zero")

    def check(self, csv: Path) -> int:
        output = self.out.read_bytes()
        if csv == self.warm_up_input:
            check_wide_reference(json.loads(output))
        elif self.first is None:
            check_wide_report(json.loads(output), self.values, self.observed)
            self.first = output
        elif output != self.first:
            raise CheckFailed("analyze_wide: report differs between identical calls")
        return 0


def operation(workload, item, tally: Tally, sampler=None) -> float | None:
    """Run, check and record one call; its run time, or None if it failed to run.

    Only the program's calls are timed, not the checks, nor the time taken
    by ``sampler``'s calibrations during the call.  An exception fails every
    operation of the call.
    """
    ops = workload.ops(item)
    try:
        start = time.perf_counter()
        with sampler or contextlib.nullcontext():
            workload.run(item)
        elapsed = time.perf_counter() - start - (sampler.spent if sampler else 0.0)
        failed = workload.check(item)
    except Exception as exc:  # any error fails the call; reported at the end
        problem = f"{type(exc).__name__}: {exc}"
        if not isinstance(exc, CheckFailed):
            problem += "\n" + traceback.format_exc()
        tally.record(ops, ops, problem)
        return None
    tally.record(ops, failed, f"{failed} failed replicates" if failed else None)
    return elapsed


def make_workload(name: str, seed: int, tmp: Path):
    if name == "analyze_wide":
        return AnalyzeWorkload(seed, tmp)
    return McWorkload(name, seed, tmp)


# --------------------------------------------------------------- measurement


_CALIBRATION_DATA: list = []


def calibrate() -> float:
    """Seconds taken by a fixed computation that shares no code with rankeffect.

    Interpreter work and numpy sorting, like the program's own mix.  The
    sorts work in place on arrays allocated once, so that the heap the
    program leaves behind does not change the time.
    """
    import numpy as np

    if not _CALIBRATION_DATA:
        x = np.random.default_rng(0).standard_normal(10_000)
        _CALIBRATION_DATA.extend((x, np.empty_like(x)))
    x, buf = _CALIBRATION_DATA
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(12_000):
        acc += (i * i) % 7
        table[i & 255] = acc
    for _ in range(4):
        np.copyto(buf, x)
        buf.sort()
    return time.perf_counter() - start


class SpeedSampler:
    """Times ``calibrate()`` every ``CALIBRATION_INTERVAL_S`` while installed.

    A one-shot timer signal runs the calibration in the program's own thread,
    between two Python bytecodes, so each timing sees the machine speed the
    program sees at that moment; the handler arms the next timer when it is
    done, so timings never nest.  ``spent`` is the time the handler took.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0
        self._active = False

    def _sample(self, signum, frame):
        # A signal raised just before __exit__ disarmed the timer can still
        # reach this handler afterwards; it must not arm the timer again.
        if not self._active:
            return
        start = time.perf_counter()
        self.samples.append(calibrate())
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S)
        self.spent += time.perf_counter() - start

    def __enter__(self):
        self.samples.clear()
        self.spent = 0.0
        self._active = True
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CALIBRATION_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        self._active = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def speed(self) -> float:
        """Mean calibration time during the last call; one more if none was taken."""
        return statistics.mean(self.samples) if self.samples else calibrate()


def measure_setup(name: str) -> float:
    """Median set-up time over fresh interpreters (see ``setup_probe.py``)."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(MC_REPS),
             *MC_GRIDS.get(name, ())],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        times.append(float(proc.stdout.split()[-1]))
    return statistics.median(times)


def run_untraced(workload, seconds: float, tally: Tally, raw: dict) -> dict:
    """Calls until ``seconds`` have passed; the median calibrated per-call rate.

    A call still running when time is up finishes and counts.
    """
    rates, scaled, calibrations = [], [], []
    sampler = SpeedSampler()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline:
        item = workload.next_input()
        elapsed = operation(workload, item, tally, sampler)
        if elapsed is not None:
            calibrations.append(sampler.speed())
            rates.append(workload.ops(item) / elapsed)
            scaled.append(rates[-1] * calibrations[-1] / CALIBRATION_NOMINAL_S)
    if not rates:
        return {}
    raw["ops_per_s"] = statistics.median(rates)
    raw["calibration_s"] = statistics.median(calibrations)
    return {"ops_per_s": statistics.median(scaled)}


def run_traced(name: str, workload, seed: int, tally: Tally) -> dict:
    """Fixed calls, each run untraced and then traced; the per-layer metrics.

    Alternating the two keeps slow drifts of machine speed out of the
    tracing overhead.
    """
    from tracing import COUNTS, Tracer

    tracer = Tracer()
    untraced_s = traced_s = 0.0
    for _ in range(TRACE_CALLS[name]):
        item = workload.next_input()
        untraced_s += operation(workload, item, tally) or 0.0
        with tracer:
            traced_s += operation(workload, item, tally) or 0.0
    tracer.write(OUT / f"spans-{name}-{seed}.jsonl")

    table = tracer.layer_table()
    metrics = {"trace.overhead_s": traced_s - untraced_s}
    for fn, row in table.items():
        metrics[f"{fn}.calls"] = row["calls"]
        metrics[f"{fn}.self_s"] = row["self_s"]
    for key in COUNTS:
        metrics[key] = tracer.counts[key]

    def rate(count, seconds):
        return count / seconds if seconds > 0 else 0.0

    metrics["reports.parse_mb_per_s"] = rate(
        tracer.counts["reports.parse_bytes"] / 1e6, table["reports.parse_dataset"]["self_s"]
    )
    metrics["ranks.cells_per_s"] = rate(
        tracer.counts["ranks.cells_ranked"], table["ranks.build_rank_table"]["self_s"]
    )
    return metrics


def machine_facts(seed: int) -> dict:
    import numpy
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "rankeffect").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    # nproc counts the CPUs this process may use, but honours OMP_NUM_THREADS,
    # which is pinned here.
    env = {k: v for k, v in os.environ.items() if not k.startswith("OMP_")}
    try:
        nproc = int(subprocess.run(
            ["nproc"], env=env, capture_output=True, text=True, timeout=10, check=True,
        ).stdout)
    except (OSError, ValueError, subprocess.SubprocessError):
        nproc = None
    return {
        "nproc": nproc,
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "env": PINNED_ENV,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    needed = (ROOT / "BENCHMARK.json", SRC / "rankeffect" / "cli.py", FIXTURE, GOLDEN)
    missing = [str(p) for p in needed if not p.is_file()]
    if missing:
        print(f"perfbench: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    sys.path.insert(0, str(SRC))

    tally = Tally()
    values: dict = {}
    raw: dict = {}
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as tmp_name:
        tmp = Path(tmp_name)
        try:
            if not args.trace:
                values["setup_s"] = measure_setup(args.workload)
            import rankeffect.cli  # noqa: F401  (the tracer patches loaded modules)

            check_fixture(tmp, tally)
            workload = make_workload(args.workload, args.seed, tmp)
            operation(workload, workload.warm_up_input, tally)
            if args.trace:
                values.update(run_traced(args.workload, workload, args.seed, tally))
            else:
                values.update(run_untraced(workload, args.seconds, tally, raw))
        except Exception as exc:  # the run broke: count it, still report every metric
            tally.record(1, 1, f"{type(exc).__name__}: {exc}\n" + traceback.format_exc())
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values["failed_frac"] = tally.failed / tally.attempted if tally.attempted else 1.0

    for problem, times in tally.problems.items():
        print(f"perfbench: {problem} (x{times})", file=sys.stderr)
    correct = not tally.problems and tally.failed == 0
    print(json.dumps({"machine": machine_facts(args.seed), "uncalibrated": raw}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed if tally.attempted else 1,
        "metrics": {
            m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
            for m in declared
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
