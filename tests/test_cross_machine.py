"""A report keeps its bits under every BLAS kernel and SIMD dispatch.

numpy's OpenBLAS picks its kernels by CPU at run time, and numpy picks its
own SIMD loops the same way, so a report is made here in subprocesses under
OpenBLAS's Haswell kernels (what AVX2 CPUs such as AMD Zen get), under its
SandyBridge kernels (AVX) and under Haswell with numpy's AVX-512 dispatch
off.  The covariance estimate must keep its bits under each.  The Wald
statistic and its p-value still take LAPACK's eigenvectors, whose last bits
may vary, so the scattered report is compared outside those fields; the
fixture's report is compared byte for byte.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import rankeffect

from conftest import DATA_DIR

try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy < 2
    from numpy.core._multiarray_umath import __cpu_features__

INPUTS = {
    "golden_analyze_report.json": DATA_DIR / "paired_qol_42subjects.csv",
    "golden_scattered_report.json": DATA_DIR / "scattered_d4_n600.csv",
}
# the scattered report's Wald rows: all, complete and incomplete
WALD_FIELDS = [(i, field) for i in (0, 2, 4) for field in ("statistic", "p_value")]
AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# name: (environment, the core OpenBLAS must report, the CPU feature it needs)
SETTINGS = {
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "Haswell", "AVX2"),
    "sandybridge": ({"OPENBLAS_CORETYPE": "SandyBridge"}, "Sandybridge", "AVX"),
    "haswell-avx512-off": ({"OPENBLAS_CORETYPE": "Haswell", **AVX512_OFF}, "Haswell", "AVX2"),
}

# writes the report of each input file and prints the X86_V4 dispatch flag
# and a digest of v_hat for two Monte Carlo blocks: a design3 block of 23
# (general estimator, n = 1420) and a table3 block of 200 at d = 5 (simple),
# the latter also restricted to its complete and to its one-sided cases,
# whose kernels stack one and two index sets
PROBE = """
import hashlib, json, sys
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from rankeffect import build_rank_table, covariance_general, covariance_simple
from rankeffect.cli import main
from rankeffect.effects import restrict_method
from rankeffect.simulate import builtin_grid, draw_sample

for csv, out in zip(sys.argv[1::2], sys.argv[2::2]):
    assert main(["analyze", csv, "--output", out]) == 0
digests = []
for grid, reps, dims, estimator, methods in [
    ("design3", 23, None, covariance_general, ("all",)),
    ("table3", 200, (5,), covariance_simple, ("all", "complete", "incomplete")),
]:
    block = draw_sample(builtin_grid(grid, reps=reps, dims=dims)[-1], range(reps))
    for method in methods:
        sample, restricted = restrict_method(block, method)
        cov = estimator(build_rank_table(sample), restricted)
        digests.append(hashlib.sha256(cov.v_hat.tobytes()).hexdigest())
print(json.dumps({"x86_v4": __cpu_features__.get("X86_V4"), "v_hat": digests}))
"""


def run_probe(tmp_path: Path, env: dict):
    src = str(Path(rankeffect.__file__).resolve().parents[1])
    argv = []
    for golden, csv in INPUTS.items():
        argv += [str(csv), str(tmp_path / golden)]
    result = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": src, "OPENBLAS_VERBOSE": "2", **env},
    )
    assert result.returncode == 0, result.stderr
    reports = {golden: (tmp_path / golden).read_bytes() for golden in INPUTS}
    return json.loads(result.stdout), reports, result.stderr


@pytest.fixture(scope="module")
def default_digests(tmp_path_factory):
    return run_probe(tmp_path_factory.mktemp("default"), {})[0]["v_hat"]


def without_wald(report: dict) -> dict:
    for i, field in WALD_FIELDS:
        assert report["tests"][i]["family"] == "wald"
        del report["tests"][i][field]
    return report


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OpenBLAS core types are x86-64")
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_reports_keep_their_bits(setting, tmp_path, default_digests):
    env, core, feature = SETTINGS[setting]
    if not __cpu_features__.get(feature):
        pytest.skip(f"this CPU has no {feature}")
    if "NPY_DISABLE_CPU_FEATURES" in env and "X86_V4" not in __cpu_features__:
        pytest.skip("this numpy has no X86_V4 dispatch target")
    probe, reports, log = run_probe(tmp_path, env)
    if f"Core: {core}" not in log:
        pytest.skip(f"OpenBLAS did not take the {core} kernels")
    if "NPY_DISABLE_CPU_FEATURES" in env:
        assert probe["x86_v4"] is False
    assert probe["v_hat"] == default_digests
    fixture = (DATA_DIR / "golden_analyze_report.json").read_bytes()
    assert reports["golden_analyze_report.json"] == fixture
    scattered = json.loads((DATA_DIR / "golden_scattered_report.json").read_text())
    report = json.loads(reports["golden_scattered_report.json"])
    assert without_wald(report) == without_wald(scattered)
