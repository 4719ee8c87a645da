"""A report keeps its bits under every BLAS kernel, SIMD dispatch and libm path.

numpy's OpenBLAS picks its kernels by CPU at run time, numpy picks its own
SIMD loops the same way, and glibc its math functions, so a report is made
here in subprocesses under OpenBLAS's Haswell kernels (what AVX2 CPUs such
as AMD Zen get), under its SandyBridge kernels (AVX), under Haswell with
numpy's AVX-512 dispatch off, and under glibc's path for CPUs without FMA.
The covariance estimate must keep its bits under each, and so must both
reports, byte for byte: a full-rank Wald test takes no eigenvectors but an
elimination in IEEE basic operations, and its p-value, of an integer df,
closed forms built from the same operations.  A grid of integer-df tail
values, k = 1..10 and 64 from x = 0 past the regime switch to where the tail
underflows, must keep its bits too.
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
AVX512_OFF = {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}
# name: (environment, the core OpenBLAS must report or None for its own
# choice, the CPU feature the setting needs)
SETTINGS = {
    "haswell": ({"OPENBLAS_CORETYPE": "Haswell"}, "Haswell", "AVX2"),
    "sandybridge": ({"OPENBLAS_CORETYPE": "SandyBridge"}, "Sandybridge", "AVX"),
    "haswell-avx512-off": ({"OPENBLAS_CORETYPE": "Haswell", **AVX512_OFF}, "Haswell", "AVX2"),
    "fma-off": ({"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA"}, None, "FMA3"),
}

# writes the report of each input file and prints the X86_V4 dispatch flag,
# whether glibc counts FMA as active (None where it cannot say), a digest of
# v_hat for two Monte Carlo blocks: a design3 block of 23 (general estimator,
# n = 1420) and a table3 block of 200 at d = 5 (simple), the latter also
# restricted to its complete and to its one-sided cases, whose kernels stack
# one and two index sets, and a digest of the tail grid
PROBE = """
import ctypes, hashlib, json, sys
import numpy as np
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:
    from numpy.core._multiarray_umath import __cpu_features__
from rankeffect import build_rank_table, chisq_upper_tail, covariance_general, covariance_simple
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
# 2^-20 to 2^11 in steps of 1/32 an octave, each value exact, as no libm call is
x = np.append(0.0, np.ldexp(1.0 + np.arange(32) / 32, np.arange(-20, 11)[:, None]))
k = np.array([*range(1, 11), 64], dtype=float)[:, None]
tail = chisq_upper_tail(x + 0.0 * k, k + 0.0 * x).tobytes()
# glibc 2.33 and later: the active ECX bits of CPUID leaf 1, FMA bit 12
try:
    leaf = ctypes.CDLL(None).__x86_get_cpuid_feature_leaf
except AttributeError:
    fma = None
else:
    leaf.restype = ctypes.POINTER(ctypes.c_uint32 * 8)
    fma = bool(leaf(0).contents[6] >> 12 & 1)
print(json.dumps({"x86_v4": __cpu_features__.get("X86_V4"), "fma": fma, "v_hat": digests,
                  "tail": hashlib.sha256(tail).hexdigest()}))
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
def default_probe(tmp_path_factory):
    return run_probe(tmp_path_factory.mktemp("default"), {})[0]


@pytest.mark.skipif(platform.machine() != "x86_64", reason="OpenBLAS core types are x86-64")
@pytest.mark.parametrize("setting", list(SETTINGS))
def test_reports_keep_their_bits(setting, tmp_path, default_probe):
    env, core, feature = SETTINGS[setting]
    if not __cpu_features__.get(feature):
        pytest.skip(f"this CPU has no {feature}")
    if "NPY_DISABLE_CPU_FEATURES" in env and not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy dispatches to no X86_V4 loops here: nothing to switch off")
    probe, reports, log = run_probe(tmp_path, env)
    if core is not None and f"Core: {core}" not in log:
        pytest.skip(f"OpenBLAS did not take the {core} kernels")
    if "NPY_DISABLE_CPU_FEATURES" in env:
        assert probe["x86_v4"] is False
    if "GLIBC_TUNABLES" in env and probe["fma"] is not False:
        pytest.skip("glibc did not switch FMA off, or cannot say whether it did")
    assert probe["v_hat"] == default_probe["v_hat"]
    assert probe["tail"] == default_probe["tail"]
    for golden in INPUTS:
        assert reports[golden] == (DATA_DIR / golden).read_bytes(), golden
