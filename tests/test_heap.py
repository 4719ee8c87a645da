import ctypes
import os
import subprocess
import sys

import pytest

from rankeffect import _heap
from rankeffect.cli import main


def glibc_version():
    try:
        return os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return None


@pytest.fixture
def libc_calls(monkeypatch):
    """The names ``ctypes.CDLL`` is asked for and the ``mallopt`` calls made."""
    calls = []

    class FakeLibc:
        def __init__(self, name):
            calls.append(("CDLL", name))
            # a function, whose argtypes and restype may be set
            self.mallopt = lambda param, value: calls.append(("mallopt", param, value))

    monkeypatch.setattr(ctypes, "CDLL", FakeLibc)
    clear_user_settings(monkeypatch)
    return calls


def clear_user_settings(monkeypatch):
    for name in ("MALLOC_TOP_PAD_", "MALLOC_TRIM_THRESHOLD_", "MALLOC_MMAP_THRESHOLD_"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.delenv("GLIBC_TUNABLES", raising=False)


def test_glibc_fixes_its_thresholds_at_their_ceilings(monkeypatch, libc_calls):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    _heap.keep_freed_heap()
    assert libc_calls == [("CDLL", None), ("mallopt", -3, 32 << 20), ("mallopt", -1, 64 << 20)]


@pytest.mark.parametrize("error", [ValueError, OSError])
def test_no_mallopt_when_confstr_raises(monkeypatch, libc_calls, error):
    def confstr(name):
        raise error(name)

    monkeypatch.setattr(os, "confstr", confstr)
    _heap.keep_freed_heap()
    assert libc_calls == []


def test_no_mallopt_without_confstr(monkeypatch, libc_calls):
    monkeypatch.delattr(os, "confstr", raising=False)
    _heap.keep_freed_heap()
    assert libc_calls == []


def test_no_mallopt_without_glibc(monkeypatch, libc_calls):
    monkeypatch.setattr(os, "confstr", lambda name: None)
    _heap.keep_freed_heap()
    assert libc_calls == []


@pytest.mark.parametrize(
    "name, value",
    [
        ("MALLOC_TOP_PAD_", "0"),
        ("MALLOC_TRIM_THRESHOLD_", "131072"),
        ("MALLOC_MMAP_THRESHOLD_", "131072"),
        ("GLIBC_TUNABLES", "glibc.malloc.top_pad=0"),
        ("GLIBC_TUNABLES", "glibc.malloc.arena_max=2:glibc.malloc.trim_threshold=0"),
        ("GLIBC_TUNABLES", "glibc.malloc.mmap_threshold=131072"),
    ],
)
def test_no_mallopt_over_the_users_settings(monkeypatch, libc_calls, name, value):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setenv(name, value)
    _heap.keep_freed_heap()
    assert libc_calls == []


def test_other_tunables_leave_the_policy_on(monkeypatch, libc_calls):
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    monkeypatch.setenv("GLIBC_TUNABLES", "glibc.malloc.arena_max=2")
    _heap.keep_freed_heap()
    assert [call[1] for call in libc_calls[1:]] == [-3, -1]


@pytest.mark.skipif(glibc_version() is None, reason="the heap policy is glibc's")
def test_a_fresh_process_reuses_its_freed_arrays(monkeypatch):
    # numpy is loaded but nothing large is freed yet, so glibc's thresholds are
    # still low; a policy that set only a top pad would freeze them there, and
    # each 8 MiB array would be mmapped and faulted in again (about 5k faults)
    clear_user_settings(monkeypatch)
    code = (
        "import importlib.util, resource, sys\n"
        "import numpy as np\n"
        "spec = importlib.util.spec_from_file_location('heap', sys.argv[1])\n"
        "heap = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(heap)\n"
        "heap.keep_freed_heap()\n"
        "np.ones(1 << 20)\n"
        "before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "for _ in range(10):\n"
        "    np.ones(1 << 20)\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)\n"
    )
    argv = [sys.executable, "-c", code, _heap.__file__]
    out = subprocess.run(argv, capture_output=True, text=True, check=True)
    assert int(out.stdout) < 500


@pytest.mark.skipif(glibc_version() is None, reason="the heap policy is glibc's")
def test_a_simulate_call_faults_its_blocks_in_once(monkeypatch, tmp_path):
    # design3 at n = 1,410 runs the 204 replicates of each mask in 5 blocks
    # of 40 and 41; with the top of the heap trimmed after each block, the
    # next one faulted its pages in again, about 20k minor faults a call
    resource = pytest.importorskip("resource")
    monkeypatch.setenv("RANK_EFFECT_THREADS", "1")
    clear_user_settings(monkeypatch)
    argv = ["simulate", "--builtin", "design3", "--reps", "17", "--output", str(tmp_path / "o")]
    assert main(argv) == 0  # warm-up
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(argv) == 0
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 2000


def test_library_runs_and_their_workers_keep_the_heap(monkeypatch, libc_calls):
    # run_scenario and run_grid set the policy themselves, and a pool hands it
    # to each worker as it starts, which a spawned worker would not inherit
    import concurrent.futures
    from dataclasses import replace

    from rankeffect import simulate

    initializers = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, initializer=None, **kwargs):
            initializers.append(initializer)
            super().__init__(*args, initializer=initializer, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Pool)
    monkeypatch.setattr(os, "confstr", lambda name: "glibc 2.36")
    policy = [("CDLL", None), ("mallopt", -3, 32 << 20), ("mallopt", -1, 64 << 20)]
    s = simulate.Scenario(
        distribution="normal", d=2, rho=(0.1, 0.1, 0.1), sigma_sq=(1.0, 1.0),
        delta=(0.0, 0.0), sizes=(30, 10, 10), replications=5, seed=1,
    )
    monkeypatch.setenv("RANK_EFFECT_THREADS", "1")
    simulate.run_scenario(s)
    assert libc_calls == policy
    libc_calls.clear()
    monkeypatch.setenv("RANK_EFFECT_THREADS", "2")
    grid = [s, replace(s, alpha=0.1)]  # two blocks, one a worker
    assert simulate.run_grid(grid) == [simulate.run_scenario(x) for x in grid]
    assert libc_calls[:3] == policy
    workers = simulate._worker_count(2)
    assert initializers == ([_heap.keep_freed_heap] if workers > 1 else [])
