"""The names other code reaches into rankeffect by must keep resolving.

``perfbench/tracing.py`` wraps functions by ``"<module>.<function>"`` name,
so renaming or moving one of them breaks the traced benchmark run; these
checks catch that in the test suite instead.
"""

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import rankeffect

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def package_modules():
    yield rankeffect
    for info in pkgutil.iter_modules(rankeffect.__path__):
        yield importlib.import_module(f"rankeffect.{info.name}")


def test_every_exported_name_resolves():
    missing = [
        f"{module.__name__}.{name}"
        for module in package_modules()
        for name in getattr(module, "__all__", ())
        if not hasattr(module, name)
    ]
    assert missing == []


def test_every_traced_function_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TRACED
    missing = []
    for name in tracing.TRACED:
        module_name, func_name = name.split(".")
        module = importlib.import_module(f"rankeffect.{module_name}")
        if not callable(getattr(module, func_name, None)):
            missing.append(name)
    assert missing == []


def test_package_exports_each_name_once():
    assert len(rankeffect.__all__) == len(set(rankeffect.__all__))


def test_setup_probe_entry_points_resolve():
    # perfbench/setup_probe.py builds and validates the built-in grids
    assert callable(rankeffect.builtin_grid)
    assert callable(rankeffect.Scenario.validate)
    for scenario in rankeffect.builtin_grid("table3", reps=5):
        scenario.validate()
