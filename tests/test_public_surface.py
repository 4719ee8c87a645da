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


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_every_traced_function_resolves():
    tracing = load_tracing()
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


def test_traced_layers_stay_on_the_monte_carlo_path():
    # a layer that blocks of replicates bypassed would read zero calls in the
    # benchmark's per-layer table; a count hook that raised would end the run
    import rankeffect.cli  # noqa: F401  (the tracer patches loaded modules)

    scenarios = [
        rankeffect.Scenario(
            distribution="normal", d=2, rho=(0.1, 0.1, 0.1), sigma_sq=(1.0, 1.0),
            delta=(0.0, 0.0), sizes=(10, 5, 5), replications=6, methods=rankeffect.METHODS,
        ),
        rankeffect.builtin_grid("design1", reps=4)[0],
    ]
    tracer = load_tracing().Tracer()
    with tracer:
        for scenario in scenarios:
            rankeffect.simulate.run_scenario(scenario)
    table = tracer.layer_table()
    layers = [
        "simulate.draw_sample", "data.derive_pattern_index", "effects.restrict_method",
        "ranks.build_rank_table", "effects.estimate_effects",
        "covariance.covariance_simple", "covariance.covariance_general",
        "inference.analyze", "inference.wald_test", "inference.anova_test",
        "simulate.run_scenario",
    ]
    assert [name for name in layers if table[name]["calls"] == 0] == []
    assert tracer.counts["simulate.replicates"] == 10
    assert tracer.counts["simulate.failures"] == 0
    assert tracer.counts["ranks.cells_ranked"] > 0
    assert tracer.counts["covariance.general_terms"] > 0


def test_traced_layers_stay_on_the_analyze_path(tmp_path):
    # the count hooks read parse_dataset's path at args[0] and the pattern
    # index's d at args[1] of the covariance estimators, whose (b, idx) order
    # keeps the index there
    import rankeffect.cli

    fixture = Path(__file__).resolve().parent / "data" / "paired_qol_42subjects.csv"
    tracer = load_tracing().Tracer()
    with tracer:
        code = rankeffect.cli.main([
            "analyze", str(fixture), "--pattern", "general",
            "--output", str(tmp_path / "report.json"),
        ])
    assert code == 0
    assert tracer.counts["reports.parse_bytes"] == fixture.stat().st_size
    assert tracer.counts["covariance.general_terms"] == 3 * 9 * 3 * 4 // 2  # 3 methods, d = 3
