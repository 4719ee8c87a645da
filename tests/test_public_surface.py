"""The names other code reaches into rankeffect by must keep resolving.

``perfbench/tracing.py`` wraps functions by ``"<module>.<function>"`` name,
so renaming or moving one of them breaks the traced benchmark run; these
checks catch that in the test suite instead.
"""

import importlib
import importlib.util
import pkgutil
from dataclasses import replace
from pathlib import Path

import rankeffect

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


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


def test_readme_library_example_runs(capsys):
    # README's "Library use" block, on the fixture in place of study.csv
    section = (ROOT / "README.md").read_text(encoding="utf-8").split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    fixture = ROOT / "tests" / "data" / "paired_qol_42subjects.csv"
    assert '"study.csv"' in code
    exec(compile(code.replace('"study.csv"', repr(str(fixture))), "README.md", "exec"), {})
    heads = [line.split(" ", 1)[0] for line in capsys.readouterr().out.splitlines()]
    assert [head for head in heads if head in rankeffect.METHODS] == list(rankeffect.METHODS)


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
    # benchmark's per-layer table; a count hook that raised would end the run.
    # The draws take simulate._draw, not the traced draw_sample
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
        "data.derive_pattern_index",
        "ranks.build_rank_table", "effects.estimate_effects",
        "covariance.covariance_simple", "covariance.covariance_general",
        "inference.analyze", "inference.wald_test", "inference.anova_test",
        "simulate.run_scenario",
    ]
    assert [name for name in layers if table[name]["calls"] == 0] == []
    # the pattern index is derived once per block, inside analyze; the
    # restricted methods' indices come from their masks, with no sample
    assert table["inference.analyze"]["calls"] == 2  # one block per scenario
    # every method's tests of a block come from one call per family
    assert table["inference.wald_test"]["calls"] == table["inference.anova_test"]["calls"] == 2
    assert table["data.derive_pattern_index"]["calls"] == 2
    assert table["effects.restrict_method"]["calls"] == 0
    assert tracer.counts["simulate.replicates"] == 10
    assert tracer.counts["simulate.failures"] == 0
    assert tracer.counts["ranks.cells_ranked"] > 0
    assert tracer.counts["covariance.general_terms"] > 0


def test_traced_grid_packs_scenarios_that_share_a_mask(monkeypatch):
    # run_grid analyzes the replicates of scenarios that share a mask,
    # methods, alpha and distribution in one block, while each scenario
    # draws its own
    import rankeffect.cli  # noqa: F401  (the tracer patches loaded modules)

    draws, draw = [], rankeffect.simulate._draw
    monkeypatch.setattr(
        rankeffect.simulate, "_draw", lambda s, indices: draws.append(s.seed) or draw(s, indices)
    )

    first = rankeffect.Scenario(
        distribution="normal", d=2, rho=(0.1, 0.1, 0.1), sigma_sq=(1.0, 1.0),
        delta=(0.0, 0.0), sizes=(10, 5, 5), replications=6, methods=rankeffect.METHODS,
    )
    tracer = load_tracing().Tracer()
    with tracer:
        rankeffect.run_grid([first, replace(first, sigma_sq=(1.0, 5.0), seed=1)])
    table = tracer.layer_table()
    calls = {name: table[name]["calls"] for name in (
        "inference.analyze", "inference.wald_test", "inference.anova_test",
    )}
    assert calls == {"inference.analyze": 1, "inference.wald_test": 1, "inference.anova_test": 1}
    assert draws == [0, 1]


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
    table = tracer.layer_table()
    # one index for the report and one inside analyze
    assert table["inference.analyze"]["calls"] == 1
    # the three methods' tests come from one call per family
    assert table["inference.wald_test"]["calls"] == table["inference.anova_test"]["calls"] == 1
    assert table["data.derive_pattern_index"]["calls"] == 1 + 1
    assert tracer.counts["reports.parse_bytes"] == fixture.stat().st_size
    assert tracer.counts["covariance.general_terms"] == 3 * 9 * 3 * 4 // 2  # 3 methods, d = 3
