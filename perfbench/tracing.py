"""Spans and counts recorded around rankeffect's public functions, from outside.

Modules bind each other's functions by name (``from .ranks import
build_rank_table``), so a function is replaced by its wrapper in every
``rankeffect`` module namespace that binds it, and put back afterwards.  The
package source is not modified.

A span is ``(name, start, end, parent)`` where ``parent`` is the index of the
enclosing span or -1.  Spans stay in memory until :meth:`Tracer.write`.  A
function's self time is the sum of its spans' durations minus the durations
of their direct children; calls in one thread nest, so children never
overlap.
"""

import functools
import json
import os
import sys
import time
from collections import Counter

def _parse_bytes(counts, args, kwargs, result):
    counts["reports.parse_bytes"] += os.path.getsize(args[0])


def _cells_ranked(counts, args, kwargs, result):
    counts["ranks.cells_ranked"] += int(args[0].observed.sum())


def _degenerate_flags(counts, args, kwargs, result):
    counts["covariance.degenerate_flags"] += len(result.degenerate)


def _general_terms(counts, args, kwargs, result):
    d = args[1].d
    counts["covariance.general_terms"] += 9 * d * (d + 1) // 2
    _degenerate_flags(counts, args, kwargs, result)


def _skipped_methods(counts, args, kwargs, result):
    counts["inference.skipped_methods"] += sum(a.skipped is not None for a in result)


def _replicates(counts, args, kwargs, result):
    counts["simulate.replicates"] += args[0].replications
    counts["simulate.failures"] += result.failures


# "<module>.<function>" -> count hook(counts, args, kwargs, result), or None.
# Hooks derive counts from arguments and results only, so a count repeats
# exactly for the same inputs.
TRACED = {
    "reports.parse_dataset": _parse_bytes,
    "reports.build_report": None,
    "reports.simulation_results_document": None,
    "data.build_masked_sample": None,
    "data.derive_pattern_index": None,
    "ranks.build_rank_table": _cells_ranked,
    "ranks.placements": None,
    "effects.estimate_effects": None,
    "effects.restrict_method": None,
    "covariance.covariance_simple": _degenerate_flags,
    "covariance.covariance_general": _general_terms,
    "inference.analyze": _skipped_methods,
    "inference.wald_test": None,
    "inference.anova_test": None,
    "simulate.draw_sample": None,
    "simulate.run_scenario": _replicates,
    "cli.cmd_analyze": None,
    "cli.cmd_simulate": None,
}

COUNTS = (
    "reports.parse_bytes",
    "ranks.cells_ranked",
    "covariance.general_terms",
    "covariance.degenerate_flags",
    "inference.skipped_methods",
    "simulate.replicates",
    "simulate.failures",
)


class Tracer:
    """Records spans and counts while installed; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts = self.spans, self._stack, self.counts

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[sid] = (name, start, end, parent)
            if hook is not None:
                hook(counts, args, kwargs, result)
            return result

        return traced

    def __enter__(self):
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == "rankeffect" or key.startswith("rankeffect."))
        ]
        for name, hook in TRACED.items():
            module_name, func_name = name.split(".")
            original = getattr(sys.modules[f"rankeffect.{module_name}"], func_name)
            wrapper = self._wrap(name, original, hook)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, attr, original))
                        setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()
        return False

    def layer_table(self) -> dict[str, dict[str, float]]:
        """Per traced function: ``calls`` and ``self_s``; zero when never called."""
        table = {name: {"calls": 0, "self_s": 0.0} for name in TRACED}
        for name, start, end, parent in self.spans:
            row = table[name]
            row["calls"] += 1
            row["self_s"] += end - start
            if parent >= 0:
                table[self.spans[parent][0]]["self_s"] -= end - start
        return table

    def write(self, path) -> None:
        """Write every span as one JSON list ``[name, start, end, parent]`` per line."""
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
