"""Command line interface: ``analyze`` a dataset or ``simulate`` a study grid.

Statistical rejection is data, not failure: ``analyze`` exits 0 whenever the
pipeline ran, regardless of test outcomes.  Operational failures exit 1 with
a machine-readable error object on stderr.
"""

import argparse
import configparser
import json
import sys

from .data import derive_pattern_index
from .effects import METHODS
from .errors import RankEffectError, ScenarioError
from .inference import PATTERN_CHOICES, analyze
from .reports import (
    build_report,
    parse_dataset,
    render_analysis_table,
    render_simulation_table,
    simulation_results_document,
)
from .simulate import Scenario, builtin_grid, run_grid

__all__ = ["main", "cmd_analyze", "cmd_simulate"]


def _fail(exc: Exception) -> int:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(obj), file=sys.stderr)
    return 1


def _parse_methods(raw: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in raw.split(",") if m.strip())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def cmd_analyze(args) -> int:
    try:
        sample = parse_dataset(args.dataset, dimension=args.dimension, na_token=args.na_token)
        idx = derive_pattern_index(sample)
        methods = _parse_methods(args.methods)
        analyses = analyze(
            sample, idx, alpha=args.alpha, methods=methods, pattern=args.pattern
        )
        config = {
            "command": "analyze",
            "alpha": args.alpha,
            "methods": list(methods),
            "pattern": args.pattern,
            "na_token": args.na_token,
        }
        report = build_report(analyses, idx, args.alpha, config)
    except (RankEffectError, ValueError, OSError) as exc:
        return _fail(exc)
    text = (
        render_analysis_table(report)
        if args.table
        else json.dumps(report, indent=2, allow_nan=False) + "\n"
    )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# each Scenario field a scenario file may set, with its reader; the label is
# the section name and the seed derives from --seed.  Absent keys take the
# Scenario defaults; --reps, when given, replaces every section's value.
_CONFIG_READERS = {
    "distribution": str,
    "d": int,
    "rho": _floats,
    "sigma_sq": _floats,
    "delta": _floats,
    "sizes": _floats,
    "pattern": str,
    "replications": int,
    "alpha": float,
    "methods": _parse_methods,
}


def _scenarios_from_config(path, reps: int | None) -> list[Scenario]:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario config {path!r}: {exc}") from None
    if not read:
        raise ScenarioError(f"cannot read scenario config {path!r}")
    scenarios = []
    for section in parser.sections():
        sec = parser[section]
        unknown = sorted(set(sec) - set(_CONFIG_READERS))
        if unknown:
            raise ScenarioError(f"scenario [{section}]: unknown key(s) {', '.join(unknown)}")
        try:
            values = {key: _CONFIG_READERS[key](sec[key]) for key in sec}
            if reps is not None:
                values["replications"] = reps
            scenarios.append(Scenario(label=section, **values))
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"scenario [{section}]: bad or missing key ({exc})") from None
        except RankEffectError as exc:
            raise ScenarioError(f"scenario [{section}]: {exc}") from None
    if not scenarios:
        raise ScenarioError(f"no scenario sections found in {path!r}")
    return scenarios


def cmd_simulate(args) -> int:
    try:
        if args.builtin:
            dims = tuple(int(v) for v in args.dims.split(","))
            reps = Scenario.replications if args.reps is None else args.reps
            scenarios = builtin_grid(args.builtin, reps=reps, dims=dims)
        else:
            reps = args.reps
            scenarios = _scenarios_from_config(args.config, reps)
        results = run_grid(scenarios, master_seed=args.seed)
        config = {
            "command": "simulate",
            "builtin": args.builtin,
            "config": args.config,
            "reps": reps,
            "seed": args.seed,
            "dims": args.dims,
        }
        doc = simulation_results_document(results, config)
        table = render_simulation_table(results)
    except (RankEffectError, ValueError, OSError) as exc:
        return _fail(exc)
    if args.output:
        with open(args.output + ".json", "w") as fh:
            json.dump(doc, fh, indent=2, allow_nan=False)
            fh.write("\n")
        with open(args.output + ".txt", "w") as fh:
            fh.write(table)
    else:
        sys.stdout.write(table)
        if args.json:
            sys.stdout.write(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankeffect",
        description="Rank-based effect sizes and joint tests for multivariate "
        "two-sample data with missing values.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="analyze a wide CSV dataset")
    pa.add_argument("dataset", help="path to the CSV file")
    pa.add_argument("--alpha", type=float, default=0.05, help="significance level")
    pa.add_argument(
        "--methods", default=",".join(METHODS),
        help=f"comma-separated subset of: {', '.join(METHODS)}",
    )
    pa.add_argument(
        "--pattern", choices=PATTERN_CHOICES, default="auto",
        help="covariance estimator selection",
    )
    pa.add_argument("--na-token", default="NA", help="missing-value token")
    pa.add_argument("--dimension", type=int, default=None,
                    help="number of response variables (checked against the file)")
    pa.add_argument("--table", action="store_true",
                    help="emit a text table instead of the JSON report")
    pa.add_argument("--output", default=None, help="write to this file instead of stdout")
    pa.set_defaults(func=cmd_analyze)

    ps = sub.add_parser("simulate", help="run a Monte Carlo study")
    src = ps.add_mutually_exclusive_group(required=True)
    src.add_argument("--builtin", default=None,
                     help="named grid: table3, table6, design1, design2, design3")
    src.add_argument("--config", default=None, help="INI scenario file")
    ps.add_argument("--reps", type=int, default=None,
                    help=f"replications per scenario (default: {Scenario.replications} "
                    "for --builtin, the file's values for --config)")
    ps.add_argument("--seed", type=int, default=0, help="master seed for the grid")
    ps.add_argument("--dims", default="2,3,5",
                    help="dimensions for builtin grids that vary d")
    ps.add_argument("--json", action="store_true", help="also print the JSON document")
    ps.add_argument("--output", default=None,
                    help="write <output>.json and <output>.txt instead of stdout")
    ps.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
