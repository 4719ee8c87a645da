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
from .effects import METHODS, check_methods
from .errors import RankEffectError, ScenarioError
from .inference import ALPHA, PATTERN_CHOICES, _check_alpha, analyze
from .reports import (
    build_report,
    parse_dataset,
    render_analysis_table,
    render_simulation_table,
    simulation_results_document,
)
from .simulate import DIMS, Scenario, builtin_grid, run_grid

__all__ = ["main", "cmd_analyze", "cmd_simulate"]


def _fail(exc: Exception) -> int:
    obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    print(json.dumps(obj), file=sys.stderr)
    return 1


def _write(path, text: str) -> None:
    """Write ``text`` as UTF-8, whatever the locale, to ``path`` or else to stdout."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))


def _parse_methods(raw: str) -> tuple[str, ...]:
    return tuple(m.strip() for m in raw.split(",") if m.strip())


def _floats(raw: str) -> tuple[float, ...]:
    return tuple(float(v) for v in raw.split(","))


def cmd_analyze(args) -> int:
    # the arguments first, so that a bad one is named without reading the file
    _check_alpha(args.alpha)
    methods = _parse_methods(args.methods)
    check_methods(methods)
    sample = parse_dataset(args.dataset, dimension=args.dimension, na_token=args.na_token)
    idx = derive_pattern_index(sample)
    analyses = analyze(sample, alpha=args.alpha, methods=methods, pattern=args.pattern)
    config = {
        "command": "analyze",
        "alpha": args.alpha,
        "methods": list(methods),
        "pattern": args.pattern,
        "na_token": args.na_token,
    }
    report = build_report(analyses, idx, args.alpha, config)
    text = (
        render_analysis_table(report)
        if args.table
        else json.dumps(report, indent=2, allow_nan=False) + "\n"
    )
    _write(args.output, text)
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
        read = parser.read(path, encoding="utf-8-sig")  # a byte-order mark is not a section
    except configparser.Error as exc:
        raise ScenarioError(f"malformed scenario config {path!r}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"scenario config {path!r} is not UTF-8 text: "
            f"byte 0x{exc.object[exc.start]:02x}, {exc.reason}"
        ) from None
    if not read:
        raise ScenarioError(f"cannot read scenario config {path!r}")
    scenarios = []
    for section in parser.sections():
        sec = parser[section]
        unknown = sorted(set(sec) - set(_CONFIG_READERS))
        if unknown:
            raise ScenarioError(f"scenario [{section}]: unknown key(s) {', '.join(unknown)}")
        values = {}
        for key in sec:
            try:
                values[key] = _CONFIG_READERS[key](sec[key])
            except (ValueError, configparser.Error) as exc:
                raise ScenarioError(f"scenario [{section}]: bad {key} ({exc})") from None
        if reps is not None:
            values["replications"] = reps
        try:
            scenarios.append(Scenario(label=section, **values))
        except TypeError as exc:
            raise ScenarioError(f"scenario [{section}]: missing key ({exc})") from None
        except RankEffectError as exc:
            raise ScenarioError(f"scenario [{section}]: {exc}") from None
    if not scenarios:
        raise ScenarioError(f"no scenario sections found in {path!r}")
    return scenarios


def cmd_simulate(args) -> int:
    dims = args.dims
    if args.builtin:
        if dims is None and args.builtin == "table3":
            dims = ",".join(map(str, DIMS))  # recorded as the dimensions run
        try:
            values = None if dims is None else tuple(int(v) for v in dims.split(","))
        except ValueError:
            raise ScenarioError(f"--dims must be integers, got {dims!r}") from None
        reps = Scenario.replications if args.reps is None else args.reps
        scenarios = builtin_grid(args.builtin, reps=reps, dims=values)
    elif dims is not None:
        raise ScenarioError("--dims applies to --builtin table3, not to --config")
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
        "dims": dims,
    }
    doc = json.dumps(simulation_results_document(results, config), indent=2, allow_nan=False)
    table = render_simulation_table(results)
    if args.output:
        _write(args.output + ".json", doc + "\n")
        _write(args.output + ".txt", table)
    else:
        _write(None, table + doc + "\n" if args.json else table)
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
    pa.add_argument("--alpha", type=float, default=ALPHA, help="significance level")
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
    ps.add_argument("--dims", help="dimensions of the table3 grid (default: "
                    f"{','.join(map(str, DIMS))}); the other grids run at d = 2")
    ps.add_argument("--json", action="store_true", help="also print the JSON document")
    ps.add_argument("--output", default=None,
                    help="write <output>.json and <output>.txt instead of stdout")
    ps.set_defaults(func=cmd_simulate)
    return parser


def main(argv=None) -> int:
    """Run one command; an operational failure exits 1 with a JSON error on stderr."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (RankEffectError, ValueError, OSError) as exc:
        return _fail(exc)


if __name__ == "__main__":
    sys.exit(main())
