"""Dataset ingestion, report documents and text rendering.

Datasets are wide CSV, one row per subject: the first ``d`` columns are the
group-1 measurements on the ``d`` response variables, the next ``d`` the
group-2 measurements.  Missing cells carry a configurable token (default
``NA``).  This encodes an arbitrary per-cell observedness pattern in a
single row.

Reports are JSON objects carrying full-precision numbers plus 3-decimal
display companions, validated against :data:`REPORT_SCHEMA`.  Nothing in a
report depends on wall-clock time, so identical inputs produce identical
bytes.
"""

import csv
import hashlib
import json
import math

import numpy as np

from ._version import __version__
from .data import MaskedSample, build_masked_sample, check_assumptions
from .effects import METHODS
from .errors import InconsistentWidth, ParseError
from .inference import FAMILIES, MethodAnalysis

__all__ = [
    "parse_dataset",
    "write_dataset",
    "build_report",
    "REPORT_SCHEMA",
]

SCHEMA_VERSION = 1


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def parse_dataset(
    path,
    dimension: int | None = None,
    na_token: str = "NA",
) -> MaskedSample:
    """Read a wide CSV file into a :class:`MaskedSample`.

    A header row is detected when the first row contains a token that is
    neither numeric nor the NA token.  The number of response variables is
    inferred as half the column count unless ``dimension`` is given.

    Raises
    ------
    ParseError
        Empty file, odd column count, a non-numeric non-NA cell, or a
        dimension that contradicts the column count.
    InconsistentWidth
        A row with a different number of cells than the first one.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = [row for row in rows if any(cell.strip() for cell in row)]
    if not rows:
        raise ParseError("no rows")
    first = [cell.strip() for cell in rows[0]]
    has_header = any(not _is_number(c) and c != na_token for c in first)
    data_rows = rows[1:] if has_header else rows
    if not data_rows:
        raise ParseError("no data rows (header only)")
    width = len(rows[0])
    if width % 2 != 0:
        raise ParseError(f"column count {width} is odd; expected 2 * d")
    d = width // 2
    if dimension is not None and dimension != d:
        raise ParseError(f"file has {width} columns but dimension {dimension} was requested")

    n = len(data_rows)
    values = np.zeros((2 * d, n))
    observed = np.zeros((2 * d, n), dtype=bool)
    header_offset = 2 if has_header else 1
    for k, row in enumerate(data_rows):
        if len(row) != width:
            raise InconsistentWidth(line=k + header_offset, expected=width, got=len(row))
        for j, cell in enumerate(row):
            token = cell.strip()
            if token == na_token or token == "":
                continue
            try:
                values[j, k] = float(token)
            except ValueError:
                raise ParseError(
                    f"cell {token!r} is neither a number nor {na_token!r}",
                    line=k + header_offset,
                    column=j + 1,
                ) from None
            observed[j, k] = True
    return build_masked_sample(values, observed)


def write_dataset(sample: MaskedSample, path) -> None:
    """Write a sample back to wide CSV with ``NA`` cells; inverse of :func:`parse_dataset`."""
    d = sample.d
    header = [f"g1_var{l + 1}" for l in range(d)] + [f"g2_var{l + 1}" for l in range(d)]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for k in range(sample.n):
            row = [
                repr(float(sample.values[j, k])) if sample.observed[j, k] else "NA"
                for j in range(2 * d)
            ]
            writer.writerow(row)


REPORT_SCHEMA = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "type": "object",
    "required": [
        "schema_version", "alpha", "pattern", "n_subjects", "n_components",
        "component_labels", "assumption_warnings", "effects", "covariance",
        "tests", "provenance",
    ],
    "properties": {
        "schema_version": {"const": SCHEMA_VERSION},
        "alpha": {"type": "number", "exclusiveMinimum": 0, "exclusiveMaximum": 1},
        "pattern": {"enum": ["simple", "general"]},
        "n_subjects": {"type": "integer", "minimum": 2},
        "n_components": {"type": "integer", "minimum": 1},
        "component_labels": {"type": "array", "items": {"type": "string"}},
        "assumption_warnings": {"type": "array", "items": {"type": "string"}},
        "effects": {
            "type": "object",
            "additionalProperties": {
                "type": ["object", "null"],
                "required": ["p_hat", "p_hat_display", "n_subjects", "counts"],
                "properties": {
                    "p_hat": {"type": "array", "items": {"type": "number"}},
                    "p_hat_display": {"type": "array", "items": {"type": "number"}},
                    "n_subjects": {"type": "integer"},
                    "counts": {
                        "type": "object",
                        "required": ["complete", "group1_only", "group2_only"],
                    },
                },
            },
        },
        "covariance": {
            "type": "object",
            "additionalProperties": {
                "type": ["object", "null"],
                "required": ["v_hat", "trace", "nu_hat", "estimator", "flags"],
                "properties": {
                    "v_hat": {
                        "type": "array",
                        "items": {"type": "array", "items": {"type": "number"}},
                    },
                    "trace": {"type": "number"},
                    "nu_hat": {"type": ["number", "null"]},
                    "estimator": {"enum": ["simple", "general"]},
                    "flags": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "tests": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [
                    "method", "family", "statistic", "df", "p_value",
                    "p_value_display", "reject", "flags",
                ],
                "properties": {
                    "method": {"enum": list(METHODS)},
                    "family": {"enum": list(FAMILIES)},
                    "statistic": {"type": ["number", "null"]},
                    "df": {"type": ["number", "null"]},
                    "p_value": {"type": ["number", "null"]},
                    "p_value_display": {"type": ["number", "null"]},
                    "reject": {"type": "boolean"},
                    "flags": {"type": "array", "items": {"type": "string"}},
                },
            },
        },
        "provenance": {
            "type": "object",
            "required": ["package", "version", "config", "config_hash"],
        },
    },
}


def _num(x) -> float | None:
    """JSON-safe number: NaN/inf become null."""
    x = float(x)
    return x if math.isfinite(x) else None


def _round3(x) -> float | None:
    v = _num(x)
    return round(v, 3) if v is not None else None


def _config_hash(config: dict) -> str:
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def build_report(
    analyses: list[MethodAnalysis],
    idx,
    alpha: float,
    config: dict,
) -> dict:
    """Assemble the machine-readable analysis report."""
    d = idx.d
    effects = {}
    covariance = {}
    tests = []
    for item in analyses:
        if item.skipped is not None:
            effects[item.method] = None
            covariance[item.method] = None
        else:
            eff, cov = item.effects, item.covariance
            effects[item.method] = {
                "p_hat": [float(v) for v in eff.p_hat],
                "p_hat_display": [_round3(v) for v in eff.p_hat],
                "n_subjects": item.n,
                "counts": {
                    "complete": [int(v) for v in eff.n_complete],
                    "group1_only": [int(v) for v in eff.n1_only],
                    "group2_only": [int(v) for v in eff.n2_only],
                },
            }
            covariance[item.method] = {
                "v_hat": [[float(v) for v in row] for row in cov.v_hat],
                "trace": float(cov.trace),
                "trace_sq": float(cov.trace_sq),
                "nu_hat": _num(cov.nu_hat),
                "estimator": cov.estimator,
                "flags": list(cov.degenerate),
            }
        for rep in (item.wald, item.anova):
            tests.append({
                "method": item.method,
                "family": rep.family,
                "statistic": _num(rep.statistic),
                "df": _num(rep.df),
                "p_value": _num(rep.p_value),
                "p_value_display": _round3(rep.p_value),
                "reject": bool(rep.reject),
                "flags": list(rep.flags),
            })
    return {
        "schema_version": SCHEMA_VERSION,
        "alpha": alpha,
        "pattern": "simple" if idx.is_simple_pattern else "general",
        "n_subjects": idx.n,
        "n_components": d,
        "component_labels": [f"var{l + 1}" for l in range(d)],
        "assumption_warnings": check_assumptions(idx),
        "effects": effects,
        "covariance": covariance,
        "tests": tests,
        "provenance": {
            "package": "rankeffect",
            "version": __version__,
            "config": config,
            "config_hash": _config_hash(config),
            "seed": None,
        },
    }


def _fmt(x, width=10, prec=3) -> str:
    if x is None or (isinstance(x, float) and not math.isfinite(x)):
        return "-".rjust(width)
    return f"{x:.{prec}f}".rjust(width)


def render_analysis_table(report: dict) -> str:
    """Human-readable rendering: effects per component, then joint tests."""
    lines = []
    methods = [m for m in METHODS if m in report["effects"]]
    lines.append(f"effects (n={report['n_subjects']}, pattern={report['pattern']})")
    head = "component".ljust(14) + "".join(m.rjust(12) for m in methods)
    lines.append(head)
    for l, label in enumerate(report["component_labels"]):
        row = label.ljust(14)
        for m in methods:
            eff = report["effects"][m]
            row += _fmt(eff["p_hat"][l], 12) if eff else "-".rjust(12)
        lines.append(row)
    lines.append("")
    lines.append(
        "method".ljust(12) + "family".ljust(8)
        + "statistic".rjust(12) + "df".rjust(9) + "p_value".rjust(10)
        + f"  reject@{report['alpha']:g}"
    )
    for t in report["tests"]:
        lines.append(
            t["method"].ljust(12) + t["family"].ljust(8)
            + _fmt(t["statistic"], 12) + _fmt(t["df"], 9, 2) + _fmt(t["p_value"], 10)
            + ("  yes" if t["reject"] else "  no")
            + ("  [" + "; ".join(t["flags"]) + "]" if t["flags"] else "")
        )
    if report["assumption_warnings"]:
        lines.append("")
        lines.append("warnings:")
        lines.extend("  - " + w for w in report["assumption_warnings"])
    return "\n".join(lines) + "\n"


def simulation_results_document(results, config: dict) -> dict:
    """JSON document for a batch of simulation results (no wall-clock)."""
    rows = []
    for res in results:
        s = res.scenario
        row = {
            "label": s.label,
            "distribution": s.distribution,
            "d": s.d,
            "rho": list(s.rho),
            "sigma_sq": list(s.sigma_sq),
            "delta": list(s.delta),
            "pattern": s.pattern,
            "sizes": list(s.sizes),
            "replications": s.replications,
            "seed": s.seed,
            "alpha": s.alpha,
            "failures": res.failures,
            "methods": {},
        }
        for key, tally in res.tallies.items():
            row["methods"][key] = {
                "rejections": tally.rejections,
                "evaluated": tally.evaluated,
                "skipped": tally.skipped,
                "flagged": tally.flagged,
                "rate": _num(tally.rate),
                "mc_se": _num(tally.mc_se),
            }
        rows.append(row)
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "simulation",
        "provenance": {
            "package": "rankeffect",
            "version": __version__,
            "config": config,
            "config_hash": _config_hash(config),
        },
        "results": rows,
    }


def render_simulation_table(results) -> str:
    """Aligned text table: one row per scenario, rejection rates in percent."""
    keys: list[str] = []
    for res in results:
        for k in res.tallies:
            if k not in keys:
                keys.append(k)
    label_w = max([len(r.scenario.label) for r in results] + [len("scenario")]) + 2
    head = "scenario".ljust(label_w) + "".join(k.rjust(18) for k in keys)
    lines = [head]
    for res in results:
        row = res.scenario.label.ljust(label_w)
        for k in keys:
            tally = res.tallies.get(k)
            if tally is None or not tally.evaluated:
                row += "-".rjust(18)
            else:
                row += f"{100 * tally.rate:.1f} ± {100 * tally.mc_se:.1f}".rjust(18)
        lines.append(row)
    return "\n".join(lines) + "\n"
