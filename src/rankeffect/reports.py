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
import io
import itertools
import json
import math
import re
from pathlib import Path

import numpy as np

from ._version import __version__
from .data import MaskedSample, build_masked_sample, check_assumptions
from .effects import METHODS
from .errors import InconsistentWidth, ParseError
from .inference import FAMILIES, MethodAnalysis

__all__ = [
    "parse_dataset",
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


def _is_header(cells: list[str], na_token: str) -> bool:
    """A first row is a header when some cell is neither a number, the NA token, nor empty."""
    return any(c and c != na_token and not _is_number(c) for c in cells)


def _malformed(text: str, exc: csv.Error, start: int, end: int) -> ParseError:
    """The error for a CSV record of ``text`` that ``csv`` rejected, begun at line ``start``.

    A reader that ran into the end of the text or the field size limit
    (131,072 characters by default) is still inside a quoted field; that
    field is named at the line of its opening quote, counting from the
    record's start, where ``""`` opens and closes nothing.  Any other error
    is named at line ``end``, where the reader stopped.
    """
    opened = None
    if str(exc).startswith(("unexpected end of data", "field larger than field limit")):
        lines = itertools.islice(io.StringIO(text, newline=""), start - 1, end)
        for line, chunk in enumerate(lines, start):
            for _ in range(chunk.replace('""', "").count('"')):
                opened = None if opened else line
    if opened is not None:
        return ParseError("unterminated quoted field", line=opened)
    return ParseError(f"malformed CSV: {exc}", line=end)


def _numbers(cells: list[str], na_token: str, line: int) -> list[float]:
    """The cells of a data row as finite numbers, NaN where missing."""
    row = []
    for column, token in enumerate(cells, 1):
        if token == na_token or token == "":
            row.append(math.nan)
            continue
        try:
            value = float(token)
        except ValueError:
            raise ParseError(
                f"cell {token!r} is neither a number nor {na_token!r}", line=line, column=column
            ) from None
        # float() reads "inf", "nan" and overflowing numbers such as 1e999
        if not math.isfinite(value):
            raise ParseError(f"cell {token!r} is not a finite number", line=line, column=column)
        row.append(value)
    return row


def _read_rows(text: str, dimension: int | None, na_token: str) -> np.ndarray:
    """The data rows of ``text`` as an array, NaN where missing, read row by row.

    This loop defines the format: it decides every value and raises every
    error, the first in file order.
    """
    reader = csv.reader(io.StringIO(text, newline=""), strict=True)  # lines end as in a file
    width = None
    rows = []
    line = 0  # the line the last record read ends on; blank lines count
    try:  # csv.Error comes only from the reader
        for row in reader:
            line = reader.line_num
            cells = [cell.strip() for cell in row]
            if not any(cells):
                continue
            if width is None:
                width = len(cells)
                if _is_header(cells, na_token):
                    continue
            if not rows:
                if width % 2 != 0:
                    raise ParseError(f"column count {width} is odd; expected 2 * d")
                if dimension is not None and dimension != width // 2:
                    raise ParseError(
                        f"file has {width} columns but dimension {dimension} was requested"
                    )
            if len(cells) != width:
                raise InconsistentWidth(line=line, expected=width, got=len(cells))
            rows.append(_numbers(cells, na_token, line))
            if all(map(math.isnan, rows[-1])):
                raise ParseError("the row has no observed cell", line=line)
    except csv.Error as exc:
        raise _malformed(text, exc, line + 1, reader.line_num) from None
    if width is None:
        raise ParseError("no rows")
    if not rows:
        raise ParseError("no data rows (header only)")
    return np.array(rows)


def _read_fast(text: str, dimension: int | None, na_token: str) -> np.ndarray | None:
    """What :func:`_read_rows` returns for ``text``, read by numpy's C reader; None if unproven.

    Only text without quotes, NUL or a carriage return outside a CRLF line
    end is tried, so that a line is a record and a comma ends a field, as
    for the loop.  The header is found by the loop's rule.  Whole NA and
    empty fields become ``nan`` and are counted.  The result stands only if
    it has one row per line after the header and the loop's even width, its
    NaN cells are exactly the fields replaced (a literal ``nan`` is an error
    to the loop), and it has no infinity and no row without an observed
    cell.  Any other text, including every text the loop rejects, gives None.
    """
    if '"' in text or "\x00" in text or "," in na_token or na_token != na_token.strip():
        return None
    if "\r" in text:
        if text.count("\r") != text.count("\r\n"):
            return None
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if max(map(len, lines)) > csv.field_size_limit():
        return None  # the loop's reader rejects a longer field
    start = next(
        (i for i, line in enumerate(lines) if any(c.strip() for c in line.split(","))), None
    )
    if start is None:
        return None
    first = [c.strip() for c in lines[start].split(",")]
    width = len(first)
    if width % 2 != 0 or (dimension is not None and dimension != width // 2):
        return None
    if _is_header(first, na_token):
        start += 1
    end = len(lines)
    while end > start and not lines[end - 1]:
        end -= 1  # blank lines at the end of the file
    if end == start:
        return None
    # every field between two commas, so that a whole field is ",NA" before a ","
    body = "," + ",\n,".join(lines[start:end]) + ","
    del lines
    body, replaced = re.subn(f",(?:{re.escape(na_token)}(?=,)|(?=,))", ",nan", body)
    body = body[1:-1].replace(",\n,", "\n")
    try:
        rows = np.loadtxt(
            io.StringIO(body), dtype=float, delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    missing = np.isnan(rows)
    if (
        rows.shape != (end - start, width)
        or np.count_nonzero(missing) != replaced
        or np.isinf(rows).any()
        or missing.all(axis=1).any()
    ):
        return None
    return rows


def parse_dataset(
    path,
    dimension: int | None = None,
    na_token: str = "NA",
) -> MaskedSample:
    """Read a wide CSV file into a :class:`MaskedSample`.

    A header row is detected when the first row contains a token that is
    neither numeric, the NA token, nor empty.  The number of response
    variables is inferred as half the column count unless ``dimension`` is
    given.

    The file is read and decoded once.  Plain text (no quotes, lines ending
    in LF or CRLF) is first read by numpy's C reader, and that result is
    kept only when checks prove it equal to a row-by-row reading: the shape,
    the count of missing cells, no infinity and no empty row.  Otherwise the
    file is read row by row, converting each row as it is read; only that
    loop raises errors, so they do not depend on the route.  A byte that is
    not UTF-8 is reported before anything else; otherwise the first error
    in file order is reported, with its line.

    Raises
    ------
    ParseError
        A file that is not UTF-8 text or not well-formed CSV (such as an
        unterminated quoted field), an empty file, odd column count, a cell
        that is neither a finite number nor NA, a row of NA cells only, or a
        dimension that contradicts the column count.
    InconsistentWidth
        A row with a different number of cells than the first one.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8-sig")  # drops a byte-order mark
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{str(path)!r} is not UTF-8 text: byte 0x{exc.object[exc.start]:02x}, {exc.reason}",
            line=exc.object.count(b"\n", 0, exc.start) + 1,
        ) from None
    rows = _read_fast(text, dimension, na_token)
    if rows is None:
        rows = _read_rows(text, dimension, na_token)
    values = np.ascontiguousarray(rows.T)  # subjects as columns, in C order
    return build_masked_sample(values, ~np.isnan(values))


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
            p_hat, cov, sub_idx = item.effects, item.covariance, item.index
            effects[item.method] = {
                "p_hat": [float(v) for v in p_hat],
                "p_hat_display": [_round3(v) for v in p_hat],
                "n_subjects": sub_idx.n,
                "counts": {
                    "complete": [int(v) for v in sub_idx.n_complete],
                    "group1_only": [int(v) for v in sub_idx.n1_only],
                    "group2_only": [int(v) for v in sub_idx.n2_only],
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
