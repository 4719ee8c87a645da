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
        lines = itertools.islice(_lines(text), start - 1, end)
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


# characters of text that _lines hands io.StringIO at a time, up to a line end
_SLICE = 1 << 16


def _lines(text: str):
    """The lines of ``text``, ends included, as ``csv`` reads a file opened with ``newline=""``.

    Lazily: ``io.StringIO`` splits one slice of about ``_SLICE`` characters
    at a time, so no copy of the whole text is made.  A slice ends just
    after a LF, so no CRLF is split between two slices.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _SLICE) + 1 or len(text)
        yield from io.StringIO(text[start:end], newline="")
        start = end


def _read_rows(text: str, dimension: int | None, na_token: str) -> np.ndarray:
    """The data rows of ``text`` as an array, NaN where missing.

    This loop defines the format: it decides the header, the width and
    every value, and raises every error, the first in file order.  Once it
    has read the first data row, it offers the lines after it to
    :func:`_read_body`, once; rows from there stand for the rest of the
    file, and without them the loop reads on row by row.
    """
    reader = csv.reader(_lines(text), strict=True)
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
            if len(rows) == 1:
                body = _read_body(text, line, width, na_token)
                if body is not None:
                    return np.concatenate([np.array(rows), body])
    except csv.Error as exc:
        raise _malformed(text, exc, line + 1, reader.line_num) from None
    if width is None:
        raise ParseError("no rows")
    if not rows:
        raise ParseError("no data rows (header only)")
    return np.array(rows)


# bytes of the body that _read_body reads or writes
_LF, _CR, _COMMA, _SPACE, _ZERO = b"\n\r, 0"


def _read_body(text: str, skip: int, width: int, na_token: str) -> np.ndarray | None:
    """What :func:`_read_rows` reads after line ``skip`` of ``text``, read by numpy's C reader.

    Only a text with no carriage return outside a CRLF line end, and a body
    with no quote or NUL, is tried, so that a line is a record and a comma
    ends a field, as for the loop.  The body is read as UTF-8 bytes: every
    field that is empty or exactly the NA token's bytes is noted by its
    index and written as ``0``, padded with spaces to its length, so numpy
    reads a number there.  The result stands only if it has one row of
    ``width`` cells per line, it has no NaN and no infinity before the noted
    cells become NaN (a literal ``nan`` is an error to the loop), and no row
    is left without an observed cell.  Any other body, including every
    body the loop rejects, gives None.
    """
    if "," in na_token or na_token != na_token.strip():
        return None
    # csv ends a line at a lone CR too, which would shift the body
    crlf = "\r" in text
    if crlf and text.count("\r") != text.count("\r\n"):
        return None
    data = text.encode()
    start = 0
    for _ in range(skip):
        start = data.find(b"\n", start) + 1
        if not start:
            return None
    stop = len(data)
    while stop > start and data[stop - 1] in b"\r\n":
        stop -= 1  # blank lines at the end of the file
    if stop == start or data.find(b'"', start) >= 0 or data.find(b"\x00", start) >= 0:
        return None
    # the body, each line ended by one LF
    body = np.append(np.frombuffer(data, np.uint8, stop - start, start), np.uint8(_LF))
    del data
    if crlf:
        body = body[body != _CR]
    ends = np.flatnonzero((body == _COMMA) | (body == _LF))  # the byte after each field
    lines = ends[body[ends] == _LF]
    if np.diff(lines, prepend=-1).max() - 1 > csv.field_size_limit():
        return None  # the loop's reader rejects a longer field
    # each field's length, without the copy of ends that np.diff(prepend=) makes
    lengths = np.empty_like(ends)
    lengths[0] = ends[0]
    np.subtract(ends[1:], ends[:-1], out=lengths[1:])
    lengths[1:] -= 1
    missing = lengths == 0
    empty = ends[missing]
    token = na_token.encode()
    # an empty token names only the empty fields
    na = np.flatnonzero(lengths == len(token)) if token else np.zeros(0, int)
    del lengths
    for offset, byte in enumerate(token):
        na = na[body[ends[na] - len(token) + offset] == byte]
    missing[na] = True
    # "0", then spaces to the token's length
    at = ends[na] - len(token)
    body[at] = _ZERO
    for _ in token[1:]:
        at += 1
        body[at] = _SPACE
    del ends
    if empty.size:  # np.insert copies the body even with nothing to insert
        body = np.insert(body, empty, _ZERO)
    body = body.tobytes()
    try:
        rows = np.loadtxt(
            io.BytesIO(body), dtype=float, delimiter=",", comments=None, quotechar=None, ndmin=2
        )
    except ValueError:
        return None
    if rows.shape != (len(lines), width) or not np.isfinite(rows).all():
        return None
    missing = missing.reshape(rows.shape)  # a flag a field, so a flag a cell once the shape holds
    if missing.all(axis=1).any():
        return None
    rows[missing] = np.nan
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

    The file is read and decoded once.  A row-by-row loop reads it up to
    the first data row, which settles the header and the width.  The plain
    rows after it (no quotes, lines ending in LF or CRLF) are read by
    numpy's C reader from their UTF-8 bytes, each NA or empty field written
    as a ``0`` placeholder and made NaN afterwards.  That result is kept
    only when checks prove it equal to reading on row by row: the shape, no
    NaN or infinity read from the file, and no empty row.  Otherwise the
    loop reads on; only the loop raises errors, so they do not depend on
    the route.  A byte that is not UTF-8 is reported before anything else;
    otherwise the first error in file order is reported, with its line.

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
    methods = list(report["effects"])
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
    """Aligned text table: one row per scenario, rejection rates in percent.

    A column with no evaluated test shows ``-``.  A row whose scenario lost
    replicates to failures ends with their count, and then, for each count
    of replicates skipped (a skipped method, or an undefined test) in columns
    that evaluated the others, the columns that skipped that many: their
    rates are over fewer replicates.
    """
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
        reps = res.scenario.replications
        notes = [f"{res.failures} of {reps} failed"] if res.failures else []
        skipped: dict[int, list[str]] = {}
        for k in keys:
            tally = res.tallies.get(k)
            if tally is not None and tally.skipped and tally.evaluated:
                skipped.setdefault(tally.skipped, []).append(k)
        notes += [f"{count} of {reps} skipped in {', '.join(ks)}" for count, ks in skipped.items()]
        if notes:
            row += f"  ({'; '.join(notes)})"
        lines.append(row)
    return "\n".join(lines) + "\n"
