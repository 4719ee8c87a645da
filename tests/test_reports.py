import json
import os
import sys

import jsonschema
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rankeffect import (
    REPORT_SCHEMA,
    analyze,
    build_masked_sample,
    build_report,
    derive_pattern_index,
    parse_dataset,
    reports,
)
from rankeffect.errors import InconsistentWidth, ParseError, RankEffectError

from conftest import DATA_DIR, random_general_sample, simple_mask
from oracles import write_dataset

FIXTURE = DATA_DIR / "paired_qol_42subjects.csv"


class TestParseDataset:
    def test_three_subject_layout_roundtrip(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text(
            "g1_var1,g1_var2,g2_var1,g2_var2\n"
            "1,2,3,4\n"
            "5,6,NA,NA\n"
            "NA,NA,7,8\n"
        )
        s = parse_dataset(path)
        idx = derive_pattern_index(s)
        assert s.d == 2 and s.n == 3
        for l in range(2):
            assert list(np.flatnonzero(idx.complete_mask[l])) == [0]
            assert list(np.flatnonzero(idx.g1_only_mask[l])) == [1]
            assert list(np.flatnonzero(idx.g2_only_mask[l])) == [2]
        assert idx.is_simple_pattern

    def test_headerless_file(self, tmp_path):
        path = tmp_path / "bare.csv"
        path.write_text("1,2\n3,NA\n")
        s = parse_dataset(path)
        assert s.d == 1 and s.n == 2
        assert not s.observed[1, 1]

    def test_byte_order_mark_keeps_the_first_row(self, tmp_path):
        # U+FEFF made the first cell non-numeric, so row 1 was taken as a header
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbf1,2\n3,4\n5,6\n")
        s = parse_dataset(path)
        assert s.d == 1 and s.n == 3
        assert list(s.values[:, 0]) == [1.0, 2.0]

    @pytest.mark.parametrize("first, fast", [("1,,3,4", True), ('"1",,3,4', False)],
                             ids=["c-reader", "loop"])
    def test_empty_cell_keeps_the_first_row(self, tmp_path, first, fast):
        # pandas' to_csv(header=False) writes a missing value as an empty
        # cell, which does not make the first row a header
        text = first + "\n5,6,7,8\n9,1,2,3\n"
        path = tmp_path / "empty-cell.csv"
        path.write_text(text)
        assert (reports._read_fast(text, None, "NA") is not None) == fast
        s = parse_dataset(path)
        assert s.d == 2 and s.n == 3
        assert list(s.observed[:, 0]) == [True, False, True, True]
        assert list(s.values[[0, 2, 3], 0]) == [1.0, 3.0, 4.0]

    def test_header_only_file(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("g1_var1,g2_var1\n")
        with pytest.raises(ParseError, match="no data rows"):
            parse_dataset(path)

    def test_non_numeric_cell_named(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("1,2\n3,oops\n")
        with pytest.raises(ParseError) as exc:
            parse_dataset(path)
        assert exc.value.line == 2 and exc.value.column == 2

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ParseError) as exc:
            parse_dataset(path)
        assert "no rows" in str(exc.value)

    def test_ragged_row(self, tmp_path):
        path = tmp_path / "ragged.csv"
        path.write_text("1,2,3,4\n1,2,3\n")
        with pytest.raises(InconsistentWidth):
            parse_dataset(path)

    @pytest.mark.parametrize("text, error, line, column", [
        ("1,2\n\n3,4\n3,oops\n", ParseError, 4, 2),
        ("a,b\n\n\n1,2\n3\n", InconsistentWidth, 5, None),
        # lines end at \n, \r\n or \r only, as csv counts them; not at the
        # other breaks str.splitlines knows, such as \x0c or \u2028
        ("1,2\r3,4\r5,x\r", ParseError, 3, 2),
        ("1,2\r\n\r\n3,4\r\n\r\n5,x\r\n", ParseError, 5, 2),
        ('1,2\n"3\n",5\n6,x\n', ParseError, 4, 2),
        ("1,2\n3\x0c,4\n5,x\n", ParseError, 3, 2),
        ("1,2\n3\u2028,4\n5,x\n", ParseError, 3, 2),
        # a row of NA cells names its line, not a column of the matrix
        ("a,b\n1,2\n\nNA,NA\n5,6\n", ParseError, 4, None),
    ])
    def test_error_line_counts_blank_lines(self, tmp_path, text, error, line, column):
        path = tmp_path / "blank.csv"
        path.write_text(text)
        with pytest.raises(ParseError) as exc:
            parse_dataset(path)
        assert type(exc.value) is error
        assert (exc.value.line, exc.value.column) == (line, column)

    @pytest.mark.parametrize("data, error, line, column", [
        # a bad cell before an unterminated quote
        (b'1,2\n3,x\n5,6\n7,"8\n9,9\n', ParseError, 2, 2),
        # a non-finite cell before a cell that is not a number
        (b"1,2\n3,inf\n5,6\n7,x\n", ParseError, 2, 2),
        # a short row before an unterminated quote
        (b'1,2\n3,4,5\n7,"8\n', InconsistentWidth, 2, None),
        # a row of NA cells before a cell that is not a number
        (b"1,2\nNA,NA\n5,x\n", ParseError, 2, None),
        # a byte that is not UTF-8 comes first wherever it is
        (b'1,2\n3,"4"x\n' + b"5,6\n" * 4000 + b"7,\xff\n", ParseError, 4003, None),
    ], ids=[
        "cell-before-quote", "inf-before-cell", "width-before-quote", "na-row-before-cell",
        "utf8-before-csv",
    ])
    def test_first_error_in_file_order_is_reported(self, tmp_path, data, error, line, column):
        path = tmp_path / "errors.csv"
        path.write_bytes(data)
        with pytest.raises(ParseError) as exc:
            parse_dataset(path)
        assert type(exc.value) is error
        assert (exc.value.line, exc.value.column) == (line, column)

    def test_malformed_csv_names_the_line(self, tmp_path):
        path = tmp_path / "malformed.csv"
        path.write_text('1,2\n3,"4"x\n')
        with pytest.raises(ParseError) as exc:
            parse_dataset(path)
        assert str(exc.value) == "parse error at line 2: malformed CSV: ',' expected after '\"'"

    @pytest.mark.parametrize("data", [
        b"1,2\n3,NA\n",
        b"1,2\n" * 3000 + b"5,\xff6\n",
        b'1,2\n3,"4\n' + b"".join(b"%d,%d\n" % (i, i) for i in range(20_000)),
        b'1,2\n3,"4"x\n',
    ], ids=["good", "not-utf8", "unterminated-quote", "malformed"])
    def test_file_is_opened_once(self, tmp_path, data):
        # errors used to re-read the file to find the line they name
        path = tmp_path / "once.csv"
        path.write_bytes(data)
        opened = []
        sys.addaudithook(  # a hook cannot be removed; this one sees only its own file
            lambda event, args: event == "open" and not isinstance(args[0], int)
            and os.fspath(args[0]) == str(path) and opened.append(args)
        )
        try:
            parse_dataset(path)
        except ParseError:
            pass
        assert len(opened) == 1

    def test_odd_column_count(self, tmp_path):
        path = tmp_path / "odd.csv"
        path.write_text("1,2,3\n4,5,6\n")
        with pytest.raises(ParseError):
            parse_dataset(path)

    def test_dimension_flag_checked(self, tmp_path):
        path = tmp_path / "twocol.csv"
        path.write_text("1,2\n3,4\n")
        assert parse_dataset(path, dimension=1).d == 1
        with pytest.raises(ParseError):
            parse_dataset(path, dimension=2)

    def test_custom_na_token(self, tmp_path):
        path = tmp_path / "dot.csv"
        path.write_text("1,.\n3,4\n")
        s = parse_dataset(path, na_token=".")
        assert not s.observed[1, 0]

    def test_roundtrip_preserves_mask_and_values(self, rng, tmp_path):
        for i in range(10):
            sample, _ = random_general_sample(rng, ties=False)
            path = tmp_path / f"rt{i}.csv"
            write_dataset(sample, path)
            back = parse_dataset(path)
            assert np.array_equal(back.observed, sample.observed)
            assert np.array_equal(back.values, sample.values, equal_nan=True)


def read_by_loop(text, dimension=None, na_token="NA"):
    """What ``parse_dataset`` returns for ``text`` when it reads row by row."""
    values = np.ascontiguousarray(reports._read_rows(text, dimension, na_token).T)
    return build_masked_sample(values, ~np.isnan(values))


def outcome(read):
    """A sample as its exact bits, or an error as its type, message, line and column."""
    try:
        sample = read()
    except RankEffectError as exc:
        return type(exc), str(exc), getattr(exc, "line", None), getattr(exc, "column", None)
    return sample.values.shape, sample.values.tobytes(), sample.observed.tobytes()


def read_fast_checked(text, dimension=None, na_token="NA"):
    """The C reader's rows for ``text``, asserted bit-equal to the loop's; None where not taken."""
    fast = reports._read_fast(text, dimension, na_token)
    if fast is not None:
        rows = reports._read_rows(text, dimension, na_token)
        assert fast.shape == rows.shape and fast.tobytes() == rows.tobytes()
    return fast


def wide_csv_text(rng, d, n, missing, na_rep="NA"):
    """Wide CSV as the benchmark writes it: a header, two decimals, ``na_rep`` where missing."""
    values = np.round(rng.standard_normal((n, 2 * d)), 2)
    observed = rng.random((n, 2 * d)) >= missing
    observed[np.arange(n), rng.integers(0, 2 * d, n)] = True  # no subject without a cell
    header = [f"g1_var{l + 1}" for l in range(d)] + [f"g2_var{l + 1}" for l in range(d)]
    lines = [",".join(header)] + [
        ",".join(f"{v:.2f}" if o else na_rep for v, o in zip(row, obs))
        for row, obs in zip(values, observed)
    ]
    return "\n".join(lines) + "\n"


NUMBERS = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.builds("{}.{}e{}".format, st.integers(-99, 99), st.integers(0, 999), st.integers(-340, 300)),
)
ODD_TOKENS = st.sampled_from([
    "NA", " NA", "-NA", "NAN", "", "nan", "-nan", "NaN", "inf", "-Infinity", "1e999",
    "1e-400", "1_000", "\u0661", "#", "1#", "x", "+.5", "5.", "-0", "0x10",
])
SPACES = st.sampled_from(["", " ", "\t", "\x0c", "\x1c", "\u3000", "\xa0", "\ufeff"])
NOISY_CELLS = st.one_of(
    NUMBERS,
    ODD_TOKENS,
    st.builds("{}{}{}".format, SPACES, st.one_of(NUMBERS, ODD_TOKENS), SPACES),
    st.builds('"{}{}"'.format, st.one_of(NUMBERS, ODD_TOKENS), st.sampled_from(["", "\n", "\r\n"])),
)
HEADERS = {
    "plain": "v{}",
    "quoted": '"v{}"',
    "comma": '"v,{}"',
    "newline": '"v\n{}"',
}


@st.composite
def csv_files(draw):
    """A CSV file as bytes, with the NA token and dimension to read it with.

    Half the files are plain (numbers and missing cells, one line ending)
    so that the C reader is often tried; the other half mix in tokens that
    the two readers treat differently, quotes, whitespace, odd widths and
    every line ending.  NA tokens that are not a whole stripped field
    (`` NA``, ``N,A``) appear in the cells as written.
    """
    noisy = draw(st.booleans())
    na_token = draw(st.sampled_from(["NA"] * 4 + [".", "", "nan", "-1", " NA", "N,A"]))
    missing = st.sampled_from(["", na_token])
    cells = st.one_of(NUMBERS, missing, *([NOISY_CELLS] if noisy else [NUMBERS, NUMBERS]))
    width = draw(st.sampled_from([1, 2, 3, 4, 6] if noisy else [2, 4, 6]))
    rows = []
    if draw(st.booleans()):
        style = HEADERS[draw(st.sampled_from(["plain"] * 5 + list(HEADERS)))]
        columns = draw(st.sampled_from([width] * 6 + [width + 1, width + 2]))
        rows.append(",".join(style.format(j) for j in range(columns)))
    kinds = ["data"]
    if noisy:
        kinds += ["data", "blank", "commas", "ragged", "spaces", "comment"]
    for _ in range(draw(st.integers(0 if noisy else 1, 6))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("data", "ragged"):
            k = width if kind == "data" else draw(st.integers(1, width + 2))
            rows.append(",".join(draw(cells) for _ in range(k)))
        else:
            rows.append({"blank": "", "commas": "," * (width - 1), "spaces": " \t",
                         "comment": "# note"}[kind])
    if noisy:
        text = "".join(row + draw(st.sampled_from(["\n", "\r\n", "\r"])) for row in rows)
    else:
        end = draw(st.sampled_from(["\n", "\n", "\r\n", "\r"]))
        text = end.join(rows) + draw(st.sampled_from(["", end, end * 2]))
    data = (b"\xef\xbb\xbf" if draw(st.booleans()) else b"") + text.encode("utf-8")
    dimension = draw(st.sampled_from([None, 1, 2, 3] if noisy else [None] * 3 + [width // 2]))
    return data, na_token, dimension


@pytest.fixture(scope="module")
def csv_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


class TestCReaderRoute:
    @given(file=csv_files())
    @example(file=(b"a,b\n1,2\n NA,3\n", " NA", None))  # the loop strips a cell first
    @example(file=(b"a,b\n1,2\nN,A,3\n", "N,A", None))  # no cell holds a comma
    @example(file=(b'"a,b",c,d\n1,2,3,4\n5,6,7,8\n', "NA", None))  # 3 columns to the loop
    @example(file=(b"1,2\n,\n3,4\n", "NA", None))  # a row of empty cells is skipped
    @example(file=(b"1,2\nNA,\n3,4\n", "NA", None))  # a row without an observed cell is an error
    @example(file=(b"x" * 131_073 + b",y\n1,2\n3,4\n", "NA", None))  # over csv's field limit
    @example(file=(b"a\x00,b\n1,2\n3,4\n", "NA", None))  # NUL is malformed CSV to Python 3.10
    @settings(max_examples=400, deadline=None)
    def test_same_result_as_the_loop(self, csv_path, file):
        data, na_token, dimension = file
        csv_path.write_bytes(data)
        text = data.decode("utf-8-sig")
        expected = outcome(lambda: read_by_loop(text, dimension, na_token))
        assert outcome(lambda: parse_dataset(csv_path, dimension, na_token)) == expected
        read_fast_checked(text, dimension, na_token)

    def test_taken_for_the_fixture(self):
        assert read_fast_checked(FIXTURE.read_text(encoding="utf-8")) is not None

    @pytest.mark.parametrize("na_rep", ["NA", ""], ids=["na", "empty"])
    def test_taken_for_a_wide_file(self, na_rep):
        # "" is how pandas' to_csv writes a missing value by default
        text = wide_csv_text(np.random.default_rng(5), 10, 2000, 0.3, na_rep)
        assert read_fast_checked(text) is not None

    def test_taken_for_written_samples(self, rng, tmp_path):
        # the files of test_roundtrip_preserves_mask_and_values, with \r\n line ends
        for i in range(10):
            sample, _ = random_general_sample(rng, ties=False)
            path = tmp_path / f"rt{i}.csv"
            write_dataset(sample, path)
            assert read_fast_checked(path.read_bytes().decode("utf-8")) is not None

    @pytest.mark.parametrize("token, expected", [
        ("-NA", "parse error at line 3, column 2: cell '-NA' is neither a number nor 'NA'"),
        ("nan", "parse error at line 3, column 2: cell 'nan' is not a finite number"),
        ("-nan", "parse error at line 3, column 2: cell '-nan' is not a finite number"),
        ("inf", "parse error at line 3, column 2: cell 'inf' is not a finite number"),
        ("1e999", "parse error at line 3, column 2: cell '1e999' is not a finite number"),
        ("1_000", 1000.0),
        ("١", 1.0),
        ("1\x1c", 1.0),
        ("#", "parse error at line 3, column 2: cell '#' is neither a number nor 'NA'"),
        ('" 1"', 1.0),
    ], ids=["minus-na", "nan", "minus-nan", "inf", "overflow", "underscore", "arabic-indic",
            "file-separator", "hash", "quoted"])
    def test_tokens_the_readers_disagree_on(self, tmp_path, token, expected):
        text = f"a,b\n1,2\n3,{token}\n"
        path = tmp_path / "token.csv"
        path.write_text(text, encoding="utf-8")
        result = outcome(lambda: parse_dataset(path))
        assert result == outcome(lambda: read_by_loop(text))
        fast = read_fast_checked(text)
        if isinstance(expected, str):
            assert fast is None
            assert result[1] == expected
        else:
            assert parse_dataset(path).values[1, 1] == expected


class TestReportDocument:
    def build(self, rng=None, obs=None):
        rng = rng or np.random.default_rng(3)
        obs = obs if obs is not None else simple_mask(2, 10, 4, 4)
        s = build_masked_sample(rng.integers(0, 7, obs.shape).astype(float), obs)
        idx = derive_pattern_index(s)
        analyses = analyze(s)
        return build_report(analyses, idx, 0.05, {"flags": "unit"})

    def test_validates_against_schema(self):
        jsonschema.validate(self.build(), REPORT_SCHEMA)

    def test_fixture_report_validates_and_flags_degeneracy(self):
        s = parse_dataset(FIXTURE)
        idx = derive_pattern_index(s)
        report = build_report(analyze(s), idx, 0.05, {"flags": "unit"})
        jsonschema.validate(report, REPORT_SCHEMA)
        all_tests = [t for t in report["tests"] if t["method"] == "all"]
        assert all(any("degenerate" in f for f in t["flags"]) for t in all_tests)
        assert report["effects"]["all"]["p_hat"] is not None
        assert len(report["effects"]["all"]["p_hat"]) == 3

    def test_json_round_trip_lossless(self):
        report = self.build()
        again = json.loads(json.dumps(report, allow_nan=False))
        assert again == report

    def test_display_rounding_is_companion_not_source(self):
        report = self.build()
        eff = report["effects"]["all"]
        for full, disp in zip(eff["p_hat"], eff["p_hat_display"]):
            assert disp == round(full, 3)

    def test_config_hash_stable(self):
        a = self.build()
        b = self.build()
        assert a["provenance"]["config_hash"] == b["provenance"]["config_hash"]
        assert a == b
