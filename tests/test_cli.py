import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import jsonschema
import pytest

import rankeffect
from rankeffect import REPORT_SCHEMA, cli
from rankeffect.cli import main

from conftest import DATA_DIR

FIXTURE = str(DATA_DIR / "paired_qol_42subjects.csv")
GOLDEN = DATA_DIR / "golden_analyze_report.json"
# d = 4, n = 600, 30 % of cells missing one by one and values of two
# decimals, so that they tie: masks as scattered as the paper's QOL data, at
# a size the 42-subject fixture does not reach
SCATTERED = str(DATA_DIR / "scattered_d4_n600.csv")
GOLDEN_SCATTERED = DATA_DIR / "golden_scattered_report.json"
# the benchmark's stored tallies of simulate --builtin G --reps 5 --seed 0
MC_REFERENCE = Path(__file__).parents[1] / "perfbench" / "reference" / "mc.json"
# the same tallies of every built-in grid at --reps 31 --seed 7
MC_TALLIES_31 = DATA_DIR / "mc_tallies_reps31_seed7.json"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyzeCommand:
    def test_fixture_report_is_schema_valid(self, capsys):
        code, out, err = run_cli(capsys, "analyze", FIXTURE)
        assert code == 0 and err == ""
        report = json.loads(out)
        jsonschema.validate(report, REPORT_SCHEMA)
        assert report["n_subjects"] == 42
        assert [t["method"] for t in report["tests"]] == [
            "all", "all", "complete", "complete", "incomplete", "incomplete",
        ]

    def test_identical_groups_fully_observed(self, capsys, tmp_path):
        path = tmp_path / "null.csv"
        path.write_text("g1_var1,g2_var1\n" + "".join(f"{v},{v}\n" for v in (1, 2, 3, 4)))
        code, out, _ = run_cli(capsys, "analyze", str(path))
        assert code == 0
        report = json.loads(out)
        assert report["effects"]["all"]["p_hat"] == [0.5]
        for t in report["tests"]:
            if t["method"] in ("all", "complete"):
                assert t["p_value"] == 1.0
                assert "zero-covariance-null" in t["flags"]

    def test_pattern_mismatch_is_operational_error(self, capsys, tmp_path):
        path = tmp_path / "general.csv"
        path.write_text("1,2,3,4\n5,NA,6,7\nNA,8,9,1\n")
        code, out, err = run_cli(capsys, "analyze", str(path), "--pattern", "simple")
        assert code == 1
        error = json.loads(err)
        assert error["error"]["type"] == "PatternMismatch"
        assert "pattern mismatch" in error["error"]["message"]

    def test_missing_file_is_operational_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", "/nonexistent.csv")
        assert code == 1
        assert json.loads(err)["error"]["type"] in ("FileNotFoundError", "OSError")

    def test_non_utf8_file_is_parse_error(self, capsys, tmp_path):
        # was a bare UnicodeDecodeError naming neither the file nor the line;
        # the byte lies past the first chunk a text stream decodes
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"1,2\n" * 3000 + b"5,\xff6\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ParseError"
        assert error["message"].startswith("parse error at line 3001: ")
        assert f"{str(path)!r} is not UTF-8 text" in error["message"]

    @pytest.mark.parametrize("rows", [2, 20_000])
    def test_unterminated_quote_is_parse_error_at_its_line(self, capsys, tmp_path, rows):
        # the small file was read as a header only; in the large one the open
        # field outgrew csv's field size limit, an uncaught csv.Error
        path = tmp_path / "quote.csv"
        path.write_text('1,2\n3,"4\n' + "".join(f"{i},{i}\n" for i in range(rows)))
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ParseError",
            "message": "parse error at line 2: unterminated quoted field",
        }

    @pytest.mark.parametrize("token", ["1e999", "-inf", "nan"])
    def test_non_finite_cell_is_parse_error_at_its_cell(self, capsys, tmp_path, token):
        # was a NonFiniteObservedValue for the whole file, naming no cell
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"1,2\n3,4\n5, {token}\n7,8\n")
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ParseError",
            "message": f"parse error at line 3, column 2: cell {token!r} is not a finite number",
        }

    def test_component_without_group_data_fails_hard(self, capsys, tmp_path):
        # var2 never observed in group 2: the dataset itself is inestimable
        path = tmp_path / "one_sided_var.csv"
        path.write_text(
            "g1_var1,g1_var2,g2_var1,g2_var2\n"
            "1,2,3,NA\n"
            "4,5,6,NA\n"
            "7,8,9,NA\n"
        )
        code, out, err = run_cli(capsys, "analyze", str(path))
        assert code == 1
        error = json.loads(err)["error"]
        assert error["type"] == "InestimableComponent"
        assert "component 1" in error["message"]

    def test_alpha_outside_unit_interval_is_operational_error(self, capsys):
        code, out, err = run_cli(capsys, "analyze", FIXTURE, "--alpha", "1.5")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "alpha" in error["message"]

    @pytest.mark.parametrize("methods", ["all,all", ""])
    def test_repeated_or_empty_methods_are_operational_errors(self, capsys, methods):
        code, out, err = run_cli(capsys, "analyze", FIXTURE, "--methods", methods)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert "method" in error["message"]

    @pytest.mark.parametrize("argument, word", [
        (["--alpha", "2"], "alpha"),
        (["--methods", "all,bogus"], "method"),
    ], ids=["alpha", "methods"])
    def test_arguments_are_checked_before_the_file_is_read(self, capsys, argument, word):
        # a missing file was reported as FileNotFoundError, after an attempt to parse it
        with mock.patch.object(cli, "parse_dataset") as parse:
            code, out, err = run_cli(capsys, "analyze", "/nonexistent.csv", *argument)
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ValueError"
        assert word in error["message"]
        parse.assert_not_called()

    def test_table_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", FIXTURE, "--table")
        assert code == 0
        assert "component" in out and "p_value" in out
        assert "var1" in out

    def test_table_columns_follow_the_methods_order(self, capsys):
        # the effect columns came in METHODS order, the test rows in --methods order
        code, out, _ = run_cli(capsys, "analyze", FIXTURE, "--methods", "incomplete,all", "--table")
        assert code == 0
        lines = out.splitlines()
        assert lines[1].split() == ["component", "incomplete", "all"]
        first = next(i for i, line in enumerate(lines) if line.startswith("method"))
        assert [line.split()[0] for line in lines[first + 1:first + 5]] == [
            "incomplete", "incomplete", "all", "all"]

    def test_table_marks_a_skipped_method(self, capsys, tmp_path):
        # fully observed data leave the incomplete-case restriction nobody
        path = tmp_path / "complete.csv"
        path.write_text("g1_var1,g2_var1\n1,2\n3,5\n4,1\n6,7\n2,8\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--table")
        assert code == 0
        assert out.splitlines()[2].split() == ["var1", "0.640", "0.640", "-"]

    def test_methods_subset(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", FIXTURE, "--methods", "all")
        assert code == 0
        report = json.loads(out)
        assert {t["method"] for t in report["tests"]} == {"all"}

    def test_output_file_and_golden(self, capsys, tmp_path):
        out_a = tmp_path / "a.json"
        out_b = tmp_path / "b.json"
        assert main(["analyze", FIXTURE, "--output", str(out_a)]) == 0
        assert main(["analyze", FIXTURE, "--output", str(out_b)]) == 0
        # bytes, not parsed JSON, which has -0.0 == 0.0 and 3 == 3.0
        assert out_a.read_bytes() == out_b.read_bytes() == GOLDEN.read_bytes()

    def test_scattered_golden(self, tmp_path):
        out = tmp_path / "scattered.json"
        assert main(["analyze", SCATTERED, "--output", str(out)]) == 0
        assert out.read_bytes() == GOLDEN_SCATTERED.read_bytes()

    def test_unwritable_output_is_operational_error(self, capsys, tmp_path):
        # the report write ran outside the error contract and crashed
        target = tmp_path / "missing" / "r.json"
        code, out, err = run_cli(capsys, "analyze", FIXTURE, "--output", str(target))
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_exit_zero_even_when_rejecting(self, capsys, tmp_path):
        path = tmp_path / "shifted.csv"
        rows = ["g1_var1,g2_var1"] + [f"{k},{k + 5}" for k in range(12)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--methods", "all")
        assert code == 0
        report = json.loads(out)
        assert any(t["reject"] for t in report["tests"])

    def test_complete_separation_is_reported_not_crashed(self, capsys, tmp_path):
        # separated groups give p_hat = 1 with a zero covariance estimate;
        # the effect and covariance are reported, the statistic is undefined
        # and the tests are flagged, not an error
        path = tmp_path / "separated.csv"
        rows = ["g1_var1,g2_var1"] + [f"{k},{k + 100}" for k in range(12)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--methods", "all")
        assert code == 0
        report = json.loads(out)
        assert report["effects"]["all"]["p_hat"] == [1.0]
        assert report["covariance"]["all"]["trace"] == 0.0
        for t in report["tests"]:
            assert [t[k] for k in ("statistic", "df", "p_value", "reject")] == [None] * 3 + [False]
            assert t["flags"] == [
                "inestimable: covariance estimate is zero while the effect deviates from one half"
            ]


class TestSimulateCommand:
    def test_builtin_dims_slice_row_count(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--builtin", "table3",
            "--dims", "2", "--reps", "5", "--seed", "7", "--json",
        )
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert len(doc["results"]) == 16
        for row in doc["results"]:
            for stats in row["methods"].values():
                assert stats["evaluated"] + stats["skipped"] <= 5

    def test_unwritable_output_is_operational_error(self, capsys, tmp_path):
        # the result writes ran outside the error contract and crashed
        target = tmp_path / "missing" / "run"
        code, out, err = run_cli(
            capsys, "simulate", "--builtin", "table3", "--dims", "2", "--reps", "1",
            "--output", str(target),
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"]["type"] == "FileNotFoundError"

    def test_negative_seed_is_named(self, capsys):
        # was a ValueError from numpy naming neither the seed nor its value
        code, out, err = run_cli(capsys, "simulate", "--builtin", "table3", "--seed", "-3")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ScenarioError",
            "message": "master_seed must be >= 0, got -3",
        }

    @pytest.mark.parametrize("dims", ["a", "2,", "", "2.5"])
    def test_unreadable_dims_are_named(self, capsys, dims):
        # was a bare ValueError from int() naming neither the flag nor its value
        code, out, err = run_cli(capsys, "simulate", "--builtin", "table3", "--dims", dims)
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ScenarioError",
            "message": f"--dims must be integers, got {dims!r}",
        }

    def test_repeated_dims_are_rejected(self, capsys):
        # ran every table3 scenario twice, under identical labels
        code, out, err = run_cli(
            capsys, "simulate", "--builtin", "table3", "--dims", "2,2", "--reps", "1",
        )
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ScenarioError",
            "message": "dims (2, 2) repeat a dimension",
        }

    @pytest.mark.parametrize("grid", ["table6", "design1", "design2", "design3"])
    def test_dims_rejected_by_bivariate_grids(self, capsys, grid):
        # ran at d = 2 and recorded the ignored dims in the results document
        code, out, err = run_cli(capsys, "simulate", "--builtin", grid, "--reps", "1",
                                 "--dims", "7,9")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ScenarioError",
            "message": f"builtin grid {grid!r} runs at d = 2 and takes no dims",
        }

    def test_dims_rejected_with_config(self, capsys, tmp_path):
        cfg = tmp_path / "grid.ini"
        cfg.write_text("[s]\ndistribution = normal\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--dims", "2")
        assert code == 1 and out == ""
        assert json.loads(err)["error"] == {
            "type": "ScenarioError",
            "message": "--dims applies to --builtin table3, not to --config",
        }

    @pytest.mark.parametrize("grid, dims", [("table3", "2,3,5"), ("table6", None)])
    def test_recorded_dims_are_the_dims_run(self, capsys, grid, dims):
        code, out, _ = run_cli(capsys, "simulate", "--builtin", grid, "--reps", "1", "--json")
        assert code == 0
        doc = json.loads(out[out.index("{"):])
        assert doc["provenance"]["config"]["dims"] == dims

    def test_unknown_builtin_lists_valid_names(self, capsys):
        code, out, err = run_cli(capsys, "simulate", "--builtin", "nope")
        assert code == 1
        msg = json.loads(err)["error"]["message"]
        for name in ("table3", "table6", "design1", "design2", "design3"):
            assert name in msg

    def test_config_file_run_and_determinism(self, capsys, tmp_path):
        cfg = tmp_path / "study.ini"
        cfg.write_text(
            "[tiny-null]\n"
            "distribution = normal  ; discretized\n"
            "d = 2\n"
            "rho = 0.1, 0.1, 0.1\n"
            "sigma_sq = 1, 1\n"
            "delta = 0, 0\n"
            "pattern = simple\n"
            "sizes = 10, 4, 4\n"
            "replications = 40\n"
            "methods = all\n"
        )
        out1 = tmp_path / "r1"
        out2 = tmp_path / "r2"
        assert main(["simulate", "--config", str(cfg), "--reps", "40",
                     "--seed", "3", "--output", str(out1)]) == 0
        assert main(["simulate", "--config", str(cfg), "--reps", "40",
                     "--seed", "3", "--output", str(out2)]) == 0
        assert (out1.with_suffix(".json").read_bytes()
                == out2.with_suffix(".json").read_bytes())
        assert (out1.with_suffix(".txt").read_bytes()
                == out2.with_suffix(".txt").read_bytes())
        doc = json.loads(out1.with_suffix(".json").read_text())
        assert doc["results"][0]["label"] == "tiny-null"
        table = out1.with_suffix(".txt").read_text()
        assert "tiny-null" in table and "anova:all" in table

    def test_config_without_subjects_is_scenario_error(self, capsys, tmp_path):
        # it validated, then run_scenario divided by zero: a traceback
        cfg = tmp_path / "empty.ini"
        cfg.write_text(
            "[empty]\ndistribution = normal\nd = 2\nrho = 0, 0, 0\nsigma_sq = 1, 1\n"
            "delta = 0, 0\npattern = design1\nsizes = 0\nreplications = 3\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ScenarioError"
        assert error["message"] == "scenario [empty]: invalid design1-pattern sizes (0.0,)"

    def test_config_file_with_byte_order_mark_runs(self, capsys, tmp_path):
        # the mark used to hide the first section header
        cfg = tmp_path / "bom.ini"
        cfg.write_bytes(
            b"\xef\xbb\xbf[tiny]\ndistribution = normal\nd = 1\nrho = 0, 0, 0\n"
            b"sigma_sq = 1, 1\ndelta = 0\nsizes = 6, 0, 0\nreplications = 3\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--json")
        assert code == 0 and err == ""
        assert '"label": "tiny"' in out

    def test_non_utf8_config_file_is_scenario_error(self, capsys, tmp_path):
        cfg = tmp_path / "latin1.ini"
        cfg.write_bytes(b"[tiny]\ndistribution = normal\nd = \xff\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ScenarioError"
        assert f"scenario config {str(cfg)!r} is not UTF-8 text" in error["message"]

    def test_reps_flag_overrides_config_at_any_value(self, capsys, tmp_path):
        cfg = tmp_path / "tiny.ini"
        cfg.write_text(
            "[tiny]\n"
            "distribution = normal\n"
            "d = 1\n"
            "rho = 0, 0, 0\n"
            "sigma_sq = 1, 1\n"
            "delta = 0\n"
            "sizes = 6, 0, 0\n"
            "replications = 3\n"
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--reps", "1000",
                     "--output", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["results"][0]["replications"] == 1000
        assert doc["provenance"]["config"]["reps"] == 1000
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        doc = json.loads(out.with_suffix(".json").read_text())
        assert doc["results"][0]["replications"] == 3
        assert doc["provenance"]["config"]["reps"] is None

    @pytest.mark.parametrize("line", ["seed = 5", "replication = 10"])
    def test_unread_config_key_is_rejected(self, capsys, tmp_path, line):
        # scenario seeds derive from --seed, so a section's seed would be
        # silently overwritten, and a misspelled key silently defaulted
        cfg = tmp_path / "extra.ini"
        cfg.write_text(
            "[tiny]\n"
            "distribution = normal\n"
            "d = 1\n"
            "rho = 0, 0, 0\n"
            "sigma_sq = 1, 1\n"
            "delta = 0\n"
            "sizes = 6, 0, 0\n"
            "replications = 3\n"
            f"{line}\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        message = json.loads(err)["error"]["message"]
        assert "[tiny]" in message and line.split()[0] in message

    @pytest.mark.parametrize("text", [
        "[a]\nd = 1\nd = 2\n", "d = 1\n", "[a]\nno separator\n", "; no section\n", None,
    ])
    def test_malformed_config_file_is_scenario_error(self, capsys, tmp_path, text):
        # configparser's own errors escaped as a traceback; None: no file at all
        cfg = tmp_path / "malformed.ini"
        if text is not None:
            cfg.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ScenarioError"

    def test_bad_config_points_at_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[broken]\ndistribution = normal\nd = 2\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        message = json.loads(err)["error"]["message"]
        assert message.startswith("scenario [broken]: missing key (")

    @pytest.mark.parametrize("key, value", [
        ("d", "2.5"),
        ("rho", "0.1, x, 0.1"),
        ("distribution", "normal%"),
    ])
    def test_unreadable_config_value_names_its_key(self, capsys, tmp_path, key, value):
        # the message named the section but not which of its keys was bad,
        # and a stray % escaped as a configparser traceback
        keys = {
            "distribution": "normal", "d": "2", "rho": "0.1, 0.1, 0.1",
            "sigma_sq": "1, 1", "delta": "0, 0", "sizes": "6, 2, 2", key: value,
        }
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[k]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ScenarioError"
        assert error["message"].startswith(f"scenario [k]: bad {key} (")

    @pytest.mark.parametrize("rho, kind", [
        ("0.1, 0.1", "needs 3 value"),
        ("-0.9, -0.9, 0.9", "positive definite"),
    ])
    def test_scenario_error_names_the_section(self, capsys, tmp_path, rho, kind):
        # errors raised while checking a section's values did not say which
        # section, and a non-positive-definite rho escaped as its own type
        keys = "distribution = normal\nd = 2\nsigma_sq = 1, 1\ndelta = 0, 0\nsizes = 6, 2, 2\n"
        cfg = tmp_path / "two.ini"
        cfg.write_text(
            f"[good]\n{keys}rho = 0.1, 0.1, 0.1\n\n[second]\n{keys}rho = {rho}\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg), "--reps", "2")
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ScenarioError"
        assert error["message"].startswith("scenario [second]: ") and kind in error["message"]

    @pytest.mark.parametrize("sizes", ["0, 10, 0", "0, 0, 2"])
    def test_empty_group_sizes_are_rejected(self, capsys, tmp_path, sizes):
        # every replicate used to fail and the run still exited 0
        cfg = tmp_path / "empty.ini"
        cfg.write_text(
            "[lonely]\ndistribution = normal\nd = 1\nrho = 0, 0, 0\nsigma_sq = 1, 1\n"
            f"delta = 0\nsizes = {sizes}\nreplications = 5\n"
        )
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and out == ""
        message = json.loads(err)["error"]["message"]
        assert "[lonely]" in message and "sizes" in message and "group" in message

    def test_reps_flag_rescues_zero_replications(self, capsys, tmp_path):
        cfg = tmp_path / "zero.ini"
        cfg.write_text(
            "[zero]\ndistribution = normal\nd = 1\nrho = 0, 0, 0\nsigma_sq = 1, 1\n"
            "delta = 0\nsizes = 6, 0, 0\nreplications = 0\n"
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--reps", "3", "--output", str(out)]) == 0
        assert json.loads(out.with_suffix(".json").read_text())["results"][0]["replications"] == 3

    @pytest.mark.parametrize("key, value, named", [
        ("methods", "all, all", "method 'all'"),
        ("rho", "0.1, 0.1", "rho"),
        ("sigma_sq", "1", "sigma_sq"),
    ])
    def test_malformed_config_value_is_scenario_error(
        self, capsys, tmp_path, key, value, named
    ):
        # a repeated method tallied each replicate twice; a short rho or
        # sigma_sq crashed the run with a TypeError traceback
        keys = {
            "distribution": "normal", "d": "1", "rho": "0, 0, 0", "sigma_sq": "1, 1",
            "delta": "0", "sizes": "6, 0, 0", "replications": "3", key: value,
        }
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[tiny]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items()))
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "ScenarioError"
        assert named in error["message"]


@pytest.mark.parametrize("reference_path, grid", [
    *[pytest.param(MC_REFERENCE, grid, id=grid) for grid in ("table3", "design1", "design3")],
    # every grid at 31 reps; design3's 12 scenarios a mask run in 9 blocks of
    # 41 and 42, cut inside scenarios
    *[
        pytest.param(MC_TALLIES_31, grid, id=f"reps31-{grid}")
        for grid in ("table3", "table6", "design1", "design2", "design3")
    ],
])
def test_builtin_tallies_equal_the_benchmark_reference(tmp_path, reference_path, grid):
    reference = json.loads(reference_path.read_text())
    reps = reference["grids"][grid]["reps"]
    out = tmp_path / grid
    argv = ["simulate", "--builtin", grid, "--reps", str(reps), "--seed", str(reference["seed"])]
    assert main([*argv, "--output", str(out)]) == 0
    tallies = [
        {
            "label": row["label"],
            "failures": row["failures"],
            "methods": {
                key: [t["rejections"], t["evaluated"], t["skipped"], t["flagged"]]
                for key, t in row["methods"].items()
            },
        }
        for row in json.loads(out.with_suffix(".json").read_text())["results"]
    ]
    assert tallies == reference["grids"][grid]["tallies"]


def test_import_does_not_load_scipy_stats():
    # scipy.stats, then scipy.special, took most of the console script's
    # start-up; the package now uses no scipy module at all
    src = str(Path(rankeffect.__file__).resolve().parents[1])
    probe = "import sys, rankeffect.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert result.stdout.strip() == "[]"


def test_analyze_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: blocked, it cannot be imported at all
    src = str(Path(rankeffect.__file__).resolve().parents[1])
    out = tmp_path / "report.json"
    probe = (
        "import sys; sys.modules['scipy'] = None; from rankeffect.cli import main; "
        f"sys.exit(main(['analyze', {FIXTURE!r}, '--output', {str(out)!r}]))"
    )
    subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert out.read_bytes() == GOLDEN.read_bytes()


def test_output_files_are_utf8_in_any_locale(tmp_path):
    # under the C locale the "±" of the text table raised UnicodeEncodeError
    # after the .json file was written, leaving the .txt file empty
    src = str(Path(rankeffect.__file__).resolve().parents[1])
    args = ["simulate", "--builtin", "table3", "--reps", "2", "--dims", "2"]
    c_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    tables = []
    # without --output the table goes to stdout, which must carry the same bytes
    for name, env, to_file in [
        ("utf8", {"PYTHONUTF8": "1"}, True),
        ("c", c_locale, True),
        ("c_stdout", c_locale, False),
    ]:
        stem = tmp_path / name
        output = ["--output", str(stem)] if to_file else []
        result = subprocess.run(
            [sys.executable, "-m", "rankeffect.cli", *args, *output],
            capture_output=True, env={**os.environ, "PYTHONPATH": src, **env},
        )
        assert result.returncode == 0, result.stderr
        tables.append(stem.with_suffix(".txt").read_bytes() if to_file else result.stdout)
    assert "±".encode() in tables[0]
    assert tables[1] == tables[0]
    assert tables[2] == tables[0]
