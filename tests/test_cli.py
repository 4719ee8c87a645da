import json

import jsonschema
import pytest

from rankeffect import REPORT_SCHEMA
from rankeffect.cli import main

from conftest import DATA_DIR

FIXTURE = str(DATA_DIR / "paired_qol_42subjects.csv")
GOLDEN = DATA_DIR / "golden_analyze_report.json"


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

    def test_table_rendering(self, capsys):
        code, out, _ = run_cli(capsys, "analyze", FIXTURE, "--table")
        assert code == 0
        assert "component" in out and "p_value" in out
        assert "var1" in out

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
        assert out_a.read_bytes() == out_b.read_bytes()
        assert json.loads(out_a.read_text()) == json.loads(GOLDEN.read_text())

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
        # the statistic is undefined and the method is flagged, not an error
        path = tmp_path / "separated.csv"
        rows = ["g1_var1,g2_var1"] + [f"{k},{k + 100}" for k in range(12)]
        path.write_text("\n".join(rows) + "\n")
        code, out, _ = run_cli(capsys, "analyze", str(path), "--methods", "all")
        assert code == 0
        report = json.loads(out)
        assert all(
            any("inestimable" in f for f in t["flags"]) for t in report["tests"]
        )


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

    @pytest.mark.parametrize("text", ["[a]\nd = 1\nd = 2\n", "d = 1\n", "[a]\nno separator\n"])
    def test_malformed_config_file_is_scenario_error(self, capsys, tmp_path, text):
        # configparser's own errors escaped as a traceback
        cfg = tmp_path / "malformed.ini"
        cfg.write_text(text)
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert json.loads(err)["error"]["type"] == "ScenarioError"

    def test_bad_config_points_at_key(self, capsys, tmp_path):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[broken]\ndistribution = normal\nd = 2\n")
        code, out, err = run_cli(capsys, "simulate", "--config", str(cfg))
        assert code == 1
        assert "broken" in json.loads(err)["error"]["message"]

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
