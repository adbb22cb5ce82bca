import json
import math
import os
import subprocess
import sys

import pytest

import familyplan
from familyplan import cli


def parse_json(stdout):
    envelope = json.loads(stdout)
    assert set(envelope) == {"command", "inputs", "results", "warnings"}
    return envelope


class TestExact:
    def test_one_each_rule_values(self, run_cli):
        code, out, _ = run_cli(["exact", "-n", "1", "-k", "1", "-p", "0.5", "--json"])
        assert code == 0
        envelope = parse_json(out)
        results = envelope["results"]
        assert results["family_size"]["value"] == pytest.approx(3.0, abs=1e-8)
        assert results["ratio"] == pytest.approx(1.0, abs=1e-8)
        assert results["birth_odds"] == 1.0

    def test_two_boys_rule_values(self, run_cli):
        code, out, _ = run_cli(["exact", "-n", "2", "-k", "0", "-p", "0.5", "--json"])
        assert code == 0
        results = parse_json(out)["results"]
        assert results["family_size"]["value"] == pytest.approx(4.0, abs=1e-8)
        assert results["boys"]["value"] == pytest.approx(2.0, abs=1e-8)
        assert results["girls"]["value"] == pytest.approx(2.0, abs=1e-8)

    def test_zero_rule_exits_with_domain_error(self, run_cli):
        code, out, err = run_cli(["exact", "-n", "0", "-k", "0", "-p", "0.5"])
        assert code == 1
        assert out == ""
        assert "error" in err

    def test_invalid_probability_exits_with_domain_error(self, run_cli):
        code, _, err = run_cli(["exact", "-n", "1", "-k", "1", "-p", "1.5"])
        assert code == 1
        assert "error" in err

    def test_human_and_json_carry_identical_values(self, run_cli):
        args = ["exact", "-n", "2", "-k", "1", "-p", "0.37"]
        _, human, _ = run_cli(args)
        _, as_json, _ = run_cli(args + ["--json"])
        results = parse_json(as_json)["results"]
        assert f"ratio: {results['ratio']!r}" in human
        assert f"boys: {results['boys']['value']!r}" in human


class TestSimulate:
    def test_identical_seeds_give_identical_bytes(self, run_cli):
        args = ["simulate", "-n", "1", "-k", "1", "-p", "0.5", "--samples", "5000", "--seed", "42"]
        code_a, out_a, _ = run_cli(args)
        code_b, out_b, _ = run_cli(args)
        assert code_a == code_b == 0
        assert out_a == out_b

    def test_summary_values_reported(self, run_cli):
        code, out, _ = run_cli(
            ["simulate", "-n", "2", "-k", "0", "-p", "0.5",
             "--samples", "20000", "--seed", "1", "--json"]
        )
        assert code == 0
        results = parse_json(out)["results"]
        assert results["samples"] == 20000
        assert results["seed"] == 1
        assert abs(results["mean_total"] - 4.0) <= 4 * results["se_total"]
        assert abs(results["mean_martingale"]) <= 4 * results["se_martingale"]

    def test_defaults_are_echoed(self, run_cli):
        code, out, _ = run_cli(["simulate", "-n", "1", "-k", "0", "-p", "0.5", "--json"])
        assert code == 0
        inputs = parse_json(out)["inputs"]
        assert inputs["samples"] == cli.DEFAULT_SAMPLES
        assert inputs["seed"] == cli.DEFAULT_SEED


class TestVerify:
    def test_small_grid_passes(self, run_cli):
        code, out, _ = run_cli(["verify", "--max-n", "2", "--max-k", "2", "--json"])
        assert code == 0
        results = parse_json(out)["results"]
        assert results["all_hold"] is True
        assert len(results["certificates"]) == 8

    def test_one_each_certificate_displays_boys_function(self, run_cli):
        code, out, _ = run_cli(["verify", "--max-n", "1", "--max-k", "1"])
        assert code == 0
        assert "(1,1) PASS  B = (1 - p + p^2)/(1 - p)" in out

    def test_cap_exceeded_names_the_cap(self, run_cli):
        code, _, err = run_cli(["verify", "--max-n", "13", "--max-k", "0"])
        assert code == 1
        assert "cap" in err
        assert "12" in err


class TestShare:
    def test_two_boys_rule_values(self, run_cli):
        code, out, _ = run_cli(["share", "-n", "2", "-k", "0", "-p", "0.5", "--json"])
        assert code == 0
        results = parse_json(out)["results"]
        target = 2.0 * math.log(2.0) - 1.0
        assert results["societal_share"] == pytest.approx(0.5, abs=1e-8)
        assert results["average_share"]["value"] == pytest.approx(target, abs=1e-8)
        assert results["average_share_closed_form"] == pytest.approx(target, abs=1e-12)
        assert results["gap"] == pytest.approx(0.5 - target, abs=1e-8)

    def test_societal_share_tracks_girl_probability(self, run_cli):
        code, out, _ = run_cli(["share", "-n", "2", "-k", "0", "-p", "0.7", "--json"])
        assert code == 0
        assert parse_json(out)["results"]["societal_share"] == pytest.approx(0.3, abs=1e-8)

    def test_general_rule_flagged_as_extension(self, run_cli):
        code, out, _ = run_cli(["share", "-n", "1", "-k", "1", "-p", "0.5", "--json"])
        assert code == 0
        envelope = parse_json(out)
        assert envelope["results"]["average_share_closed_form"] is None
        assert envelope["warnings"]
        assert envelope["results"]["average_share"]["value"] == pytest.approx(0.5, abs=1e-8)


class TestSeriesOverflow:
    @pytest.mark.parametrize(
        "args",
        [
            ["exact", "-n", "1100", "-k", "0", "-p", "0.5"],
            ["share", "-n", "300", "-k", "0", "-p", "0.1"],
        ],
    )
    def test_term_overflow_exits_with_numeric_failure(self, run_cli, args):
        code, out, err = run_cli(args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "overflows float64" in err


class TestCrossing:
    def test_golden_ratio(self, run_cli):
        code, out, _ = run_cli(["crossing", "--a", "1,1", "--b", "2,0", "--json"])
        assert code == 0
        golden = (math.sqrt(5.0) - 1.0) / 2.0
        assert parse_json(out)["results"]["root"] == pytest.approx(golden, abs=1e-9)

    def test_identical_rules_exit_with_numeric_failure(self, run_cli):
        code, out, err = run_cli(["crossing", "--a", "1,1", "--b", "1,1"])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_malformed_rule_is_a_domain_error(self, run_cli):
        code, _, err = run_cli(["crossing", "--a", "1;1", "--b", "2,0"])
        assert code == 1
        assert "error" in err


class TestSweep:
    def test_writes_csv_with_expected_values(self, run_cli, tmp_path):
        out_path = tmp_path / "fh_fs.csv"
        code, _, _ = run_cli(
            ["sweep", "--rules", "1,1;2,0", "--quantities", "F",
             "--from", "0.1", "--to", "0.9", "--steps", "81", "--out", str(out_path)]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == 'p,"F(1,1)","F(2,0)"'
        mid = lines[41].split(",")
        assert float(mid[0]) == pytest.approx(0.5, abs=1e-15)
        assert float(mid[1]) == pytest.approx(3.0, abs=1e-8)
        assert float(mid[2]) == pytest.approx(4.0, abs=1e-8)

    def test_invalid_arguments_produce_no_file(self, run_cli, tmp_path):
        out_path = tmp_path / "never.csv"
        code, _, err = run_cli(
            ["sweep", "--rules", "1,1", "--quantities", "nope",
             "--from", "0.1", "--to", "0.9", "--steps", "9", "--out", str(out_path)]
        )
        assert code == 1
        assert not out_path.exists()
        assert "error" in err

    def test_json_reports_columns(self, run_cli, tmp_path):
        out_path = tmp_path / "g.csv"
        code, out, _ = run_cli(
            ["sweep", "--rules", "1,1;2,0", "--quantities", "G;ratio",
             "--from", "0.3", "--to", "0.7", "--steps", "5",
             "--out", str(out_path), "--json"]
        )
        assert code == 0
        results = parse_json(out)["results"]
        assert results["rows"] == 5
        assert results["columns"] == ["G(1,1)", "G(2,0)", "ratio(1,1)", "ratio(2,0)"]


class TestParserBehaviour:
    def test_unknown_command_is_a_domain_error(self, run_cli):
        code, _, err = run_cli(["frobnicate"])
        assert code == 1
        assert "error" in err

    def test_missing_required_argument(self, run_cli):
        code, _, err = run_cli(["exact", "-n", "1", "-k", "1"])
        assert code == 1
        assert "error" in err

    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["--help"])
        assert excinfo.value.code == 0
        assert "exact" in capsys.readouterr().out


class TestClosedOutput:
    def test_closed_pipe_exits_one_without_traceback(self):
        # The read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe, every time.
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = os.path.dirname(os.path.dirname(familyplan.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        argv = ["exact", "-n", "1", "-k", "1", "-p", "0.5", "--json"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "familyplan.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=env,
                timeout=120,
            )
        finally:
            os.close(write_end)
        stderr = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr
