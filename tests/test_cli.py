import hashlib
import importlib
import json
import math
import os
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import familyplan
from familyplan import analysis, cli, core, series, share, symbolic

# One entry per invocation: argv, exit code, and the exact stdout and stderr.
GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def _package_env():
    """Environment for a child interpreter that imports this package."""
    src = os.path.dirname(os.path.dirname(familyplan.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


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


    def test_builds_the_exact_numerator_once(self, run_cli, monkeypatch):
        # B, G and F share the numerator of E[T]; only their denominators differ
        calls = []
        wald_fraction = series._wald_fraction

        def recording(rule, dyadic):
            calls.append(dyadic)
            return wald_fraction(rule, dyadic)

        monkeypatch.setattr(series, "_wald_fraction", recording)
        code, _, _ = run_cli(["exact", "-n", "3", "-k", "2", "-p", "0.3"])
        assert code == 0
        assert calls == [core._dyadic(core.BirthProbability(0.3))]


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

    def test_failed_certificate_exits_two(self, run_cli, monkeypatch):
        # no real rule fails, so the certificate is forced to
        real = symbolic.verify_ratio_identity
        monkeypatch.setattr(
            symbolic, "verify_ratio_identity", lambda n, k: real(n, k)._replace(holds=False)
        )
        code, out, _ = run_cli(["verify", "--max-n", "1", "--max-k", "0"])
        assert code == 2
        assert out.endswith("(1,0) FAIL  B = (1)/(1)\nall_hold: False\n")
        code, out, _ = run_cli(["verify", "--max-n", "1", "--max-k", "0", "--json"])
        assert code == 2
        results = parse_json(out)["results"]
        assert results["all_hold"] is False
        assert [cert["holds"] for cert in results["certificates"]] == [False]

    def test_wrong_boys_function_fails_its_certificates(self, run_cli, monkeypatch):
        # M + 1 in place of M for (2,1) alone: (2,1) and its mirror rule
        # (1,2) must fail, and every other rule must still hold
        real = symbolic._leibniz_numerator

        def wrong(n, k):
            return real(n, k) + 1 if (n, k) == (2, 1) else real(n, k)

        monkeypatch.setattr(symbolic, "_leibniz_numerator", wrong)
        rules = [(n, k) for n in range(3) for k in range(3) if n + k]
        assert [rule for rule in rules if not symbolic.verify_ratio_identity(*rule).holds] == [(1, 2), (2, 1)]
        code, out, _ = run_cli(["verify", "--max-n", "2", "--max-k", "2"])
        assert code == 2
        assert "\n(2,1) FAIL  B = " in out
        assert "\n(1,2) FAIL  B = " in out

    def test_cap_exceeded_names_the_cap(self, run_cli, monkeypatch):
        built = []
        monkeypatch.setattr(symbolic, "verify_ratio_identity", lambda n, k: built.append((n, k)))
        for flag in ("--max-n", "--max-k"):
            code, _, err = run_cli(["verify", flag, "21"])
            assert code == 1
            assert "cap" in err
            assert "20" in err
        assert built == []  # rejected before any certificate is built

    @pytest.mark.parametrize(
        "cap, digest",
        [
            ("12", "093cca4fb2c4811bf0288e636c256060c134ccb583d2bb119adc2852a1623b57"),
            ("20", "235068daec27d989c157662ccd59011f909f12a0755e22ea24a76e35f808801f"),
        ],
        ids=["12x12", "20x20"],
    )
    def test_verify_json_is_pinned(self, run_cli, cap, digest):
        code, out, _ = run_cli(["verify", "--max-n", cap, "--max-k", cap, "--json"])
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest


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

    def test_general_rule_is_a_closed_form_too(self, run_cli):
        code, out, _ = run_cli(["share", "-n", "1", "-k", "1", "-p", "0.5", "--json"])
        assert code == 0
        envelope = parse_json(out)
        assert envelope["results"]["average_share_closed_form"] is None
        assert envelope["warnings"] == []
        assert envelope["results"]["average_share"] == {"value": 0.5, "tail_bound": 0.0, "terms_used": 2}

    def test_extreme_probability_has_a_value(self, run_cli):
        code, out, _ = run_cli(["share", "-n", "1", "-k", "1", "-p", "1e-6", "--json"])
        assert code == 0
        assert parse_json(out)["results"]["average_share"]["value"] == pytest.approx(1.0, abs=1e-4)


class TestSeriesOverflow:
    def test_term_overflow_exits_with_numeric_failure(self, run_cli):
        code, out, err = run_cli(["exact", "-n", "1", "-k", "1", "-p", "5e-324"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "overflows float64" in err

    def test_shares_do_not_overflow(self, run_cli):
        # E[G] overflows at the smallest p, but E[G]/E[T] = 1 - p does not
        code, out, _ = run_cli(["share", "-n", "1", "-k", "1", "-p", "5e-324", "--json"])
        assert code == 0
        results = parse_json(out)["results"]
        assert results["societal_share"] == 1.0
        assert results["average_share"]["value"] == 1.0

    def test_large_rule_is_exact(self, run_cli):
        code, out, _ = run_cli(["exact", "-n", "1100", "-k", "0", "-p", "0.5"])
        assert code == 0
        assert "boys: 1100.0 (tail_bound 0.0, terms 1100)" in out

    @pytest.mark.parametrize(
        "args",
        [
            ["exact", "-n", str(10**20), "-k", "0", "-p", "0.5"],
            ["share", "-n", str(10**20), "-k", "0", "-p", "0.5"],
            ["crossing", "--a", f"{10**20},0", "--b", "0,1"],
            pytest.param(["exact", "-n", str(10**20), "-k", "1", "-p", "0.5"], id="exact_k1"),
            pytest.param(["share", "-n", str(10**20), "-k", "1", "-p", "0.5"], id="share_k1"),
            pytest.param(["crossing", "--a", f"{10**20},1", "--b", "0,2"], id="crossing_k1"),
        ],
        ids=lambda args: args[0],
    )
    def test_rule_too_large_for_exact_integers_exits_two(self, run_cli, monkeypatch, args):
        # the size check must come before the finite sums, which would loop
        # some 10^20 times for k >= 1: series' _horner, and share's head
        # loop in _branch, which math.lcm over 1..n+k must refuse first
        def no_sums(*args):
            raise AssertionError("finite sum started before the size check")

        monkeypatch.setattr(series, "_horner", no_sums)
        monkeypatch.setattr(share, "_branch", no_sums)
        code, out, err = run_cli(args)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "too large for exact integers" in err

    @pytest.mark.parametrize("command", ["exact", "share"])
    def test_rule_too_large_for_memory_exits_two(self, command):
        # the shift (exact) and the lcm (share) of a 10^12 rule need over
        # 100 GB, which a 1.5 GB address space turns into a MemoryError
        def limit_memory():
            resource.setrlimit(resource.RLIMIT_AS, (1_500_000_000, 1_500_000_000))

        proc = subprocess.run(
            [sys.executable, "-m", "familyplan.cli", command, "-n", str(10**12), "-k", "0", "-p", "0.5"],
            capture_output=True,
            text=True,
            env=_package_env(),
            preexec_fn=limit_memory,
            timeout=120,
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr


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

    def test_equal_rounded_sizes_exit_with_numeric_failure(self, run_cli):
        # F(7,1) - F(7,0) = p^7/q > 0, though both round to 700.0 at p = 0.01
        code, out, err = run_cli(["crossing", "--a", "7,0", "--b", "7,1"])
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_dominated_huge_rule_exits_two_without_exact_sums(self, run_cli, monkeypatch):
        # (10^20,1) needs more boys and as many girls as (0,1): the rule
        # counts rule out a crossing before any Wald fraction is built
        def no_fractions(*args):
            raise AssertionError("a Wald fraction was built for a pair that never crosses")

        monkeypatch.setattr(analysis, "_wald_fraction", no_fractions)
        code, out, err = run_cli(["crossing", "--a", f"{10**20},1", "--b", "0,1"])
        assert code == 2
        assert out == ""
        assert err.startswith("error:")
        assert "never change order" in err

    def test_tolerance_below_float_spacing_exits_zero(self, run_cli):
        code, out, _ = run_cli(["crossing", "--a", "1,1", "--b", "2,0", "--tol", "1e-300"])
        assert code == 0
        assert "root: 0.6180339887498949" in out

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

    @pytest.mark.parametrize(
        "changed",
        [
            {"--rules": ";"},
            {"--rules": "1"},
            {"--rules": "0,0"},
            {"--quantities": "nope"},
            {"--steps": "1"},
            {"--from": "0.9", "--to": "0.1"},
            {"--from": "0"},
            {"--tol": "0"},
        ],
        ids=lambda changed: " ".join(f"{key} {value}" for key, value in changed.items()),
    )
    def test_invalid_arguments_produce_no_file(self, run_cli, tmp_path, changed):
        # every argument is checked before --out is opened
        options = {"--rules": "1,1", "--quantities": "F", "--from": "0.1", "--to": "0.9",
                   "--steps": "9", "--tol": "1e-10", **changed}
        argv = ["sweep", *(item for pair in options.items() for item in pair)]
        out_path = tmp_path / "never.csv"
        code, _, err = run_cli([*argv, "--out", str(out_path)])
        assert code == 1
        assert not out_path.exists()
        assert err.startswith("error:")
        kept = tmp_path / "kept.csv"
        kept.write_bytes(b"p,old\n")
        code, _, _ = run_cli([*argv, "--out", str(kept)])
        assert code == 1
        assert kept.read_bytes() == b"p,old\n"

    def test_out_in_a_missing_directory_exits_one(self, run_cli, tmp_path):
        out_path = tmp_path / "missing" / "s.csv"
        code, out, err = run_cli(
            ["sweep", "--rules", "1,1", "--quantities", "F",
             "--from", "0.1", "--to", "0.9", "--steps", "9", "--out", str(out_path)]
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1
        assert "Traceback" not in err

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

    def test_memory_does_not_grow_with_steps(self, tmp_path):
        # each row is written as it is computed: holding the rows of 100,000
        # steps, or their CSV, would take some 65 MB more than 2,000 steps
        def peak_kb(steps):
            argv = ["sweep", "--rules", "1,1;2,0", "--quantities", "F;G", "--from", "0.1",
                    "--to", "0.9", "--steps", str(steps), "--out", str(tmp_path / "s.csv")]
            code, peak = _fresh_run(_PEAK_RSS_SCRIPT, *argv)
            assert code == 0
            return peak

        assert peak_kb(100_000) - peak_kb(2_000) < 8 * 1024
        assert len((tmp_path / "s.csv").read_text().splitlines()) == 2_001


class TestGolden:
    """Every subcommand, plain and --json, successes and errors, byte for byte."""

    @pytest.mark.parametrize("case", GOLDEN, ids=[case["name"] for case in GOLDEN])
    def test_output_is_pinned(self, case, run_cli, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)  # sweep writes its CSV to a relative path
        assert run_cli(case["argv"]) == (case["code"], case["stdout"], case["stderr"])

    @pytest.mark.parametrize(
        "case",
        [case for case in GOLDEN if "--json" in case["argv"] and case["stdout"]],
        ids=lambda case: case["name"],
    )
    def test_json_output_is_strict(self, case):
        # RFC 8259 has no Infinity or NaN; json.loads accepts them unless told not to
        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        json.loads(case["stdout"], parse_constant=reject)


class TestWarnings:
    def test_library_warnings_reach_the_caller(self, run_cli, monkeypatch):
        # main records no warning: one from a layer goes to the caller's
        # filters (stderr for a user, an error under the suite's filter)
        message = "a library warning"

        def warning_crossing(rule_a, rule_b, tol):
            warnings.warn(message, UserWarning)
            return 0.5

        monkeypatch.setattr(analysis, "crossing_probability", warning_crossing)
        args = ["crossing", "--a", "1,1", "--b", "2,0"]
        with pytest.warns(UserWarning, match=message):
            code, out, _ = run_cli(args)
        assert code == 0
        assert out.endswith("root: 0.5\n")
        assert "warning:" not in out
        with pytest.warns(UserWarning, match=message):
            code, out, _ = run_cli(args + ["--json"])
        assert code == 0
        assert parse_json(out)["warnings"] == []


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

    def test_sweep_help_lists_every_quantity_in_order(self, capsys):
        # the help spells the quantities out so that it loads no layer
        with pytest.raises(SystemExit):
            cli.main(["sweep", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"from {', '.join(analysis.SWEEP_QUANTITIES)}" in help_text


class TestClosedOutput:
    def test_closed_pipe_exits_one_without_traceback(self):
        # The read end is closed before the child starts, so its first
        # write to stdout fails with a broken pipe, every time.
        read_end, write_end = os.pipe()
        os.close(read_end)
        argv = ["exact", "-n", "1", "-k", "1", "-p", "0.5", "--json"]
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "familyplan.cli", *argv],
                stdout=write_end,
                stderr=subprocess.PIPE,
                env=_package_env(),
                timeout=120,
            )
        finally:
            os.close(write_end)
        stderr = proc.stderr.decode()
        assert proc.returncode == 1
        assert "Traceback" not in stderr
        assert "BrokenPipeError" not in stderr


def _subcommand_argvs(out):
    """One small run of each subcommand, by name; sweep writes its CSV to out."""
    argvs = [
        ["exact", "-n", "1", "-k", "1", "-p", "0.5"],
        ["share", "-n", "2", "-k", "0", "-p", "0.5"],
        ["verify", "--max-n", "2", "--max-k", "2"],
        ["crossing", "--a", "1,1", "--b", "2,0"],
        ["sweep", "--rules", "1,1", "--quantities", "F", "--from", "0.2",
         "--to", "0.8", "--steps", "3", "--out", str(out)],
        ["simulate", "-n", "1", "-k", "1", "-p", "0.5", "--samples", "100"],
    ]
    return {argv[0]: argv for argv in argvs}


def _fresh_run(script, *args):
    """The last stdout line of script, run in a fresh interpreter, as JSON."""
    proc = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=_package_env(),
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# Runs in a fresh interpreter, since the test process has imported every
# layer and numpy already.  The last stdout line lists, after the import and
# after each subcommand of the JSON argv list, its exit code and the
# familyplan modules, fractions and numpy then loaded.
_LAZY_LAYERS_SCRIPT = """
import json, sys

def loaded():
    return [m for m in sys.modules if m.startswith("familyplan") or m in ("fractions", "numpy")]

from familyplan.cli import main

stages = [["import", 0, loaded()]]
for argv in json.loads(sys.argv[1]):
    stages.append([argv[0], main(argv), loaded()])
print(json.dumps(stages))
"""

# Runs one subcommand in a fresh interpreter.  The last stdout line holds its
# exit code and the peak resident memory of its own image, in KB: Linux's
# VmHWM, since ru_maxrss keeps the high-water mark of the process that
# spawned it (pytest's, here) across fork and exec.
_PEAK_RSS_SCRIPT = """
import json, sys
from familyplan.cli import main

code = main(sys.argv[1:])
with open("/proc/self/status") as status:
    peak = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
print(json.dumps([code, peak]))
"""

# Runs one subcommand in a fresh interpreter.  The last stdout line holds its
# exit code and the modules it loaded that the bare interpreter had not.
_NEW_MODULES_SCRIPT = """
import json, sys

bare = set(sys.modules)
from familyplan.cli import main

code = main(sys.argv[1:])
print(json.dumps([code, sorted(set(sys.modules) - bare)]))
"""


class TestLazyNumpy:
    def test_only_simulate_imports_numpy(self, tmp_path):
        argvs = _subcommand_argvs(tmp_path / "sweep.csv")
        stages = _fresh_run(_LAZY_LAYERS_SCRIPT, json.dumps(list(argvs.values())))
        added, before = {}, set()
        for stage, code, modules in stages:
            assert code == 0, stage
            added[stage], before = set(modules) - before, set(modules)
        # each subcommand loads its own layer, and only simulate loads numpy
        assert added == {
            "import": {"familyplan", "familyplan.cli", "familyplan.core", "familyplan.errors"},
            "exact": {"familyplan.series"},
            "share": {"familyplan.share"},
            "verify": {"familyplan.symbolic", "fractions"},
            "crossing": {"familyplan.analysis"},
            "sweep": set(),
            "simulate": {"familyplan.montecarlo", "numpy"},
        }


class TestImportDiet:
    @pytest.mark.parametrize("command", _subcommand_argvs(""))
    def test_no_subcommand_imports_dataclasses(self, command, tmp_path):
        # dataclasses imports inspect, ast, dis and tokenize, about 10 ms of
        # a CLI process; numpy imports inspect by itself
        argv = _subcommand_argvs(tmp_path / "sweep.csv")[command]
        code, loaded = _fresh_run(_NEW_MODULES_SCRIPT, *argv)
        assert code == 0
        assert "dataclasses" not in loaded
        if command != "simulate":
            assert "inspect" not in loaded


_FRESH_PACKAGE_SCRIPT = """
import json
import familyplan
listed = dir(familyplan)
from familyplan import *
print(json.dumps([listed, [name for name in dir() if not name.startswith("_")]]))
"""


class TestPackage:
    @pytest.mark.parametrize("name", familyplan.__all__)
    def test_each_name_is_its_module_attribute(self, name):
        module = importlib.import_module(f"familyplan.{familyplan._MODULE_OF[name]}")
        assert getattr(familyplan, name) is getattr(module, name)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
            familyplan.no_such_name
        assert not hasattr(familyplan, "no_such_name")

    def test_dir_and_star_import_cover_every_name_before_first_use(self):
        listed, bound = _fresh_run(_FRESH_PACKAGE_SCRIPT)
        assert set(familyplan.__all__) <= set(listed)
        assert set(familyplan.__all__) <= set(bound)
