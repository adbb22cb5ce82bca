"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import csv
import json
import math
import time
from contextlib import contextmanager

import pytest

from familyplan import core, montecarlo, series, share

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
TWO_LN_TWO_MINUS_ONE = 2.0 * math.log(2.0) - 1.0


@contextmanager
def criterion(label, budget_seconds):
    started = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"{label}: FAIL")
        raise
    elapsed = time.perf_counter() - started
    print(f"{label}: PASS ({elapsed:.2f}s, budget {budget_seconds}s)")
    assert elapsed < budget_seconds, f"{label} exceeded its {budget_seconds}s budget"


def test_criterion_1_closed_form_anchors(run_cli):
    with criterion("1 closed-form anchors", 1.0):
        code, out, _ = run_cli(
            ["exact", "-n", "1", "-k", "1", "-p", "0.5", "--tol", "1e-12", "--json"]
        )
        assert code == 0
        hillel = json.loads(out)["results"]
        assert abs(hillel["family_size"]["value"] - 3.0) <= 1e-10
        assert abs(hillel["girls"]["value"] - 1.5) <= 1e-10

        code, out, _ = run_cli(
            ["exact", "-n", "2", "-k", "0", "-p", "0.5", "--tol", "1e-12", "--json"]
        )
        assert code == 0
        shammai = json.loads(out)["results"]
        assert abs(shammai["family_size"]["value"] - 4.0) <= 1e-10
        assert abs(shammai["girls"]["value"] - 2.0) <= 1e-10

        for p in ("0.3", "0.5", "0.7"):
            code, out, _ = run_cli(
                ["exact", "-n", "2", "-k", "0", "-p", p, "--tol", "1e-12", "--json"]
            )
            assert code == 0
            results = json.loads(out)["results"]
            assert abs(results["boys"]["value"] - 2.0) <= 1e-10
            # cross-check every reported value against its closed form
            value = float(p)
            assert abs(results["family_size"]["value"] - series.closed_form("F_S", value)) <= 1e-10
            assert abs(results["girls"]["value"] - series.closed_form("G_S", value)) <= 1e-10


def test_criterion_2_ratio_equals_birth_odds_on_grid():
    with criterion("2 ratio equals birth odds (n,k <= 6 grid)", 30.0):
        for n in range(7):
            for k in range(7):
                if n + k < 1:
                    continue
                for tenth in range(1, 10):
                    p = tenth / 10.0
                    ratio = series.gender_ratio((n, k), p, 1e-12)
                    odds = p / (1.0 - p)
                    assert abs(ratio - odds) <= 1e-8, (n, k, p)


def test_criterion_3_exact_identity_certificates(run_cli):
    with criterion("3 exact ratio-identity certificates (8x8)", 60.0):
        code, out, _ = run_cli(["verify", "--max-n", "8", "--max-k", "8", "--json"])
        assert code == 0
        results = json.loads(out)["results"]
        assert results["all_hold"] is True
        assert len(results["certificates"]) == 80
        assert all(cert["holds"] for cert in results["certificates"])


def test_criterion_4_series_matches_brute_force():
    with criterion("4 series vs brute-force oracle at horizon 24", 120.0):
        horizon = 24
        for n in range(5):
            for k in range(5):
                if n + k < 1:
                    continue
                for p in (0.1, 0.3, 0.5, 0.7, 0.9):
                    truncated = series.truncated_moments((n, k), p, horizon)
                    oracle = core.enumerate_brute_force((n, k), p, horizon)
                    for field in ("mass_covered", "boys", "girls", "total", "girl_share", "martingale"):
                        assert getattr(truncated, field) == getattr(oracle, field), (n, k, p, field)


def test_criterion_5_golden_ratio_crossing(run_cli):
    with criterion("5 golden-ratio crossing", 5.0):
        code, out, _ = run_cli(["crossing", "--a", "1,1", "--b", "2,0", "--json"])
        assert code == 0
        root = json.loads(out)["results"]["root"]
        assert abs(root - GOLDEN) <= 1e-9


def test_criterion_6_share_values(run_cli):
    with criterion("6 share values and strict inequality", 5.0):
        code, out, _ = run_cli(
            ["share", "-n", "2", "-k", "0", "-p", "0.5", "--tol", "1e-10", "--json"]
        )
        assert code == 0
        results = json.loads(out)["results"]
        assert abs(results["average_share"]["value"] - TWO_LN_TWO_MINUS_ONE) <= 1e-8
        assert abs(results["average_share_closed_form"] - TWO_LN_TWO_MINUS_ONE) <= 1e-8
        for i in range(1, 20):
            p = 0.05 * i
            assert share.shammai_average_share_closed_form(p) < 1.0 - p, p


def test_criterion_7_monte_carlo_consistency():
    with criterion("7 Monte Carlo four-sigma consistency", 30.0):
        trunc = 1e-9  # covers series truncation when an estimator is exact
        for rule in ((1, 1), (2, 0)):
            p, samples, seed = 0.5, 1_000_000, 2024
            summary = montecarlo.run_simulation(rule, p, samples, seed)
            again = montecarlo.run_simulation(rule, p, samples, seed)
            assert summary == again

            tol = 1e-12
            boys = series.expected_boys(rule, p, tol).value
            girls = series.expected_girls(rule, p, tol).value
            size = series.expected_family_size(rule, p, tol).value
            gbar = share.average_share(rule, p, tol).value
            assert abs(summary.mean_boys - boys) <= 4 * summary.se_boys + trunc
            assert abs(summary.mean_girls - girls) <= 4 * summary.se_girls + trunc
            assert abs(summary.mean_total - size) <= 4 * summary.se_total + trunc
            assert abs(summary.mean_girl_share - gbar) <= 4 * summary.se_girl_share + trunc
            assert abs(summary.mean_martingale) <= 4 * summary.se_martingale


def test_criterion_8_sweep_reproduces_marked_points(run_cli, tmp_path):
    with criterion("8 sweep reproduces the marked plot points", 10.0):
        out_path = tmp_path / "marked_points.csv"
        code, _, _ = run_cli(
            ["sweep", "--rules", "1,1;2,0", "--quantities", "F;G",
             "--from", "0.5", "--to", "0.618034", "--steps", "2",
             "--out", str(out_path)]
        )
        assert code == 0
        with open(out_path, newline="") as handle:
            rows = {row["p"]: row for row in csv.DictReader(handle)}
        at_half = rows["0.5"]
        assert abs(float(at_half["F(1,1)"]) - 3.0) <= 1e-5
        assert abs(float(at_half["F(2,0)"]) - 4.0) <= 1e-5
        assert abs(float(at_half["G(1,1)"]) - 1.5) <= 1e-5
        assert abs(float(at_half["G(2,0)"]) - 2.0) <= 1e-5
        (at_golden,) = [row for key, row in rows.items() if key != "0.5"]
        assert abs(float(at_golden["F(1,1)"]) - 3.236068) <= 1e-5
        assert abs(float(at_golden["F(2,0)"]) - 3.236068) <= 1e-5
        assert abs(float(at_golden["G(1,1)"]) - 1.236068) <= 1e-5
        assert abs(float(at_golden["G(2,0)"]) - 1.236068) <= 1e-5
