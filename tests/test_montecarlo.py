import hashlib
import json
import math
import random
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from familyplan import montecarlo as mc
from familyplan import series, share
from familyplan.errors import BirthCapError, DomainError

# allowance for series truncation when a band is otherwise zero-width
TRUNC = 1e-9

# (rule, p, samples, seed) cases, each run under its birth_cap, with the
# summary and a digest of the per-family arrays, or the BirthCapError
# message, that the one-birth-per-pass sampler produced for them
SAMPLER_GOLDEN = json.loads(Path(__file__).with_name("montecarlo_golden.json").read_text())


class _ForcedStream:
    def __init__(self, values):
        self._values = list(values)

    def random(self):
        return self._values.pop(0)


class _RecordingStream:
    def __init__(self, inner):
        self._inner = inner
        self.draws = []

    def random(self):
        u = self._inner.random()
        self.draws.append(u)
        return u


class TestSimulateFamily:
    def test_forced_boy_boy_stream(self):
        outcome = mc.simulate_family((2, 0), 0.7, _ForcedStream([0.0, 0.0]))
        assert (outcome.boys, outcome.girls, outcome.total) == (2, 0, 2)
        assert outcome.martingale_terminal == pytest.approx(2.0 / 0.7)
        assert outcome.girl_share == 0.0

    def test_single_boy_rule_always_has_one_boy(self):
        for index in range(200):
            outcome = mc.simulate_family((1, 0), 0.4, mc.FamilyStream(11, index))
            assert outcome.boys == 1
            assert outcome.girls == outcome.total - 1

    def test_one_each_rule_needs_at_least_two(self):
        for index in range(200):
            outcome = mc.simulate_family((1, 1), 0.6, mc.FamilyStream(5, index))
            assert outcome.total >= 2

    def test_rejects_zero_rule(self):
        with pytest.raises(DomainError):
            mc.simulate_family((0, 0), 0.5, mc.FamilyStream(0, 0))

    def test_birth_cap_reported(self, monkeypatch):
        monkeypatch.setattr(mc, "BIRTH_CAP", 50)
        with pytest.raises(BirthCapError):
            mc.simulate_family((1, 0), 1e-12, mc.FamilyStream(0, 0))

    def test_rule_longer_than_the_birth_cap_draws_nothing(self, monkeypatch):
        class NoDraws:
            def random(self):
                raise AssertionError("drew a birth for a rule that cannot stop")

        monkeypatch.setattr(mc, "BIRTH_CAP", 50)
        with pytest.raises(BirthCapError):
            mc.simulate_family((51, 0), 0.5, NoDraws())

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(0, 3),
        k=st.integers(0, 3),
        p=st.floats(0.2, 0.8),
        seed=st.integers(0, 2**64 - 1),
        index=st.integers(0, 1000),
    )
    def test_stops_at_first_satisfaction(self, n, k, p, seed, index):
        if n + k < 1:
            n = 1
        recorder = _RecordingStream(mc.FamilyStream(seed, index))
        outcome = mc.simulate_family((n, k), p, recorder)
        # closing birth pins the just-reached count exactly
        assert (outcome.boys == n and outcome.girls >= k) or (
            outcome.girls == k and outcome.boys >= n
        )
        # replay the recorded uniforms: no earlier prefix satisfies the rule
        boys = girls = 0
        for u in recorder.draws[:-1]:
            if u < p:
                boys += 1
            else:
                girls += 1
            assert not (boys >= n and girls >= k)


class TestSubstreams:
    def test_scalar_and_vector_paths_agree_bitwise(self):
        rule, p, seed = (2, 1), 0.37, 987654321
        boys, girls, totals = mc.sample_outcomes(rule, p, 400, seed)
        for index in range(400):
            outcome = mc.simulate_family(rule, p, mc.FamilyStream(seed, index))
            assert outcome.boys == boys[index]
            assert outcome.girls == girls[index]
            assert outcome.total == totals[index]

    def test_block_size_never_changes_results(self, monkeypatch):
        monkeypatch.setattr(mc, "_BLOCK_SIZE", 64)
        a = mc.sample_outcomes((1, 1), 0.5, 1000, 3)
        monkeypatch.setattr(mc, "_BLOCK_SIZE", 1 << 16)
        b = mc.sample_outcomes((1, 1), 0.5, 1000, 3)
        for left, right in zip(a, b):
            assert np.array_equal(left, right)

    def test_streams_differ_across_indices(self):
        u0 = [mc.FamilyStream(0, 0).random() for _ in range(1)]
        u1 = [mc.FamilyStream(0, 1).random() for _ in range(1)]
        assert u0 != u1

    @pytest.mark.parametrize("index", [-1, 1.5, True])
    def test_family_index_must_be_a_nonnegative_integer(self, index):
        with pytest.raises(DomainError):
            mc.FamilyStream(0, index)

    def test_vector_birth_cap(self, monkeypatch):
        monkeypatch.setattr(mc, "BIRTH_CAP", 50)
        with pytest.raises(BirthCapError):
            mc.sample_outcomes((1, 0), 1e-12, 10, 0)

    def test_rule_longer_than_the_birth_cap_mixes_nothing(self, monkeypatch):
        # no family can stop before its (n+k)-th birth, so no block is drawn
        def no_mixing(x):
            raise AssertionError("mixed a block for a rule that cannot stop")

        monkeypatch.setattr(mc, "_mix64_array", no_mixing)
        monkeypatch.setattr(mc, "BIRTH_CAP", 50)
        with pytest.raises(BirthCapError):
            mc.run_simulation((51, 0), 0.5, 10, 0)

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(0, 4),
        k=st.integers(0, 4),
        p=st.floats(0.02, 0.98) | st.sampled_from([2.0**-30, 1.0 - 2.0**-53]),
        samples=st.integers(1, 200),
        seed=st.integers(0, 2**64 - 1),
    )
    def test_scalar_and_vector_paths_agree_on_both_steps(self, n, k, p, samples, seed):
        # with 64-family blocks nearly every birth is a one-birth step; with
        # 1 << 16 every step draws a run of births per family
        if n + k < 1:
            n = 1
        expected = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "BIRTH_CAP", 1000)
            for index in range(samples):
                try:
                    outcome = mc.simulate_family((n, k), p, mc.FamilyStream(seed, index))
                except BirthCapError:
                    expected = None
                    break
                expected.append((outcome.boys, outcome.girls, outcome.total))
            for block_size in (64, 1024, 1 << 16):
                patch.setattr(mc, "_BLOCK_SIZE", block_size)
                if expected is None:
                    with pytest.raises(BirthCapError):
                        mc.sample_outcomes((n, k), p, samples, seed)
                else:
                    arrays = mc.sample_outcomes((n, k), p, samples, seed)
                    assert list(zip(*(a.tolist() for a in arrays))) == expected

    @pytest.mark.parametrize("block_size", [1, 1 << 16])
    def test_birth_cap_is_the_longest_allowed_family(self, monkeypatch, block_size):
        # one family per block takes one-birth steps; 50 per block take runs
        monkeypatch.setattr(mc, "_BLOCK_SIZE", block_size)
        rule, p, samples, seed = (3, 0), 0.3, 50, 4
        longest = max(
            mc.simulate_family(rule, p, mc.FamilyStream(seed, index)).total
            for index in range(samples)
        )
        monkeypatch.setattr(mc, "BIRTH_CAP", longest)
        totals = mc.sample_outcomes(rule, p, samples, seed)[2]
        assert totals.max() == longest
        monkeypatch.setattr(mc, "BIRTH_CAP", longest - 1)
        with pytest.raises(BirthCapError):
            mc.sample_outcomes(rule, p, samples, seed)

    @pytest.mark.parametrize("p", [0.5, 0.1, 5e-324, 1.0 - 2.0**-53])
    def test_integer_threshold_matches_the_float_compare(self, p):
        threshold = mc._boy_threshold(p)
        assert 0 < threshold < 2**64
        rng = random.Random(p)
        words = [threshold - 1, threshold] + [rng.getrandbits(64) for _ in range(1000)]
        for x in words:
            assert ((x >> 11) * 2.0**-53 < p) == (x < threshold)

    def test_default_birth_cap_ends_a_degenerate_input(self):
        # about 1e12 births per family; the cap is reached in seconds
        with pytest.raises(BirthCapError):
            mc.run_simulation((1, 0), 1e-12, 10, 0)

    @pytest.mark.parametrize(
        "case", SAMPLER_GOLDEN, ids=[f"case{i}" for i in range(len(SAMPLER_GOLDEN))]
    )
    def test_outputs_are_pinned(self, monkeypatch, case):
        monkeypatch.setattr(mc, "BIRTH_CAP", case["birth_cap"])
        args = (tuple(case["rule"]), case["p"], case["samples"], case["seed"])
        expected = case["expected"]
        if "error" in expected:
            for sample in (mc.run_simulation, mc.sample_outcomes):
                with pytest.raises(BirthCapError) as caught:
                    sample(*args)
                assert str(caught.value) == expected["error"]
            return
        assert mc.run_simulation(*args).to_dict() == expected["summary"]
        arrays = mc.sample_outcomes(*args)
        assert [a.dtype.str for a in arrays] == expected["dtypes"]
        digest = hashlib.sha256()
        for values in arrays:
            digest.update(values.astype("<i8").tobytes())
        assert digest.hexdigest() == expected["sha256"]


class TestRunSimulation:
    def test_identical_seeds_reproduce_identical_summaries(self):
        first = mc.run_simulation((1, 1), 0.5, 20_000, 42)
        second = mc.run_simulation((1, 1), 0.5, 20_000, 42)
        assert first == second

    def test_different_seeds_differ(self):
        first = mc.run_simulation((1, 1), 0.5, 20_000, 1)
        second = mc.run_simulation((1, 1), 0.5, 20_000, 2)
        assert first != second

    def test_summary_matches_raw_outcome_arrays(self):
        samples, seed = 50_000, 9
        for rule, p in (((2, 0), 0.6), ((2, 3), 0.3)):
            summary = mc.run_simulation(rule, p, samples, seed)
            raw = mc.sample_outcomes(rule, p, samples, seed)
            boys, girls, totals = (values.astype(np.float64) for values in raw)
            columns = {
                "boys": boys,
                "girls": girls,
                "total": totals,
                "girl_share": girls / totals,
                "martingale": boys / p - girls / (1.0 - p),
            }
            for name, values in columns.items():
                mean = getattr(summary, f"mean_{name}")
                if name in ("boys", "girls", "total"):
                    # sums of integers below 2^53 are exact in any order
                    assert mean == np.mean(values)
                else:
                    assert mean == pytest.approx(np.mean(values), rel=1e-12)
                expected_se = np.std(values, ddof=1) / math.sqrt(samples)
                assert getattr(summary, f"se_{name}") == pytest.approx(expected_se, rel=1e-12)
            assert summary.ratio_estimate == summary.mean_boys / summary.mean_girls

    def test_block_size_never_changes_the_summary(self, monkeypatch):
        args = ((2, 1), 0.37, 5000, 11)
        monkeypatch.setattr(mc, "_BLOCK_SIZE", 64)
        small = mc.run_simulation(*args)
        monkeypatch.setattr(mc, "_BLOCK_SIZE", 1 << 16)
        assert mc.run_simulation(*args) == small

    @pytest.mark.parametrize("rule,p", [((1, 1), 0.5), ((2, 0), 0.1)])
    def test_memory_does_not_grow_with_samples(self, rule, p):
        # per-family arrays for 1e6 families would need about 69 MB; the
        # skewed case spends many steps on runs of births per family
        tracemalloc.start()
        try:
            mc.run_simulation(rule, p, 10**6, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20

    def test_seed_is_masked_to_64_bits(self):
        wide = mc.run_simulation((1, 1), 0.5, 1000, 2**64 + 5)
        narrow = mc.run_simulation((1, 1), 0.5, 1000, 5)
        assert wide.mean_total == narrow.mean_total
        assert wide.seed == narrow.seed

    def test_rejects_bad_sample_counts(self):
        with pytest.raises(DomainError):
            mc.run_simulation((1, 1), 0.5, 0, 0)


GRID = [
    (n, k, p)
    for n in range(4)
    for k in range(4)
    if 1 <= n + k
    for p in (0.3, 0.5, 0.7)
]


@pytest.mark.parametrize("n,k,p", GRID)
def test_estimates_track_series_values_at_four_sigma(n, k, p):
    samples = 1_000_000
    seed = 97 * n + 13 * k + int(p * 10)
    boys, girls, totals = mc.sample_outcomes((n, k), p, samples, seed)
    boys_f = boys.astype(np.float64)
    girls_f = girls.astype(np.float64)
    totals_f = totals.astype(np.float64)
    shares = girls_f / totals_f
    martingales = boys_f / p - girls_f / (1.0 - p)

    def band(values):
        return 4.0 * np.std(values, ddof=1) / math.sqrt(samples) + TRUNC

    tol = 1e-12
    assert abs(np.mean(boys_f) - series.expected_boys((n, k), p, tol).value) <= band(boys_f)
    assert abs(np.mean(girls_f) - series.expected_girls((n, k), p, tol).value) <= band(girls_f)
    assert abs(np.mean(totals_f) - series.expected_family_size((n, k), p, tol).value) <= band(
        totals_f
    )
    assert abs(np.mean(shares) - share.average_share((n, k), p, tol).value) <= band(shares)
    # optional-stopping check: the terminal martingale mean sits at zero
    assert abs(np.mean(martingales)) <= band(martingales)

    # delta-method band for the ratio-of-means estimator
    mean_boys, mean_girls = np.mean(boys_f), np.mean(girls_f)
    var_boys = np.var(boys_f, ddof=1)
    var_girls = np.var(girls_f, ddof=1)
    cov = np.cov(boys_f, girls_f, ddof=1)[0, 1]
    ratio = mean_boys / mean_girls
    ratio_var = (
        var_boys / mean_girls**2
        + mean_boys**2 * var_girls / mean_girls**4
        - 2.0 * mean_boys * cov / mean_girls**3
    ) / samples
    odds = p / (1.0 - p)
    assert abs(ratio - odds) <= 4.0 * math.sqrt(max(ratio_var, 0.0)) + TRUNC
