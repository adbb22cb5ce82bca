"""Seedable simulation of families under a stopping rule.

Reproducibility contract: every family's births are a pure function of
(seed, family index), so summaries are bit-identical for equal inputs no
matter how the work is chunked or parallelized.  The generator is
counter-based SplitMix64:

    key(i)  = mix64(seed + (i+1) * GAMMA)          (per-family substream key)
    u(i, j) = (mix64(key(i) + (j+1) * GAMMA) >> 11) * 2^-53

where GAMMA = 0x9E3779B97F4A7C15 and mix64 is the standard SplitMix64
finalizer (xors/multiplies by 0xBF58476D1CE4E5B9 and 0x94D049BB133111EB).
All arithmetic is modulo 2^64.  Birth j of family i is a boy iff
u(i, j) < p.  The batched path makes the same test on the 64-bit word:
u(i, j) < p iff mix64(key(i) + (j+1) * GAMMA) < ceil(p * 2^53) << 11,
exactly, because scaling by 2^53 is exact.

The scalar path (``FamilyStream`` + ``simulate_family``) and the batched
numpy path (``sample_outcomes`` and ``run_simulation``) evaluate the same
function and agree bit for bit.  numpy is imported on the first batched
call, not with the package, so the other methods start without it.

The batched path is one sampling loop, ``_stop_events``.  It draws a block
of families at a time, one birth per unstopped family per step, or, once
few are unstopped, a run of births per family no longer than the births
drawn so far, discarding those drawn after a family's stopping birth; so
each outcome depends only on its own family's stream.  It yields stop
events: which families stopped at a step, after how many births, with how
many boys.  ``run_simulation`` counts each event straight into a table of
distinct outcomes, and every summary field is an fsum over that table, so
the summary does not depend on the block size and memory does not grow
with the number of samples.  Only ``sample_outcomes`` maps events to
family indices.
"""

from __future__ import annotations

from collections import Counter
from math import ceil, fsum, sqrt
from typing import TYPE_CHECKING, Iterator, NamedTuple, Protocol

from .core import (
    BirthProbability,
    Rule,
    _check_int,
    _family_statistics,
    as_probability,
    as_rule,
)
from .errors import BirthCapError

if TYPE_CHECKING:
    import numpy as np

#: Per-family birth limit; hitting it means p is numerically degenerate.
BIRTH_CAP = 10_000_000

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_U01 = 2.0**-53
# Families per sampler block; bounds working memory, never changes results.
_BLOCK_SIZE = 1 << 16
# Fewest births per family worth a multi-birth step; below it each step
# draws one birth per unstopped family.
_TAIL_WIDTH = 64
# Excess of a family that stopped: as uint32 above any birth count, so it
# never passes the stop test again; as int32 below -n, unlike a live one.
_STOPPED = 1 << 31


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray, tmp: np.ndarray) -> np.ndarray:
    """mix64 of every word of x, computed in place in x; tmp is scratch of x's shape."""
    import numpy as np

    np.right_shift(x, np.uint64(30), out=tmp)
    x ^= tmp
    x *= np.uint64(_MIX1)
    np.right_shift(x, np.uint64(27), out=tmp)
    x ^= tmp
    x *= np.uint64(_MIX2)
    np.right_shift(x, np.uint64(31), out=tmp)
    x ^= tmp
    return x


def _check_seed(seed: int) -> int:
    return _check_int("seed", seed) & _MASK64


class RandomSource(Protocol):
    def random(self) -> float: ...


class FamilyStream:
    """Uniform variates for one family, derived from (seed, family index)."""

    __slots__ = ("_state", "_draws")

    def __init__(self, seed: int, index: int) -> None:
        index = _check_int("family index", index, 0)
        self._state = _mix64(_check_seed(seed) + (index + 1) * _GAMMA)
        self._draws = 0

    def random(self) -> float:
        self._draws += 1
        return (_mix64(self._state + self._draws * _GAMMA) >> 11) * _U01


class FamilyOutcome(NamedTuple):
    """One simulated family at its stopping time."""

    boys: int
    girls: int
    total: int
    martingale_terminal: float
    girl_share: float


class SimulationSummary(NamedTuple):
    """Aggregate estimators with unbiased-sample-variance standard errors."""

    samples: int
    seed: int
    mean_boys: float
    mean_girls: float
    mean_total: float
    mean_girl_share: float
    mean_martingale: float
    se_boys: float
    se_girls: float
    se_total: float
    se_girl_share: float
    se_martingale: float
    ratio_estimate: float

    def to_dict(self) -> dict[str, float | int]:
        """Flat record with stable field order, for serialization."""
        return self._asdict()


def _check_cap(rule: Rule) -> None:
    """Raise BirthCapError at once if no family can stop within BIRTH_CAP births."""
    if rule.total_required > BIRTH_CAP:
        raise BirthCapError(
            f"rule ({rule.boys_required},{rule.girls_required}) needs at least "
            f"{rule.total_required} births per family, above the cap of {BIRTH_CAP}"
        )


def simulate_family(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    random_source: RandomSource,
) -> FamilyOutcome:
    """Draw births (boy iff u < p) until the rule is first satisfied."""
    rule = as_rule(rule)
    prob = as_probability(p)
    _check_cap(rule)
    n, k = rule.boys_required, rule.girls_required

    boys = 0
    girls = 0
    while boys < n or girls < k:
        if boys + girls >= BIRTH_CAP:
            raise BirthCapError(
                f"family exceeded {BIRTH_CAP} births; p={prob.p!r} is numerically degenerate"
            )
        if random_source.random() < prob.p:
            boys += 1
        else:
            girls += 1
    boys, girls, total, share, martingale = _family_statistics(boys, girls, prob)
    return FamilyOutcome(boys, girls, total, martingale_terminal=martingale, girl_share=share)


def _boy_threshold(p: float) -> int:
    """The T with (x >> 11) * 2^-53 < p  <=>  x < T, for every 64-bit word x.

    Scaling by 2^53 is exact, so (x >> 11) * 2^-53 < p iff the integer
    x >> 11 is below ceil(p * 2^53) =: C, iff x < C * 2^11.  p < 1 keeps
    C <= 2^53 - 1, so T fits in 64 bits.
    """
    return ceil(p * 2.0**53) << 11


def _stop_events(rule: Rule, prob: BirthProbability, samples: int, seed: int) -> Iterator[tuple]:
    """The sampling loop, as events; _BLOCK_SIZE never changes the results.

    ("block", start, stop): families start..stop-1 are live 0..stop-start-1.
    ("stop", hit, births, excess): the live families hit stopped after
        `births` births (an int on a one-birth step, an array on a run step)
        with boys - n = excess.
    ("kept", kept): the live families kept are now live 0..kept.size-1.

    Each call allocates its scratch once and every step writes into views
    of it with ``out=``: the ufuncs and their operands are those of fresh
    arrays, so no output can change.
    """
    import numpy as np

    _check_int("samples", samples, 1)
    seed = _check_seed(seed)
    _check_cap(rule)

    n, k = rule.boys_required, rule.girls_required
    shortest = n + k  # no family stops before its (n+k)-th birth
    threshold = np.uint64(_boy_threshold(prob.p))
    gamma = np.uint64(_GAMMA)
    words, mixed = (np.empty(_BLOCK_SIZE, dtype=np.uint64) for _ in range(2))
    boy, stop = (np.empty(_BLOCK_SIZE, dtype=np.bool_) for _ in range(2))
    counts = np.empty(_BLOCK_SIZE, dtype=np.uint32)
    size = min(samples, _BLOCK_SIZE)
    ordinals = np.arange(1, size + 1, dtype=np.uint32)
    keys = [np.empty(size, dtype=np.uint64) for _ in range(2)]
    excesses = [np.empty(size, dtype=np.uint32) for _ in range(2)]
    for start in range(0, samples, _BLOCK_SIZE):
        count = min(_BLOCK_SIZE, samples - start)
        yield "block", start, start + count
        # Per family still drawing: its stream key and boys - n modulo
        # 2^32.  After `draws` births that excess is at most draws - n - k
        # exactly when n <= boys <= draws - k, i.e. when the family has
        # stopped.
        key, excess = keys[0][:count], excesses[0][:count]
        np.add(ordinals[:count], start, out=key, dtype=np.uint64)
        key *= gamma
        key += np.uint64(seed)
        _mix64_array(key, mixed[:count])
        excess.fill(-n % 2**32)
        half = 0  # which of each pair of arrays holds the live families
        draws = stopped = 0
        while key.size:
            if draws >= BIRTH_CAP:
                raise BirthCapError(
                    f"family exceeded {BIRTH_CAP} births; p={prob.p!r} is numerically degenerate"
                )
            live = key.size
            width = _BLOCK_SIZE // live
            if width < _TAIL_WIDTH:
                draws += 1
                word = np.add(key, np.uint64((draws * _GAMMA) & _MASK64), out=words[:live])
                _mix64_array(word, mixed[:live])
                excess += np.less(word, threshold, out=boy[:live])
                if draws < shortest:
                    continue
                hit = np.flatnonzero(np.less_equal(excess, draws - shortest, out=stop[:live]))
                births, stop_excess = draws, excess.take(hit)
            else:
                # `width` births per family in one (families, width) step,
                # no more than the births drawn so far (at least n + k), so
                # a few short families do not fill the whole block
                width = min(width, max(draws, shortest), BIRTH_CAP - draws)
                shape, used = (live, width), live * width
                run = np.arange(draws + 1, draws + width + 1)  # their birth numbers
                word = words[:used].reshape(shape)
                np.add(key[:, None], run.astype(np.uint64) * gamma, out=word)
                _mix64_array(word, mixed[:used].reshape(shape))
                is_boy = np.less(word, threshold, out=boy[:used].reshape(shape))
                running = counts[:used].reshape(shape)
                np.cumsum(is_boy, axis=1, dtype=np.uint32, out=running)
                running += excess[:, None]
                excess[:] = running[:, -1]
                # compared as int64, so no excess passes a negative limit
                done = np.less_equal(running, run - shortest, out=stop[:used].reshape(shape))
                hit = np.flatnonzero(done[:, -1])
                column = done.take(hit, axis=0).argmax(axis=1)  # first stopping birth
                births, stop_excess = run.take(column), running[hit, column]
                draws += width
            if not hit.size:
                continue
            yield "stop", hit, births, stop_excess
            # A stopped family is dropped once a quarter of the arrays have
            # stopped; until then it draws on with an excess that never
            # passes the test again.
            excess[hit] = _STOPPED
            stopped += hit.size
            if stopped * 4 < live:
                continue
            # index arrays, not boolean masks: a mask over a random half
            # of the families gathers about 5x slower
            kept = np.flatnonzero(np.greater_equal(excess.view(np.int32), -n, out=boy[:live]))
            yield "kept", kept
            # gathered into the other half of each pair; mode="clip" (the
            # indices are in range) lets take write straight into `out`
            half ^= 1
            key, excess = (
                np.take(values, kept, out=pair[half][: kept.size], mode="clip")
                for values, pair in ((key, keys), (excess, excesses))
            )
            stopped = 0


def sample_outcomes(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-family (boys, girls, total) arrays for family indices 0..samples-1."""
    import numpy as np

    rule, prob = as_rule(rule), as_probability(p)
    for kind, *event in _stop_events(rule, prob, samples, seed):
        if kind == "block":
            if not event[0]:  # allocated once the loop has checked every argument
                boys, girls = (np.empty(samples, dtype=np.int64) for _ in range(2))
            family = np.arange(*event)  # the index of each live family
        elif kind == "stop":
            hit, births, excess = event
            at = family.take(hit)
            boys[at] = excess + rule.boys_required
            girls[at] = births - boys[at]
        else:
            family = family.take(event[0])
    return boys, girls, boys + girls


def run_simulation(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    samples: int,
    seed: int,
) -> SimulationSummary:
    """Simulate independent families and aggregate all estimators.

    Deterministic: equal (rule, p, samples, seed) give bit-identical
    summaries, independent of chunking, from per-outcome counts whose
    memory does not grow with samples.
    """
    import numpy as np

    rule = as_rule(rule)
    prob = as_probability(p)
    n, k = rule.boys_required, rule.girls_required
    # A stopped family has exactly n boys or exactly k girls, so its excess
    # (boys - n) - (girls - k) identifies its outcome.
    table: Counter[int] = Counter()
    for kind, *event in _stop_events(rule, prob, samples, seed):
        if kind != "stop":
            continue
        hit, births, excess = event
        if isinstance(births, int):
            # d births past n + k: n boys (boys - n = 0) is outcome -d, and
            # k girls (boys - n = d > 0) is outcome d
            d, girls_met = births - n - k, np.count_nonzero(excess)
            table.update({d: girls_met, -d: hit.size - girls_met})
        else:
            outcome = 2 * excess - births + (n + k)  # as girls - k = births - boys - k
            low = int(outcome.min())
            counts = np.bincount(outcome - low)
            present = np.flatnonzero(counts)
            table.update(dict(zip((present + low).tolist(), counts[present].tolist())))
    rows = [
        (count, _family_statistics(n + max(e, 0), k + max(-e, 0), prob)) for e, count in table.items() if count
    ]
    means = [fsum(count * stats[i] for count, stats in rows) / samples for i in range(5)]
    ses = [
        sqrt(fsum(count * (stats[i] - mean) ** 2 for count, stats in rows) / (samples - 1)) / sqrt(samples)
        if samples > 1 else 0.0
        for i, mean in enumerate(means)
    ]

    mean_boys, mean_girls = means[:2]
    ratio = mean_boys / mean_girls if mean_girls != 0.0 else float("inf")
    return SimulationSummary(samples, _check_seed(seed), *means, *ses, ratio)
