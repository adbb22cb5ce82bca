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
exactly, because scaling by 2^53 is exact.  Once few families of a block
are unstopped it draws a run of births per family in one step and
discards the births drawn after a family's stopping birth, so each
outcome still depends only on its own family's stream.

The scalar path (``FamilyStream`` + ``simulate_family``) and the batched
numpy path (``sample_outcomes`` and ``run_simulation``) evaluate the same
function and agree bit for bit.  numpy is imported on the first batched
call, not with the package, so the other methods start without it.

``run_simulation`` keeps no per-family arrays: each block of families is
reduced to a count per distinct (boys, girls) outcome, blocks merge by
adding counts, and every summary field is an fsum over the merged table.
So the summary does not depend on the block size, and memory does not
grow with the number of samples.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import asdict, astuple, dataclass
from math import ceil, fsum, sqrt
from typing import TYPE_CHECKING, Iterator, Protocol

from .core import (
    BirthProbability,
    Rule,
    _check_int,
    _family_statistics,
    _outcome_moments,
    _require_stoppable,
    as_probability,
    as_rule,
)
from .errors import BirthCapError, DomainError

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
# Excess of a family that stopped: far above any birth count, so it never
# passes the stop test again (see _sample_blocks).
_STOPPED = 1 << 31


def _mix64(x: int) -> int:
    x &= _MASK64
    x ^= x >> 30
    x = (x * _MIX1) & _MASK64
    x ^= x >> 27
    x = (x * _MIX2) & _MASK64
    return x ^ (x >> 31)


def _mix64_array(x: np.ndarray) -> np.ndarray:
    """mix64 of every word of x, computed in place in x."""
    import numpy as np

    x ^= x >> np.uint64(30)
    x *= np.uint64(_MIX1)
    x ^= x >> np.uint64(27)
    x *= np.uint64(_MIX2)
    x ^= x >> np.uint64(31)
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


@dataclass(frozen=True)
class FamilyOutcome:
    """One simulated family at its stopping time."""

    boys: int
    girls: int
    total: int
    martingale_terminal: float
    girl_share: float

    def __post_init__(self) -> None:
        if self.boys + self.girls != self.total or self.total < 1:
            raise DomainError("boys + girls must equal total >= 1")


@dataclass(frozen=True)
class SimulationSummary:
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
        return asdict(self)


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
    rule = _require_stoppable(as_rule(rule))
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


def _sample_blocks(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    samples: int,
    seed: int,
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Per-family int32 (boys, girls) arrays, one pair per block of family indices.

    Batched evaluation of the same per-family streams as FamilyStream;
    _BLOCK_SIZE only controls working memory, never the results.  While
    many families of a block are unstopped, a step draws one birth for
    each; once few are, a step draws a run of births for each and
    discards those after a family's stopping birth.
    """
    import numpy as np

    rule = _require_stoppable(as_rule(rule))
    prob = as_probability(p)
    _check_int("samples", samples, 1)
    seed = _check_seed(seed)
    _check_cap(rule)

    n, k = rule.boys_required, rule.girls_required
    shortest = n + k  # no family stops before its (n+k)-th birth
    threshold = np.uint64(_boy_threshold(prob.p))
    gamma = np.uint64(_GAMMA)
    for start in range(0, samples, _BLOCK_SIZE):
        count = min(_BLOCK_SIZE, samples - start)
        # Per family still drawing: its stream key, its block position (-1
        # once stopped), and boys - n modulo 2^32.  After `draws` births
        # that excess is at most draws - n - k exactly when
        # n <= boys <= draws - k, i.e. when the family has stopped.
        key = np.arange(start + 1, start + count + 1, dtype=np.uint64)
        key = _mix64_array(key * gamma + np.uint64(seed))
        where = np.arange(count, dtype=np.int32)
        excess = np.full(count, -n % 2**32, dtype=np.uint32)
        boys = np.empty(count, dtype=np.int32)
        girls = np.empty(count, dtype=np.int32)
        draws = stopped = 0
        while key.size:
            if draws >= BIRTH_CAP:
                raise BirthCapError(
                    f"family exceeded {BIRTH_CAP} births; p={prob.p!r} is numerically degenerate"
                )
            width = _BLOCK_SIZE // key.size
            if width < _TAIL_WIDTH:
                draws += 1
                word = _mix64_array(key + np.uint64((draws * _GAMMA) & _MASK64))
                excess += word < threshold
                del word
                if draws < shortest:
                    continue
                hit = np.flatnonzero(excess <= draws - shortest)
                births, stop_excess = draws, excess.take(hit)
            else:
                # `width` births per family in one (families, width) step
                width = min(width, BIRTH_CAP - draws)
                run = np.arange(draws + 1, draws + width + 1)  # their birth numbers
                word = _mix64_array(key[:, None] + run.astype(np.uint64) * gamma)
                running = np.cumsum(word < threshold, axis=1, dtype=np.uint32)
                del word
                running += excess[:, None]
                excess = running[:, -1].copy()
                # compared as int64, so no excess passes a negative limit
                done = running <= run - shortest
                hit = np.flatnonzero(done[:, -1])
                column = done.take(hit, axis=0).argmax(axis=1)  # first stopping birth
                del done
                births, stop_excess = run.take(column), running[hit, column]
                del running
                draws += width
            at = where.take(hit)
            boys[at] = stop_excess + n
            girls[at] = births - boys[at]
            # A stopped family is dropped once a quarter of the arrays have
            # stopped; until then it draws on with an excess that never
            # passes the test again.
            excess[hit] = _STOPPED
            where[hit] = -1
            stopped += hit.size
            if stopped * 4 < key.size:
                continue
            # index arrays, not boolean masks: a mask over a random half
            # of the families gathers about 5x slower
            live = np.flatnonzero(where >= 0)
            key, where, excess = key.take(live), where.take(live), excess.take(live)
            stopped = 0
        yield boys, girls


def sample_outcomes(
    rule: Rule | tuple[int, int],
    p: BirthProbability | float,
    samples: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-family (boys, girls, total) arrays for family indices 0..samples-1."""
    import numpy as np

    blocks = _sample_blocks(rule, p, samples, seed)
    boys, girls = (np.concatenate(arrays, dtype=np.int64) for arrays in zip(*blocks))
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
    for boys, girls in _sample_blocks(rule, prob, samples, seed):
        excess = (boys - n) - (girls - k)
        low = int(excess.min())
        counts = np.bincount(excess - low)
        present = np.flatnonzero(counts)
        table.update(dict(zip((present + low).tolist(), counts[present].tolist())))
    outcomes = [(n + max(e, 0), k + max(-e, 0), count) for e, count in table.items()]

    means = [total / samples for total in astuple(_outcome_moments(outcomes, prob))[1:]]
    ses = [0.0] * len(means)
    if samples > 1:
        squares: list[list[float]] = [[] for _ in means]
        for boys, girls, count in outcomes:
            stats = _family_statistics(boys, girls, prob)
            for column, stat, mean in zip(squares, stats, means):
                column.append(count * (stat - mean) ** 2)
        ses = [sqrt(fsum(column) / (samples - 1)) / sqrt(samples) for column in squares]

    mean_boys, mean_girls = means[:2]
    ratio = mean_boys / mean_girls if mean_girls != 0.0 else float("inf")
    return SimulationSummary(samples, _check_seed(seed), *means, *ses, ratio)
