"""In-memory span recorder for the traced run, and the per-layer metrics it yields.

The traced run wraps the public functions of each familyplan layer from
here, at run time; nothing in src/ knows about it.  A wrapped name is
replaced wherever a module binds it (analysis and share import the series
functions by name, run_simulation looks up the module-level
sample_outcomes), so nested calls are recorded too.  Each span keeps its
name, start, end, parent span and op id; self time is a span's duration
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
import tracemalloc
from dataclasses import asdict, dataclass, field

from familyplan import analysis, cli, core, montecarlo, series, share, symbolic


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int = -1
    key: tuple | None = None
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _rule(rule) -> tuple[int, int]:
    if isinstance(rule, core.Rule):
        return rule.boys_required, rule.girls_required
    return tuple(rule)


def _p(p) -> float:
    return p.p if isinstance(p, core.BirthProbability) else float(p)


def _series(args, kwargs, result):
    rule, p, tol = args
    counts = {"terms": result.terms_used} if isinstance(result, series.SeriesResult) else {}
    return (_rule(rule), _p(p), tol), counts


def _sweep(args, kwargs, result):
    cells = sum(len(row.quantities) for row in result)
    nans = sum(math.isnan(v) for row in result for v in row.quantities.values())
    return None, {"cells": cells, "nans": nans}


def _csv(args, kwargs, result):
    return None, {"bytes": len(result.encode())}


def _coefficient_bits(functions) -> int:
    return max(
        max(c.numerator.bit_length(), c.denominator.bit_length())
        for f in functions
        for poly in (f.numerator, f.denominator)
        for c in poly.coefficients
    )


def _boys_exact(args, kwargs, result):
    return tuple(args[:2]), {"coeff_bits": _coefficient_bits([result])}


def _verify(args, kwargs, result):
    return tuple(args[:2]), {"coeff_bits": _coefficient_bits([result.lhs, result.rhs])}


def _simulation(args, kwargs, result):
    # mean_total is a mean of integers below 2^51, so this product rounds exactly
    births = round(result.mean_total * result.samples)
    return None, {"families": result.samples, "births": births}


# (span name, owner, attribute, describe): describe(args, kwargs, result)
# returns the span's key and its counts, read after the span has ended.
LAYERS = (
    ("series.expected_boys", series, "expected_boys", _series),
    ("series.expected_girls", series, "expected_girls", _series),
    ("series.expected_family_size", series, "expected_family_size", _series),
    ("series.gender_ratio", series, "gender_ratio", _series),
    ("share.average_share", share, "average_share", _series),
    ("analysis.crossing", analysis, "crossing_probability", None),
    ("analysis.sweep", analysis, "sweep", _sweep),
    ("analysis.csv", analysis, "sweep_to_csv", _csv),
    ("symbolic.verify", symbolic, "verify_ratio_identity", _verify),
    ("symbolic.boys_exact", symbolic, "expected_boys_exact", _boys_exact),
    ("symbolic.evaluate", symbolic, "evaluate_exact", None),
    ("symbolic.format", symbolic.RationalFunction, "__str__", None),
    ("montecarlo.run", montecarlo, "run_simulation", _simulation),
    ("montecarlo.sample", montecarlo, "sample_outcomes", None),
    ("cli.main", cli, "main", None),
)


class Recorder:
    """Collects spans while installed; install() and uninstall() patch the layers.

    With measure_alloc, each run_simulation call also runs under
    tracemalloc, and peak_alloc keeps the largest peak.
    """

    def __init__(self, measure_alloc: bool = False) -> None:
        self.measure_alloc = measure_alloc
        self.spans: list[Span] = []
        self.op = -1
        self.peak_alloc = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, describe):
        spans, stack = self.spans, self._stack
        measure_alloc = self.measure_alloc and name == "montecarlo.run"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, parent=stack[-1] if stack else None, op=self.op)
            stack.append(len(spans))
            spans.append(span)
            if measure_alloc:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if measure_alloc:
                    self.peak_alloc = max(self.peak_alloc, tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if describe is not None:
                span.key, span.counts = describe(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n == "familyplan" or n.startswith("familyplan.")]
        for name, owner, attribute, describe in LAYERS:
            original = getattr(owner, attribute)
            wrapper = self._wrap(name, original, describe)
            targets = [owner] if isinstance(owner, type) else modules
            for target in targets:
                for bound, value in list(vars(target).items()):
                    if value is original:
                        self._patches.append((target, bound, original))
                        setattr(target, bound, wrapper)

    def uninstall(self) -> None:
        for target, bound, original in reversed(self._patches):
            setattr(target, bound, original)
        self._patches.clear()

    def dump(self, path, pass_index: int) -> None:
        with open(path, "a") as handle:
            for index, span in enumerate(self.spans):
                record = asdict(span)
                record.update(index=index, traced_pass=pass_index)
                handle.write(json.dumps(record, default=list) + "\n")


def layer_metrics(recorder: Recorder) -> dict[str, float]:
    """Per-layer busy time, self time and exact work counts for one traced pass."""
    spans = recorder.spans
    covered = [0.0] * len(spans)
    has_series_child = [False] * len(spans)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.duration
            if span.name.startswith("series."):
                has_series_child[span.parent] = True

    def self_time(i):
        return spans[i].duration - covered[i]

    def named(prefix):
        return [i for i, s in enumerate(spans) if s.name.startswith(prefix)]

    def outermost(indices, prefix):
        return [i for i in indices if spans[i].parent is None or not spans[spans[i].parent].name.startswith(prefix)]

    def repeat_ratio(indices):
        seen, repeats = set(), 0
        for i in indices:
            key = (spans[i].op, spans[i].name, spans[i].key)
            repeats += key in seen
            seen.add(key)
        return repeats / len(indices) if indices else 0.0

    def total(indices, count):
        return sum(spans[i].counts.get(count, 0) for i in indices)

    series_all = named("series.")
    series_leaf = [i for i in series_all if not has_series_child[i]]
    average = named("share.average_share")
    crossing = named("analysis.crossing")
    sweep = named("analysis.sweep")
    csv_spans = named("analysis.csv")
    verify = named("symbolic.verify")
    boys_exact = named("symbolic.boys_exact")
    runs = named("montecarlo.run")
    samples = named("montecarlo.sample")
    mains = named("cli.main")

    f_evals = sum(
        1
        for i in series_leaf
        if spans[i].name == "series.expected_family_size"
        and spans[i].parent is not None
        and spans[spans[i].parent].name == "analysis.crossing"
    )
    cells = total(sweep, "cells")
    run_busy = sum(spans[i].duration for i in runs)
    births = total(runs, "births")
    return {
        "cli.main_self_ms": 1e3 * sum(map(self_time, mains)) / len(mains) if mains else 0.0,
        "series.calls": len(series_leaf),
        "series.busy_s": sum(spans[i].duration for i in outermost(series_all, "series.")),
        "series.self_s": sum(map(self_time, series_all)),
        "series.terms": total(series_leaf, "terms"),
        "series.repeat_ratio": repeat_ratio(series_leaf),
        "share.average_share.calls": len(average),
        "share.average_share.self_s": sum(map(self_time, average)),
        "share.average_share.terms": total(average, "terms"),
        "analysis.crossing.self_s": sum(map(self_time, crossing)),
        "analysis.crossing.f_evals": f_evals / len(crossing) if crossing else 0.0,
        "analysis.sweep.self_s": sum(map(self_time, sweep)),
        "analysis.sweep.cells": cells,
        "analysis.sweep.nan_ratio": total(sweep, "nans") / cells if cells else 0.0,
        "analysis.csv.busy_s": sum(spans[i].duration for i in csv_spans),
        "analysis.csv.bytes": total(csv_spans, "bytes"),
        "symbolic.verify.self_s": sum(map(self_time, verify)),
        "symbolic.boys_exact.busy_s": sum(spans[i].duration for i in boys_exact),
        "symbolic.boys_exact.repeat_ratio": repeat_ratio(boys_exact),
        "symbolic.format.busy_s": sum(spans[i].duration for i in named("symbolic.format")),
        "symbolic.evaluate.busy_s": sum(spans[i].duration for i in named("symbolic.evaluate")),
        "symbolic.coeff_bits_max": max((spans[i].counts["coeff_bits"] for i in verify + boys_exact), default=0),
        "montecarlo.sample.busy_s": sum(spans[i].duration for i in samples),
        "montecarlo.aggregate.self_s": sum(map(self_time, runs)),
        "montecarlo.families": total(runs, "families"),
        "montecarlo.births": births,
        "montecarlo.births_per_s": births / run_busy if run_busy else 0.0,
        "montecarlo.peak_alloc_mb": recorder.peak_alloc / 2**20,
    }


# counts that must repeat exactly between traced passes over the same ops
EXACT_COUNTS = (
    "series.calls",
    "series.terms",
    "share.average_share.calls",
    "share.average_share.terms",
    "analysis.crossing.f_evals",
    "analysis.sweep.cells",
    "analysis.csv.bytes",
    "symbolic.coeff_bits_max",
    "montecarlo.families",
    "montecarlo.births",
)
