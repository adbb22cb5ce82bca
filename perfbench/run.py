"""Run one familyplan benchmark workload and print its metrics.

    python3 perfbench/run.py --workload tabulate --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the package is imported from
src/.  Workloads: tabulate, certify, simulate, cli (see workloads.py for
what each one does and why it exists).

--trace 0 measures the end-to-end metrics with tracing off: whole rounds
of ops, closed loop, until --seconds of op time and at least 100 ops have
been measured.  --trace 1 is a separate run for the per-layer metrics: it
takes a fixed block of ops (so its counts repeat exactly for one seed) and
runs it alternately with and without the span recorder until --seconds
have passed.  Both print a table, an environment record, and as the last
line one JSON object with correct/attempted/failed/metrics.  --smoke runs
a handful of ops, for the benchmark's own tests; its timings mean nothing.

Spans and results are written under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"

MIN_OPS = 100  # so that ten latency samples lie beyond p90
SETUP_REPEATS = 5
IMPORT_REPEATS = 3
SPAWN_REPEATS = 5
SMOKE_OPS = 6

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "import.familyplan_ms": "ms",
    "import.numpy_ms": "ms",
    "cli.main_self_ms": "ms",
    "cli.spawn_ms": "ms",
    "cli.stdout_bytes": "bytes",
    "series.calls": "count",
    "series.busy_s": "s",
    "series.self_s": "s",
    "series.terms": "count",
    "series.repeat_ratio": "ratio",
    "share.average_share.calls": "count",
    "share.average_share.self_s": "s",
    "share.average_share.terms": "count",
    "analysis.crossing.self_s": "s",
    "analysis.crossing.f_evals": "count",
    "analysis.sweep.self_s": "s",
    "analysis.sweep.cells": "count",
    "analysis.sweep.nan_ratio": "ratio",
    "analysis.csv.busy_s": "s",
    "analysis.csv.bytes": "bytes",
    "symbolic.verify.self_s": "s",
    "symbolic.boys_exact.busy_s": "s",
    "symbolic.boys_exact.repeat_ratio": "ratio",
    "symbolic.format.busy_s": "s",
    "symbolic.evaluate.busy_s": "s",
    "symbolic.coeff_bits_max": "bits",
    "montecarlo.sample.busy_s": "s",
    "montecarlo.aggregate.self_s": "s",
    "montecarlo.families": "count",
    "montecarlo.births": "count",
    "montecarlo.births_per_s": "1/s",
    "montecarlo.peak_alloc_mb": "MB",
    "trace.overhead_pct": "%",
}

SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {bench!r}]
import familyplan
import workloads
workload = workloads.make({name!r}, {seed!r}, None, None)
workload.execute(workload.warmup_op())
print(time.perf_counter() - start)
"""

CLI_SETUP_CHILD = """\
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}]
import familyplan.cli
print(time.perf_counter() - start)
"""


def _child(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True, env=env, cwd=ROOT, timeout=120, check=True
    )


def load_package() -> None:
    """Import familyplan from this checkout's src/, or exit without a result."""
    if not (SRC / "familyplan" / "__init__.py").is_file():
        sys.exit(f"error: no familyplan sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import familyplan

    if Path(familyplan.__file__).resolve().parent != (SRC / "familyplan").resolve():
        sys.exit(f"error: familyplan was imported from {familyplan.__file__}, not {SRC}")


def environment() -> dict:
    """Where a result was measured: revision, versions and the CPU."""
    from importlib import metadata

    rev = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        rev = head.read_text().strip()
        if rev.startswith("ref: "):
            ref = rev[5:]
            loose = ROOT / ".git" / ref
            packed = ROOT / ".git" / "packed-refs"
            if loose.is_file():
                rev = loose.read_text().strip()
            elif packed.is_file():
                rev = next((l.split()[0] for l in packed.read_text().splitlines() if l.endswith(" " + ref)), ref)
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((l.split(":", 1)[1].strip() for l in handle if l.startswith("model name")), cpu)
    except OSError:
        pass
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return {
        "git_rev": rev,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "caches": caches,
    }


def setup_seconds(name: str, seed: int) -> float:
    """Fresh-process time to import the package and run the warm-up op."""
    if name == "cli":
        code = CLI_SETUP_CHILD.format(src=str(SRC))
    else:
        code = SETUP_CHILD.format(src=str(SRC), bench=str(BENCH_DIR), name=name, seed=seed)
    return float(_child(["-c", code]).stdout)


def import_breakdown(repeats: int) -> dict:
    """import.familyplan_ms and import.numpy_ms from -X importtime, medians."""
    samples = {"familyplan": [], "numpy": []}
    for _ in range(repeats):
        stderr = _child(["-X", "importtime", "-c", "import familyplan"]).stderr
        found = dict.fromkeys(samples, 0.0)
        for line in stderr.splitlines():
            match = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if match and match.group(2) in found:
                found[match.group(2)] = int(match.group(1)) / 1e3
        for key, value in found.items():
            samples[key].append(value)
    return {f"import.{key}_ms": statistics.median(values) for key, values in samples.items()}


def spawn_ms(repeats: int) -> float:
    """Bare-interpreter floor: median wall time of `python -c pass`."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


class Tally:
    """Attempted and failed ops, with the first few failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def fail(self, what: str, detail: str) -> None:
        self.failed += 1
        if self.failed <= 5:
            print(f"FAILED {what}: {detail}", file=sys.stderr)


def run_round(workload, ops, tally: Tally, recorder=None, op_base: int = 0) -> tuple[list, list]:
    """Run ops back to back (closed loop), then check every output.

    The recorder, if given, is installed for the ops only, never for the
    checks.  Returns the per-op latencies and outputs (None for an op that
    raised).
    """
    from workloads import Mismatch

    if hasattr(workload, "before_round"):
        workload.before_round()
    latencies, outputs = [], []
    if recorder is not None:
        recorder.install()
    try:
        for index, op in enumerate(ops):
            if recorder is not None:
                recorder.op = op_base + index
            start = time.perf_counter()
            try:
                output = workload.execute(op)
            except Exception:  # an op that raises is a failed op, not a crashed benchmark
                output = traceback.format_exc()
                failed = True
            else:
                failed = False
            latencies.append(time.perf_counter() - start)
            outputs.append(None if failed else output)
            tally.attempted += 1
            if failed:
                tally.fail(repr(op), output)
    finally:
        if recorder is not None:
            recorder.uninstall()
    for op, output in zip(ops, outputs):
        if output is None:
            continue
        try:
            workload.check(op, output)
        except Mismatch as err:
            tally.fail(repr(op), str(err))
        except Exception:
            tally.fail(repr(op), traceback.format_exc())
    if hasattr(workload, "check_round"):
        try:
            workload.check_round(ops, outputs)
        except Mismatch as err:
            tally.fail("round check", str(err))
    return latencies, outputs


def timed_run(workload, args, tally: Tally) -> dict:
    """End-to-end metrics with tracing off."""
    # set-up samples are spread over the run, so that they meet the same
    # host conditions as the ops do
    repeats = 1 if args.smoke else SETUP_REPEATS
    setups = [setup_seconds(args.workload, args.seed)]
    workload.execute(workload.warmup_op())
    latencies, families, rounds = [], 0, 0
    while True:
        if len(setups) < repeats and sum(latencies) >= len(setups) * args.seconds / repeats:
            setups.append(setup_seconds(args.workload, args.seed))
        ops = workload.round()
        if args.smoke:
            ops = ops[:SMOKE_OPS]
        round_latencies, outputs = run_round(workload, ops, tally)
        latencies += round_latencies
        rounds += 1
        families += sum(op[3] for op in ops if op[0] == "simulate")
        if args.smoke or (sum(latencies) >= args.seconds and len(latencies) >= MIN_OPS):
            break
    while len(setups) < repeats:
        setups.append(setup_seconds(args.workload, args.seed))
    busy = sum(latencies)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_s": len(latencies) / busy,
        "latency_p50_ms": 1e3 * statistics.median(latencies),
        "latency_p90_ms": 1e3 * statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
    }
    extra = {
        "fail_ratio": (tally.failed / tally.attempted, "ratio"),
        "latency_samples": (len(latencies), "count"),
        "rounds": (rounds, "count"),
    }
    if families:
        extra["families_s"] = (families / busy, "1/s")
    return metrics, extra


def traced_run(workload, args, tally: Tally) -> dict:
    """Per-layer metrics: a fixed block of ops, alternately traced and untraced."""
    import spans

    metrics = import_breakdown(1 if args.smoke else IMPORT_REPEATS)
    metrics["cli.spawn_ms"] = 0.0
    if args.workload == "cli":
        workload.in_process = True
        metrics["cli.spawn_ms"] = spawn_ms(1 if args.smoke else SPAWN_REPEATS)
    workload.execute(workload.warmup_op())
    block = [workload.round() for _ in range(workload.trace_rounds)]
    if args.smoke:
        block = [block[0][:SMOKE_OPS]]

    span_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    span_file.unlink(missing_ok=True)

    def run_pass(recorder) -> tuple[float, list]:
        pass_time, op_base, outputs = 0.0, 0, []
        for ops in block:
            latencies, round_outputs = run_round(workload, ops, tally, recorder, op_base)
            pass_time += sum(latencies)
            op_base += len(ops)
            outputs += round_outputs
        return pass_time, outputs

    # The first pass gives the counts and, through tracemalloc, the
    # allocation peaks.  tracemalloc slows the ops it watches, so that pass
    # is kept out of the timings.
    first = spans.Recorder(measure_alloc=True)
    _, outputs = run_pass(first)
    first.dump(span_file, 0)
    counts = spans.layer_metrics(first)
    if args.workload == "cli":
        metrics["cli.stdout_bytes"] = statistics.mean(len(out[1].encode()) for out in outputs if out is not None)
    else:
        metrics["cli.stdout_bytes"] = 0.0

    traced_times, plain_times, layers = [], [], []
    while not (traced_times and plain_times and (args.smoke or sum(traced_times + plain_times) >= args.seconds)):
        recorder = spans.Recorder() if len(traced_times) <= len(plain_times) else None
        pass_time, _ = run_pass(recorder)
        if recorder is None:
            plain_times.append(pass_time)
            continue
        traced_times.append(pass_time)
        layers.append(spans.layer_metrics(recorder))
        recorder.dump(span_file, len(traced_times))
        changed = [name for name in spans.EXACT_COUNTS if layers[-1][name] != counts[name]]
        if changed:
            tally.fail("traced pass", f"exact counts changed between passes: {changed}")

    for name, value in counts.items():
        exact = name in spans.EXACT_COUNTS or name == "montecarlo.peak_alloc_mb"
        metrics[name] = value if exact else statistics.median(layer[name] for layer in layers)
    overhead = statistics.median(traced_times) / statistics.median(plain_times) - 1.0
    metrics["trace.overhead_pct"] = 100.0 * overhead
    return metrics, {"traced_passes": (len(traced_times), "count"), "untraced_passes": (len(plain_times), "count")}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("tabulate", "certify", "simulate", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="op time to measure")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="a handful of ops, for the benchmark's tests")
    args = parser.parse_args(argv)

    load_package()
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    env = environment()
    tally = Tally()
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="work-") as workdir:
        workload = workloads.make(args.workload, args.seed, Path(workdir), SRC)
        run = traced_run if args.trace else timed_run
        metrics, extra = run(workload, args, tally)

    units = PER_LAYER_UNITS if args.trace else END_TO_END_UNITS
    missing = set(units) - set(metrics)
    if missing:
        raise RuntimeError(f"metrics not computed: {sorted(missing)}")
    for name, unit in units.items():
        print(f"{args.workload:<9} {name:<34} {metrics[name]:>16.6g} {unit}")
    for name, (value, unit) in extra.items():
        print(f"{args.workload:<9} {name:<34} {value:>16.6g} {unit}")
    print("env: " + json.dumps(env))

    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace, env=env,
                  extra={name: value for name, (value, _unit) in extra.items()})
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=2) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
