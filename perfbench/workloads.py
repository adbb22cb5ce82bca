"""The four benchmark workloads: seeded op generators, op execution, output checks.

Every workload is a closed loop with one caller.  Ops come in rounds; a
round is a balanced design (every cost level appears once, the seed picks
the concrete inputs and their order), so that the work in a round, and
with it every end-to-end figure, hardly depends on the seed.  The harness
only ever measures whole rounds.

An op is plain data (tuples, strings, numbers) so that it can be shown,
compared between seeds and sent to a fresh interpreter as JSON.  The
program under test sees only these generated inputs.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from familyplan import analysis, cli, core, montecarlo, series, share, symbolic

TOL = 1e-10
PHI = (math.sqrt(5.0) - 1.0) / 2.0


class Mismatch(Exception):
    """An op's output failed its correctness check."""


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise Mismatch(message)


def _label(kind: str, rule) -> str:
    return f"{kind}({rule[0]},{rule[1]})"


def clear_caches() -> None:
    """Drop every lru_cache in the package, as a fresh process starts with."""
    for name, module in list(sys.modules.items()):
        if name == "familyplan" or name.startswith("familyplan."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


# --------------------------------------------------------------------------
# tabulate
# --------------------------------------------------------------------------


class Tabulate:
    """Library sweeps with CSV emission, plus rule crossings, at tol 1e-10.

    Why: it puts most of the time in series, share and analysis.  Near-edge
    p (down to 0.005, up to 0.995) is where term counts grow like
    1/min(p, 1-p), the cost the Wald finite sum would remove.  ratio and
    societal_share cells recompute B, G and F at the same p, so a cache
    would show here and nowhere else.

    A round is 9 sweeps and 3 crossings, one per crossing pair (a quarter
    of the ops).  The sweeps follow a fixed cost design: one per (number of
    rules, number of quantities) in {1,2,3}^2; grid sizes on 9 levels over
    11..41; low-edge, high-edge and full p ranges in a Latin square over
    those; and each sweep with 2 or 3 quantities gets one of the two-call
    quantities (ratio, societal_share).  Across a round each quantity
    appears 3 times.  The seed picks the rules, which quantity fills each
    slot, the free end of each p range and the op order, so the work per
    round hardly depends on it.
    """

    name = "tabulate"
    trace_rounds = 2

    RULES = [(n, k) for n in range(7) for k in range(7) if n + k]
    # (rules, quantities, steps, p range) for the 9 sweeps of a round
    DESIGN = [
        (1 + i // 3, 1 + i % 3, 11 + round(30 * ((4 * i) % 9) / 8), ("low", "high", "both")[(i + i // 3) % 3])
        for i in range(9)
    ]
    TWO_CALL = ("ratio", "societal_share")  # B and G, or G and F, per cell
    ONE_CALL = ("F", "G", "B", "average_share")
    # pairs that do cross, with their exact crossing point
    CROSSINGS = (((1, 1), (2, 0), PHI), ((1, 1), (0, 2), 1.0 - PHI), ((2, 0), (0, 2), 0.5))

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def warmup_op(self):
        return ("sweep", ((1, 1), (2, 0)), ("F", "ratio"), 0.1, 0.9, 11)

    def _deal_quantities(self) -> list[list[str]]:
        rng = self.rng
        two_call = list(self.TWO_CALL) * 3
        rng.shuffle(two_call)
        while True:
            one_call = list(self.ONE_CALL) * 3
            rng.shuffle(one_call)
            dealt = []
            for _rules, count, _steps, _edge in self.DESIGN:
                group = [two_call[len(dealt) - 3]] if count > 1 else []
                while len(group) < count:
                    group.append(one_call.pop())
                dealt.append(group)
            if all(len(set(group)) == len(group) for group in dealt):
                return dealt

    def round(self) -> list:
        rng = self.rng
        ops = []
        for (nrules, _count, steps, edge), quantities in zip(self.DESIGN, self._deal_quantities()):
            rules = tuple(rng.sample(self.RULES, nrules))
            if edge == "low":
                lo, hi = 0.005, round(rng.uniform(0.4, 0.95), 4)
            elif edge == "high":
                lo, hi = round(rng.uniform(0.05, 0.6), 4), 0.995
            else:
                lo, hi = 0.005, 0.995
            rng.shuffle(quantities)
            ops.append(("sweep", rules, tuple(quantities), lo, hi, steps))
        for a, b, _root in self.CROSSINGS:
            if rng.random() < 0.5:
                a, b = b, a
            ops.append(("crossing", a, b))
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        if op[0] == "crossing":
            return analysis.crossing_probability(op[1], op[2], TOL)
        _, rules, quantities, lo, hi, steps = op
        rows = analysis.sweep(list(rules), list(quantities), lo, hi, steps, TOL)
        return rows, analysis.sweep_to_csv(rows)

    def check(self, op, output) -> None:
        if op[0] == "crossing":
            pair = {frozenset((a, b)): root for a, b, root in self.CROSSINGS}
            root = pair[frozenset((op[1], op[2]))]
            _expect(abs(output - root) <= 1e-9, f"crossing {output!r}, expected {root!r}")
            return
        _, rules, quantities, _lo, _hi, steps = op
        rows, text = output
        _expect(len(rows) == steps, f"{len(rows)} rows for {steps} steps")
        for row in rows:
            p = row.p
            for name, value in row.quantities.items():
                _expect(not math.isnan(value), f"NaN cell {name} at p={p!r}")
            for rule in rules:
                if "ratio" in quantities:
                    odds = p / (1.0 - p)
                    got = row.quantities[_label("ratio", rule)]
                    _expect(abs(got - odds) <= 1e-8 * odds, f"ratio{rule} {got!r} at p={p!r}")
                if "F" in quantities and rule in ((1, 1), (2, 0)):
                    closed = series.closed_form("F_H" if rule == (1, 1) else "F_S", p)
                    got = row.quantities[_label("F", rule)]
                    _expect(abs(got - closed) <= 1e-9, f"F{rule} {got!r} vs closed form {closed!r}")
        parsed = list(csv.reader(io.StringIO(text)))
        _expect(parsed[0] == ["p"] + list(rows[0].quantities), "CSV header")
        _expect(len(parsed) == len(rows) + 1, "CSV row count")
        for row, fields in zip(rows, parsed[1:]):
            values = [row.p] + list(row.quantities.values())
            _expect([float(f) for f in fields] == values, f"CSV row at p={row.p!r}")

    def check_round(self, ops, outputs) -> None:
        """Series partial sums against the brute-force oracle for one cell per round."""
        for op, output in zip(ops, outputs):
            if op[0] == "sweep" and output is not None:
                rule, p = op[1][0], output[0][len(output[0]) // 2].p
                horizon = min(sum(rule) + 4, 12)
                got = series.truncated_moments(rule, p, horizon)
                ref = core.enumerate_brute_force(rule, p, horizon)
                for field in ("mass_covered", "boys", "girls", "total", "girl_share", "martingale"):
                    a, b = getattr(got, field), getattr(ref, field)
                    _expect(
                        abs(a - b) <= 1e-12 * max(1.0, abs(b)),
                        f"truncated_moments{rule} at p={p!r}: {field} {a!r} vs brute force {b!r}",
                    )
                clear_caches()  # the oracle's sequence cache is not the program's memory
                return


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------


class Certify:
    """Exact ratio certificates for every rule with n, k <= 10.

    Why: nearly all of the time goes to symbolic (exact polynomial and
    rational algebra), which no other workload gives real work.

    A round is one pass of `familyplan verify --json` over the grid: for
    each rule, in seeded order, verify_ratio_identity, expected_boys_exact
    and str() of B, lhs and rhs; then evaluate_exact of B at a few dyadic
    p.  Each round starts with a cold exact cache, as every `familyplan
    verify` process does.
    """

    name = "certify"
    trace_rounds = 1

    RULES = [(n, k) for n in range(11) for k in range(11) if n + k]
    EVALUATIONS = 8

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def warmup_op(self):
        return ("rule", 2, 2)

    def before_round(self) -> None:
        clear_caches()

    def round(self) -> list:
        rng = self.rng
        ops = [("rule", n, k) for n, k in rng.sample(self.RULES, len(self.RULES))]
        for _ in range(self.EVALUATIONS):
            n, k = rng.choice(self.RULES)
            # dyadic p is exact as a float, so the series runs at the same p
            ops.append(("evaluate", n, k, rng.randint(52, 972), 1024))
        return ops

    def execute(self, op):
        if op[0] == "evaluate":
            _, n, k, num, den = op
            return symbolic.evaluate_exact(symbolic.expected_boys_exact(n, k), Fraction(num, den))
        _, n, k = op
        cert = symbolic.verify_ratio_identity(n, k)
        boys = symbolic.expected_boys_exact(n, k)
        return cert, boys, (str(boys), str(cert.lhs), str(cert.rhs))

    def check(self, op, output) -> None:
        if op[0] == "evaluate":
            _, n, k, num, den = op
            ref = series.expected_boys((n, k), num / den, TOL)
            error = abs(Fraction(ref.value) - output)
            # The series value is a float, so even a correctly rounded sum
            # lies up to half an ulp from the truncated sum; where tail_bound
            # is tight, as for (1,0), that alone exceeds it.  One ulp is
            # allowed for this: over every rule and every p this workload
            # draws, no series value is off by more than 0.58 ulp beyond its
            # tail_bound.  Rounding beyond one ulp still fails.
            _expect(
                error <= Fraction(ref.tail_bound) + Fraction(math.ulp(ref.value)),
                f"B({n},{k}) at p={num}/{den}: exact {float(output)!r}, series {ref.value!r} "
                f"+- {ref.tail_bound!r}",
            )
            return
        _, n, k = op
        cert, boys, texts = output
        _expect(cert.holds is True, f"certificate ({n},{k}) does not hold")
        _expect((cert.boys_required, cert.girls_required) == (n, k), "certificate rule")
        _expect(all(texts) and texts[0].startswith("("), f"formatting of B({n},{k})")


# --------------------------------------------------------------------------
# simulate
# --------------------------------------------------------------------------


MEAN_FIELDS = ("boys", "girls", "total", "girl_share")
# A correct sampler fails one mean check with at most this probability, plus
# the chance that a family falls in the 1e-12 of pmf mass left out.
FALSE_ALARM = 1e-9


def _improbable(outcomes, weights, samples: int, deviation: float) -> bool:
    """Whether a mean of `samples` families this far off its true mean is rarer than FALSE_ALARM.

    outcomes are one family's values minus their true mean, with
    probabilities weights.  Chernoff's bound, P(mean - mu >= d) <=
    exp(-samples * (l*d - log E exp(l*Y))) for every l >= 0, holds for
    any distribution.  A z-test does not: where rare outcomes carry the
    variance, as for boys under (1,1) at p=0.1 with 1e3 families, its
    normal tail is far too thin: a correct sampler lands beyond 4
    standard errors 16 times as often as a normal mean would.
    """
    if deviation < 0.0:
        outcomes, deviation = -outcomes, -deviation
    if deviation == 0.0:
        return False
    if deviation >= outcomes.max():
        return True
    target = math.log(2.0 / FALSE_ALARM) / samples  # both tails together

    def tilt(lam: float) -> tuple[float, float]:
        """log E exp(lam*Y), and the mean of Y under weights tilted by exp(lam*Y)."""
        z = lam * outcomes
        top = z.max()
        tilted = weights * np.exp(z - top)
        total = tilted.sum()
        return top + math.log(total), float(tilted @ outcomes) / total

    # l*d - log E exp(l*Y) is concave in l and peaks where the tilted mean
    # reaches d; any l gives a valid bound, so bisection may stop early
    lo, hi = 0.0, 1.0 / outcomes.max()
    for _ in range(200):
        if tilt(hi)[1] >= deviation:
            break
        lo, hi = hi, 2.0 * hi
    for _ in range(50):
        mid = 0.5 * (lo + hi)
        log_mgf, tilted_mean = tilt(mid)
        if mid * deviation - log_mgf > target:
            return True
        if tilted_mean < deviation:
            lo = mid
        else:
            hi = mid
    return False


class Simulate:
    """run_simulation calls with log-uniform sample counts in [1e3, 1e6].

    Why: the sampler, the aggregation and the per-family arrays do most of
    the work.  Skewed p gives long families and many rounds with a
    shrinking active set.  The 1e6 calls set peak_rss_mb, the number that
    streaming aggregation must lower.

    A round has one op per (rule, p) pair, 30 in all.  The log range of
    sample counts is cut into 30 strata and each pair keeps its stratum
    (a fixed scrambled map, so that every rule and every p gets small and
    large counts); the seed draws the count within the stratum, the op
    order and each op's simulation seed.  The top stratum is pinned at
    1e6, so every run reaches the peak memory of a 1e6 call.  A 31st op
    repeats one fixed call, whose to_dict() must come out byte-identical
    every time (the reproducibility contract); with an odd op count per
    round the median latency falls on one op's samples, not in the gap
    between two.
    """

    name = "simulate"
    trace_rounds = 1

    RULES = ((1, 1), (2, 0), (0, 2), (2, 2), (3, 1), (1, 3))
    PAIRS = [(rule, p) for rule in RULES for p in (0.1, 0.3, 0.5, 0.7, 0.9)]
    PROBE = ("simulate", (2, 2), 0.3, 5_000, 20240817)

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)
        self.expected: dict = {}
        self.probe_bytes = None

    def warmup_op(self):
        return ("simulate", (1, 1), 0.5, 10_000, self.rng.getrandbits(32))

    def round(self) -> list:
        rng = self.rng
        strata = len(self.PAIRS)
        ops = []
        for j, (rule, p) in enumerate(self.PAIRS):
            stratum = (7 * j) % strata
            if stratum == strata - 1:
                samples = 1_000_000
            else:
                samples = round(10 ** (3 + 3 * (stratum + rng.random()) / strata))
            ops.append(("simulate", rule, p, samples, rng.getrandbits(63)))
        ops.append(self.PROBE)
        rng.shuffle(ops)
        return ops

    def execute(self, op):
        _, rule, p, samples, seed = op
        return montecarlo.run_simulation(rule, p, samples, seed)

    def _reference(self, rule, p):
        """Series means, and each field's per-family distribution from the exact stopping pmf.

        The test uses the distribution under the model, not the sample's:
        when an outcome is rare (4 girls under (1,3) at p=0.9 has
        probability 1e-4) a sample that happens to hold few of them reports
        a spread far below the true one.
        """
        if (rule, p) not in self.expected:
            n, k = rule
            values = {name: [] for name in (*MEAN_FIELDS, "martingale")}
            weights = []
            mass, t = 0.0, n + k
            while mass < 1.0 - 1e-12 and t < 100_000:
                for last_boy, weight in zip((True, False), core.stopping_pmf_components(rule, p, t)):
                    boys, girls = (n, t - n) if last_boy else (t - k, k)
                    for name, x in zip(values, (boys, girls, t, girls / t, boys / p - girls / (1.0 - p))):
                        values[name].append(x)
                    weights.append(weight)
                    mass += weight
                t += 1
            weights = np.array(weights) / mass
            possible = weights > 0.0
            weights = weights[possible]
            outcomes = {}
            for name, xs in values.items():
                xs = np.array(xs)[possible]
                outcomes[name] = xs - weights @ xs
            means = {
                "boys": series.expected_boys(rule, p, TOL),
                "girls": series.expected_girls(rule, p, TOL),
                "total": series.expected_family_size(rule, p, TOL),
                "girl_share": share.average_share(rule, p, TOL),
            }
            self.expected[(rule, p)] = means, outcomes, weights
        return self.expected[(rule, p)]

    def check(self, op, output) -> None:
        _, rule, p, samples, seed = op
        _expect((output.samples, output.seed) == (samples, seed), "samples/seed echo")
        means, outcomes, weights = self._reference(rule, p)
        for field in MEAN_FIELDS:
            mean, ref = getattr(output, "mean_" + field), means[field]
            # the series value is itself off by up to its tail bound and rounding
            slack = ref.tail_bound + 1e-9 * abs(ref.value)
            deviation = math.copysign(max(abs(mean - ref.value) - slack, 0.0), mean - ref.value)
            _expect(
                not _improbable(outcomes[field], weights, samples, deviation),
                f"{rule} p={p}: mean_{field} {mean!r} vs {ref.value!r}",
            )
        _expect(
            not _improbable(outcomes["martingale"], weights, samples, output.mean_martingale),
            f"{rule} p={p}: martingale mean {output.mean_martingale!r}",
        )
        if op == self.PROBE:
            probe = json.dumps(output.to_dict())
            self.probe_bytes = self.probe_bytes or probe
            _expect(probe == self.probe_bytes, "fixed simulation call is not byte-identical")


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------


class Cli:
    """`familyplan` subprocesses with small inputs, one at a time.

    Why: every layer does little work while import, argparse and output
    dominate, so this is the workload a lazy numpy import moves.  It also
    shows per-call overhead that the library workloads hide, for example
    a streaming sampler that is slower on small calls.

    A round is 12 invocations: the six subcommands round-robin, each once
    plain and once with --json.  Small inputs: exact/share at mid p,
    simulate with 1e4 samples, verify up to 3x3, the (1,1)/(2,0) crossing
    and a 21-step sweep.  The traced run calls cli.main in-process instead,
    with every cache dropped first, as in a fresh process.
    """

    name = "cli"
    trace_rounds = 1
    SUBCOMMANDS = ("exact", "simulate", "verify", "share", "crossing", "sweep")
    SMALL_RULES = [(n, k) for n in range(4) for k in range(4) if n + k]

    def __init__(self, seed: int, workdir: Path, src: Path) -> None:
        self.rng = random.Random(seed)
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(src))
        self.in_process = False
        self.expected: dict = {}

    def warmup_op(self):
        return ("cli", "exact", "-n", "1", "-k", "1", "-p", "0.5", "--tol", "1e-10")

    def _argv(self, command: str, slot: int) -> list[str]:
        rng = self.rng
        if command in ("exact", "share"):
            n, k = rng.choice(self.SMALL_RULES)
            p = round(rng.uniform(0.3, 0.7), 4)
            return [command, "-n", str(n), "-k", str(k), "-p", repr(p), "--tol", "1e-10"]
        if command == "simulate":
            n, k = rng.choice(Simulate.RULES)
            p = rng.choice((0.3, 0.5, 0.7))
            seed = rng.getrandbits(31)
            return [command, "-n", str(n), "-k", str(k), "-p", repr(p), "--samples", "10000", "--seed", str(seed)]
        if command == "verify":
            return [command, "--max-n", str(rng.randint(1, 3)), "--max-k", str(rng.randint(1, 3))]
        if command == "crossing":
            a, b = ("1,1", "2,0") if rng.random() < 0.5 else ("2,0", "1,1")
            return [command, "--a", a, "--b", b, "--tol", "1e-10"]
        rules = rng.sample(self.SMALL_RULES, rng.randint(1, 2))
        quantities = rng.sample(analysis.SWEEP_QUANTITIES, rng.randint(1, 2))
        return [
            command,
            "--rules", ";".join(f"{n},{k}" for n, k in rules),
            "--quantities", ";".join(quantities),
            "--from", repr(round(rng.uniform(0.1, 0.3), 4)),
            "--to", repr(round(rng.uniform(0.7, 0.9), 4)),
            "--steps", "21",
            "--tol", "1e-10",
            "--out", str(self.workdir / f"sweep-{slot}.csv"),
        ]

    def round(self) -> list:
        json_first = [self.rng.random() < 0.5 for _ in self.SUBCOMMANDS]
        ops = []
        for half in (0, 1):
            for i, command in enumerate(self.SUBCOMMANDS):
                argv = self._argv(command, len(ops))
                if json_first[i] != bool(half):
                    argv.append("--json")
                ops.append(("cli", *argv))
        return ops

    def execute(self, op):
        argv = list(op[1:])
        if self.in_process:
            clear_caches()
            buffer = io.StringIO()
            with contextlib.redirect_stdout(buffer), contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            return code, buffer.getvalue()
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from familyplan.cli import main; sys.exit(main())", *argv],
            capture_output=True,
            text=True,
            env=self.env,
            cwd=self.workdir,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    # -- the library calls each invocation must reproduce exactly --

    def _library(self, argv: list[str]) -> dict:
        args = cli.build_parser().parse_args(argv)
        if args.command in ("exact", "share", "simulate"):
            rule, prob = core.Rule(args.boys, args.girls), core.BirthProbability(args.p)
        if args.command == "exact":
            boys = series.expected_boys(rule, prob, args.tol)
            girls = series.expected_girls(rule, prob, args.tol)
            size = series.expected_family_size(rule, prob, args.tol)
            return {
                "boys": _record(boys),
                "girls": _record(girls),
                "family_size": _record(size),
                "ratio": boys.value / girls.value,
                "birth_odds": prob.odds,
            }
        if args.command == "share":
            societal = share.societal_share(rule, prob, args.tol)
            average = share.average_share(rule, prob, args.tol)
            two_boys = (args.boys, args.girls) == (2, 0)
            return {
                "societal_share": societal,
                "average_share": _record(average),
                "average_share_closed_form": share.shammai_average_share_closed_form(prob) if two_boys else None,
                "gap": societal - average.value,
            }
        if args.command == "simulate":
            return montecarlo.run_simulation(rule, prob, args.samples, args.seed).to_dict()
        if args.command == "verify":
            certificates = []
            for n in range(args.max_n + 1):
                for k in range(args.max_k + 1):
                    if n + k:
                        cert = symbolic.verify_ratio_identity(n, k)
                        boys = symbolic.expected_boys_exact(n, k)
                        certificates.append(
                            {"n": n, "k": k, "holds": cert.holds, "boys": str(boys),
                             "lhs": str(cert.lhs), "rhs": str(cert.rhs)}
                        )
            return {"all_hold": all(c["holds"] for c in certificates), "certificates": certificates}
        if args.command == "crossing":
            return {"root": analysis.crossing_probability(_rule(args.a), _rule(args.b), args.tol)}
        rows = analysis.sweep(
            [_rule(r) for r in args.rules.split(";")], args.quantities.split(";"),
            args.p_from, args.p_to, args.steps, args.tol,
        )
        return {
            "out": args.out,
            "rows": len(rows),
            "columns": list(rows[0].quantities),
            "csv": analysis.sweep_to_csv(rows),
        }

    def check(self, op, output) -> None:
        argv = list(op[1:])
        code, stdout = output
        _expect(code == 0, f"exit code {code} for {' '.join(argv)}")
        key = tuple(argv)
        if key not in self.expected:
            self.expected[key] = self._library([a for a in argv if a != "--json"])
        expected = dict(self.expected[key])
        csv_text = expected.pop("csv", None)
        if csv_text is not None:
            out = Path(argv[argv.index("--out") + 1])
            _expect(out.read_text() == csv_text, f"CSV written by {' '.join(argv)}")
        if "--json" in argv:
            envelope = json.loads(stdout)
            _expect(envelope["command"] == argv[0], "envelope command")
            _expect(envelope["results"] == expected, f"JSON results of {' '.join(argv)}")
            return
        lines = stdout.splitlines()
        for name, value in expected.items():
            if isinstance(value, dict):
                # series records print as "name: value (tail_bound ..., terms ...)"
                prefix = f"{name}: {value['value']!r} ("
                found = any(line.startswith(prefix) for line in lines)
            elif value is None or isinstance(value, (bool, int, float)):
                prefix = f"{name}: {value!r}"
                found = prefix in lines
            else:
                continue
            _expect(found, f"line {prefix!r} missing from {' '.join(argv)}")


def _rule(text: str) -> tuple[int, int]:
    n, k = text.split(",")
    return int(n), int(k)


def _record(result) -> dict:
    return {"value": result.value, "tail_bound": result.tail_bound, "terms_used": result.terms_used}


WORKLOADS = {w.name: w for w in (Tabulate, Certify, Simulate, Cli)}


def make(name: str, seed: int, workdir: Path, src: Path):
    """The workload called name, with its op stream seeded by seed."""
    if name == "cli":
        return Cli(seed, workdir, src)
    return WORKLOADS[name](seed)

