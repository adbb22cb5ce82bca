"""Command-line front end.

Subcommands: exact, simulate, verify, share, crossing, sweep.  Every
invocation prints one record, either human-readable key/value lines or
(with --json) a single JSON envelope carrying identical values.  Exit
codes: 0 success, 1 domain error (invalid rule, probability, arguments),
2 numeric failure (term cap, no bracket, identity violation).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import warnings
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Sequence

from . import analysis, montecarlo, series, share, symbolic
from .core import BirthProbability, Rule
from .errors import DomainError, NumericError

DEFAULT_TOL = 1e-10
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0


@dataclass
class OutputEnvelope:
    """Everything one invocation reports: echoed inputs, results, warnings."""

    command: str
    inputs: dict[str, Any]
    results: dict[str, Any]
    warnings: list[str] = field(default_factory=list)

    def as_dict(self) -> dict[str, Any]:
        return asdict(self)


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise DomainError(message)


def _parse_rule(text: str) -> Rule:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError(f"rules are written n,k (e.g. 2,0), got {text!r}")
    try:
        n, k = int(parts[0]), int(parts[1])
    except ValueError:
        raise DomainError(f"rule counts must be integers, got {text!r}") from None
    return Rule(n, k)


def _parse_rule_list(text: str) -> list[Rule]:
    tokens = [token for token in text.split(";") if token]
    if not tokens:
        raise DomainError("at least one rule is required (e.g. --rules '1,1;2,0')")
    return [_parse_rule(token) for token in tokens]


def _parse_quantity_list(text: str) -> list[str]:
    tokens = [token for token in text.split(";") if token]
    if not tokens:
        raise DomainError(
            f"at least one quantity is required, one of {analysis.SWEEP_QUANTITIES}"
        )
    return tokens


def _series_line(name: str, result: series.SeriesResult) -> str:
    return (
        f"{name}: {result.value!r} "
        f"(tail_bound {result.tail_bound!r}, terms {result.terms_used})"
    )


def _cmd_exact(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    rule = Rule(args.boys, args.girls)
    prob = BirthProbability(args.p)
    boys = series.expected_boys(rule, prob, args.tol)
    girls = series.expected_girls(rule, prob, args.tol)
    size = series.expected_family_size(rule, prob, args.tol)
    ratio = boys.value / girls.value
    inputs = {
        "rule": f"{rule.boys_required},{rule.girls_required}",
        "p": prob.p,
        "tol": args.tol,
    }
    results = {
        "boys": asdict(boys),
        "girls": asdict(girls),
        "family_size": asdict(size),
        "ratio": ratio,
        "birth_odds": prob.odds,
    }
    human = [
        _series_line("boys", boys),
        _series_line("girls", girls),
        _series_line("family_size", size),
        f"ratio: {ratio!r}",
        f"birth_odds: {prob.odds!r}",
    ]
    return inputs, results, human, 0


def _cmd_simulate(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    rule = Rule(args.boys, args.girls)
    prob = BirthProbability(args.p)
    summary = montecarlo.run_simulation(rule, prob, args.samples, args.seed)
    inputs = {
        "rule": f"{rule.boys_required},{rule.girls_required}",
        "p": prob.p,
        "samples": args.samples,
        "seed": args.seed,
    }
    results = dict(summary.to_dict())
    human = [
        f"{key}: {value!r}"
        for key, value in results.items()
        if key not in ("samples", "seed")
    ]
    return inputs, results, human, 0


def _cmd_verify(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    if args.max_n < 0 or args.max_k < 0:
        raise DomainError("--max-n and --max-k must be >= 0")
    certificates = []
    human = []
    all_hold = True
    for n in range(args.max_n + 1):
        for k in range(args.max_k + 1):
            if n + k < 1:
                continue
            cert = symbolic.verify_ratio_identity(n, k)
            boys_fn = symbolic.expected_boys_exact(n, k)
            all_hold &= cert.holds
            certificates.append(
                {
                    "n": n,
                    "k": k,
                    "holds": cert.holds,
                    "boys": str(boys_fn),
                    "lhs": str(cert.lhs),
                    "rhs": str(cert.rhs),
                }
            )
            status = "PASS" if cert.holds else "FAIL"
            human.append(f"({n},{k}) {status}  B = {boys_fn}")
    human.append(f"all_hold: {all_hold}")
    inputs = {"max_n": args.max_n, "max_k": args.max_k}
    results = {"all_hold": all_hold, "certificates": certificates}
    return inputs, results, human, 0 if all_hold else 2


def _cmd_share(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    rule = Rule(args.boys, args.girls)
    prob = BirthProbability(args.p)
    societal = share.societal_share(rule, prob, args.tol)
    average = share.average_share(rule, prob, args.tol)
    is_two_boys = (rule.boys_required, rule.girls_required) == (2, 0)
    closed = share.shammai_average_share_closed_form(prob) if is_two_boys else None
    if not is_two_boys:
        warnings.warn(
            "average_share for rules other than (2,0) is a series extension "
            "with no closed form to cross-check",
            UserWarning,
            stacklevel=2,
        )
    gap = societal - average.value
    inputs = {
        "rule": f"{rule.boys_required},{rule.girls_required}",
        "p": prob.p,
        "tol": args.tol,
    }
    results = {
        "societal_share": societal,
        "average_share": asdict(average),
        "average_share_closed_form": closed,
        "gap": gap,
    }
    human = [
        f"societal_share: {societal!r}",
        _series_line("average_share", average),
        f"average_share_closed_form: {closed!r}",
        f"gap: {gap!r}",
    ]
    return inputs, results, human, 0


def _cmd_crossing(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    rule_a = _parse_rule(args.a)
    rule_b = _parse_rule(args.b)
    root = analysis.crossing_probability(rule_a, rule_b, args.tol)
    inputs = {"a": args.a, "b": args.b, "tol": args.tol}
    results = {"root": root}
    human = [f"root: {root!r}"]
    return inputs, results, human, 0


def _cmd_sweep(args: argparse.Namespace) -> tuple[dict, dict, list[str], int]:
    rules = _parse_rule_list(args.rules)
    quantities = _parse_quantity_list(args.quantities)
    rows = analysis.sweep(
        rules, quantities, args.p_from, args.p_to, args.steps, args.tol
    )
    csv_text = analysis.sweep_to_csv(rows)
    with open(args.out, "w", newline="") as handle:
        handle.write(csv_text)
    columns = list(rows[0].quantities)
    inputs = {
        "rules": args.rules,
        "quantities": args.quantities,
        "from": args.p_from,
        "to": args.p_to,
        "steps": args.steps,
        "tol": args.tol,
        "out": args.out,
    }
    results = {"out": args.out, "rows": len(rows), "columns": columns}
    human = [
        f"rows: {len(rows)}",
        f"columns: {', '.join(columns)}",
    ]
    return inputs, results, human, 0


_COMMANDS: dict[str, Callable[[argparse.Namespace], tuple[dict, dict, list[str], int]]] = {
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "share": _cmd_share,
    "crossing": _cmd_crossing,
    "sweep": _cmd_sweep,
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="familyplan",
        description=(
            "Exact, symbolic, and simulated demographics of family-planning "
            "stopping rules (have children until at least n boys and k girls)."
        ),
    )
    common = _Parser(add_help=False)
    common.add_argument(
        "--json",
        action="store_true",
        help="emit a single JSON envelope instead of key/value lines",
    )

    rule_args = _Parser(add_help=False)
    rule_args.add_argument("-n", "--boys", type=int, required=True, help="boys required")
    rule_args.add_argument("-k", "--girls", type=int, required=True, help="girls required")
    rule_args.add_argument("-p", type=float, required=True, help="boy probability in (0,1)")

    sub = parser.add_subparsers(dest="command", required=True)

    exact = sub.add_parser(
        "exact",
        parents=[common, rule_args],
        help="expected boys, girls, family size, and the gender ratio",
    )
    exact.add_argument("--tol", type=float, default=DEFAULT_TOL, help="series tolerance (default 1e-10)")

    simulate = sub.add_parser(
        "simulate",
        parents=[common, rule_args],
        help="Monte Carlo estimates with standard errors",
    )
    simulate.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, help="number of families (default 100000)"
    )
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default 0)")

    verify = sub.add_parser(
        "verify",
        parents=[common],
        help="certify (1-p)B(n,k,p) = p B(k,n,1-p) exactly for a grid of rules",
    )
    verify.add_argument("--max-n", type=int, default=8, help="largest boys count (default 8)")
    verify.add_argument("--max-k", type=int, default=8, help="largest girls count (default 8)")

    share_cmd = sub.add_parser(
        "share",
        parents=[common, rule_args],
        help="societal and per-family-average girl shares and their gap",
    )
    share_cmd.add_argument("--tol", type=float, default=DEFAULT_TOL, help="series tolerance (default 1e-10)")

    crossing = sub.add_parser(
        "crossing",
        parents=[common],
        help="birth probability where two rules give equal average family size",
    )
    crossing.add_argument("--a", required=True, help="first rule as n,k")
    crossing.add_argument("--b", required=True, help="second rule as n,k")
    crossing.add_argument("--tol", type=float, default=DEFAULT_TOL, help="bisection tolerance (default 1e-10)")

    sweep_cmd = sub.add_parser(
        "sweep",
        parents=[common],
        help="tabulate quantities over a p grid and write CSV",
    )
    sweep_cmd.add_argument("--rules", required=True, help="rules as n,k pairs separated by ; (e.g. '1,1;2,0')")
    sweep_cmd.add_argument(
        "--quantities",
        required=True,
        help=f"quantities separated by ; from {', '.join(analysis.SWEEP_QUANTITIES)}",
    )
    sweep_cmd.add_argument("--from", dest="p_from", type=float, required=True, help="grid start")
    sweep_cmd.add_argument("--to", dest="p_to", type=float, required=True, help="grid end")
    sweep_cmd.add_argument("--steps", type=int, required=True, help="number of grid points (>= 2)")
    sweep_cmd.add_argument("--out", required=True, help="CSV output path")
    sweep_cmd.add_argument("--tol", type=float, default=DEFAULT_TOL, help="series tolerance (default 1e-10)")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            inputs, results, human, code = _COMMANDS[args.command](args)
    except (DomainError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    envelope = OutputEnvelope(
        command=args.command,
        inputs=inputs,
        results=results,
        warnings=[str(w.message) for w in caught],
    )
    try:
        if args.json:
            print(json.dumps(envelope.as_dict(), indent=2))
        else:
            print(f"command: {envelope.command}")
            for key, value in envelope.inputs.items():
                print(f"{key}: {value!r}" if not isinstance(value, str) else f"{key}: {value}")
            for line in human:
                print(line)
            for message in envelope.warnings:
                print(f"warning: {message}")
        sys.stdout.flush()
    except OSError as err:
        # Point stdout at devnull so the flush at interpreter exit cannot
        # fail again; a reader that closed the pipe early needs no message.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        if not isinstance(err, BrokenPipeError):
            print(f"error: {err}", file=sys.stderr)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
