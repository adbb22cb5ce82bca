"""Command-line front end.

Subcommands: exact, simulate, verify, share, crossing, sweep.  Each one
computes a single record, its echoed inputs and its results.  With --json
the record is printed as one JSON envelope (command, inputs, results,
warnings, always []: a Python warning goes to stderr), with null for a
non-finite float; otherwise as key/value lines.  Exit codes: 0 success, 1
domain error (invalid rule, probability, arguments), 2 numeric failure
(overflow, no bracket, identity violation).  Each subcommand imports
the layer it runs when it runs, so a process loads no other layer.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Any, Callable, Iterator, Sequence

from .core import BirthProbability, Rule
from .errors import DomainError, NumericError

DEFAULT_TOL = 1e-10
DEFAULT_SAMPLES = 100_000
DEFAULT_SEED = 0
VERIFY_GRID_CAP = 20  # a verify grid's work grows as the fourth power of its side

# (inputs echoed back, results)
_Record = tuple[dict[str, Any], dict[str, Any]]


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


def _split(text: str, empty_message: str) -> list[str]:
    """The non-empty ;-separated tokens of a list argument."""
    tokens = [token for token in text.split(";") if token]
    if not tokens:
        raise DomainError(empty_message)
    return tokens


def _rule_and_probability(args: argparse.Namespace) -> tuple[Rule, BirthProbability, dict]:
    rule = Rule(args.boys, args.girls)
    prob = BirthProbability(args.p)
    return rule, prob, {"rule": f"{args.boys},{args.girls}", "p": prob.p}


def _cmd_exact(args: argparse.Namespace) -> _Record:
    from . import series

    rule, prob, inputs = _rule_and_probability(args)
    boys, girls, size = series._wald_sum(rule, prob, args.tol, "boys", "girls", "family_size")
    results = {
        "boys": boys._asdict(),
        "girls": girls._asdict(),
        "family_size": size._asdict(),
        "ratio": boys.value / girls.value,
        "birth_odds": prob.odds,
    }
    return {**inputs, "tol": args.tol}, results


def _cmd_simulate(args: argparse.Namespace) -> _Record:
    from . import montecarlo

    rule, prob, inputs = _rule_and_probability(args)
    summary = montecarlo.run_simulation(rule, prob, args.samples, args.seed)
    return {**inputs, "samples": args.samples, "seed": args.seed}, summary.to_dict()


def _cmd_verify(args: argparse.Namespace) -> _Record:
    from . import symbolic

    if args.max_n < 0 or args.max_k < 0:
        raise DomainError("--max-n and --max-k must be >= 0")
    if args.max_n + args.max_k < 1:
        raise DomainError("--max-n 0 --max-k 0 holds only the (0,0) rule, which has no certificate")
    if max(args.max_n, args.max_k) > VERIFY_GRID_CAP:
        raise DomainError(f"--max-n or --max-k exceeds the exact-arithmetic cap of {VERIFY_GRID_CAP}")
    certificates = []
    for n in range(args.max_n + 1):
        for k in range(args.max_k + 1):
            if n + k < 1:
                continue
            cert = symbolic.verify_ratio_identity(n, k)
            certificates.append(
                {
                    "n": n,
                    "k": k,
                    "holds": cert.holds,
                    "boys": str(symbolic.expected_boys_exact(n, k)),
                    "lhs": str(cert.lhs),
                    "rhs": str(cert.rhs),
                }
            )
    results = {"all_hold": all(cert["holds"] for cert in certificates), "certificates": certificates}
    return {"max_n": args.max_n, "max_k": args.max_k}, results


def _cmd_share(args: argparse.Namespace) -> _Record:
    from . import share

    rule, prob, inputs = _rule_and_probability(args)
    societal = share.societal_share(rule, prob, args.tol)
    average = share.average_share(rule, prob, args.tol)
    is_two_boys = (args.boys, args.girls) == (2, 0)
    closed = share.shammai_average_share_closed_form(prob) if is_two_boys else None
    results = {
        "societal_share": societal,
        "average_share": average._asdict(),
        "average_share_closed_form": closed,
        "gap": societal - average.value,
    }
    return {**inputs, "tol": args.tol}, results


def _cmd_crossing(args: argparse.Namespace) -> _Record:
    from . import analysis

    root = analysis.crossing_probability(_parse_rule(args.a), _parse_rule(args.b), args.tol)
    return {"a": args.a, "b": args.b, "tol": args.tol}, {"root": root}


def _cmd_sweep(args: argparse.Namespace) -> _Record:
    from . import analysis

    rules = [
        _parse_rule(rule)
        for rule in _split(args.rules, "at least one rule is required (e.g. --rules '1,1;2,0')")
    ]
    quantities = _split(
        args.quantities, f"at least one quantity is required, one of {analysis.SWEEP_QUANTITIES}"
    )
    names, rows = analysis._sweep_rows(rules, quantities, args.p_from, args.p_to, args.steps, args.tol)
    with open(args.out, "w", newline="") as handle:
        handle.writelines(analysis._csv_lines(names, rows))
    inputs = {
        "rules": args.rules,
        "quantities": args.quantities,
        "from": args.p_from,
        "to": args.p_to,
        "steps": args.steps,
        "tol": args.tol,
        "out": args.out,
    }
    return inputs, {"out": args.out, "rows": args.steps, "columns": names}


_COMMANDS: dict[str, Callable[[argparse.Namespace], _Record]] = {
    "exact": _cmd_exact,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "share": _cmd_share,
    "crossing": _cmd_crossing,
    "sweep": _cmd_sweep,
}


def _strict_json(value: Any) -> Any:
    """value with each non-finite float replaced by None, which RFC 8259 JSON allows."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {key: _strict_json(item) for key, item in value.items()}
    if isinstance(value, list):
        return [_strict_json(item) for item in value]
    return value


def _human_lines(envelope: dict[str, Any]) -> Iterator[str]:
    """The envelope as key/value lines; a result echoed among the inputs is not repeated."""
    inputs, results = envelope["inputs"], envelope["results"]
    yield f"command: {envelope['command']}"
    for key, value in inputs.items():
        yield f"{key}: {value}" if isinstance(value, str) else f"{key}: {value!r}"
    for cert in results.get("certificates", ()):
        yield f"({cert['n']},{cert['k']}) {'PASS' if cert['holds'] else 'FAIL'}  B = {cert['boys']}"
    for key, value in results.items():
        if key in inputs or key == "certificates":
            continue
        if isinstance(value, dict):  # a series.SeriesResult
            bound, terms = value["tail_bound"], value["terms_used"]
            yield f"{key}: {value['value']!r} (tail_bound {bound!r}, terms {terms})"
        elif isinstance(value, list):
            yield f"{key}: {', '.join(value)}"
        else:
            yield f"{key}: {value!r}"


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

    tol = _Parser(add_help=False)
    tol.add_argument(
        "--tol",
        type=float,
        default=DEFAULT_TOL,
        help="tolerance, checked but unused by every subcommand (default 1e-10)",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, parents: list[argparse.ArgumentParser], summary: str) -> argparse.ArgumentParser:
        return sub.add_parser(name, parents=[common, *parents], help=summary)

    add("exact", [rule_args, tol], "expected boys, girls, family size, and the gender ratio")

    simulate = add("simulate", [rule_args], "Monte Carlo estimates with standard errors")
    simulate.add_argument(
        "--samples", type=int, default=DEFAULT_SAMPLES, help="number of families (default 100000)"
    )
    simulate.add_argument("--seed", type=int, default=DEFAULT_SEED, help="RNG seed (default 0)")

    verify = add("verify", [], "certify (1-p)B(n,k,p) = p B(k,n,1-p) exactly for a grid of rules")
    verify.add_argument("--max-n", type=int, default=8, help="largest boys count (default 8)")
    verify.add_argument("--max-k", type=int, default=8, help="largest girls count (default 8)")

    add("share", [rule_args, tol], "societal and per-family-average girl shares and their gap")

    crossing = add("crossing", [tol], "birth probability where two rules give equal average family size")
    crossing.add_argument("--a", required=True, help="first rule as n,k")
    crossing.add_argument("--b", required=True, help="second rule as n,k")

    sweep_cmd = add("sweep", [tol], "tabulate quantities over a p grid and write CSV")
    sweep_cmd.add_argument("--rules", required=True, help="rules as n,k pairs separated by ; (e.g. '1,1;2,0')")
    sweep_cmd.add_argument(
        "--quantities",
        required=True,
        # analysis.SWEEP_QUANTITIES, spelled out so that --help loads no layer
        help="quantities separated by ; from F, G, B, ratio, societal_share, average_share",
    )
    sweep_cmd.add_argument("--from", dest="p_from", type=float, required=True, help="grid start")
    sweep_cmd.add_argument("--to", dest="p_to", type=float, required=True, help="grid end")
    sweep_cmd.add_argument("--steps", type=int, required=True, help="number of grid points (>= 2)")
    sweep_cmd.add_argument("--out", required=True, help="CSV output path")

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        inputs, results = _COMMANDS[args.command](args)
    except (DomainError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except NumericError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2

    envelope = {
        "command": args.command,
        "inputs": inputs,
        "results": results,
        "warnings": [],
    }
    try:
        if args.json:
            import json

            print(json.dumps(_strict_json(envelope), indent=2))
        else:
            print("\n".join(_human_lines(envelope)))
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
    # verify exits 2 when some certificate fails; every other record exits 0
    return 0 if results.get("all_hold", True) else 2


if __name__ == "__main__":
    sys.exit(main())
