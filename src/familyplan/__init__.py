"""Exact and simulated demographics of family-planning stopping rules.

A rule (n, k) means a couple keeps having children until at least n boys
and k girls have been born, each birth being a boy with probability p.
The package computes the resulting family demographics four independent
ways (closed forms; Wald's finite sum and, for the average girl share, a
logarithmic closed form, each correctly rounded; exact rational-function
algebra; and seeded Monte Carlo) and checks them against a brute-force
enumeration of raw birth sequences.  The headline invariant:
the ratio of expected boys to expected girls equals the birth odds
p/(1-p) for every rule.

Each public name below is imported from its module on first access, so
``import familyplan`` loads no layer and a caller pays only for the
layers it uses.
"""

from importlib import import_module

__version__ = "0.1.0"

# module -> the public names it provides
_EXPORTS = {
    "analysis": ("SweepRow", "crossing_probability", "sweep", "sweep_to_csv"),
    "core": (
        "BirthProbability",
        "Rule",
        "TruncatedMoments",
        "enumerate_brute_force",
        "stopping_pmf_components",
    ),
    "errors": ("BirthCapError", "BracketingError", "DomainError", "NumericError"),
    "montecarlo": (
        "FamilyOutcome",
        "FamilyStream",
        "SimulationSummary",
        "run_simulation",
        "sample_outcomes",
        "simulate_family",
    ),
    "series": (
        "SeriesResult",
        "closed_form",
        "expected_boys",
        "expected_family_size",
        "expected_girls",
        "gender_ratio",
        "truncated_moments",
    ),
    "share": ("average_share", "shammai_average_share_closed_form", "societal_share"),
    "symbolic": (
        "Polynomial",
        "RatioCertificate",
        "RationalFunction",
        "evaluate_exact",
        "expected_boys_exact",
        "mirror",
        "verify_ratio_identity",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
