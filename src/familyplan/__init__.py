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
"""

from .analysis import (
    SweepRow,
    crossing_probability,
    sweep,
    sweep_to_csv,
)
from .core import (
    BirthProbability,
    Rule,
    TruncatedMoments,
    enumerate_brute_force,
    stopping_pmf_components,
)
from .errors import (
    BirthCapError,
    BracketingError,
    DomainError,
    NumericError,
)
from .montecarlo import (
    FamilyOutcome,
    FamilyStream,
    SimulationSummary,
    run_simulation,
    sample_outcomes,
    simulate_family,
)
from .series import (
    SeriesResult,
    closed_form,
    expected_boys,
    expected_family_size,
    expected_girls,
    gender_ratio,
    truncated_moments,
)
from .share import (
    average_share,
    shammai_average_share_closed_form,
    societal_share,
)
from .symbolic import (
    Polynomial,
    RatioCertificate,
    RationalFunction,
    evaluate_exact,
    expected_boys_exact,
    mirror,
    verify_ratio_identity,
)

__version__ = "0.1.0"

__all__ = [
    "BirthCapError",
    "BirthProbability",
    "BracketingError",
    "DomainError",
    "FamilyOutcome",
    "FamilyStream",
    "NumericError",
    "Polynomial",
    "RatioCertificate",
    "RationalFunction",
    "Rule",
    "SeriesResult",
    "SimulationSummary",
    "SweepRow",
    "TruncatedMoments",
    "average_share",
    "closed_form",
    "crossing_probability",
    "enumerate_brute_force",
    "evaluate_exact",
    "expected_boys",
    "expected_boys_exact",
    "expected_family_size",
    "expected_girls",
    "gender_ratio",
    "mirror",
    "run_simulation",
    "sample_outcomes",
    "shammai_average_share_closed_form",
    "simulate_family",
    "societal_share",
    "stopping_pmf_components",
    "sweep",
    "sweep_to_csv",
    "truncated_moments",
    "verify_ratio_identity",
]
