"""Exception types shared across the package."""


class DomainError(ValueError):
    """Invalid input: malformed rule, probability outside (0,1), bad arguments."""


class NumericError(RuntimeError):
    """A computation could not meet its numeric contract."""


class TermCapError(NumericError):
    """Series truncation failed to reach the tolerance within the term cap.

    Nothing raises it now: no value is a truncated series.  It stays
    exported so that code catching it keeps working.
    """


class ExtremeProbabilityError(NumericError):
    """Birth probability too close to 0 or 1 for series evaluation.

    Nothing raises it now: every value is evaluated at any p in (0, 1).  It
    stays exported so that code catching it keeps working.
    """


class BirthCapError(NumericError):
    """A simulated family exceeded the per-family birth cap."""


class BracketingError(NumericError):
    """Root search found no sign change on the scan interval."""


class PoleError(NumericError):
    """Rational function evaluated at a pole of its denominator."""
