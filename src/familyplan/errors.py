"""Exception types shared across the package.

DomainError marks invalid input and NumericError a result that cannot be
delivered; the CLI exits 1 and 2 on them.  Each class here is raised
somewhere in the package.
"""


class DomainError(ValueError):
    """Invalid input: malformed rule, probability outside (0,1), bad arguments."""


class NumericError(RuntimeError):
    """A computation could not meet its numeric contract."""


class BirthCapError(NumericError):
    """A simulated family exceeded, or a rule needs more than, the per-family birth cap."""


class BracketingError(NumericError):
    """Root search found no sign change on (0, 1)."""
