"""Exception types shared across the package."""


class JamflowError(Exception):
    """Base class for all package errors."""


class ParameterError(JamflowError):
    """A parameter is outside its admissible range; ``key`` names its field, if any."""

    def __init__(self, message, key=None):
        super().__init__(message)
        self.key = key


class BarrierViolation(JamflowError):
    """Density reached or crossed the maximal-density barrier."""


class SpecError(JamflowError):
    """A field profile description produced inadmissible values."""


class NonFinite(JamflowError):
    """NaN or Inf appeared in an evolved field."""


class DegenerateState(JamflowError):
    """Time step collapsed below a usable size."""


class StepFailure(JamflowError):
    """Sub-stepping retries were exhausted without an admissible state."""


class ParseError(JamflowError):
    """Config text could not be parsed."""


class ValidationError(JamflowError):
    """Config parsed but one or more values are invalid.

    Carries ``issues``: a list of (key, line, reason) tuples.
    """

    def __init__(self, issues):
        self.issues = list(issues)
        lines = "; ".join(f"{key} (line {line}): {reason}" for key, line, reason in self.issues)
        super().__init__(f"invalid configuration: {lines}")


class IoError(JamflowError):
    """Output location could not be created or written."""
