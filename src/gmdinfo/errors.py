"""Exception taxonomy shared by the whole package.

Everything raised on bad data or bad parameters derives from
:class:`DomainError`, so callers (and the CLI) can catch one class.
"""

__all__ = [
    "DomainError",
    "NegativeValueError",
    "NonFiniteError",
    "TooFewObservationsError",
    "FewerThanTwoError",
    "EmptyTailError",
    "BadParameterError",
    "UnsupportedSpecError",
    "NotApplicableError",
    "InputFormatError",
    "NoConvergenceError",
]


class DomainError(ValueError):
    """Input or parameter outside the domain a computation is defined on."""


class NegativeValueError(DomainError):
    """An observation is negative; all measures assume X >= 0."""


class NonFiniteError(DomainError):
    """NaN or infinity where a finite number is required."""


class TooFewObservationsError(DomainError):
    """Not enough observations for the requested estimator."""


class FewerThanTwoError(TooFewObservationsError):
    """A qualifying (truncated) subsample has fewer than two points."""


class EmptyTailError(DomainError):
    """No observation beyond (or up to) the truncation point."""


class BadParameterError(DomainError):
    """A measure parameter violates its constraints (e.g. alpha = 1)."""


class UnsupportedSpecError(DomainError):
    """The measure/parameter combination has no finite value for the model."""


class NotApplicableError(DomainError):
    """The requested check does not apply to this source (e.g. level mismatch)."""


class InputFormatError(ValueError):
    """An input file could not be parsed; message names line and column.

    Deliberately *not* a DomainError: parse failures and domain failures
    map to different process exit codes.
    """


class NoConvergenceError(RuntimeError):
    """Quadrature failed to reach the requested tolerance."""
