"""Exception hierarchy for the graphfill package."""


class GraphfillError(Exception):
    """Base class for all errors raised by this package."""


class ShapeError(GraphfillError):
    """An array argument has the wrong number of axes or incompatible sizes."""


class NonFiniteError(GraphfillError):
    """A forward operation produced NaN or Inf."""


class TapeError(GraphfillError):
    """Misuse of the gradient tape (nesting, reuse, wrong tape, non-scalar root)."""


class EmptySetError(GraphfillError):
    """A reduction that requires at least one element received none."""


class ValidationError(GraphfillError):
    """Invalid configuration or input data; maps to CLI exit code 1."""


class FieldError(ValidationError):
    """A config field does not fit the data; the CLI names the config file."""


class KernelError(ValidationError):
    """A Gaussian-kernel parameter does not fit the distances it weights."""


class MetricError(GraphfillError):
    """A metric has no entries to score, or is not a finite number."""


class DivergenceError(GraphfillError):
    """Training produced a non-finite loss."""
