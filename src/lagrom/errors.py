"""Exception hierarchy shared across the library."""


class LagromError(Exception):
    """Base class for all library-specific errors."""


class NonMonotonicGrid(LagromError):
    """A grid that must be strictly increasing is not."""


class DimensionMismatch(LagromError):
    """Array shapes are inconsistent with each other."""


class CflViolation(LagromError):
    """Explicit advection step would exceed the stability limit.

    ``time_index`` names the index the rejected step would have produced,
    when the check belongs to a step.
    """

    def __init__(self, message, max_speed=None, time_index=None):
        super().__init__(message)
        self.max_speed = max_speed
        self.time_index = time_index


class SingularTridiagonal(LagromError):
    """Tridiagonal elimination hit a zero pivot."""


class GridEntanglement(LagromError):
    """Moving-grid positions lost strict monotonicity (characteristics crossed)."""

    def __init__(self, message, time_index=None):
        super().__init__(message)
        self.time_index = time_index


class NumericalFailure(LagromError):
    """A numerical routine produced NaN/Inf or failed to converge.

    ``time_index`` names the step or predicted index that failed, when the
    failure belongs to one.
    """

    def __init__(self, message, time_index=None):
        super().__init__(message)
        self.time_index = time_index


class EmptySpectrum(LagromError):
    """All singular values are zero; no rank can be selected."""


class RankOutOfRange(LagromError, ValueError):
    """Requested truncation rank is outside the valid range."""


class TooFewSnapshots(LagromError):
    """At least two snapshot columns are required."""


class NewtonDivergence(LagromError):
    """Newton iteration exceeded its cap or produced non-finite values."""

    def __init__(self, message, iterations=None):
        super().__init__(message)
        self.iterations = iterations


class IndexBeforeAnchor(LagromError):
    """Error bound requested at a time index before the anchor snapshot."""


class RangeNotCovered(LagromError):
    """Level-set value grid does not cover the embedded data range."""


class NoSignChange(LagromError):
    """A level-set column never crosses zero."""


class MultipleSignChanges(LagromError):
    """A level-set column crosses zero more than once."""
