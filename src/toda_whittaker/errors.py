"""Exception types shared across the package.

All numerical-analysis failure modes get a dedicated class so callers can
distinguish "you asked for something at a singularity" (:class:`PoleError`),
"the requested accuracy is out of reach for this algorithm"
(:class:`ConvergenceError`), and "the evaluation budget ran out first"
(:class:`BudgetExceeded`, which still carries the best result obtained).
"""

from __future__ import annotations

__all__ = [
    "TodaWhittakerError",
    "PoleError",
    "ConvergenceError",
    "RankError",
    "ContourError",
    "ShiftError",
    "BudgetExceeded",
    "SingularMatrixError",
]


class TodaWhittakerError(Exception):
    """Base class for every error raised by this package."""


class PoleError(TodaWhittakerError, ValueError):
    """An evaluation point coincides with a pole of the function.

    Parameters
    ----------
    message : str
        Human-readable description.
    index : int, optional
        For product evaluations, the index of the offending factor.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class ConvergenceError(TodaWhittakerError, RuntimeError):
    """An iterative evaluation failed to reach the requested accuracy."""


class RankError(TodaWhittakerError, ValueError):
    """The requested rank is outside the range this implementation supports."""


class ContourError(TodaWhittakerError, ValueError):
    """The requested contour offsets do not separate the relevant pole families."""


class ShiftError(TodaWhittakerError, ValueError):
    """Spectral parameters violate the shift condition an operator needs to
    converge absolutely."""


class BudgetExceeded(TodaWhittakerError, RuntimeError):
    """An integration ran out of its evaluation budget.

    Attributes
    ----------
    result : QuadratureResult
        Best estimate at the moment the budget ran out (``converged=False``).
    max_evaluations : int
        The budget that was exhausted.
    """

    def __init__(self, message: str, result=None, max_evaluations: int | None = None):
        super().__init__(message)
        self.result = result
        self.max_evaluations = max_evaluations


class SingularMatrixError(TodaWhittakerError, ValueError):
    """A matrix argument that must be invertible is singular."""
