"""Exception types shared across the package."""


class LrlsqError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LrlsqError):
    """Operands do not conform, or a file declares a shape its data contradicts."""


class RankDeficient(LrlsqError):
    """A matrix required to have full column rank is numerically rank-deficient."""


class SingularMatrix(LrlsqError):
    """A triangular factor has a zero diagonal entry."""


class SingularCapacitance(LrlsqError):
    """The small capacitance system is singular or numerically near-singular.

    Raised by the update solver when I + Yt Z cannot be inverted reliably,
    which signals that the updated matrix has lost full column rank.
    """


class ConvergenceFailure(LrlsqError):
    """An iterative solve missed its residual target within the iteration cap.

    Carries per-column diagnostics: ``iterations`` (steps taken) and
    ``residuals`` (achieved relative residual norms), aligned with the
    right-hand-side columns.
    """

    def __init__(self, message, iterations=None, residuals=None):
        super().__init__(message)
        self.iterations = iterations
        self.residuals = residuals


class MalformedHeader(LrlsqError):
    """A matrix file's banner, size line, or value data cannot be parsed."""


class NonFiniteValue(LrlsqError):
    """Matrix data contains NaN or infinity.

    Raised for matrix files, and for the inputs of ``prepare`` and
    ``LowRankUpdate``, before any of it reaches a solver.
    """
