"""Exception types shared across the package."""


class LrlsqError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(LrlsqError):
    """Operands do not conform, or a file declares a shape its data contradicts."""


class RankDeficient(LrlsqError):
    """A matrix required to have full column rank is numerically rank-deficient."""


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
    """Matrix data, or a result computed from it, contains NaN or infinity.

    Raised for matrix files; for the inputs of ``prepare``,
    ``LowRankUpdate`` and the solvers; from a QR's screen when its factor
    is not finite, which is how ``baseline_solve`` finds a non-finite a;
    and when an update's capacitance overflows.
    """
