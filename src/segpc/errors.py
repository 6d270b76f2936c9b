"""Exception types shared across the package.

Plain ``ValueError`` is used for argument validation (wrong shapes, empty
pools, negative degrees); the classes below mark failures of the numerical
machinery itself.
"""


class SegpcError(Exception):
    """Base class for package-specific errors."""


class RankDeficientError(SegpcError):
    """A measurement or regression matrix is numerically rank deficient."""

    def __init__(self, message, cond_number=None):
        super().__init__(message)
        self.cond_number = cond_number


class InsufficientSamplesError(SegpcError):
    """Fewer equations than unknown spectral coefficients."""


class UnsupportedModelError(SegpcError):
    """The requested operation needs a capability the model does not have."""


class ModelSolveError(SegpcError):
    """A model's solve failed or returned a non-finite value or gradient.

    The message names the sample once it is known: ``point`` is the
    standardized point and ``index`` its position among the points of the
    evaluation call that failed; each is None until set.
    """

    point = None
    index = None

    def __str__(self):
        where = [] if self.index is None else [f"sample {self.index}"]
        if self.point is not None:
            where.append("standardized point [" + ", ".join(f"{x:.6g}" for x in self.point) + "]")
        message = super().__str__()
        return f"{message} at {', '.join(where)}" if where else message


class SolverDivergenceError(ModelSolveError):
    """A nonlinear solve failed to reach the residual tolerance."""

    def __init__(self, message, residual=None, iterations=None):
        super().__init__(message)
        self.residual = residual
        self.iterations = iterations


class AdjointSolveError(ModelSolveError):
    """The linear adjoint system could not be solved."""
