"""Exception types shared across the library."""


class FuzzyDepthError(Exception):
    """Base class for every error raised by this package."""


class OrderViolation(FuzzyDepthError):
    """Knots or level endpoints are not correctly ordered."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class OutOfRange(FuzzyDepthError):
    """A parameter lies outside its admissible range."""


class DimensionMismatch(FuzzyDepthError):
    """Operands live in spaces of different dimension."""


class SingularMatrix(FuzzyDepthError):
    """A transform matrix is singular or numerically indistinguishable from one."""


class GridMismatch(FuzzyDepthError):
    """Sampled fuzzy sets do not share direction or alpha grids."""


class EmptySample(FuzzyDepthError):
    """A fuzzy random variable needs at least one positively weighted atom."""


class InvalidPerturbation(FuzzyDepthError):
    """A symmetry perturbation would break level nesting or non-emptiness."""


class ParseError(FuzzyDepthError):
    """A dataset file could not be parsed."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
