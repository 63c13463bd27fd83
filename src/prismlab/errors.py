"""Exception taxonomy shared across the package.

Every error the package raises on purpose is one of these classes, so a
caller can tell bad input (ShapeError, ConfigError, DataError), API
misuse (UsageError) and numeric failure (NumericError and its subclass
SingularMatrixError) apart from bugs.
"""


class ShapeError(ValueError):
    """Operand shapes or dtypes are incompatible with the operation."""


class ConfigError(ValueError):
    """A configuration value violates its documented constraint."""


class DataError(ValueError):
    """Input data is out of the documented domain (e.g. bad target id)."""


class UsageError(RuntimeError):
    """An API was called in a way its contract forbids."""


class NumericError(ArithmeticError):
    """A numeric invariant broke mid-computation (NaN/Inf, divergence)."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step


class SingularMatrixError(NumericError):
    """Matrix inversion attempted on a (near-)singular matrix."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition
