"""Exception taxonomy shared across the package.

Every error the package raises on purpose is one of these classes, so a
caller can tell bad input (ShapeError, ConfigError, DataError), API
misuse (UsageError) and numeric failure (NumericError) apart from bugs.
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
    """A numeric invariant broke mid-computation (NaN/Inf, divergence);
    ``step`` and ``block`` say where, or are None when unknown."""

    def __init__(self, message, step=None):
        super().__init__(message)
        self.step = step
        self.block = None

