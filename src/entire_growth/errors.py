"""Exception types shared across the library."""


class EntireGrowthError(Exception):
    """Base class for all library errors."""


class InputError(EntireGrowthError):
    """Malformed input: non-monotone grids, bad parameters, etc."""


class DomainDegenerateError(EntireGrowthError):
    """Fewer than two finite samples; the conjugate is degenerate."""


class TruncationError(EntireGrowthError):
    """Series summation failed to converge within the term budget."""


class UndefinedOrderError(EntireGrowthError):
    """Order/type scan found no usable coefficients (polynomial input)."""


class PolynomialInputError(EntireGrowthError):
    """Operation requires a non-polynomial (infinitely many nonzero terms)."""


class NotEntireError(EntireGrowthError):
    """Coefficients fail the infinite-radius-of-convergence check."""


class InvalidGrowthError(EntireGrowthError):
    """Growth function is non-positive or otherwise unusable on the grid."""


class NoFiniteBoundError(EntireGrowthError):
    """Y(eps) is infinite on the whole eps grid; no finite bound exists."""


class ConfigError(EntireGrowthError):
    """CLI configuration file could not be parsed or validated."""


class WindowSaturationWarning(UserWarning):
    """Conjugate argmax hit the hard window cap; bound valid but possibly loose."""
