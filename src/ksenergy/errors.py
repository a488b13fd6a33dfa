"""Exception and warning types shared across the package."""


class KSEnergyError(Exception):
    """Base class for all errors raised by this package."""


class InvalidPointError(KSEnergyError):
    """A point does not belong to the target space (wrong shape/dimension)."""


class InvalidDomainError(KSEnergyError):
    """Degenerate or inconsistent domain description."""


class InvalidDirectionError(KSEnergyError):
    """A direction vector required to be nonzero (or unit) is not."""


class UnsupportedDimensionError(KSEnergyError):
    """Requested quadrature dimension is not supported."""


class MapEvaluationError(KSEnergyError):
    """The map evaluator failed; carries the offending point(s)."""

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point


class StencilRangeError(KSEnergyError):
    """A finite-difference stencil leaves the evaluable region."""


class ExtrapolationDataError(KSEnergyError):
    """Too few h values, or h not a halving ladder h_0 / 2^j, for the extrapolation fit."""


class NonFiniteResultError(KSEnergyError):
    """An energy route produced non-finite per-node values (overflow or NaN)."""


class ConfigError(KSEnergyError):
    """Invalid run configuration (CLI exit code 2)."""


class KSEnergyWarning(UserWarning):
    """Base class for the package's numerical warnings; each also has a coded report entry."""


class EmptyMaskWarning(KSEnergyWarning):
    """Erosion produced an empty inner domain."""


class ExtrapolationWarning(KSEnergyWarning):
    """The h-sequence trend was too irregular for a trustworthy limit."""
