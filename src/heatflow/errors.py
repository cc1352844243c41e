"""Exception types shared across the package.

Every failure mode that callers are expected to branch on gets its own
class; generic programming errors stay as plain ValueError/TypeError.
"""


class HeatflowError(Exception):
    """Base class for all package-specific failures."""


class NonIntegrableError(HeatflowError):
    """A normalization / profile integral diverges across refinement levels."""


class DimensionTooHighError(HeatflowError):
    """Tensorized quadrature was requested above its dimension cap."""


class GridTooCoarseError(HeatflowError):
    """Successive grid refinements of an envelope disagree beyond tolerance."""


class LambdaTooLargeError(HeatflowError):
    """Dilation reduction requested with curvature deficit >= 1."""


class LambdaBelowOneError(HeatflowError):
    """A bound valid only for curvature deficit >= 1 was requested below it."""


class BadParamsError(HeatflowError):
    """Invalid parameters for a built-in potential family."""


class DensityUnderflowError(HeatflowError):
    """A smoothed density estimate fell below the configured floor."""


class HermiteAtTimeZeroError(HeatflowError):
    """The integration-by-parts Hessian route needs strictly positive time."""


class DomainError(HeatflowError):
    """A closed-form profile was evaluated outside its validity domain."""


class QuadratureFailError(HeatflowError):
    """Adaptive quadrature reported an unrecoverable failure."""


class EmptySamplesError(HeatflowError):
    """A sample statistic was requested on an empty sample set."""


class DuplicateInputsError(HeatflowError):
    """All sample pairs had coincident inputs; no slope can be formed."""


class TTooSmallError(HeatflowError):
    """Counterexample check outside the regime where its inequality applies."""
