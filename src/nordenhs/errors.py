"""Exception types raised by the nordenhs library."""


class NordenError(Exception):
    """Base class for all nordenhs errors."""


class DimensionMismatch(NordenError):
    """Vectors or matrices do not share a common 2m-dimensional space."""


class NotHSymmetric(NordenError):
    """Operator fails to commute with J or is not g-self-adjoint."""


class NotHDiagonalizable(NordenError):
    """No adapted eigenbasis exists (isotropic or defective eigenspace)."""


class DegeneratePlane(NordenError):
    """The 2-plane is degenerate for the split metric."""


class DegenerateBasis(NordenError):
    """Basis is degenerate with respect to g."""


class IsotropicParameters(NordenError):
    """(a, b) near (0, 0), the isotropic hypersurface, or a^2 + b^2 overflows."""


class PointNotOnSurface(NordenError):
    """Point does not satisfy the defining quadric equations."""


class BadInputNormalization(NordenError):
    """Input normal pair does not satisfy the normalization preconditions."""


class SamplingExhausted(NordenError):
    """Rejection sampling hit its retry bound."""


class StepSizeError(NordenError):
    """Finite-difference step is outside the usable range."""


class EmptySamples(NordenError):
    """An operation requiring samples received none."""


class NonConstantNormal(NordenError):
    """Normal field varies across samples; not a hyperplane."""


class NearZeroLambdaMu(NordenError):
    """lambda^2 + mu^2 below threshold; take the hyperplane branch."""


class FormatError(NordenError):
    """Malformed input file."""
