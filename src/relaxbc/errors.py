"""Exception hierarchy shared across the package."""


class RelaxbcError(Exception):
    """Base class for all package-specific failures."""


class DimensionMismatch(RelaxbcError):
    pass


class ParseError(RelaxbcError):
    pass


class ConfigError(RelaxbcError):
    pass


class NonSymmetricSymmetrizer(RelaxbcError):
    pass


class ValidationFailed(RelaxbcError):
    pass


class AmbiguousSpectrum(RelaxbcError):
    """An eigenvalue sits in the grey zone around the zero-classification
    threshold, so the (negative / zero / positive) counts are unreliable."""


class NearImaginaryEigenvalue(RelaxbcError):
    """An invariant-subspace split was requested for a matrix with an
    eigenvalue too close to the imaginary axis."""

    def __init__(self, eigenvalue, tol):
        self.eigenvalue = eigenvalue
        self.tol = tol
        super().__init__(
            f"eigenvalue {eigenvalue} lies within {tol:.3e} of the imaginary axis"
        )


class RankDeficient(RelaxbcError):
    pass


class RankMismatch(RelaxbcError):
    pass


class SpectralCountMismatch(RelaxbcError):
    """A matrix has other than the expected number of stable eigenvalues;
    ``row`` is its index when it came from a stack."""

    def __init__(self, message, row=None):
        self.row = row
        super().__init__(message)


class SignNotConverged(RelaxbcError):
    """Newton's iteration for the matrix sign function did not converge on a
    matrix that passed the axis guard; ``row`` is its index in the stack."""

    def __init__(self, message, row=None):
        self.row = row
        super().__init__(message)


class SkConditionViolated(RelaxbcError):
    pass


class FrameMismatch(RelaxbcError):
    pass


class RankDeficientK(RelaxbcError):
    pass


class SingularKtXKt(RelaxbcError):
    pass


class GkcFailed(RelaxbcError):
    pass


class DegenerateY(RelaxbcError):
    pass


class SingularClosure(RelaxbcError):
    pass


class AssumptionViolated(RelaxbcError):
    pass


class GridMismatch(RelaxbcError):
    pass


class CflViolation(RelaxbcError):
    pass


class BoundarySolveSingular(RelaxbcError):
    pass


class UnresolvedLayerWarning(UserWarning):
    """Fewer than 4 boundary cells fall inside the epsilon layer, or the final
    time lets reflections from the truncation boundary reach x = 0."""
