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
    pass


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
    """Fewer than 4 boundary cells fall inside the epsilon layer."""
