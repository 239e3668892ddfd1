"""Exception classes, one per decision a handler makes.

A failure gets a class of its own only when some handler tells it apart from
the others; otherwise it raises the class of the decision it calls for, with
its own message.  The guards on the package's own arguments (a non-square
matrix, a composite on another grid) raise ``ValueError``.

- ``ParseError``: a system file that cannot be read or parsed, a matrix
  field of the wrong shape included; exit 2.
- ``ConfigError``: an option or scenario value out of range; exit 2.
- ``ValidationFailed``: a system that breaks a standing hypothesis (the
  canonical form, structural stability, a singular ``P``, a speed in the
  grey band, a ``B`` with other than n_+ rows); exit 1 from every command,
  and ``validate`` writes ``validate.json``.  The Shizuta-Kawashima-like
  condition (``model.check_sk_condition``) fails ``validate`` and raises it
  in the other four commands, which build the kernel frame first.
- ``GkcFailed``: the reduced condition's uniform Kreiss certificate fails;
  exit 1, and ``reduce`` writes ``reduce.json``.
- ``AssumptionViolated``: a derivation or solver step meets a degenerate
  matrix (a rank loss, a singular closure or inflow block, no nonzero
  speed); exit 3.
- ``NearImaginaryEigenvalue``: the sampler skips the point.
- ``SpectralCountMismatch``, ``SignNotConverged``: ``linalg.stable_eigvecs``
  maps ``row`` back to the whole stack, and the sampler names the point in
  the message.

The last three, when they reach the command line, and numpy's
``LinAlgError`` exit 3 as well.  ``UnresolvedLayerWarning`` is a warning, not
an error.
"""


class RelaxbcError(Exception):
    """Base class for all package-specific failures."""


class ParseError(RelaxbcError):
    pass


class ConfigError(RelaxbcError):
    pass


class ValidationFailed(RelaxbcError):
    pass


class GkcFailed(RelaxbcError):
    pass


class AssumptionViolated(RelaxbcError):
    pass


class NearImaginaryEigenvalue(RelaxbcError):
    """An invariant-subspace split was requested for a matrix with an
    eigenvalue too close to the imaginary axis."""

    def __init__(self, eigenvalue, tol):
        self.eigenvalue = eigenvalue
        self.tol = tol
        super().__init__(
            f"eigenvalue {eigenvalue} lies within {tol:.3e} of the imaginary axis"
        )


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


class UnresolvedLayerWarning(UserWarning):
    """Fewer than 4 boundary cells fall inside the epsilon layer, or the final
    time lets reflections from the truncation boundary reach x = 0."""
