"""Numerical thresholds.

The underlying theory works with exact matrices; every floating-point test in
this package goes through one of these scale-relative thresholds so the choice
is recorded in exactly one place.
"""

import numpy as np

#: symmetry / residual tolerance, relative to the matrix scale
SYM_REL = 1e-10

#: numerical-rank tolerance, relative to the matrix scale
RANK_REL = 1e-9

#: eigenvalue zero-classification tolerance, relative to the spectral norm
EIG_REL = 1e-9

#: distance-to-imaginary-axis tolerance for invariant-subspace splits
AXIS_REL = 1e-8

#: a batched eigen-split defers a point to the scalar Schur split when one of
#: its eigenvalues lies within this multiple of the axis tolerance, so that
#: the scalar axis guard alone decides the points near it
AXIS_MARGIN = 2.0

#: largest eigenvector-matrix condition number at which a batched eigen-split
#: stands in for the Schur split: eigenvalues move by at most this factor
#: times round-off, and determinant ratios on the eigenvectors lose about it
EIGVEC_COND_MAX = 1e4

#: default lower bound c_K for declaring the sampled Kreiss ratio positive
C_THRESHOLD = 1e-6

#: an inflow boundary block (B R_+ for the stiff solver, B_o B_u W_+ for the
#: equilibrium solver) is singular when its smallest singular value is at
#: most this fraction of max(largest singular value, 1)
BOUNDARY_SINGULAR_REL = 1e-12

#: convergence errors all below this are round-off: the fitted slope is
#: undefined
DEGENERATE_ERROR_ABS = 1e-14

#: an entry of B_v larger than this in magnitude makes its row of B act on
#: the relaxed variables v
TOUCHES_V_ABS = 1e-14

#: a Crank-Nicolson step ending this close before a requested save time
#: saves the snapshot for it
SAVE_TIME_ABS = 1e-12


def spectral_norm(a) -> float:
    a = np.asarray(a)
    if a.size == 0:
        return 0.0
    return float(np.linalg.norm(a, 2))


def tau_sym(scale: float) -> float:
    return SYM_REL * max(scale, 1e-300)


def tau_rank(scale: float) -> float:
    return RANK_REL * max(scale, 1e-300)


def tau_eig(scale: float) -> float:
    return EIG_REL * max(scale, 1e-300)


def tau_axis(scale):
    """Axis tolerance for a scalar or an array of spectral norms."""
    return AXIS_REL * np.maximum(scale, 1e-300)
