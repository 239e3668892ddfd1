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

#: a batched eigen-split defers a point to the sign split when one of
#: its eigenvalues lies within this multiple of the axis tolerance, so that
#: the scalar axis guard alone decides the points near it
AXIS_MARGIN = 2.0

#: largest eigenvector-matrix condition number at which a batched eigen-split
#: stands in for the sign split: eigenvalues move by at most this factor
#: times round-off, and determinant ratios on the eigenvectors lose about it
EIGVEC_COND_MAX = 1e4

#: Newton's iteration for sign(M) scales its first this many iterates by
#: |det|^(-1/n) (Byers 1987), then runs unscaled for quadratic convergence
SIGN_SCALED_STEPS = 6

#: the sign iteration has converged on a matrix when one step changes it by
#: at most this fraction of its Frobenius norm
SIGN_REL_CHANGE = 1e-13

#: a matrix whose sign iteration has not converged after this many steps
#: raises SignNotConverged
SIGN_MAX_STEPS = 50

#: default lower bound c_K for declaring the sampled Kreiss ratio positive
C_THRESHOLD = 1e-6

#: an inflow boundary block (B R_+ for the stiff solver, B_o B_u W_+ for the
#: equilibrium solver) is singular when its smallest singular value is at
#: most this fraction of max(largest singular value, 1)
BOUNDARY_SINGULAR_REL = 1e-12

#: relative round-off of the stiff mesh's cell lengths: ``graded_mesh`` keeps
#: a final cell that falls short of dx_min by at most this fraction and merges
#: a shorter one; a cell within this fraction of 2^k times the smallest cell
#: takes time level k
MESH_ROUNDOFF_REL = 1e-9

#: convergence errors all below this are round-off: the fitted slope is
#: undefined
DEGENERATE_ERROR_ABS = 1e-14

#: an entry of B_v larger than this in magnitude makes its row of B act on
#: the relaxed variables v
TOUCHES_V_ABS = 1e-14

#: ExpActionEvaluator diagonalises M below this eigenvector condition number
EXP_EIGVEC_COND_MAX = 1e8

#: entries of B_o this small in magnitude count as zero (realness, row signs)
B_O_ENTRY_ABS = 1e-12

#: ``np.real_if_close`` tolerance, in machine epsilons, for taking Y3 as real
Y3_REAL_IF_CLOSE_EPS = 1e4

#: relative imaginary part below which a closure solution is taken as real
CLOSURE_IMAG_REL = 1e-10

#: relative imaginary part above which a report matrix is written as complex
REPORT_IMAG_REL = 1e-14

#: ``make_double_characteristic`` rejects a draw whose second direction q has
#: a part orthogonal to p shorter than this
FIXTURE_ORTHOGONAL_MIN = 1e-3

#: ``make_double_characteristic`` rejects a draw where |p_1| or |q_1| is
#: below this, so the scaling beta = alpha p_1^2 / q_1^2 stays moderate
FIXTURE_FIRST_COMPONENT_MIN = 0.2

#: ``make_double_characteristic`` rejects a draw whose kernel direction of A1
#: has a relaxed part shorter than this (the kernel-overlap oracle)
FIXTURE_KERNEL_RELAXED_MIN = 0.2

#: ``make_double_characteristic`` rejects a draw whose boundary row, with the
#: kernel direction projected out, is shorter than this
FIXTURE_BOUNDARY_ROW_MIN = 1e-2

#: ``well_conditioned`` counts an eigenvalue of A1_hat^-1 Q_hat this small in
#: magnitude as a zero rate
FIXTURE_ZERO_EIG_ABS = 1e-8

#: ``random_system`` rejects a draw whose fastest relaxation rate (singular
#: value of S) exceeds this multiple of its slowest, keeping rates comparable
FIXTURE_RATE_SPREAD_MAX = 10.0

#: ``random_system`` rejects a draw whose R0^T Q R0 has a singular value below
#: this (kernel-overlap margin): weak overlaps give badly scaled reductions
FIXTURE_KERNEL_OVERLAP_MIN = 0.05

#: ``well_conditioned`` defaults: the largest condition number of A1_hat and
#: the smallest damping rate |Re| of a nonzero eigenvalue of A1_hat^-1 Q_hat
FIXTURE_A1_HAT_COND_MAX = 1e3
FIXTURE_DAMPING_GAP_MIN = 0.3


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
