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

#: a speed whose magnitude lies between tau = tau_eig(||A1||) and this
#: multiple of it is neither clearly zero nor clearly nonzero: ``split_speeds``
#: refuses it rather than guess, since a wrong zero count corrupts every
#: reduced dimension
EIG_GREY_FACTOR = 10.0

#: item (i) of structural stability compares P Q with diag(0, S) P, S taken
#: from P Q P^{-1}: the inverse of P carries round-off the other residuals do
#: not, so that item passes within this multiple of tau_sym
KERNEL_SPLIT_SLACK = 1e2

#: distance-to-imaginary-axis tolerance for invariant-subspace splits
AXIS_REL = 1e-8

#: a batched eigen-split defers a point to the sign split when one of
#: its eigenvalues lies within this multiple of the axis tolerance, so that
#: the scalar axis guard alone decides the points near it
AXIS_MARGIN = 2.0

#: a batched eigen-split defers a point to the sign split when the unit
#: stable eigenvectors it found span a volume |det R| (V = Q R) below the
#: reciprocal of this: nearly parallel vectors (a nearly defective M) carry
#: determinant ratios that lose about this factor to round-off
EIGVEC_COND_MAX = 1e4

#: a batched eigen-split defers a point to the sign split when a stable
#: eigenvalue lies within this fraction of ||M||_F of an unstable one: the
#: inverse iteration on it would then mix in that unstable eigenvector
EIGVAL_GAP_REL = 1e-6

#: a batched eigen-split defers a point to the sign split when a unit stable
#: eigenvector v of eigenvalue lam has a residual |M v - lam v| above this
#: fraction of ||M||_F
EIGVEC_RESIDUAL_REL = 1e-10

#: inverse iteration for a stable eigenvector shifts by the eigenvalue plus
#: this fraction of ||M||_F, so that M - shift I is nonsingular even where the
#: eigenvalue was computed exactly; each step shrinks the error along an
#: eigenvector of eigenvalue mu by |offset / (mu - lam)| <= this fraction
#: over EIGVAL_GAP_REL for the unstable ones
INVERSE_SHIFT_REL = 1e-13

#: inverse-iteration steps per stable eigenvector
INVERSE_STEPS = 2

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

#: ``check_gkc`` refines the grid around a minimum below this multiple of
#: C_THRESHOLD before its verdict: between grid points such a minimum may be
#: a true zero, or only slow decay
REFINE_MARGIN = 10.0

#: an inflow boundary block (B R_+ for the stiff solver, B_o B_u W_+ for the
#: equilibrium solver) is singular when its smallest singular value is at
#: most this fraction of max(largest singular value, 1)
BOUNDARY_SINGULAR_REL = 1e-12

#: ``solve_relaxation`` warns when the final time exceeds this fraction of
#: the time x_max / rho(A1) the fastest wave takes to cross the domain, since
#: reflections from the truncation boundary may then reach x = 0
REFLECTION_TIME_FRAC = 0.9

#: ``solve_relaxation`` warns when fewer mesh cells than this fall inside the
#: eps-layer width: the layer decays on the scale eps, and fewer cells do not
#: resolve it
LAYER_CELLS_MIN = 4

#: relative round-off of the stiff mesh's cell lengths: ``graded_mesh`` keeps
#: a final cell that falls short of dx_min by at most this fraction and merges
#: a shorter one; a cell within this fraction of 2^k times the smallest cell
#: takes time level k
MESH_ROUNDOFF_REL = 1e-9

#: largest stiff run ``sim.plan_run`` lets start: mesh nodes, bounded
#: before the mesh is allocated (the converge fixtures' meshes have
#: 4,023 nodes at eps 3e-4, x_max 2 over dx_max 5e-4) and finest time steps
#: (the 2x2 fixture takes 30,352 there)
STIFF_NODES_MAX = 1_000_000
STIFF_STEPS_MAX = 10_000_000

#: largest magnitude of a matrix entry of a system file and of a waveform or
#: profile parameter (and ``--threshold``): a Q entry of 1e308 overflowed the
#: structural checks, and an amplitude of 1e308 the squares of an L2 norm
INPUT_ABS_MAX = 1e100

#: largest frequency sample ``spectral.directions`` lets start, estimated
#: as resolution^(m - 1) + 2 * rim_points before anything is allocated, m the
#: coordinates of a direction.  The default ``gkc`` grid at d = 3 estimates
#: 331,904 (134,242 rows).  Peak memory measured for ``gkc``: 215 MB at d = 3,
#: resolution 40 (2,560,000); 273 MB at d = 19, resolution 2 (1,048,576),
#: where the grid indices of many coordinates dominate
SAMPLE_DIRECTIONS_MAX = 4_000_000

#: convergence errors all below this are round-off: the fitted slope is
#: undefined
DEGENERATE_ERROR_ABS = 1e-14

#: an entry of B_v larger than this in magnitude makes its row of B act on
#: the relaxed variables v
TOUCHES_V_ABS = 1e-14

#: entries of B_o this small in magnitude count as zero (row signs)
B_O_ENTRY_ABS = 1e-12

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

#: ``make_double_characteristic`` draws the scale alpha of A1 = alpha p p^T -
#: beta q q^T uniformly from this range, and rejects a draw whose beta =
#: alpha p_1^2 / q_1^2 falls outside the open band after it
FIXTURE_ALPHA_RANGE = (0.5, 2.0)
FIXTURE_BETA_BAND = (0.1, 10.0)

#: ``random_system`` draws the magnitude of each nonzero speed of A1
#: uniformly from this range
FIXTURE_SPEED_RANGE = (0.5, 2.5)

#: ``random_system`` draws S = -(G G^T + (this + U(0, 1)) I), so no rate of
#: S is smaller than this before the rates are normalised
FIXTURE_S_SHIFT_MIN = 0.2

#: ``random_frequency_point`` draws Re xi, then Im xi and each omega, then
#: eta uniformly from these ranges
FIXTURE_RE_XI_RANGE = (0.05, 2.0)
FIXTURE_IM_XI_OMEGA_RANGE = (-2.0, 2.0)
FIXTURE_ETA_RANGE = (0.0, 10.0)

#: ``well_conditioned`` counts an eigenvalue of A1_hat^-1 Q_hat this small in
#: magnitude as a zero rate
FIXTURE_ZERO_EIG_ABS = 1e-8

#: ``random_system`` rejects a draw whose fastest relaxation rate (singular
#: value of S) exceeds this multiple of its slowest, keeping rates comparable
FIXTURE_RATE_SPREAD_MAX = 10.0

#: ``random_system`` rejects a draw whose R0^T Q R0 has a singular value below
#: this (kernel-overlap margin): weak overlaps give badly scaled reductions
FIXTURE_KERNEL_OVERLAP_MIN = 0.05

#: ``well_conditioned`` bounds: the largest condition number of A1_hat and
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
