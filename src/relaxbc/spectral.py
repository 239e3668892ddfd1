"""Frequency-domain objects for the half-space eigenvalue problem: kernel
frames, the reduced matrix M(xi, omega, eta), the determinant ratio of a
stable basis, and sampled verification of the characteristic generalized
Kreiss condition (GKC).

Sampling yields evidence, not proof: the condition quantifies over an
unbounded parameter set, which we compactify using the exact degree-1
positive homogeneity of M.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    AssumptionViolated,
    ConfigError,
    RelaxbcError,
    SkConditionViolated,
    SpectralCountMismatch,
)
# split_invariant_subspaces is not called here; perfbench/spans.py wraps it by
# this name
from .linalg import (
    full_rank_cond,
    orthonormal_complement,
    split_invariant_subspaces,
    stable_eigvecs,
)
from .model import RelaxationSystem, check_sk_condition, split_speeds
from .pool import thread_map
from .tolerances import C_THRESHOLD

log = logging.getLogger(__name__)

#: perturbed directions per unit of resolution refining a near-threshold minimum
REFINE_FACTOR = 4

#: directions per batched evaluation.  It bounds the memory of the stacked
#: eigenproblems: evaluating 16,233 d = 3 directions in one stack raised the
#: peak resident memory by 44 MB, in chunks of 1024 by 0.2 MB.  The pool of
#: ``map_chunks`` holds one chunk per CPU in flight: on two CPUs the certify-d3
#: peak was 77.1 MB with chunks of 1024 and 73.8 MB with chunks of 512.
CHUNK = 512


@dataclass(frozen=True)
class KernelFrame:
    """The elaborately chosen frame (R1, R0) for the kernel of A1.

    R0 is an orthonormal kernel basis of A1, R1 = blockdiag(I_{n-r}, R02_perp)
    with R02_perp an orthonormal complement of the lower block R02 of R0.
    The reduced coefficients are
    A1_hat = R1^T A1 R1 and Q_hat = blockdiag(0, S_hat).
    """

    R0: np.ndarray
    R1: np.ndarray
    R02: np.ndarray
    R02_perp: np.ndarray
    A1_hat: np.ndarray
    Q_hat: np.ndarray
    S_hat: np.ndarray
    A12_hat: np.ndarray
    A22_hat: np.ndarray

    @property
    def n0(self) -> int:
        return self.R0.shape[1]


@dataclass(frozen=True)
class FrequencyPoint:
    """A point (xi, omega, eta) with Re xi > 0, eta >= 0 (or math.inf)."""

    xi: complex
    omega: np.ndarray
    eta: float

    def as_tuple(self) -> tuple:
        return (
            float(self.xi.real),
            float(self.xi.imag),
            *map(float, np.atleast_1d(self.omega)),
            float(self.eta),
        )


@dataclass
class SamplingSpec:
    """Grid of the hemisphere GKC sampler; its threshold is C_THRESHOLD."""

    resolution: int = 24
    delta: float = 1e-3  # smallest Re(xi) slice, relative to sphere radius
    rim_points: int = 64  # low-discrepancy points near each degenerate rim
    seed: int = 20240817


def _pairs(points: np.ndarray, values: np.ndarray) -> list:
    """The ``(row tuple, ratio)`` pairs of a sample held as arrays."""
    return list(zip(map(tuple, points.tolist()), values.tolist()))


@dataclass
class GkcReport:
    """Outcome of ``check_gkc``.  The sample is held as arrays: ``points``
    (N, d + 2), the rows (Re xi, Im xi, omega..., eta) that were not skipped,
    and ``values`` (N,), their ratios.  They cover the GKC grid of
    ``directions``, which lists one member of each conjugate pair
    (xi, omega, eta), (conj xi, -omega, eta): for real A, Q and B the ratio
    is equal at the two.  ``ratios`` lists them as (row tuple, ratio)
    pairs, built afresh on each read."""

    min_ratio: float
    argmin_point: FrequencyPoint | None
    samples: int
    includes_eta_infinity: bool
    passed: bool
    c_threshold: float
    points: np.ndarray
    values: np.ndarray
    eta_inf_min_ratio: float | None = None
    eta_inf_skipped: int = 0  # eta = inf directions skipped near the axis
    eta_inf_error: str | None = None  # why the eta = inf limit was not formed
    subthreshold_points: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    note: str = (
        "sampled verification: evidence over a finite grid, not a proof; "
        "the trend as Re(xi) -> 0 is reported but not extrapolated"
    )

    @property
    def ratios(self) -> list:
        return _pairs(self.points, self.values)

    def to_dict(self) -> dict:
        return {
            "min_ratio": float(self.min_ratio),
            "argmin_point": None
            if self.argmin_point is None
            else list(self.argmin_point.as_tuple()),
            "samples": self.samples,
            "includes_eta_infinity": self.includes_eta_infinity,
            "eta_inf_min_ratio": None
            if self.eta_inf_min_ratio is None
            else float(self.eta_inf_min_ratio),
            "eta_inf_skipped": self.eta_inf_skipped,
            "eta_inf_error": self.eta_inf_error,
            "passed": self.passed,
            "c_threshold": self.c_threshold,
            "subthreshold_points": [
                [list(p), float(v)] for p, v in self.subthreshold_points
            ],
            "failures": list(self.failures),
            "note": self.note,
        }


def build_kernel_frame(sys: RelaxationSystem) -> KernelFrame:
    """Construct the kernel frame with the structured choice of R1.

    Requires the Shizuta-Kawashima-like condition (the lower block R02 of the
    kernel basis must have full column rank); raises SkConditionViolated
    otherwise.  With n0 = 0 the frame degenerates to R1 = I, A1_hat = A1,
    S_hat = S.
    """
    n, r = sys.n, sys.r
    A1, Q, S = sys.A1, sys.Q, sys.S
    R0 = split_speeds(sys)[0].kernel
    n0 = R0.shape[1]
    R02 = R0[n - r :, :]
    full_rank_cond(R02, SkConditionViolated(
        "lower block R02 of the kernel basis is rank-deficient"
    ))
    R02_perp = orthonormal_complement(R02)  # r x (r - n0)
    R1 = np.zeros((n, (n - r) + R02_perp.shape[1]))
    R1[: n - r, : n - r] = np.eye(n - r)
    R1[n - r :, n - r :] = R02_perp

    A1_hat = R1.T @ A1 @ R1
    core = np.linalg.solve(R02.T @ S @ R02, R02.T @ S)
    S_hat = R02_perp.T @ (S - S @ R02 @ core) @ R02_perp
    Q_hat = np.zeros((n - n0, n - n0))
    Q_hat[n - r :, n - r :] = S_hat

    A12_hat = sys.A12 @ R02_perp
    A22_hat = R02_perp.T @ sys.A22 @ R02_perp
    return KernelFrame(
        R0=R0,
        R1=R1,
        R02=R02,
        R02_perp=R02_perp,
        A1_hat=A1_hat,
        Q_hat=Q_hat,
        S_hat=S_hat,
        A12_hat=A12_hat,
        A22_hat=A22_hat,
    )


def _M_stack(sys: RelaxationSystem, frame):
    """The (n - n0) x (n - n0) reduction of the frequency-domain ODE,

        M = A1_hat^{-1} [G11 - G10 G00^{-1} G01],  G_kl = R_k^T G R_l,
        G = eta Q - xi I - i sum_j omega_j A_j,  A1_hat = R1^T A1 R1,

    as a function of the rows (Re xi, Im xi, omega..., eta) of a direction
    array returning the stack M (N, k, k).  ``frame`` needs only R0/R1
    attributes, so alternative frames can be passed for frame-independence
    checks.  For n0 = 0, M = A1^{-1} G.  M is positively homogeneous of
    degree 1 in (xi, omega, eta).  A1_hat is inverted once, when the
    function is built, and applied to each stack by matmul."""
    k = frame.R1.shape[1]
    # G is linear in (eta, xi, omega), so its blocks in the frame (R1, R0)
    # combine fixed projections
    F = np.hstack([frame.R1, frame.R0])
    terms = np.stack([F.T @ X @ F for X in (sys.Q, np.eye(sys.n), *sys.A[1:])])
    A1_hat_inv = np.linalg.inv(frame.R1.T @ sys.A1 @ frame.R1)

    def evaluate(u):
        coef = np.column_stack([u[:, -1], -(u[:, 0] + 1j * u[:, 1]), -1j * u[:, 2:-1]])
        G = np.einsum("np,pab->nab", coef, terms)
        core = G[:, :k, :k]
        if k < G.shape[1]:
            core = core - G[:, :k, k:] @ np.linalg.solve(G[:, k:, k:], G[:, k:, :k])
        return A1_hat_inv @ core

    return evaluate


def build_M(sys: RelaxationSystem, frame, p: FrequencyPoint) -> np.ndarray:
    """M(xi, omega, eta) at a finite point (see ``_M_stack``)."""
    return _M_stack(sys, frame)(np.array([p.as_tuple()]))[0]


def gkc_ratio(sys: RelaxationSystem, frame, p: FrequencyPoint) -> float:
    """|det(B R1 R_M^S)| / sqrt(det(R_M^{S*} R_M^S)) at a finite point, R_M^S a
    basis of the stable subspace of M: ``gkc_ratios`` at the single point p.

    The ratio is invariant under right multiplication of the basis by
    invertible matrices and under frame changes.  Raises
    NearImaginaryEigenvalue where ``gkc_ratios`` would skip p.
    """
    vals, skipped = map_chunks(
        np.array([p.as_tuple()]), _M_stack(sys, frame), sys.B @ frame.R1, sys.B.shape[0]
    )
    if skipped:
        raise skipped[0][1]
    return float(vals[0])


#: Joe and Kuo (2008) direction numbers of Sobol dimensions 2 ... 32, as
#: (primitive polynomial with its leading and constant terms, initial m_k)
_JOE_KUO = (
    (3, (1,)), (7, (1, 3)), (11, (1, 3, 1)), (13, (1, 1, 1)),
    (19, (1, 1, 3, 3)), (25, (1, 3, 5, 13)), (37, (1, 1, 5, 5, 17)),
    (41, (1, 1, 5, 5, 5)), (47, (1, 1, 7, 11, 19)), (55, (1, 1, 5, 1, 1)),
    (59, (1, 1, 1, 3, 11)), (61, (1, 3, 5, 5, 31)), (67, (1, 3, 3, 9, 7, 49)),
    (91, (1, 1, 1, 15, 21, 21)), (97, (1, 3, 1, 13, 27, 49)),
    (103, (1, 1, 1, 15, 7, 5)), (109, (1, 3, 1, 15, 13, 25)),
    (115, (1, 1, 5, 5, 19, 61)), (131, (1, 3, 7, 11, 23, 15, 103)),
    (137, (1, 3, 7, 13, 13, 15, 69)), (143, (1, 1, 3, 13, 7, 35, 63)),
    (145, (1, 3, 5, 9, 1, 25, 53)), (157, (1, 3, 1, 13, 9, 35, 107)),
    (167, (1, 3, 1, 5, 27, 61, 31)), (171, (1, 1, 5, 11, 19, 41, 61)),
    (185, (1, 3, 5, 3, 3, 13, 69)), (191, (1, 1, 7, 13, 1, 19, 1)),
    (193, (1, 3, 7, 5, 13, 19, 59)), (203, (1, 1, 3, 9, 25, 29, 41)),
    (211, (1, 3, 5, 13, 23, 1, 55)), (213, (1, 3, 7, 3, 13, 59, 17)),
)
SOBOL_MAX_DIM = len(_JOE_KUO) + 1
_BITS = 30


def _sobol(dim: int, n: int, seed: int) -> np.ndarray:
    """The first n >= 1 points of the scrambled Sobol sequence in [0, 1)^dim,
    equal to scipy's ``qmc.Sobol(d=dim, scramble=True, seed=seed)
    .random(n)``: Joe-Kuo direction numbers, Matousek's linear matrix
    scramble and a digital shift, drawn from ``default_rng(seed)`` in scipy's
    order, 30 bits."""
    if dim > SOBOL_MAX_DIM:
        raise ConfigError(
            f"rim points need a Sobol sequence in {dim} dimensions; the table "
            f"holds {SOBOL_MAX_DIM} (d <= {SOBOL_MAX_DIM - 1}); "
            "rim_points = 0 (--rim-points 0) leaves them out"
        )
    # Bratley-Fox recursion for m_k; the first dimension has every m_k = 1
    m = np.ones((dim, _BITS), dtype=np.int64)
    for row, (poly, m_init) in zip(m[1:], _JOE_KUO):
        s = len(m_init)
        row[:s] = m_init
        for j in range(s, _BITS):
            new = row[j - s]
            for k in range(s):
                if poly >> (s - 1 - k) & 1:
                    new ^= row[j - k - 1] << (k + 1)
            row[j] = new
    top = _BITS - 1 - np.arange(_BITS)  # place of the bit k-th from the top
    rng = np.random.default_rng(seed)
    shift = rng.integers(2, size=(dim, _BITS), dtype=np.uint32) @ (1 << np.arange(_BITS))
    ltm = np.tril(rng.integers(2, size=(dim, _BITS, _BITS), dtype=np.uint32))
    ltm[:, np.arange(_BITS), np.arange(_BITS)] = 1
    v = m << top  # v_j = m_j / 2^(j + 1) as a 30-bit integer
    # scramble: the bits of v_j, top first, times the lower triangular matrix mod 2
    bits = (v[:, :, None] >> top) & 1
    v = (np.einsum("dir,djr->dji", ltm, bits) & 1) @ (1 << top)
    # Gray-code order: point k + 1 flips v_c of point k, c = trailing zeros of k + 1
    k = np.arange(1, n)
    _, c = np.frexp(k & -k)
    quasi = np.bitwise_xor.accumulate(np.vstack([shift, v[:, c - 1].T]), axis=0)
    return quasi * 2.0**-_BITS


def directions(m: int, spec: SamplingSpec, _conjugate_half: bool = True) -> np.ndarray:
    """Distinct unit directions on {u in R^m : |u| = 1, u_0 >= delta, u_{m-1} >= 0}.

    Coordinates are ordered (Re xi, Im xi, omega..., eta) for the GKC
    hemisphere, (Re xi, Im xi, omega...) for the eta = infinity and UKC
    samples.  Spherical angles: u_0 = cos(phi_1), the last coordinate carries
    the full sine product, so restricting phi_{m-1} to [0, pi] enforces
    u_{m-1} >= 0.  Low-discrepancy points are appended near the two
    degenerate rims (Re xi -> 0 and eta-dominant directions): the first
    2 * rim_points of the scrambled Sobol sequence in m - 1 dimensions that
    ``_sobol`` draws in the package, equal to scipy's
    ``qmc.Sobol(d=m - 1, scramble=True, seed=seed)``.  Its direction-number
    table ends at SOBOL_MAX_DIM = 32 dimensions, so rim points need
    m <= 33 (d <= 31 on the GKC hemisphere); past that they raise
    ``ConfigError``.  The tensor
    grid repeats its pole points; a row equal to an earlier one (with -0.0
    read as 0.0) is dropped, so every direction is evaluated once, in
    first-occurrence order.

    The grid is a conjugate half.  Reflecting phi_2 ... phi_{m-1} to
    pi - phi maps u to its mirror u * (1, -1, ..., -1, 1), in GKC
    coordinates (xi, omega, eta) -> (conj xi, -omega, eta).  For real A, Q
    and B, M there is the complex conjugate of M and the GKC ratio is equal
    at the two.  The tensor rows keep phi_2 < pi / 2 (Im xi > 0); at odd
    resolutions, on the slice phi_2 = pi / 2 they keep phi_3 < pi / 2, on
    phi_2 = phi_3 = pi / 2 phi_4 < pi / 2, and so on, down to the one row
    that is its own mirror.  So the grid holds one member of each conjugate
    pair; the rim rows are kept whole.  ``_conjugate_half=False`` keeps the
    whole tensor grid, as ``xi_omega_directions`` needs.
    """
    res = spec.resolution
    phi_max = math.acos(spec.delta)
    # phi_2 ... phi_{m-1} on [0, pi] as grid indices, in tensor order; an odd
    # grid has pi / 2 exactly at its middle index
    line = np.linspace(0.0, math.pi, res)
    if res % 2:
        line[res // 2] = math.pi / 2
    idx = np.indices((res,) * (m - 2)).reshape(m - 2, res ** (m - 2)).T
    if _conjugate_half and m > 2:
        # the reflection phi -> pi - phi maps index i to res - 1 - i: keep
        # the rows whose first index off the middle lies below it, and the
        # row with every index there, which is its own mirror
        lead = np.zeros(len(idx), dtype=int)
        for side in np.sign(res - 1 - 2 * idx).T[::-1]:
            lead = np.where(side != 0, side, lead)
        idx = idx[lead >= 0]
    angles = np.column_stack([
        np.repeat(np.linspace(0.0, phi_max, res), len(idx)),
        np.tile(line[idx], (res, 1)),
    ])  # (N, m-1), phi_1 outermost

    if spec.rim_points > 0 and m >= 2:
        extra = _sobol(m - 1, 2 * spec.rim_points, spec.seed)
        rim1 = extra[: spec.rim_points].copy()  # Re xi -> 0 rim
        rim1[:, 0] = phi_max * (1 - 1e-3 * rim1[:, 0])
        rim1[:, 1:] *= math.pi
        rim2 = extra[spec.rim_points :].copy()  # eta-dominant rim
        rim2[:, 0] = phi_max * rim2[:, 0]
        if m > 2:
            rim2[:, 1:-1] = math.pi * rim2[:, 1:-1]
        rim2[:, -1] = math.pi / 2 * (1 - 0.02 * rim2[:, -1])
        angles = np.vstack([angles, rim1, rim2])

    units = _angles_to_unit(angles, m) + 0.0  # + 0.0 turns -0.0 into 0.0
    _, first = np.unique(units, axis=0, return_index=True)
    return units[np.sort(first)]


def xi_omega_directions(d: int, spec: SamplingSpec) -> np.ndarray:
    """The (Re xi, Im xi, omega) grid shared by the eta = infinity and UKC
    samples: the tensor part of ``directions``, restricted to Re xi > 0.

    For real A, Q and B, M1 at (conj xi, -omega) is the complex conjugate
    of M1 at (xi, omega), and so is the eta = infinity limit basis; both
    ratios are equal at the two points.  That conjugation negates every
    coordinate but Re xi, the last one too, so the half u_{m-1} >= 0
    (omega_{d-1} >= 0, or Im xi >= 0 when d = 1) holds a member of every
    pair."""
    units = directions(d + 1, replace(spec, rim_points=0), _conjugate_half=False)
    return units[units[:, 0] > 0]


def _angles_to_unit(angles: np.ndarray, m: int) -> np.ndarray:
    n_pts = angles.shape[0]
    u = np.zeros((n_pts, m))
    sin_prod = np.ones(n_pts)
    for k in range(m - 1):
        a = angles[:, k]
        # cos(a) is 6e-17 at a = pi / 2: taken as 0 there, a row on the
        # middle slices of an odd grid is its own mirror exactly
        u[:, k] = sin_prod * np.where(a == math.pi / 2, 0.0, np.cos(a))
        # sin(pi - a) is exactly 0 at a = pi, where sin(a) is 1.2e-16: rows
        # repeating a pole are then exact repeats, which the dedup drops
        sin_prod = sin_prod * np.sin(np.minimum(a, math.pi - a))
    u[:, m - 1] = sin_prod
    return u


def _unit_to_point(u: np.ndarray, d: int) -> FrequencyPoint:
    xi = complex(u[0], u[1])
    omega = np.array(u[2 : 2 + (d - 1)], dtype=float)
    eta = float(u[-1])
    return FrequencyPoint(xi=xi, omega=omega, eta=eta)


def det_ratio(X: np.ndarray, L: np.ndarray) -> np.ndarray:
    """|det(X L)| / vol(L) for a stack L (N, m, k) of bases, with
    vol(L) = sqrt(det(L^* L)) = |det R| for the QR factorisation L = Q R;
    0 where vol(L) = 0."""
    num = np.abs(np.linalg.det(X @ L))
    R = np.linalg.qr(L, mode="r")
    vol = np.abs(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1))
    return np.divide(num, vol, out=np.zeros_like(num), where=vol > 0)


def _map_chunk(part: np.ndarray, stack, X: np.ndarray, n_s: int, basis):
    """``map_chunks`` on the rows of one chunk: ``(ratios, skipped)``."""
    try:
        V_s, skip = stable_eigvecs(stack(part), n_s)
    except SpectralCountMismatch as exc:
        raise SpectralCountMismatch(f"{tuple(part[exc.row].tolist())}: {exc}") from exc
    vals = det_ratio(X, V_s if basis is None else basis(V_s))
    vals[list(skip)] = math.nan
    return vals, [(part[i], exc) for i, exc in skip.items()]


def map_chunks(units: np.ndarray, stack, X: np.ndarray, n_s: int, basis=None):
    """The determinant ratio ``det_ratio(X, L)`` at every row of ``units``,
    CHUNK rows at a time: ``stack(rows)`` builds the matrices, whose stable
    bases (of dimension n_s) come from ``stable_eigvecs``, and L is that
    basis, or ``basis`` of it.

    The chunks run through ``pool.thread_map`` (one thread per CPU; one
    chunk, or one CPU, runs without a pool): numpy's stacked LAPACK calls
    release the GIL.  ``stack`` and ``basis`` must therefore be safe to call
    from several threads at once.  Each row's value depends on its chunk
    only, and results are gathered in chunk order, so the output is the same,
    bit for bit, whatever the number of workers.

    Returns ``(ratios, skipped)``: a row whose stable split raised
    NearImaginaryEigenvalue is NaN and listed in ``skipped`` as
    ``(row, exception)``, in row order.  A row with other than n_s stable
    eigenvalues raises SpectralCountMismatch naming the row; when several
    chunks raise, the first in row order does.
    """
    run = functools.partial(_map_chunk, stack=stack, X=X, n_s=n_s, basis=basis)
    parts = [units[start : start + CHUNK] for start in range(0, len(units), CHUNK)]
    results = thread_map(run, parts)
    out = np.concatenate([vals for vals, _ in results]) if results else np.empty(0)
    return out, [row for _, skip in results for row in skip]


def gkc_ratios(
    sys: RelaxationSystem, frame: KernelFrame, units: np.ndarray
) -> tuple[np.ndarray, list]:
    """The GKC ratio |det(B R1 V_s)| / vol(V_s) at every row
    (Re xi, Im xi, omega..., eta) of ``units``, V_s a basis of the stable
    subspace of M.

    Returns ``(ratios, failures)``.  A point whose M has an eigenvalue within
    the axis tolerance is NaN in ``ratios`` and described in ``failures``, in
    point order.
    """
    vals, skipped = map_chunks(units, _M_stack(sys, frame), sys.B @ frame.R1, sys.B.shape[0])
    return vals, [f"{_unit_to_point(u, sys.d).as_tuple()}: {exc}" for u, exc in skipped]


def check_gkc(
    sys: RelaxationSystem,
    frame: KernelFrame,
    spec: SamplingSpec | None = None,
) -> GkcReport:
    """Sample the GKC ratio over the compactified parameter hemisphere.

    By homogeneity the ratio depends only on the direction of
    (Re xi, Im xi, omega, eta), so the unbounded quantifier reduces to the
    unit hemisphere plus the eta = infinity limit point (evaluated through
    the large-eta limit matrix).  For real A, Q and B the ratio is equal at
    (xi, omega, eta) and (conj xi, -omega, eta), so the hemisphere grid, and
    the report, list one member of each conjugate pair (see ``directions``);
    AssumptionViolated is raised when a matrix is not real.  If the minimum
    is merely close to the threshold, the grid is refined around the argmin
    before declaring failure.
    The check fails when the eta = infinity limit could not be formed, and
    when a grid, refinement or eta = infinity direction was skipped for an
    eigenvalue near the imaginary axis.
    """
    spec = spec or SamplingSpec()
    if not all(map(np.isrealobj, (*sys.A, sys.Q, sys.B, frame.R0, frame.R1))):
        raise AssumptionViolated("the conjugate half of the GKC grid needs real matrices")
    units = directions(sys.d + 2, spec)
    vals, failures = gkc_ratios(sys, frame, units)
    points, values, best, best_point = _collect(units, vals, sys.d)
    sub = _subthreshold(points, values)
    log.debug("gkc: %d directions, %d skipped, minimum %.6g",
              len(units), len(failures), best)

    eta_inf_min, eta_inf_point, eta_inf_skipped, eta_inf_error = (
        _eta_infinity_min_ratio(sys, frame, spec)
    )
    if eta_inf_min is not None and eta_inf_min < best:
        best, best_point = eta_inf_min, eta_inf_point

    # local refinement: distinguish a true zero from slow decay
    if best_point is not None and math.isfinite(best_point.eta) and best < 10 * C_THRESHOLD:
        best, best_point, extra_sub, extra_failures = _refine_minimum(
            sys, frame, spec, best, best_point
        )
        sub.extend(extra_sub)
        failures.extend(extra_failures)

    passed = (
        best > C_THRESHOLD and not math.isinf(best) and eta_inf_error is None
        and not failures and eta_inf_skipped == 0
    )
    return GkcReport(
        min_ratio=best if math.isfinite(best) else 0.0,
        argmin_point=best_point,
        samples=len(values),
        includes_eta_infinity=eta_inf_error is None,
        eta_inf_min_ratio=eta_inf_min,
        eta_inf_skipped=eta_inf_skipped,
        eta_inf_error=eta_inf_error,
        passed=bool(passed),
        c_threshold=C_THRESHOLD,
        subthreshold_points=sub,
        failures=failures,
        points=points,
        values=values,
    )


def _collect(units, vals, d):
    """The rows not skipped (NaN) and their ratios, and the first minimum
    with its point (inf and None when every row was skipped)."""
    kept = ~np.isnan(vals)
    units, vals = units[kept], vals[kept]
    if not vals.size:
        return units, vals, math.inf, None
    i = int(np.argmin(vals))  # first occurrence, as a strict-< scan
    # a point's as_tuple() is its unit row
    return units, vals, float(vals[i]), _unit_to_point(units[i], d)


def _subthreshold(points, values):
    """The (row tuple, ratio) pairs with ratio <= C_THRESHOLD."""
    low = values <= C_THRESHOLD
    return _pairs(points[low], values[low])


def _refine_minimum(sys, frame, spec, best, best_point):
    """Refine the sampling x4 locally around the current argmin.  Returns the
    new minimum and its point, the subthreshold (row, ratio) pairs and the
    failures of the skipped refinement points."""
    center = np.array(best_point.as_tuple())
    scale = max(np.linalg.norm(center), 1.0)
    rng = np.random.default_rng(spec.seed + 1)
    n_local = REFINE_FACTOR * spec.resolution
    u = center + rng.normal(
        scale=scale / (4 * spec.resolution), size=(n_local, center.size)
    )
    u[:, 0] = np.maximum(u[:, 0], spec.delta * scale)  # keep Re xi positive
    u[:, -1] = np.maximum(u[:, -1], 0.0)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    vals, failures = gkc_ratios(sys, frame, u)
    points, values, val, point = _collect(u, vals, sys.d)
    if val < best:
        best, best_point = val, point
    return best, best_point, _subthreshold(points, values), failures


def _eta_infinity_min_ratio(
    sys, frame, spec
) -> tuple[float | None, FrequencyPoint | None, int, str | None]:
    """Min of the limit ratio |det(B R1 R_M^S(xi, omega, inf))| / sqrt(det(.))
    over the (xi, omega) hemisphere, via the large-eta limit matrix.

    Returns ``(minimum, argmin, skipped, error)``, ``argmin`` the point
    (xi, omega, eta = inf) of the first direction attaining the minimum.
    The minimum and argmin are None and ``error`` says why when the limit
    cannot be formed for this system, or when every direction was skipped
    for an eigenvalue near the imaginary axis.
    """
    from . import reduction  # local import: reduction builds on this module

    try:
        eq = reduction.build_equilibrium_frame(sys)
        data = reduction.build_reduction_data(sys, frame, eq)
    except RelaxbcError as exc:
        return None, None, 0, f"{type(exc).__name__}: {exc}"

    units = xi_omega_directions(sys.d, spec)
    vals = reduction.eta_inf_ratios(sys, frame, eq, data, units)
    skipped = int(np.count_nonzero(np.isnan(vals)))
    log.debug("gkc eta = inf: %d directions, %d skipped, minimum %.6g",
              len(vals), skipped, np.nanmin(vals, initial=math.inf))
    if skipped == len(vals):
        return None, None, skipped, "every eta = inf direction was skipped"
    i = int(np.nanargmin(vals))
    point = _unit_to_point(np.append(units[i], math.inf), sys.d)
    return float(vals[i]), point, skipped, None


__all__ = [
    "KernelFrame",
    "FrequencyPoint",
    "SamplingSpec",
    "GkcReport",
    "build_kernel_frame",
    "build_M",
    "gkc_ratio",
    "check_gkc",
    "directions",
    "gkc_ratios",
    "check_sk_condition",
]
