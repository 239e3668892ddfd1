"""Frequency-domain objects for the half-space eigenvalue problem: kernel
frames, the reduced matrix M(xi, omega, eta), the determinant ratio of a
stable basis, and sampled verification of the characteristic generalized
Kreiss condition (GKC).

One builder, ``symbol_stack``, forms the symbol of a system in a frame: M
from (A, Q) in the kernel frame (R1, R0), and the equilibrium symbol M1
that ``reduction`` certifies from (A_11, 0) in the frame (P1, P0) of A_{1,11}.

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
    AssumptionViolated, ConfigError, SignNotConverged, SpectralCountMismatch, ValidationFailed,
)
# split_invariant_subspaces is not called here; perfbench/spans.py wraps it by
# this name
from .linalg import orthonormal_complement, split_invariant_subspaces, stable_eigvecs, volume
from .model import RelaxationSystem, check_sk_condition
from .pool import thread_map
from .tolerances import C_THRESHOLD, REFINE_MARGIN, SAMPLE_DIRECTIONS_MAX

log = logging.getLogger(__name__)

#: perturbed directions per unit of resolution refining a near-threshold minimum
REFINE_FACTOR = 4

#: directions per batched evaluation.  It bounds the memory of the stacked
#: eigenproblems: evaluating 16,233 d = 3 directions in one stack raised the
#: peak resident memory by 44 MB, in chunks of 1024 by 0.2 MB.  The pool of
#: ``sample`` holds one chunk per CPU in flight; on two CPUs the certify-d3
#: peak was 47.0-47.2 MB with chunks of 512 and 46.9-47.0 MB with 1024.
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
    R02_perp: np.ndarray
    A1_hat: np.ndarray
    Q_hat: np.ndarray
    S_hat: np.ndarray
    A12_hat: np.ndarray
    A22_hat: np.ndarray

    @property
    def n0(self) -> int:
        return self.R0.shape[1]


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
    pairs, built afresh on each read, and ``samples`` counts them.
    ``argmin_point`` is the row of the first minimum, with eta = inf when
    the eta = infinity limit attains it, or None when every row was
    skipped."""

    min_ratio: float
    argmin_point: np.ndarray | None
    passed: bool
    points: np.ndarray
    values: np.ndarray
    eta_inf_min_ratio: float | None = None
    eta_inf_skipped: int = 0  # eta = inf directions skipped near the axis
    eta_inf_error: str | None = None  # why the eta = inf limit was not formed
    subthreshold_points: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    re_xi_slice_minima: list = field(default_factory=list)  # see _slice_minima
    note: str = (
        "sampled verification: evidence over a finite grid, not a proof; "
        "the trend as Re(xi) -> 0 is reported but not extrapolated"
    )

    @property
    def ratios(self) -> list:
        return _pairs(self.points, self.values)

    @property
    def samples(self) -> int:
        return len(self.values)

    @property
    def includes_eta_infinity(self) -> bool:
        return self.eta_inf_error is None

    def to_dict(self) -> dict:
        return {
            "min_ratio": float(self.min_ratio),
            "argmin_point": None if self.argmin_point is None else self.argmin_point.tolist(),
            "samples": self.samples,
            "includes_eta_infinity": self.includes_eta_infinity,
            "eta_inf_min_ratio": None
            if self.eta_inf_min_ratio is None
            else float(self.eta_inf_min_ratio),
            "eta_inf_skipped": self.eta_inf_skipped,
            "eta_inf_error": self.eta_inf_error,
            "passed": self.passed,
            "c_threshold": C_THRESHOLD,
            "subthreshold_points": [
                [list(p), float(v)] for p, v in self.subthreshold_points
            ],
            "failures": list(self.failures),
            "re_xi_slice_minima": self.re_xi_slice_minima,
            "note": self.note,
        }


def build_kernel_frame(sys: RelaxationSystem) -> KernelFrame:
    """Construct the kernel frame with the structured choice of R1.

    Requires the Shizuta-Kawashima-like condition (the lower block R02 of the
    kernel basis must have full column rank, ``model.check_sk_condition``);
    raises ValidationFailed otherwise.  With n0 = 0 the frame degenerates to
    R1 = I, A1_hat = A1, S_hat = S.
    """
    if not check_sk_condition(sys):
        raise ValidationFailed("lower block R02 of the kernel basis is rank-deficient")
    n, r, S = sys.n, sys.r, sys.S
    R0 = sys.speeds[0].kernel
    n0 = R0.shape[1]
    R02 = R0[n - r :, :]
    R02_perp = orthonormal_complement(R02)  # r x (r - n0)
    R1 = np.zeros((n, (n - r) + R02_perp.shape[1]))
    R1[: n - r, : n - r] = np.eye(n - r)
    R1[n - r :, n - r :] = R02_perp

    A1_hat = R1.T @ sys.A1 @ R1
    core = np.linalg.solve(R02.T @ S @ R02, R02.T @ S)
    S_hat = R02_perp.T @ (S - S @ R02 @ core) @ R02_perp
    Q_hat = np.zeros((n - n0, n - n0))
    Q_hat[n - r :, n - r :] = S_hat

    A12_hat = sys.A12 @ R02_perp
    A22_hat = R02_perp.T @ sys.A22 @ R02_perp
    return KernelFrame(
        R0=R0,
        R1=R1,
        R02_perp=R02_perp,
        A1_hat=A1_hat,
        Q_hat=Q_hat,
        S_hat=S_hat,
        A12_hat=A12_hat,
        A22_hat=A22_hat,
    )


def symbol_stack(A, Q, R1, R0):
    """The reduction of the frequency-domain ODE of the system with
    coefficients A = (A_1, ..., A_d) and Q to the frame (R1, R0),

        M = A1_hat^{-1} [G11 - G10 G00^{-1} G01],  G_kl = R_k^T G R_l,
        G = eta Q - xi I - i sum_{j>1} omega_j A_j,  A1_hat = R1^T A_1 R1,

    as a function of the rows (Re xi, Im xi, omega..., eta) of a direction
    array returning the stack M (N, k, k), k the column count of R1.  For an
    empty R0, M = A1_hat^{-1} G11.  M is positively homogeneous of degree 1
    in (xi, omega, eta).  A1_hat is inverted once, when the function is
    built, and applied to each stack by matmul."""
    k = R1.shape[1]
    # G is linear in (eta, xi, omega), so its blocks in the frame (R1, R0)
    # combine fixed projections
    F = np.hstack([R1, R0])
    terms = np.stack([F.T @ X @ F for X in (Q, np.eye(len(Q)), *A[1:])])
    A1_hat_inv = np.linalg.inv(R1.T @ A[0] @ R1)

    def evaluate(u):
        coef = np.column_stack([u[:, -1], -(u[:, 0] + 1j * u[:, 1]), -1j * u[:, 2:-1]])
        # einsum, not coef @ terms: BLAS threads started inside the pool's made
        # certify-d3 15-45% slower in wall time, 35-65% costlier in CPU
        G = np.einsum("np,pab->nab", coef, terms)
        core = G[:, :k, :k]
        if k < G.shape[1]:
            core = core - G[:, :k, k:] @ np.linalg.solve(G[:, k:, k:], G[:, k:, :k])
        return A1_hat_inv @ core

    return evaluate


def _M_stack(sys: RelaxationSystem, frame):
    """The (n - n0) x (n - n0) relaxation symbol M, ``symbol_stack`` of
    (A, Q) in the kernel frame.  ``frame`` needs only R0/R1 attributes, so
    alternative frames can be passed for frame-independence checks."""
    return symbol_stack(sys.A, sys.Q, frame.R1, frame.R0)


def build_M(sys: RelaxationSystem, frame, p) -> np.ndarray:
    """M at the finite point p = (Re xi, Im xi, omega..., eta): ``_M_stack`` of one row."""
    return _M_stack(sys, frame)(np.array([p], dtype=float))[0]


def gkc_ratio(sys: RelaxationSystem, frame, p) -> float:
    """|det(B R1 R_M^S)| / sqrt(det(R_M^{S*} R_M^S)) at the finite point
    p = (Re xi, Im xi, omega..., eta), R_M^S a basis of the stable subspace
    of M: the GKC sample of the single row p.

    The ratio is invariant under right multiplication of the basis by
    invertible matrices and under frame changes.  Raises
    NearImaginaryEigenvalue where the sample would skip p.
    """
    point = _gkc_sample("gkc point", sys, frame, np.array([p], dtype=float))
    if point.skipped:
        raise point.skipped[0][1]
    return float(point.ratios[0])


def _gkc_sample(label: str, sys: RelaxationSystem, frame, units: np.ndarray) -> Sample:
    """The GKC ratio |det(B R1 V_s)| / vol(V_s) at every row
    (Re xi, Im xi, omega..., eta) of ``units``, V_s a basis of the stable
    subspace of M: ``sample`` of M in ``frame``."""
    target = {label: (sys.B @ frame.R1, None)}
    return sample(units, _M_stack(sys, frame), sys.B.shape[0], target)[label]


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
    return _directions(m, spec, _conjugate_half)[0]  # the rows alone


def _directions(
    m: int, spec: SamplingSpec, conjugate_half: bool = True, grid: str = "the gkc grid"
):
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
    ``ConfigError``.  So does a grid estimated, before anything is
    allocated, at more than SAMPLE_DIRECTIONS_MAX directions:
    resolution^(m - 1) tensor rows, before the conjugate half and the pole
    repeats are dropped, and 2 * rim_points; the message names ``grid``,
    and its rim points when it has any.  The tensor
    grid repeats its pole points: where an angle before the last is a pole
    (phi_1 = 0, or phi_k in {0, pi} for 2 <= k < m - 1), every row with a
    nonzero later index repeats the row whose later indices are all 0.
    Those repeats are dropped by their indices, before any trigonometry, so
    every direction is evaluated once, in tensor order.

    The grid is a conjugate half.  Reflecting phi_2 ... phi_{m-1} to
    pi - phi maps u to its mirror u * (1, -1, ..., -1, 1), in GKC
    coordinates (xi, omega, eta) -> (conj xi, -omega, eta).  For real A, Q
    and B, M there is the complex conjugate of M and the GKC ratio is equal
    at the two.  The tensor rows keep phi_2 < pi / 2 (Im xi > 0); at odd
    resolutions, on the slice phi_2 = pi / 2 they keep phi_3 < pi / 2, on
    phi_2 = phi_3 = pi / 2 phi_4 < pi / 2, and so on, down to the one row
    that is its own mirror.  So the grid holds one member of each conjugate
    pair; the rim rows are kept whole.  ``conjugate_half=False`` keeps the
    whole tensor grid, as ``xi_omega_directions`` needs.  Returns the rows
    and the count of those, first, that are the tensor grid's.
    """
    res = spec.resolution
    estimate = res ** (m - 1) + 2 * spec.rim_points  # Python ints: no overflow
    if estimate > SAMPLE_DIRECTIONS_MAX:
        rim = f" with {spec.rim_points} rim points" if spec.rim_points else ""
        raise ConfigError(
            f"{grid}: resolution {res}{rim} in m = {m} coordinates asks for about "
            f"{estimate:,} directions, past SAMPLE_DIRECTIONS_MAX = "
            f"{SAMPLE_DIRECTIONS_MAX:,} (relaxbc/tolerances.py)"
        )
    phi_max = math.acos(spec.delta)
    # phi_2 ... phi_{m-1} on [0, pi] as grid indices, in tensor order; an odd
    # grid has pi / 2 exactly at its middle index
    line = np.linspace(0.0, math.pi, res)
    if res % 2:
        line[res // 2] = math.pi / 2
    idx = np.indices((res,) * (m - 2)).reshape(m - 2, res ** (m - 2)).T
    if conjugate_half and m > 2:
        # the reflection phi -> pi - phi maps index i to res - 1 - i: keep
        # the rows whose first index off the middle lies below it, and the
        # row with every index there, which is its own mirror
        lead = np.zeros(len(idx), dtype=int)
        for side in np.sign(res - 1 - 2 * idx).T[::-1]:
            lead = np.where(side != 0, side, lead)
        idx = idx[lead >= 0]
    # drop the repeats of the poles phi_2 ... phi_{m-2}; the slice phi_1 = 0
    # keeps its first row alone, every later index 0
    pole = (line == 0.0) | (line == math.pi)
    later = np.logical_or.accumulate(idx[:, ::-1] != 0, axis=1)[:, ::-1]
    idx = idx[~(pole[idx[:, :-1]] & later[:, 1:]).any(axis=1)]
    angles = np.column_stack([
        np.repeat(np.linspace(0.0, phi_max, res), [1] + [len(idx)] * (res - 1)),
        line[np.vstack([idx[:1], np.tile(idx, (res - 1, 1))])],
    ])  # (N, m-1), phi_1 outermost
    tensor = len(angles)

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

    return _angles_to_unit(angles, m), tensor


def gkc_directions(d: int, spec: SamplingSpec) -> tuple[np.ndarray, int]:
    """The gkc grid of ``check_gkc`` on the (Re xi, Im xi, omega, eta)
    hemisphere: its rows and the count of those, first, that are the tensor
    grid's (``_directions``)."""
    return _directions(d + 2, spec)


def xi_omega_directions(d: int, spec: SamplingSpec) -> np.ndarray:
    """The (Re xi, Im xi, omega) grid shared by the eta = infinity and UKC
    samples: the tensor part of ``directions``, whose every row has
    Re xi = cos(phi_1) >= delta > 0.

    For real A, Q and B, M1 at (conj xi, -omega) is the complex conjugate
    of M1 at (xi, omega), and so is the eta = infinity limit basis; both
    ratios are equal at the two points.  That conjugation negates every
    coordinate but Re xi, the last one too, so the half u_{m-1} >= 0
    (omega_{d-1} >= 0, or Im xi >= 0 when d = 1) holds a member of every
    pair."""
    grid = "the (Re xi, Im xi, omega) grid of the eta = infinity and UKC samples"
    return _directions(d + 1, replace(spec, rim_points=0), False, grid)[0]


def _angles_to_unit(angles: np.ndarray, m: int) -> np.ndarray:
    n_pts = angles.shape[0]
    u = np.zeros((n_pts, m))
    sin_prod = np.ones(n_pts)
    for k in range(m - 1):
        a = angles[:, k]
        # cos(a) is 6e-17 at a = pi / 2: taken as 0 there, a row on the
        # middle slices of an odd grid is its own mirror exactly
        u[:, k] = sin_prod * np.where(a == math.pi / 2, 0.0, np.cos(a))
        # sin(pi - a) is exactly 0 at a = pi, where sin(a) is 1.2e-16: the
        # coordinates after a pole are exact zeros
        sin_prod = sin_prod * np.sin(np.minimum(a, math.pi - a))
    u[:, m - 1] = sin_prod
    return u


def det_ratio(X: np.ndarray, L: np.ndarray, vol: np.ndarray | None = None) -> np.ndarray:
    """|det(X L)| / vol(L) for a stack L (N, m, k) of bases, with
    vol(L) = ``linalg.volume(L)`` unless given; 0 where vol(L) = 0."""
    num = np.abs(np.linalg.det(X @ L))
    if vol is None:
        vol = volume(L)
    return np.divide(num, vol, out=np.zeros_like(num), where=vol > 0)


@dataclass(frozen=True)
class Sample:
    """The determinant ratio of ``sample`` at each row of ``rows``:
    ``ratios`` is NaN where a row was skipped, and ``skipped`` lists those
    rows with the NearImaginaryEigenvalue each raised, in row order;
    ``split`` counts the rows whose basis came from the sign split, not from
    eigenvectors (see ``linalg.stable_eigvecs``)."""

    rows: np.ndarray
    ratios: np.ndarray
    skipped: list
    split: int

    @property
    def kept(self) -> np.ndarray:
        """The mask of the rows not skipped."""
        return ~np.isnan(self.ratios)

    @property
    def minimum(self) -> float:
        """The smallest ratio; inf when every row was skipped."""
        return float(np.fmin.reduce(self.ratios, initial=math.inf))

    @property
    def argmin(self) -> np.ndarray | None:
        """The first row attaining ``minimum``; None when every row was skipped."""
        return self.rows[np.nanargmin(self.ratios)] if self.kept.any() else None

    @property
    def failures(self) -> list:
        """Each skipped row as the line ``"(row tuple): reason"``."""
        return [f"{tuple(row.tolist())}: {exc}" for row, exc in self.skipped]


def _sample_chunk(part: np.ndarray, stack, n_s: int, targets: dict):
    """``sample`` on the rows of one chunk: ``(ratios by target, skipped, split)``."""
    try:
        V_s, vol, skip, split = stable_eigvecs(stack(part), n_s)
    except (SpectralCountMismatch, SignNotConverged) as exc:
        raise type(exc)(f"{tuple(part[exc.row].tolist())}: {exc}") from exc
    ratios = [det_ratio(X, V_s, vol) if basis is None else det_ratio(X, basis(V_s))
              for X, basis in targets.values()]
    for vals in ratios:
        vals[list(skip)] = math.nan
    return ratios, [(part[i], exc) for i, exc in skip.items()], split.size


def sample(units: np.ndarray, stack, n_s: int, targets: dict) -> dict:
    """The determinant ratio ``det_ratio(X, L)`` of each target
    ``name: (X, basis)`` at every row of ``units``, CHUNK rows at a time:
    ``stack(rows)`` builds the matrices, whose stable bases (of dimension
    n_s) ``stable_eigvecs`` splits once for every target, and L is that
    basis, or ``basis`` of it.  Returns the ``Sample`` of each target by
    name.  The GKC grid, its refinement, ``gkc_ratio`` and
    ``reduction.Pipeline.m1`` are each one call.  Logs the debug line
    ``"<names>: N directions, k skipped, s sign-split, minimum m[, m...]"``.

    The chunks run through ``pool.thread_map`` (one thread per CPU; one
    chunk, or one CPU, runs without a pool): numpy's stacked LAPACK calls
    release the GIL.  ``stack`` and each ``basis`` must therefore be safe to
    call from several threads at once.  Each row's value depends on its
    chunk only, and results are gathered in chunk order, so each ``Sample``
    is the same, bit for bit, whatever the number of workers.

    A row whose stable split raised NearImaginaryEigenvalue is skipped.  A
    row with other than n_s stable eigenvalues raises SpectralCountMismatch,
    and a row whose sign iteration does not converge SignNotConverged, each
    naming the row; when several chunks raise, the first in row order does.
    """
    run = functools.partial(_sample_chunk, stack=stack, n_s=n_s, targets=targets)
    parts = [units[start : start + CHUNK] for start in range(0, len(units), CHUNK)]
    results = thread_map(run, parts)
    skipped = [row for _, skip, _ in results for row in skip]
    split = sum(split for _, _, split in results)
    out = {
        name: Sample(units, np.concatenate([r[k] for r, _, _ in results]) if results
                     else np.empty(0), skipped, split)
        for k, name in enumerate(targets)
    }
    log.debug("%s: %d directions, %d skipped, %d sign-split, minimum %s",
              ", ".join(out), len(units), len(skipped), split,
              ", ".join(f"{found.minimum:.6g}" for found in out.values()))
    return out


def require_real(sys: RelaxationSystem, frame: KernelFrame) -> None:
    """Raise AssumptionViolated unless A, Q, B and the frame's R0, R1 are
    real arrays: the conjugate half of the GKC grid and the reduction chain
    (R2^S, B_o, the closure) rest on it."""
    if not all(map(np.isrealobj, (*sys.A, sys.Q, sys.B, frame.R0, frame.R1))):
        raise AssumptionViolated("A, Q, B and the kernel frame must be real matrices")


def check_gkc(
    sys: RelaxationSystem,
    frame: KernelFrame,
    spec: SamplingSpec,
    hemisphere: tuple[np.ndarray, int],
    eta_inf: Sample | str,
) -> GkcReport:
    """Sample the GKC ratio over the compactified parameter hemisphere.

    By homogeneity the ratio depends only on the direction of
    (Re xi, Im xi, omega, eta), so the unbounded quantifier reduces to the
    unit hemisphere plus the eta = infinity limit point.  The caller builds
    both grids, each refused past the direction limit, before it samples
    either: ``hemisphere`` is ``gkc_directions``, and ``eta_inf`` is the
    eta = infinity ``Sample`` of ``reduction.Pipeline.m1`` over
    ``xi_omega_directions``, or the reason the limit was not formed.  For
    real A, Q and B the ratio is equal at (xi, omega, eta) and
    (conj xi, -omega, eta), so the hemisphere grid, and the report, list one
    member of each conjugate pair (see ``directions``); AssumptionViolated
    is raised when a matrix is not real.  If the minimum is merely close to
    the threshold, the grid is refined around the argmin before declaring
    failure.  The check fails when the eta = infinity limit could not be formed, and
    when a grid, refinement or eta = infinity direction was skipped for an
    eigenvalue near the imaginary axis.
    """
    require_real(sys, frame)
    units, tensor = hemisphere
    grid = _gkc_sample("gkc", sys, frame, units)
    points, values = grid.rows[grid.kept], grid.ratios[grid.kept]
    best, best_point, failures = grid.minimum, grid.argmin, grid.failures
    slices = _slice_minima(units[:tensor, 0], grid.ratios[:tensor])
    sub = _subthreshold(grid)

    eta_inf_min, eta_inf_skipped, eta_inf_error = None, 0, None
    if isinstance(eta_inf, str):
        eta_inf_error = eta_inf
    elif eta_inf.argmin is None:
        eta_inf_skipped = len(eta_inf.skipped)
        eta_inf_error = "every eta = inf direction was skipped"
    else:
        eta_inf_min, eta_inf_skipped = eta_inf.minimum, len(eta_inf.skipped)
        if eta_inf_min < best:
            best, best_point = eta_inf_min, np.append(eta_inf.argmin, math.inf)

    # local refinement: distinguish a true zero from slow decay
    near = best < REFINE_MARGIN * C_THRESHOLD
    if best_point is not None and math.isfinite(best_point[-1]) and near:
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
        eta_inf_min_ratio=eta_inf_min,
        eta_inf_skipped=eta_inf_skipped,
        eta_inf_error=eta_inf_error,
        passed=bool(passed),
        subthreshold_points=sub,
        failures=failures,
        re_xi_slice_minima=slices,
        points=points,
        values=values,
    )


def _slice_minima(re_xi, vals):
    """The trend as Re xi -> 0: [Re xi, minimum ratio] of each slice phi_1 of
    the tensor grid (rows ``re_xi``, ratios ``vals``), Re xi decreasing; the
    minimum is None where every row of the slice was skipped."""
    levels, which = np.unique(-re_xi, return_inverse=True)
    low = np.full(levels.size, math.inf)
    np.fmin.at(low, which, vals)
    return [[-r, None if v == math.inf else v] for r, v in zip(levels.tolist(), low.tolist())]


def _subthreshold(found: Sample):
    """The (row tuple, ratio) pairs of a sample with ratio <= C_THRESHOLD."""
    low = found.ratios <= C_THRESHOLD  # False at the NaN of a skipped row
    return _pairs(found.rows[low], found.ratios[low])


def _refine_minimum(sys, frame, spec, best, best_point):
    """Refine the sampling x4 locally around the current argmin row.  Returns
    the new minimum and its row, the subthreshold (row, ratio) pairs and the
    failures of the skipped refinement points."""
    scale = max(np.linalg.norm(best_point), 1.0)
    rng = np.random.default_rng(spec.seed + 1)
    n_local = REFINE_FACTOR * spec.resolution
    u = best_point + rng.normal(
        scale=scale / (4 * spec.resolution), size=(n_local, best_point.size)
    )
    u[:, 0] = np.maximum(u[:, 0], spec.delta * scale)  # keep Re xi positive
    u[:, -1] = np.maximum(u[:, -1], 0.0)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    local = _gkc_sample("gkc refinement", sys, frame, u)
    if local.minimum < best:
        best, best_point = local.minimum, local.argmin
    return best, best_point, _subthreshold(local), local.failures


__all__ = [
    "KernelFrame",
    "SamplingSpec",
    "GkcReport",
    "Sample",
    "build_kernel_frame",
    "build_M",
    "gkc_ratio",
    "check_gkc",
    "directions",
    "gkc_directions",
    "sample",
]
