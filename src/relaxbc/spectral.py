"""Frequency-domain objects for the half-space eigenvalue problem: kernel
frames, the blocks G_kl, the reduced matrix M(xi, omega, eta), and sampled
verification of the characteristic generalized Kreiss condition (GKC).

Sampling yields evidence, not proof: the condition quantifies over an
unbounded parameter set, which we compactify using the exact degree-1
positive homogeneity of M.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg as sla
from scipy.stats import qmc

from .errors import (
    FrameMismatch,
    NearImaginaryEigenvalue,
    RelaxbcError,
    SkConditionViolated,
    SpectralCountMismatch,
)
from .linalg import (
    orthonormal_complement,
    orthonormal_kernel,
    split_invariant_subspaces,
    stable_eigvecs,
)
from .model import RelaxationSystem, check_sk_condition, compute_indices
from .tolerances import C_THRESHOLD, spectral_norm, tau_axis, tau_rank

#: directions per batched evaluation.  It bounds the memory of the stacked
#: eigenproblems: evaluating a d = 3 grid at resolution 12 (16,233
#: directions) in one stack raised the peak resident memory by 44 MB, in
#: chunks of this size by 0.2 MB.
CHUNK = 1024


@dataclass(frozen=True)
class KernelFrame:
    """The elaborately chosen frame (R1, R0) for the kernel of A1.

    R0 is an orthonormal kernel basis of A1, R1 = blockdiag(I_{n-r}, R02_perp)
    with R02_perp an orthonormal complement of the lower block R02 of R0.
    (L1; L0) is the inverse of (R1, R0).  The reduced coefficients are
    A1_hat = R1^T A1 R1 and Q_hat = blockdiag(0, S_hat).
    """

    R0: np.ndarray
    R1: np.ndarray
    L0: np.ndarray
    L1: np.ndarray
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
    """Resolution and thresholds for the hemisphere GKC sampler."""

    resolution: int = 24
    delta: float = 1e-3  # smallest Re(xi) slice, relative to sphere radius
    c_threshold: float = C_THRESHOLD
    rim_points: int = 64  # low-discrepancy points near each degenerate rim
    refine_factor: int = 4
    seed: int = 20240817
    include_eta_infinity: bool = True


@dataclass
class GkcReport:
    min_ratio: float
    argmin_point: FrequencyPoint | None
    samples: int
    includes_eta_infinity: bool
    passed: bool
    c_threshold: float
    eta_inf_min_ratio: float | None = None
    eta_inf_skipped: int = 0  # eta = inf directions skipped near the axis
    eta_inf_error: str | None = None  # why the eta = inf limit was not formed
    subthreshold_points: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    ratios: list = field(default_factory=list)  # (point tuple, ratio) rows
    note: str = (
        "sampled verification: evidence over a finite grid, not a proof; "
        "the trend as Re(xi) -> 0 is reported but not extrapolated"
    )

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
    R0 = orthonormal_kernel(A1)
    n0 = R0.shape[1]
    R02 = R0[n - r :, :]
    if n0 > 0:
        s = sla.svdvals(R02)
        if s.size < n0 or s[-1] <= tau_rank(1.0):
            raise SkConditionViolated(
                "lower block R02 of the kernel basis is rank-deficient"
            )
    R02_perp = orthonormal_complement(R02)  # r x (r - n0)
    R1 = np.zeros((n, (n - r) + R02_perp.shape[1]))
    R1[: n - r, : n - r] = np.eye(n - r)
    R1[n - r :, n - r :] = R02_perp

    full = np.hstack([R1, R0])
    inv = np.linalg.inv(full)
    L1, L0 = inv[: n - n0, :], inv[n - n0 :, :]

    A1_hat = R1.T @ A1 @ R1
    if n0 > 0 and R02_perp.shape[1] > 0:
        core = np.linalg.solve(R02.T @ S @ R02, R02.T @ S)
        S_hat = R02_perp.T @ (S - S @ R02 @ core) @ R02_perp
    elif R02_perp.shape[1] > 0:
        S_hat = R02_perp.T @ S @ R02_perp
    else:
        S_hat = np.zeros((0, 0))
    Q_hat = np.zeros((n - n0, n - n0))
    Q_hat[n - r :, n - r :] = S_hat

    A12_hat = sys.A12 @ R02_perp
    A22_hat = R02_perp.T @ sys.A22 @ R02_perp
    return KernelFrame(
        R0=R0,
        R1=R1,
        L0=L0,
        L1=L1,
        R02=R02,
        R02_perp=R02_perp,
        A1_hat=A1_hat,
        Q_hat=Q_hat,
        S_hat=S_hat,
        A12_hat=A12_hat,
        A22_hat=A22_hat,
    )


def _G(sys: RelaxationSystem, p: FrequencyPoint) -> np.ndarray:
    G = p.eta * sys.Q.astype(complex) - p.xi * np.eye(sys.n)
    omega = np.atleast_1d(p.omega)
    for j in range(1, sys.d):
        G = G - 1j * omega[j - 1] * sys.A[j]
    return G


def assemble_G(sys: RelaxationSystem, frame, p: FrequencyPoint) -> dict:
    """The four blocks G_kl = R_k^T G R_l of G = eta Q - xi I - i sum omega_j A_j.

    ``frame`` needs only R0/R1 attributes, so alternative (non-structured)
    frames can be passed for frame-independence checks.
    """
    G = _G(sys, p)
    R0, R1 = frame.R0, frame.R1
    return {
        "G00": R0.T @ G @ R0,
        "G01": R0.T @ G @ R1,
        "G10": R1.T @ G @ R0,
        "G11": R1.T @ G @ R1,
    }


def build_M(sys: RelaxationSystem, frame, p: FrequencyPoint) -> np.ndarray:
    """The (n - n0) x (n - n0) reduction of the frequency-domain ODE:

        M = A1_hat^{-1} [G11 - G10 G00^{-1} G01].

    For n0 = 0 this is A1^{-1} (eta Q - xi I - i sum omega_j A_j).
    M is positively homogeneous of degree 1 in (xi, omega, eta).
    """
    blocks = assemble_G(sys, frame, p)
    core = blocks["G11"]
    if blocks["G00"].shape[0] > 0:
        core = core - blocks["G10"] @ np.linalg.solve(blocks["G00"], blocks["G01"])
    A1_hat = getattr(frame, "A1_hat", None)
    if A1_hat is None:
        A1_hat = frame.R1.T @ sys.A1 @ frame.R1
    return np.linalg.solve(A1_hat.astype(complex), core)


def count_stable_eigenvalues(
    M: np.ndarray, expected_stable: int | None = None
) -> tuple[int, int]:
    """(stable, unstable) eigenvalue counts of M, with an axis guard.

    If ``expected_stable`` is given (the n_+ of the system), a mismatch raises
    SpectralCountMismatch: it signals a bug or an inadmissible parameter point.
    """
    if M.shape[0] == 0:
        return 0, 0
    eigs = np.linalg.eigvals(M)
    tol = tau_axis(spectral_norm(M))
    if np.any(np.abs(eigs.real) < tol):
        bad = eigs[np.argmin(np.abs(eigs.real))]
        raise NearImaginaryEigenvalue(bad, tol)
    k_s = int(np.sum(eigs.real < 0))
    k_u = int(np.sum(eigs.real > 0))
    if expected_stable is not None and k_s != expected_stable:
        raise SpectralCountMismatch(
            f"{k_s} stable eigenvalues, expected {expected_stable}"
        )
    return k_s, k_u


def gkc_ratio(sys: RelaxationSystem, frame, p: FrequencyPoint) -> float:
    """|det(B R1 R_M^S)| / sqrt(det(R_M^{S*} R_M^S)) at a finite point.

    With the orthonormalized stable basis the denominator is 1; it is still
    computed so the ratio stays correct for any right-stable matrix.  The
    ratio is invariant under right multiplication of the basis by invertible
    matrices and under frame changes.
    """
    M = build_M(sys, frame, p)
    sub = split_invariant_subspaces(M)
    RMS = sub.basis_s
    num = abs(np.linalg.det(sys.B @ frame.R1 @ RMS))
    den = math.sqrt(max(np.linalg.det(RMS.conj().T @ RMS).real, 0.0))
    if den == 0.0:
        return 0.0
    return float(num / den)


def directions(m: int, spec: SamplingSpec) -> np.ndarray:
    """Distinct unit directions on {u in R^m : |u| = 1, u_0 >= delta, u_{m-1} >= 0}.

    Coordinates are ordered (Re xi, Im xi, omega..., eta) for the GKC
    hemisphere, (Re xi, Im xi, omega...) for the eta = infinity and UKC
    samples.  Spherical angles: u_0 = cos(phi_1), the last coordinate carries
    the full sine product, so restricting phi_{m-1} to [0, pi] enforces
    u_{m-1} >= 0.  Low-discrepancy points are appended near the two
    degenerate rims (Re xi -> 0 and eta-dominant directions).  The tensor
    grid repeats its pole points; a row equal to an earlier one (with -0.0
    read as 0.0) is dropped, so every direction is evaluated once, in
    first-occurrence order.
    """
    res = spec.resolution
    phi_max = math.acos(spec.delta)
    grids = [np.linspace(0.0, phi_max, res)]
    for _ in range(m - 2):
        grids.append(np.linspace(0.0, math.pi, res))

    mesh = np.meshgrid(*grids, indexing="ij")
    angles = np.stack([g.ravel() for g in mesh], axis=1)  # (N, m-1)

    if spec.rim_points > 0 and m >= 2:
        sob = qmc.Sobol(d=m - 1, scramble=True, seed=spec.seed)
        extra = sob.random(2 * spec.rim_points)
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
    samples: the tensor part of ``directions``, restricted to Re xi > 0."""
    units = directions(d + 1, replace(spec, rim_points=0))
    return units[units[:, 0] > 0]


def _angles_to_unit(angles: np.ndarray, m: int) -> np.ndarray:
    n_pts = angles.shape[0]
    u = np.zeros((n_pts, m))
    sin_prod = np.ones(n_pts)
    for k in range(m - 1):
        u[:, k] = sin_prod * np.cos(angles[:, k])
        sin_prod = sin_prod * np.sin(angles[:, k])
    u[:, m - 1] = sin_prod
    return u


def _unit_to_point(u: np.ndarray, d: int) -> FrequencyPoint:
    xi = complex(u[0], u[1])
    omega = np.array(u[2 : 2 + (d - 1)], dtype=float)
    eta = float(u[-1])
    return FrequencyPoint(xi=xi, omega=omega, eta=eta)


def map_chunks(units: np.ndarray, batch, scalar) -> np.ndarray:
    """Evaluate ``batch`` on CHUNK rows of ``units`` at a time.

    ``batch(rows)`` returns ``(values, ok)``.  Each row it does not mark ok,
    and every row of a chunk whose stacked linear algebra raised LinAlgError,
    is evaluated by ``scalar(row)`` instead, in row order, so those rows
    return or raise exactly what the scalar path does.
    """
    out = np.empty(len(units))
    for start in range(0, len(units), CHUNK):
        part = units[start : start + CHUNK]
        try:
            vals, ok = batch(part)
        except np.linalg.LinAlgError:
            vals, ok = np.empty(len(part)), np.zeros(len(part), dtype=bool)
        for i in np.flatnonzero(~ok):
            vals[i] = scalar(part[i])
        out[start : start + len(part)] = vals
    return out


def det_ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den, and 0 where den == 0, as in the scalar ratios."""
    return np.divide(num, den, out=np.zeros_like(num), where=den > 0)


def gkc_ratios(
    sys: RelaxationSystem, frame: KernelFrame, units: np.ndarray
) -> tuple[np.ndarray, list]:
    """``gkc_ratio`` at every row (Re xi, Im xi, omega..., eta) of ``units``,
    evaluated on stacks of M with one batched eigen-split per chunk.

    Returns ``(ratios, failures)``.  A point whose M has an eigenvalue within
    the axis tolerance is NaN in ``ratios`` and described in ``failures``, in
    point order.  Points the batched split cannot stand in for (see
    ``stable_eigvecs``) go through ``gkc_ratio`` and raise what it raises.
    """
    k = frame.R1.shape[1]
    # G = eta Q - xi I - i sum_j omega_j A_j is linear in (eta, xi, omega), so
    # its blocks in the frame (R1, R0) combine fixed projections
    F = np.hstack([frame.R1, frame.R0])
    terms = np.stack([F.T @ X @ F for X in (sys.Q, np.eye(sys.n), *sys.A[1:])])
    A1_hat = frame.A1_hat.astype(complex)
    BR1 = sys.B @ frame.R1

    def batch(u):
        coef = np.column_stack([u[:, -1], -(u[:, 0] + 1j * u[:, 1]), -1j * u[:, 2:-1]])
        G = np.einsum("np,pab->nab", coef, terms)
        core = G[:, :k, :k]
        if frame.R0.shape[1] > 0:
            core = core - G[:, :k, k:] @ np.linalg.solve(G[:, k:, k:], G[:, k:, :k])
        V_s, vol, ok = stable_eigvecs(np.linalg.solve(A1_hat, core), BR1.shape[0])
        return det_ratio(np.abs(np.linalg.det(BR1 @ V_s)), vol), ok

    failures = []

    def scalar(u):
        p = _unit_to_point(u, sys.d)
        try:
            return gkc_ratio(sys, frame, p)
        except NearImaginaryEigenvalue as exc:
            failures.append(f"{p.as_tuple()}: {exc}")
            return math.nan

    return map_chunks(units, batch, scalar), failures


def check_gkc(
    sys: RelaxationSystem,
    frame: KernelFrame,
    spec: SamplingSpec | None = None,
) -> GkcReport:
    """Sample the GKC ratio over the compactified parameter hemisphere.

    By homogeneity the ratio depends only on the direction of
    (Re xi, Im xi, omega, eta), so the unbounded quantifier reduces to the
    unit hemisphere plus the eta = infinity limit point (evaluated through
    the large-eta limit matrix).  If the minimum is merely close to the
    threshold, the grid is refined around the argmin before declaring failure.
    The check fails when the eta = infinity limit was asked for but could not
    be formed.
    """
    spec = spec or SamplingSpec()
    units = directions(sys.d + 2, spec)
    vals, failures = gkc_ratios(sys, frame, units)
    kept = ~np.isnan(vals)
    units, vals = units[kept], vals[kept]
    # a point's as_tuple() is its unit row
    ratios = list(zip(map(tuple, units.tolist()), vals.tolist()))
    sub = [(p, v) for p, v in ratios if v <= spec.c_threshold]

    best, best_point = math.inf, None
    if vals.size:
        i = int(np.argmin(vals))  # first occurrence, as a strict-< scan
        best, best_point = ratios[i][1], _unit_to_point(units[i], sys.d)

    eta_inf_min, eta_inf_skipped, eta_inf_error = None, 0, None
    if spec.include_eta_infinity:
        eta_inf_min, eta_inf_point, eta_inf_skipped, eta_inf_error = (
            _eta_infinity_min_ratio(sys, frame, spec)
        )
        if eta_inf_min is not None and eta_inf_min < best:
            best, best_point = eta_inf_min, eta_inf_point

    # local refinement: distinguish a true zero from slow decay
    if best_point is not None and math.isfinite(best_point.eta) and best < 10 * spec.c_threshold:
        best, best_point, extra_sub = _refine_minimum(sys, frame, spec, best, best_point)
        sub.extend(extra_sub)

    passed = best > spec.c_threshold and not math.isinf(best) and eta_inf_error is None
    return GkcReport(
        min_ratio=best if math.isfinite(best) else 0.0,
        argmin_point=best_point,
        samples=len(ratios),
        includes_eta_infinity=spec.include_eta_infinity and eta_inf_error is None,
        eta_inf_min_ratio=eta_inf_min,
        eta_inf_skipped=eta_inf_skipped,
        eta_inf_error=eta_inf_error,
        passed=bool(passed),
        c_threshold=spec.c_threshold,
        subthreshold_points=sub,
        failures=failures,
        ratios=ratios,
    )


def _refine_minimum(sys, frame, spec, best, best_point):
    """Refine the sampling x4 locally around the current argmin."""
    center = np.array(best_point.as_tuple())
    scale = max(np.linalg.norm(center), 1.0)
    rng = np.random.default_rng(spec.seed + 1)
    n_local = spec.refine_factor * spec.resolution
    u = center + rng.normal(
        scale=scale / (4 * spec.resolution), size=(n_local, center.size)
    )
    u[:, 0] = np.maximum(u[:, 0], spec.delta * scale)  # keep Re xi positive
    u[:, -1] = np.maximum(u[:, -1], 0.0)
    u = u / np.linalg.norm(u, axis=1, keepdims=True)
    vals, _ = gkc_ratios(sys, frame, u)
    kept = ~np.isnan(vals)
    u, vals = u[kept], vals[kept]
    sub = [
        (tuple(row), val)
        for row, val in zip(u.tolist(), vals.tolist())
        if val <= spec.c_threshold
    ]
    if vals.size:
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, best_point = float(vals[i]), _unit_to_point(u[i], sys.d)
    return best, best_point, sub


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
    if skipped == len(vals):
        return None, None, skipped, "every eta = inf direction was skipped"
    i = int(np.nanargmin(vals))
    point = _unit_to_point(np.append(units[i], math.inf), sys.d)
    return float(vals[i]), point, skipped, None


def frame_independence_check(
    sys: RelaxationSystem, frame_a, frame_b, p: FrequencyPoint
) -> dict:
    """Verify that M and the Kreiss determinant do not depend on the frame.

    frame_b must be expressible over frame_a as R0' = R0 D0,
    R1' = R1 C1 + R0 C0 (raises FrameMismatch otherwise).  Returns the
    similarity residual ||M' - C1^{-1} M C1|| and the determinant-consistency
    residual | |det(B R1' R'_M^S)| - |det(B R1 R_M^S)| | with
    R'_M^S := C1^{-1} R_M^S.
    """
    R0a, R1a = frame_a.R0, frame_a.R1
    R0b, R1b = frame_b.R0, frame_b.R1
    n = sys.n
    n0 = R0a.shape[1]

    stack = np.linalg.inv(np.hstack([R1a, R0a]))
    L1a, L0a = stack[: n - n0, :], stack[n - n0 :, :]
    C1 = L1a @ R1b
    C0 = L0a @ R1b
    if n0 > 0:
        D0, *_ = np.linalg.lstsq(R0a, R0b, rcond=None)
        if spectral_norm(R0a @ D0 - R0b) > 1e-8 * max(spectral_norm(R0b), 1.0):
            raise FrameMismatch("frame_b kernel basis is not expressible over frame_a")

    Ma = build_M(sys, frame_a, p)
    Mb = build_M(sys, frame_b, p)
    sim_residual = spectral_norm(Mb - np.linalg.solve(C1.astype(complex), Ma @ C1))

    sub = split_invariant_subspaces(Ma)
    RMS = sub.basis_s
    det_a = abs(np.linalg.det(sys.B @ R1a @ RMS))
    RMS_b = np.linalg.solve(C1.astype(complex), RMS)
    det_b = abs(np.linalg.det(sys.B @ R1b @ RMS_b))
    return {
        "similarity_residual": float(sim_residual),
        "det_residual": float(abs(det_a - det_b)),
        "M_norm": spectral_norm(Ma),
        "det_value": float(det_a),
    }


@dataclass(frozen=True)
class PlainFrame:
    """A bare (R0, R1) pair for frame-independence experiments."""

    R0: np.ndarray
    R1: np.ndarray


def verify_stable_count(sys: RelaxationSystem, frame: KernelFrame, p: FrequencyPoint):
    """Stable/unstable counts at p, asserted against (n_+, n - n0 - n_+)."""
    idx = compute_indices(sys)
    M = build_M(sys, frame, p)
    k_s, k_u = count_stable_eigenvalues(M, expected_stable=idx.n_plus)
    if k_u != sys.n - idx.n0 - idx.n_plus:
        raise SpectralCountMismatch(
            f"{k_u} unstable eigenvalues, expected {sys.n - idx.n0 - idx.n_plus}"
        )
    return k_s, k_u


__all__ = [
    "KernelFrame",
    "FrequencyPoint",
    "SamplingSpec",
    "GkcReport",
    "PlainFrame",
    "build_kernel_frame",
    "assemble_G",
    "build_M",
    "count_stable_eigenvalues",
    "gkc_ratio",
    "check_gkc",
    "directions",
    "gkc_ratios",
    "frame_independence_check",
    "verify_stable_count",
    "check_sk_condition",
]
