"""Diagnostics that only the tests call: stable eigenvalue counts, frame
independence of M and of the Kreiss determinant, the stable count at a
point, the large-eta expansion of M and the angle between the finite-eta
stable subspace and its eta = infinity limit, with the random change of
frame they are tested under."""

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from relaxbc.errors import SpectralCountMismatch
from relaxbc.linalg import guarded_eigvals, split_invariant_subspaces
from relaxbc.model import RelaxationSystem, compute_indices
from relaxbc.reduction import EquilibriumFrame, ReductionData, limit_stable_matrix
from relaxbc.spectral import KernelFrame, _M_stack, build_M
from relaxbc.tolerances import spectral_norm

#: relative residual up to which the large-eta expansion counts as exact
EXPANSION_EXACT_REL = 1e-11

#: largest residual of R0_a D0 - R0_b, relative to max(||R0_b||, 1), at which
#: two kernel frames span the same kernel
FRAME_KERNEL_REL = 1e-8

#: ``random_frame_pair`` redraws a change of frame C1 or D0 whose condition
#: number is not below this
FIXTURE_FRAME_COND_MAX = 50.0


def count_stable_eigenvalues(
    M: np.ndarray, expected_stable: int | None = None
) -> tuple[int, int]:
    """(stable, unstable) eigenvalue counts of M, with an axis guard.

    If ``expected_stable`` is given (the n_+ of the system), a mismatch raises
    SpectralCountMismatch: it signals a bug or an inadmissible parameter point.
    """
    if M.shape[0] == 0:
        return 0, 0
    eigs = guarded_eigvals(M)
    k_s = int(np.sum(eigs.real < 0))
    k_u = int(np.sum(eigs.real > 0))
    if expected_stable is not None and k_s != expected_stable:
        raise SpectralCountMismatch(
            f"{k_s} stable eigenvalues, expected {expected_stable}"
        )
    return k_s, k_u


def frame_independence_check(
    sys: RelaxationSystem, frame_a, frame_b, p
) -> dict:
    """Verify that M and the Kreiss determinant do not depend on the frame,
    at the point p = (Re xi, Im xi, omega..., eta).

    frame_b must be expressible over frame_a as R0' = R0 D0,
    R1' = R1 C1 + R0 C0 (raises ValueError otherwise).  Returns the
    similarity residual ||M' - C1^{-1} M C1|| and the determinant-consistency
    residual | |det(B R1' R'_M^S)| - |det(B R1 R_M^S)| | with
    R'_M^S := C1^{-1} R_M^S.
    """
    R0a, R1a = frame_a.R0, frame_a.R1
    R0b, R1b = frame_b.R0, frame_b.R1
    n0 = R0a.shape[1]

    # C1 = L1 R1' with (L1; L0) the inverse of (R1, R0)
    C1 = np.linalg.inv(np.hstack([R1a, R0a]))[: sys.n - n0] @ R1b
    if n0 > 0:
        D0, *_ = np.linalg.lstsq(R0a, R0b, rcond=None)
        if spectral_norm(R0a @ D0 - R0b) > FRAME_KERNEL_REL * max(spectral_norm(R0b), 1.0):
            raise ValueError("frame_b kernel basis is not expressible over frame_a")

    Ma = build_M(sys, frame_a, p)
    Mb = build_M(sys, frame_b, p)
    sim_residual = spectral_norm(Mb - np.linalg.solve(C1.astype(complex), Ma @ C1))

    RMS = split_invariant_subspaces(Ma)
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


def verify_stable_count(sys: RelaxationSystem, frame: KernelFrame, p):
    """Stable/unstable counts at the row p = (Re xi, Im xi, omega..., eta),
    asserted against (n_+, n - n0 - n_+).

    M has dimension n - n0 and, past the axis guard, no eigenvalue on the
    imaginary axis, so the stable count fixes the unstable one."""
    M = build_M(sys, frame, p)
    return count_stable_eigenvalues(M, expected_stable=compute_indices(sys).n_plus)


def large_eta_expansion_check(
    sys: RelaxationSystem,
    frame: KernelFrame,
    p,
    etas=(1e2, 1e3, 1e4),
) -> dict:
    """Diagnostics for M(xi, omega, eta) ~ A1_hat^{-1}[eta Q_hat + H_hat] at
    the (Re xi, Im xi, omega...) of the row p = (Re xi, Im xi, omega..., eta).

    Returns the fitted decay slope of || M(eta) - A1_hat^{-1}(eta Q_hat + H_hat) ||
    against eta (expected near -1) and the residual of the top-left block of
    H_hat against that of H = G(xi, omega, eta = 0), which is -(xi I + C(omega)).
    """
    n1, n0 = sys.n - sys.r, frame.n0
    R0, R1 = frame.R0, frame.R1
    Q = sys.Q
    C = sum(w * Aj for w, Aj in zip(p[2:-1], sys.A[1:]))
    H = -(complex(p[0], p[1]) * np.eye(sys.n) + 1j * C)
    if n0 > 0:
        QR00_inv = np.linalg.inv(R0.T @ Q @ R0)
        left = R1.T - (R1.T @ Q @ R0) @ QR00_inv @ R0.T
        right = R1 - R0 @ QR00_inv @ (R0.T @ Q @ R1)
    else:
        left, right = R1.T, R1
    H_hat = left @ H @ right
    top_left_residual = spectral_norm(H_hat[:n1, :n1] - H[:n1, :n1])

    A1_hat_inv = np.linalg.inv(frame.A1_hat)
    Ms = _M_stack(sys, frame)(np.array([[*p[:-1], eta] for eta in etas]))
    resids = [spectral_norm(M - A1_hat_inv @ (eta * frame.Q_hat + H_hat))
              for M, eta in zip(Ms, etas)]
    m_norms = [spectral_norm(M) for M in Ms]
    # when the remainder vanishes identically the measured residual is pure
    # round-off, which grows with ||M(eta)||; judge exactness relative to it
    exact = all(r <= EXPANSION_EXACT_REL * max(m, 1.0) for r, m in zip(resids, m_norms))
    if exact:
        slope = None
    else:
        log_eta = np.log(np.asarray(etas, dtype=float))
        log_res = np.log(np.maximum(np.asarray(resids), 1e-300))
        slope = float(np.polyfit(log_eta, log_res, 1)[0])
    return {
        "slope": slope,
        "exact": exact,
        "residuals": [float(x) for x in resids],
        "top_left_residual": float(top_left_residual),
    }


def limit_subspace_angle(
    sys: RelaxationSystem,
    frame: KernelFrame,
    eq: EquilibriumFrame,
    data: ReductionData,
    p,
    eta: float = 1e4,
) -> float:
    """Largest principal angle between the stable subspace of M at finite eta
    and the eta = infinity limit subspace, at p = (Re xi, Im xi, omega...)."""
    finite = split_invariant_subspaces(build_M(sys, frame, np.append(p, eta)))
    limit = limit_stable_matrix(sys, frame, eq, data, p)
    limit_q, _ = np.linalg.qr(limit)
    angles = sla.subspace_angles(finite, limit_q)
    return float(angles.max()) if angles.size else 0.0


def random_frame_pair(rng: np.random.Generator, frame) -> PlainFrame:
    """A second frame R0' = R0 D0, R1' = R1 C1 + R0 C0 with random
    well-conditioned D0, C1 and random C0.

    The change of frame is applied through solves with C1, so a nearly
    singular draw would contaminate frame-independence residuals with its
    own conditioning; reject those.
    """
    n0 = frame.R0.shape[1]
    k = frame.R1.shape[1]
    while True:
        C1 = rng.normal(size=(k, k))
        if np.linalg.cond(C1) < FIXTURE_FRAME_COND_MAX:
            break
    while True:
        D0 = rng.normal(size=(n0, n0))
        if n0 == 0 or np.linalg.cond(D0) < FIXTURE_FRAME_COND_MAX:
            break
    C0 = rng.normal(size=(n0, k))
    R0b = frame.R0 @ D0
    R1b = frame.R1 @ C1 + frame.R0 @ C0
    return PlainFrame(R0=R0b, R1=R1b)
