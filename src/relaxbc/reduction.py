"""Derivation of the reduced boundary condition for the equilibrium system.

Starting from the full boundary condition B U(0) = b, the large-eta limit of
the stable subspace of M(xi, omega, eta) yields matrices Y2, Y3; the left
null space B_o of (Y2 Y3) turns the full condition into a well-posed boundary
condition B_o B_u ubar(0) = B_o b for the equilibrium system, certified by a
uniform Kreiss condition (UKC).  The same algebra provides the closure solve
that recovers the boundary-layer degrees of freedom.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AssumptionViolated,
    DegenerateY,
    GkcFailed,
    RankDeficientK,
    SingularClosure,
    SingularKtXKt,
)
from .linalg import (
    full_rank_cond,
    orthonormal_complement,
    split_invariant_subspaces,
    stable_basis_real,
)
from .model import RelaxationSystem, compute_indices, split_speeds
from .spectral import KernelFrame, SamplingSpec, map_chunks, xi_omega_directions
from .tolerances import (
    B_O_ENTRY_ABS, C_THRESHOLD, CLOSURE_IMAG_REL,
    Y3_REAL_IF_CLOSE_EPS, spectral_norm,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class EquilibriumFrame:
    """Orthonormal eigendecomposition of A11: A11 P1 = P1 Lam1 (Lam1 invertible
    diagonal), A11 P0 = 0."""

    P1: np.ndarray
    P0: np.ndarray
    Lam1: np.ndarray  # 1-D array of nonzero eigenvalues

    @property
    def n10(self) -> int:
        return self.P0.shape[1]


@dataclass(frozen=True)
class ReductionData:
    """Static ingredients of the large-eta limit for a fixed system/frame."""

    K: np.ndarray  # A12_hat^T P0, full column rank n10
    K_tilde: np.ndarray  # orthonormal complement of range(K)
    X: np.ndarray  # A22_hat - A12_hat^T P1 Lam1^{-1} P1^T A12_hat
    N: np.ndarray
    M2: np.ndarray  # (K~^T X K~)^{-1} (K~^T S_hat K~), governs the eps-layer ODE
    R2S: np.ndarray  # real orthonormal basis of the stable subspace of M2


@dataclass
class ReducedBC:
    """B_o B_u ubar(0, t) = B_o b(t), with the UKC certificate."""

    B_o: np.ndarray
    Y2: np.ndarray
    Y3: np.ndarray
    ukc_min_ratio: float
    ukc_samples: int
    annihilation_residual: float
    p0_residual: float
    coefficient: np.ndarray = field(default=None)  # B_o B_u, convenience
    ukc_skipped: int = 0  # UKC directions skipped near the imaginary axis

    def to_dict(self) -> dict:
        return {
            "B_o": self.B_o.tolist(),
            "coefficient": self.coefficient.tolist(),
            "ukc_min_ratio": float(self.ukc_min_ratio),
            "ukc_samples": int(self.ukc_samples),
            "ukc_skipped": int(self.ukc_skipped),
            "annihilation_residual": float(self.annihilation_residual),
            "p0_residual": float(self.p0_residual),
        }


@dataclass
class ClosureSolve:
    """Boundary data for the layer corrections at one time t:

    the coefficient matrix of B~_o (Y2 Y3) acting on (P0^T mu1(0); w_s),
    where w_s parametrizes the stable eps-layer modes."""

    coefficient: np.ndarray
    B_tilde_o: np.ndarray
    condition_number: float


def build_equilibrium_frame(sys: RelaxationSystem) -> EquilibriumFrame:
    """The frame of A11 from its speed split (``model.split_speeds``)."""
    speeds = split_speeds(sys)[1]
    nonzero = np.concatenate([speeds.neg, speeds.pos])
    return EquilibriumFrame(
        P1=speeds.V[:, nonzero], P0=speeds.kernel, Lam1=speeds.w[nonzero]
    )


def build_reduction_data(
    sys: RelaxationSystem, frame: KernelFrame, eq: EquilibriumFrame
) -> ReductionData:
    """Assemble K, K~, X, N, M2 and R2^S from the reduced coefficients.

    Raises RankDeficientK if K = A12_hat^T P0 loses column rank and
    SingularKtXKt if K~^T X K~ is singular; both indicate the system
    falls outside the admissible class.
    """
    idx = compute_indices(sys)
    A12h, A22h, Sh = frame.A12_hat, frame.A22_hat, frame.S_hat
    P1, P0, Lam1 = eq.P1, eq.P0, eq.Lam1

    K = A12h.T @ P0  # (r - n0) x n10
    full_rank_cond(K, RankDeficientK(
        "A12_hat^T P0 is column rank deficient; the eps-layer cannot "
        "absorb the characteristic boundary modes"
    ))
    K_tilde = orthonormal_complement(K)

    X = A22h - A12h.T @ P1 @ np.diag(1.0 / Lam1) @ P1.T @ A12h

    KtXKt = K_tilde.T @ X @ K_tilde
    KtSKt = K_tilde.T @ Sh @ K_tilde
    full_rank_cond(KtXKt, SingularKtXKt("K~^T X K~ is singular"))
    M2 = np.linalg.solve(KtXKt, KtSKt)

    inner = (K.T @ Sh @ K_tilde) @ np.linalg.solve(KtSKt, KtXKt) - K.T @ X @ K_tilde
    N0 = P0 @ np.linalg.inv(K.T @ K) @ inner
    N = N0 - P1 @ np.diag(1.0 / Lam1) @ P1.T @ A12h @ K_tilde

    expected = idx.n_plus - idx.n1_plus - idx.n10
    R2S = stable_basis_real(M2)
    if R2S.shape[1] != expected:
        raise AssumptionViolated(
            f"M2 has {R2S.shape[1]} stable eigenvalues, expected "
            f"n_+ - n1_+ - n10 = {expected}"
        )
    return ReductionData(K=K, K_tilde=K_tilde, X=X, N=N, M2=M2, R2S=R2S)


def _M1_stack(sys: RelaxationSystem, eq: EquilibriumFrame):
    """The reduced matrix of the equilibrium system in the (P1, P0) frame,

        M1(xi, omega) = -Lam1^{-1}([xi I + P1^T C P1] - P1^T C P0 X),
        X = [xi I + P0^T C P0]^{-1} P0^T C P1,

    with C(omega) = i sum_j omega_j A_{j,11}, as a function of the rows
    (Re xi, Im xi, omega...) of a direction array returning the stack
    M1 (N, k1, k1)."""
    n1 = sys.n - sys.r
    k1 = eq.P1.shape[1]
    F = np.hstack([eq.P1, eq.P0])
    # C(omega) = i sum_j omega_j A_{j,11}, projected onto (P1, P0)
    terms = np.array([F.T @ Aj[:n1, :n1] @ F for Aj in sys.A[1:]]).reshape(-1, n1, n1)
    inv_lam = (1.0 / eq.Lam1)[:, None]

    def evaluate(u):
        xi = (u[:, 0] + 1j * u[:, 1])[:, None, None]
        C = 1j * np.einsum("nj,jab->nab", u[:, 2:], terms)
        X = np.linalg.solve(xi * np.eye(n1 - k1) + C[:, k1:, k1:], C[:, k1:, :k1])
        core = xi * np.eye(k1) + C[:, :k1, :k1] - C[:, :k1, k1:] @ X
        return -inv_lam * core

    return evaluate


def _limit_basis(sys, frame, eq, data, V_s) -> np.ndarray:
    """The eta -> infinity limit of a stable basis of M in the R1 frame,

        [ P1 V_s    P0    N R2^S ]
        [   0       0    K~ R2^S ],

    for a stack V_s (N, k1, k) of stable vectors of M1: a stack of
    (n - n0) x (k + n10 + dim R2^S) bases.

    The paper's first column block is (P1 - P0 X) V_s, X as in ``_M1_stack``.
    Adding P0 X V_s, a combination of the P0 columns of the same basis, is a
    column operation of determinant 1: it changes neither the span nor
    |det(B R1 L)| / sqrt(det(L^* L)), so the P0 X term is dropped."""
    n1, n10, k = sys.n - sys.r, eq.P0.shape[1], V_s.shape[2]
    L = np.zeros((len(V_s), sys.n - frame.n0, k + n10 + data.R2S.shape[1]), dtype=complex)
    L[:, :n1, :k] = eq.P1 @ V_s
    L[:, :n1, k : k + n10] = eq.P0
    L[:, :n1, k + n10 :] = data.N @ data.R2S
    L[:, n1:, k + n10 :] = data.K_tilde @ data.R2S
    return L


def limit_stable_matrix(
    sys: RelaxationSystem,
    frame: KernelFrame,
    eq: EquilibriumFrame,
    data: ReductionData,
    xi: complex,
    omega,
) -> np.ndarray:
    """The eta -> infinity limit of a stable basis of M at (xi, omega), an
    (n - n0) x n_+ matrix (see ``_limit_basis``), with the stable subspace of
    M1 from ``split_invariant_subspaces``."""
    xi = complex(xi)
    M1 = _M1_stack(sys, eq)(np.array([[xi.real, xi.imag, *np.atleast_1d(omega)]]))[0]
    R1S = split_invariant_subspaces(M1).basis_s
    return _limit_basis(sys, frame, eq, data, R1S[None])[0]


def eta_inf_ratios(
    sys: RelaxationSystem,
    frame: KernelFrame,
    eq: EquilibriumFrame,
    data: ReductionData,
    units: np.ndarray,
) -> np.ndarray:
    """The eta = infinity GKC ratio |det(B R1 L)| / sqrt(det(L^* L)), with L
    the limit stable basis of ``_limit_basis``, at every row
    (Re xi, Im xi, omega...) of ``units``.  NaN marks a point skipped for an
    eigenvalue of M1 near the imaginary axis."""
    n1s = sys.B.shape[0] - eq.P0.shape[1] - data.R2S.shape[1]  # stable dimension of M1
    vals, _ = map_chunks(
        units, _M1_stack(sys, eq), sys.B @ frame.R1, n1s,
        basis=lambda V_s: _limit_basis(sys, frame, eq, data, V_s),
    )
    return vals


def ukc_ratios(
    sys: RelaxationSystem, eq: EquilibriumFrame, B_o_Bu: np.ndarray, units: np.ndarray
) -> np.ndarray:
    """The UKC ratio |det(B_o B_u P1 V_s)| / vol(V_s), V_s a basis of the
    stable subspace of M1, at every row (Re xi, Im xi, omega...) of
    ``units``.  NaN marks a point skipped for an eigenvalue of M1 near the
    imaginary axis."""
    vals, _ = map_chunks(units, _M1_stack(sys, eq), B_o_Bu @ eq.P1, B_o_Bu.shape[0])
    return vals


def derive_reduced_bc(
    sys: RelaxationSystem,
    frame: KernelFrame,
    eq: EquilibriumFrame,
    data: ReductionData,
    spec: SamplingSpec | None = None,
) -> ReducedBC:
    """Compute B_o, verify B_o (Y2 Y3) = 0 and B_o B_u P0 = 0, and certify
    the UKC for the reduced condition by hemisphere sampling.

    Y2 = B_u P0 and Y3 = B_u N R2^S + B_v R02_perp K~ R2^S are evaluated at a
    reference point; they are frequency-independent by construction.  Raises
    DegenerateY if (Y2 Y3) has unexpected rank.  When the reduced condition
    has rows (n1_+ > 0), raises GkcFailed if a sampled UKC direction was
    skipped for an eigenvalue near the imaginary axis, or if the sampled
    minimum falls below the threshold; with n1_+ = 0 there is nothing to
    certify, and skipped directions are only counted in ``ukc_skipped``.
    """
    spec = spec or SamplingSpec()
    idx = compute_indices(sys)
    B_u, B_v = sys.B_u, sys.B_v

    Y2 = B_u @ eq.P0
    Y3 = (B_u @ data.N + B_v @ frame.R02_perp @ data.K_tilde) @ data.R2S
    Y23 = np.hstack([Y2, Y3])

    n_plus, n1_plus = idx.n_plus, idx.n1_plus
    expected_rank = n_plus - n1_plus
    if Y23.shape[1] != expected_rank:
        raise DegenerateY(
            f"(Y2 Y3) has {Y23.shape[1]} columns, expected {expected_rank}"
        )
    if Y23.shape[1] > 0:
        full_rank_cond(Y23, DegenerateY("(Y2 Y3) is column rank deficient"))
        U, _, _ = np.linalg.svd(Y23, full_matrices=True)
        B_o = U[:, Y23.shape[1] :].conj().T
    else:
        B_o = np.eye(n_plus)
    if B_o.shape[0] != n1_plus:
        raise DegenerateY(
            f"B_o has {B_o.shape[0]} rows, expected n1_+ = {n1_plus}"
        )
    if np.iscomplexobj(B_o) and (
        B_o.size == 0 or np.max(np.abs(B_o.imag)) < B_O_ENTRY_ABS
    ):
        B_o = B_o.real
    B_o = _normalize_rows(B_o)

    ann = spectral_norm(B_o @ Y23) if Y23.shape[1] else 0.0
    p0_res = spectral_norm(B_o @ B_u @ eq.P0) if eq.P0.shape[1] else 0.0

    # UKC sampling over the (Re xi, Im xi, omega) hemisphere
    coeff = B_o @ B_u
    vals = ukc_ratios(sys, eq, coeff, xi_omega_directions(sys.d, spec))
    skipped = int(np.count_nonzero(np.isnan(vals)))
    count = len(vals) - skipped
    best = float(np.nanmin(vals)) if count else (0.0 if n1_plus else 1.0)
    log.debug("ukc: %d directions, %d skipped, minimum %.6g", len(vals), skipped, best)
    if n1_plus > 0 and skipped:
        raise GkcFailed(
            f"uniform Kreiss condition not certified for the reduced "
            f"condition: {skipped} of {len(vals)} sampled directions were "
            f"skipped for an eigenvalue of M1 near the imaginary axis"
        )
    if n1_plus > 0 and best <= C_THRESHOLD:
        raise GkcFailed(
            f"uniform Kreiss condition fails for the reduced condition: "
            f"sampled minimum {best:.3e} <= {C_THRESHOLD:.0e}"
        )
    return ReducedBC(
        B_o=B_o,
        Y2=Y2,
        Y3=Y3,
        ukc_min_ratio=best,
        ukc_samples=count,
        ukc_skipped=skipped,
        annihilation_residual=float(ann),
        p0_residual=float(p0_res),
        coefficient=coeff,
    )


def _normalize_rows(B_o: np.ndarray) -> np.ndarray:
    """Deterministic sign/scale: each row scaled so its first nonzero entry
    (largest in magnitude on ties within tolerance) is positive, rows unit
    norm.  Keeps reports byte-identical across runs."""
    out = B_o.copy()
    for i in range(out.shape[0]):
        row = out[i]
        nrm = np.linalg.norm(row)
        if nrm == 0:
            continue
        row = row / nrm
        nz = np.nonzero(np.abs(row) > B_O_ENTRY_ABS)[0]
        if nz.size and row[nz[0]].real < 0:
            row = -row
        out[i] = row
    return out


def build_closure(
    sys: RelaxationSystem,
    frame: KernelFrame,
    eq: EquilibriumFrame,
    data: ReductionData,
    rbc: ReducedBC,
) -> ClosureSolve:
    """Coefficient matrix of the remaining boundary unknowns.

    B~_o completes B_o to an orthonormal basis of R^{n_+}; the unknowns are
    (P0^T mu1(0); w_s) with coefficient B~_o (Y2, Y3).  Raises SingularClosure
    if the coefficient is not invertible.
    """
    B_tilde_o = orthonormal_complement(rbc.B_o.T).T
    coeff = B_tilde_o @ np.hstack([rbc.Y2, np.real_if_close(rbc.Y3, tol=Y3_REAL_IF_CLOSE_EPS)])
    if coeff.shape[0] != coeff.shape[1]:
        raise SingularClosure(
            f"closure coefficient is {coeff.shape[0]}x{coeff.shape[1]}, not square"
        )
    cond = full_rank_cond(coeff, SingularClosure("closure coefficient matrix is singular"))
    return ClosureSolve(
        coefficient=coeff, B_tilde_o=B_tilde_o, condition_number=cond
    )


def solve_closure(
    closure: ClosureSolve,
    sys: RelaxationSystem,
    b_t: np.ndarray,
    ubar0_t: np.ndarray,
    n10: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Solve for (P0^T mu1(0), w_s) at one time instant."""
    rhs = closure.B_tilde_o @ (np.asarray(b_t, dtype=float) - sys.B_u @ ubar0_t)
    if closure.coefficient.size == 0:
        return np.zeros(0), np.zeros(0)
    sol = np.linalg.solve(closure.coefficient, rhs.astype(closure.coefficient.dtype))
    if np.max(np.abs(np.imag(sol)), initial=0.0) < CLOSURE_IMAG_REL * max(np.max(np.abs(sol)), 1.0):
        sol = sol.real
    return sol[:n10], sol[n10:]


@dataclass
class Pipeline:
    """All derived objects for one system, in dependency order."""

    sys: RelaxationSystem
    frame: KernelFrame
    eq: EquilibriumFrame
    data: ReductionData
    rbc: ReducedBC
    closure: ClosureSolve


def derive_all(sys: RelaxationSystem, spec: SamplingSpec | None = None) -> Pipeline:
    """Run the kernel frame -> reduction -> reduced BC -> closure chain."""
    from .spectral import build_kernel_frame

    frame = build_kernel_frame(sys)
    eq = build_equilibrium_frame(sys)
    data = build_reduction_data(sys, frame, eq)
    rbc = derive_reduced_bc(sys, frame, eq, data, spec=spec)
    closure = build_closure(sys, frame, eq, data, rbc)
    return Pipeline(sys=sys, frame=frame, eq=eq, data=data, rbc=rbc, closure=closure)


def render_reduced_bc(sys: RelaxationSystem, rbc: ReducedBC, digits: int = 6) -> str:
    """Human-readable rendering of the reduced boundary condition."""
    coeff = np.round(rbc.coefficient, digits)
    B_o = np.round(rbc.B_o, digits)
    lines = ["reduced boundary condition  (B_o B_u) ubar(0, t) = B_o b(t)"]
    labels = sys.labels or [f"u{i+1}" for i in range(sys.n - sys.r)]
    for i in range(coeff.shape[0]):
        lhs = " + ".join(
            f"{coeff[i, j]:+g}*{labels[j]}(0,t)" for j in range(coeff.shape[1])
        )
        rhs = " + ".join(
            f"{B_o[i, j]:+g}*b{j+1}(t)" for j in range(B_o.shape[1])
        )
        lines.append(f"  {lhs} = {rhs}")
    return "\n".join(lines)


__all__ = [
    "EquilibriumFrame",
    "ReductionData",
    "ReducedBC",
    "ClosureSolve",
    "build_equilibrium_frame",
    "build_reduction_data",
    "limit_stable_matrix",
    "eta_inf_ratios",
    "ukc_ratios",
    "derive_reduced_bc",
    "build_closure",
    "solve_closure",
    "render_reduced_bc",
    "Pipeline",
    "derive_all",
]
