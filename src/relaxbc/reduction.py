"""Derivation of the reduced boundary condition for the equilibrium system.

Starting from the full boundary condition B U(0) = b, the large-eta limit of
the stable subspace of M(xi, omega, eta) yields matrices Y2, Y3; the left
null space B_o of (Y2 Y3) turns the full condition into a well-posed boundary
condition B_o B_u ubar(0) = B_o b for the equilibrium system, certified by a
uniform Kreiss condition (UKC).  The same algebra provides the closure solve
that recovers the boundary-layer degrees of freedom.  The equilibrium symbol
M1 that the UKC and the eta = infinity limit sample is the relaxation symbol
of (A_{j,11}, Q = 0) in the frame of A_{1,11}, from ``spectral.symbol_stack``.

The eps-layer ODE (K~^T X K~) w' = (K~^T S_hat K~) w is a symmetric-definite
pencil, so one symmetric eigensolve gives its decaying modes R2^S and their
rates (``build_reduction_data``).  Every matrix of the chain is real;
``derive_all`` refuses a system that is not.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property, partial

import numpy as np

from .errors import AssumptionViolated, GkcFailed, NearImaginaryEigenvalue, RelaxbcError
# split_invariant_subspaces and stable_basis_real are not called here;
# perfbench/spans.py wraps each by this name
from .linalg import (
    full_rank_cond,
    orthonormal_complement,
    split_invariant_subspaces,
    stable_basis_real,
    stable_eigvecs,
)
from .model import RelaxationSystem, compute_indices
from .spectral import (
    GkcReport, KernelFrame, Sample, SamplingSpec, build_kernel_frame, check_gkc, gkc_directions,
    require_real, sample, symbol_stack, xi_omega_directions,
)
from .tolerances import B_O_ENTRY_ABS, C_THRESHOLD, spectral_norm, tau_axis

#: decimal places of the coefficients ``render_reduced_bc`` prints
RENDER_DIGITS = 6


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
    R2S: np.ndarray  # decaying eps-layer modes, one unit column per mode
    rates: np.ndarray  # their decay rates, all negative


@dataclass
class ReducedBC:
    """B_o B_u ubar(0, t) = B_o b(t), with the UKC certificate of ``derive_reduced_bc``."""

    B_o: np.ndarray
    Y2: np.ndarray
    Y3: np.ndarray
    annihilation_residual: float
    p0_residual: float
    coefficient: np.ndarray  # B_o B_u
    ukc_min_ratio: float | None = None
    ukc_samples: int = 0
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
    where w_s holds the amplitudes of the eps-layer modes R2^S."""

    coefficient: np.ndarray
    B_tilde_o: np.ndarray
    condition_number: float


def build_equilibrium_frame(sys: RelaxationSystem) -> EquilibriumFrame:
    """The frame of A11 from its speed split (``sys.speeds``)."""
    speeds = sys.speeds[1]
    nonzero = np.concatenate([speeds.neg, speeds.pos])
    return EquilibriumFrame(
        P1=speeds.V[:, nonzero], P0=speeds.kernel, Lam1=speeds.w[nonzero]
    )


def build_reduction_data(
    sys: RelaxationSystem, frame: KernelFrame, eq: EquilibriumFrame
) -> ReductionData:
    """Assemble K, K~, X, N and the eps-layer modes R2^S with their rates.

    The eps-layer ODE (K~^T X K~) w' = (K~^T S_hat K~) w has a symmetric
    K~^T X K~ and a negative definite K~^T S_hat K~ (S_hat < 0 under
    structural stability): with -K~^T S_hat K~ = L L^T, each eigenpair
    (mu, z) of the symmetric C = L^{-1} (K~^T X K~) L^{-T} is a mode L^{-T} z
    with rate -1/mu (Golub & Van Loan, Matrix Computations, sec. 8.7).  The
    decaying modes are those with mu > 0, as many as the positive inertia of
    K~^T X K~.  R2^S holds them in ascending mu, each column of unit norm
    with its largest entry in magnitude (the first, on ties) positive.

    Raises AssumptionViolated if K = A12_hat^T P0 loses column rank, if
    K~^T X K~ is singular, if K~^T S_hat K~ is not negative definite or if
    the number of decaying modes is not n_+ - n1_+ - n10, and
    NearImaginaryEigenvalue if a rate lies within tau_axis of zero: each
    places the system outside the admissible class.
    """
    idx = compute_indices(sys)
    A12h, A22h, Sh = frame.A12_hat, frame.A22_hat, frame.S_hat
    P1, P0, Lam1 = eq.P1, eq.P0, eq.Lam1

    K = A12h.T @ P0  # (r - n0) x n10
    full_rank_cond(K, AssumptionViolated(
        "A12_hat^T P0 is column rank deficient; the eps-layer cannot "
        "absorb the characteristic boundary modes"
    ))
    K_tilde = orthonormal_complement(K)

    X = A22h - A12h.T @ P1 @ np.diag(1.0 / Lam1) @ P1.T @ A12h

    KtXKt = K_tilde.T @ X @ K_tilde
    KtSKt = K_tilde.T @ Sh @ K_tilde
    full_rank_cond(KtXKt, AssumptionViolated("K~^T X K~ is singular"))

    inner = (K.T @ Sh @ K_tilde) @ np.linalg.solve(KtSKt, KtXKt) - K.T @ X @ K_tilde
    N0 = P0 @ np.linalg.inv(K.T @ K) @ inner
    N = N0 - P1 @ np.diag(1.0 / Lam1) @ P1.T @ A12h @ K_tilde

    expected = idx.n_plus - idx.n1_plus - idx.n10
    R2S, rates = _layer_modes(KtXKt, KtSKt)
    if R2S.shape[1] != expected:
        raise AssumptionViolated(
            f"the eps-layer has {R2S.shape[1]} decaying modes, expected "
            f"n_+ - n1_+ - n10 = {expected}"
        )
    return ReductionData(K=K, K_tilde=K_tilde, X=X, N=N, R2S=R2S, rates=rates)


def _layer_modes(KtXKt, KtSKt):
    """The decaying modes and rates of the pencil (K~^T X K~, K~^T S_hat K~)
    (see ``build_reduction_data``)."""
    if not KtXKt.size:
        return np.zeros((0, 0)), np.zeros(0)
    try:
        L = np.linalg.cholesky(-KtSKt)
    except np.linalg.LinAlgError:
        raise AssumptionViolated("K~^T S_hat K~ is not negative definite") from None
    mu, Z = np.linalg.eigh(np.linalg.solve(L, np.linalg.solve(L, KtXKt).T))
    rates = -1.0 / mu
    tol = tau_axis(np.abs(rates).max())
    slowest = rates[np.argmin(np.abs(rates))]
    if abs(slowest) < tol:
        raise NearImaginaryEigenvalue(slowest, tol)
    decaying = mu > 0
    R2S = np.linalg.solve(L.T, Z[:, decaying])
    R2S /= np.linalg.norm(R2S, axis=0)
    R2S *= np.sign(R2S[np.abs(R2S).argmax(axis=0), np.arange(R2S.shape[1])])
    return R2S, rates[decaying]


def _M1_stack(sys: RelaxationSystem, eq: EquilibriumFrame):
    """The reduced matrix M1(xi, omega) of the equilibrium system in the
    (P1, P0) frame: the relaxation symbol of (A_{j,11}, Q = 0) at eta = 0
    (``symbol_stack``), as a function of the rows (Re xi, Im xi, omega...)
    of a direction array returning the stack M1 (N, k1, k1)."""
    n1 = sys.n - sys.r
    evaluate = symbol_stack(
        [Aj[:n1, :n1] for Aj in sys.A], np.zeros((n1, n1)), eq.P1, eq.P0
    )
    return lambda u: evaluate(np.column_stack([u, np.zeros(len(u))]))


def _limit_basis(sys, frame, eq, data, V_s) -> np.ndarray:
    """The eta -> infinity limit of a stable basis of M in the R1 frame,

        [ P1 V_s    P0    N R2^S ]
        [   0       0    K~ R2^S ],

    for a stack V_s (N, k1, k) of stable vectors of M1: a stack of
    (n - n0) x (k + n10 + dim R2^S) bases.

    The paper's first column block is (P1 - P0 X) V_s, with
    X = [xi I + P0^T C P0]^{-1} P0^T C P1 and C(omega) = i sum_j omega_j A_{j,11}.
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
    sys: RelaxationSystem, frame: KernelFrame, eq: EquilibriumFrame, data: ReductionData, p
) -> np.ndarray:
    """The eta -> infinity limit of a stable basis of M at the point
    p = (Re xi, Im xi, omega...), a row of the eta = infinity sample: an
    (n - n0) x n_+ matrix (see ``_limit_basis``), with the stable vectors of
    M1 from ``stable_eigvecs``, as that sample takes them.  Raises
    NearImaginaryEigenvalue where the sample would skip p."""
    M1 = _M1_stack(sys, eq)(np.array([p], dtype=float))
    V_s, _, skipped, _ = stable_eigvecs(M1, compute_indices(sys).n1_plus)
    if skipped:
        raise skipped[0]
    return _limit_basis(sys, frame, eq, data, V_s)[0]


def reduced_algebra(
    sys: RelaxationSystem, frame: KernelFrame, eq: EquilibriumFrame, data: ReductionData
) -> ReducedBC:
    """The reduced condition before its UKC certificate: B_o, and the
    residuals of B_o (Y2 Y3) = 0 and B_o B_u P0 = 0.

    Y2 = B_u P0 and Y3 = B_u N R2^S + B_v R02_perp K~ R2^S are evaluated at a
    reference point; they are frequency-independent by construction.  Raises
    AssumptionViolated if (Y2 Y3) has unexpected rank.
    """
    idx = compute_indices(sys)
    B_u, B_v = sys.B_u, sys.B_v

    Y2 = B_u @ eq.P0
    Y3 = (B_u @ data.N + B_v @ frame.R02_perp @ data.K_tilde) @ data.R2S
    Y23 = np.hstack([Y2, Y3])
    expected_rank = idx.n_plus - idx.n1_plus
    if Y23.shape[1] != expected_rank:
        raise AssumptionViolated(f"(Y2 Y3) has {Y23.shape[1]} columns, expected {expected_rank}")
    if Y23.shape[1] > 0:
        full_rank_cond(Y23, AssumptionViolated("(Y2 Y3) is column rank deficient"))
        U, _, _ = np.linalg.svd(Y23, full_matrices=True)
        B_o = U[:, Y23.shape[1] :].T
    else:
        B_o = np.eye(idx.n_plus)
    if B_o.shape[0] != idx.n1_plus:
        raise AssumptionViolated(f"B_o has {B_o.shape[0]} rows, expected n1_+ = {idx.n1_plus}")
    B_o = _normalize_rows(B_o)

    ann = spectral_norm(B_o @ Y23) if Y23.shape[1] else 0.0
    p0_res = spectral_norm(B_o @ B_u @ eq.P0) if eq.P0.shape[1] else 0.0
    return ReducedBC(B_o, Y2, Y3, float(ann), float(p0_res), coefficient=B_o @ B_u)


def derive_reduced_bc(algebra: ReducedBC, ukc: Sample) -> ReducedBC:
    """The reduced condition ``algebra`` (``reduced_algebra``) with the UKC
    certificate of its sample ``ukc``, the ratio |det(B_o B_u P1 V_s)| /
    vol(V_s), V_s a stable basis of M1 (``Pipeline.m1``).

    When the reduced condition has rows (n1_+ > 0), raises GkcFailed if a
    sampled UKC direction was skipped for an eigenvalue near the imaginary
    axis, or if the sampled minimum falls below the threshold; with
    n1_+ = 0 there is nothing to certify, and skipped directions are only
    counted in ``ukc_skipped``.
    """
    n1_plus = algebra.B_o.shape[0]
    skipped = len(ukc.skipped)
    count = len(ukc.rows) - skipped
    best = ukc.minimum if count else 0.0 if n1_plus else 1.0
    if n1_plus > 0 and skipped:
        raise GkcFailed(
            f"uniform Kreiss condition not certified for the reduced "
            f"condition: {skipped} of {len(ukc.rows)} sampled directions were "
            f"skipped for an eigenvalue of M1 near the imaginary axis"
        )
    if n1_plus > 0 and best <= C_THRESHOLD:
        raise GkcFailed(
            f"uniform Kreiss condition fails for the reduced condition: "
            f"sampled minimum {best:.3e} <= {C_THRESHOLD:.0e}"
        )
    return replace(algebra, ukc_min_ratio=best, ukc_samples=count, ukc_skipped=skipped)


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
        if nz.size and row[nz[0]] < 0:
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
    (P0^T mu1(0); w_s) with coefficient B~_o (Y2, Y3).  Raises
    AssumptionViolated if the coefficient is not invertible.
    """
    B_tilde_o = orthonormal_complement(rbc.B_o.T).T
    coeff = B_tilde_o @ np.hstack([rbc.Y2, rbc.Y3])
    if coeff.shape[0] != coeff.shape[1]:
        raise AssumptionViolated(
            f"closure coefficient is {coeff.shape[0]}x{coeff.shape[1]}, not square"
        )
    cond = full_rank_cond(coeff, AssumptionViolated("closure coefficient matrix is singular"))
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
    """Solve for (P0^T mu1(0), w_s) at one time instant; w_s holds the
    amplitudes of the eps-layer modes R2^S."""
    rhs = closure.B_tilde_o @ (np.asarray(b_t, dtype=float) - sys.B_u @ ubar0_t)
    if closure.coefficient.size == 0:
        return np.zeros(0), np.zeros(0)
    sol = np.linalg.solve(closure.coefficient, rhs)
    return sol[:n10], sol[n10:]


def _raised(stage):
    """``stage``, a ``Pipeline`` stage; raised when it is the error that
    stopped the stage."""
    if isinstance(stage, RelaxbcError):
        raise stage
    return stage


@dataclass
class Pipeline:
    """The derivation chain of one system from its kernel frame, each stage
    built on first read and kept: ``limit`` (``eq``, ``data``), ``algebra``,
    the M1 split ``m1`` on the grid ``units``, ``gkc``, ``rbc``,
    ``closure``.  The eta = infinity sample of ``gkc`` and the UKC
    certificate of ``rbc`` read the one split.  Raises AssumptionViolated,
    as ``check_gkc`` does, unless A, Q, B and the kernel frame are real."""

    sys: RelaxationSystem
    frame: KernelFrame
    spec: SamplingSpec

    def __post_init__(self):
        require_real(self.sys, self.frame)

    @cached_property
    def limit(self) -> tuple[EquilibriumFrame, ReductionData] | RelaxbcError:
        """``(eq, data)``, or the error that stopped them: the GKC verdict
        reports it, and ``eq`` and ``data`` raise it."""
        try:
            eq = build_equilibrium_frame(self.sys)
            return eq, build_reduction_data(self.sys, self.frame, eq)
        except RelaxbcError as exc:
            return exc

    @property
    def eq(self) -> EquilibriumFrame:
        return _raised(self.limit)[0]

    @property
    def data(self) -> ReductionData:
        return _raised(self.limit)[1]

    @cached_property
    def units(self) -> np.ndarray:
        """The (Re xi, Im xi, omega) grid of the M1 split (``xi_omega_directions``)."""
        return xi_omega_directions(self.sys.d, self.spec)

    @cached_property
    def algebra(self) -> ReducedBC | RelaxbcError:
        """The reduced condition before its certificate (``reduced_algebra``),
        or the error that stopped it: ``rbc`` raises it."""
        try:
            return reduced_algebra(self.sys, self.frame, self.eq, self.data)
        except RelaxbcError as exc:
            return exc

    @cached_property
    def m1(self) -> dict:
        """The ``Sample`` of each target of one stable split of M1 at the
        rows ``units``: "gkc eta = inf", the GKC ratio of the limit basis
        ``_limit_basis``, and "ukc", the UKC ratio, when ``algebra`` holds
        the reduced condition."""
        eq, data = _raised(self.limit)
        limit_basis = partial(_limit_basis, self.sys, self.frame, eq, data)
        targets = {"gkc eta = inf": (self.sys.B @ self.frame.R1, limit_basis)}
        if not isinstance(self.algebra, RelaxbcError):
            targets["ukc"] = (self.algebra.coefficient @ eq.P1, None)
        n1_plus = compute_indices(self.sys).n1_plus
        return sample(self.units, _M1_stack(self.sys, eq), n1_plus, targets)

    @cached_property
    def gkc(self) -> GkcReport:
        # both grids are built, so a grid past the direction limit is
        # refused, before either is sampled
        self.units
        hemisphere = gkc_directions(self.sys.d, self.spec)
        limit = self.limit
        eta_inf = (f"{type(limit).__name__}: {limit}" if isinstance(limit, RelaxbcError)
                   else self.m1["gkc eta = inf"])
        return check_gkc(self.sys, self.frame, self.spec, hemisphere, eta_inf)

    @cached_property
    def rbc(self) -> ReducedBC:
        return derive_reduced_bc(_raised(self.algebra), self.m1["ukc"])

    @cached_property
    def closure(self) -> ClosureSolve:
        return build_closure(self.sys, self.frame, self.eq, self.data, self.rbc)


def derive_all(sys: RelaxationSystem, spec: SamplingSpec | None = None) -> Pipeline:
    """The ``Pipeline`` of ``sys`` in its kernel frame, built through the
    closure: raises what a stage raises."""
    pipeline = Pipeline(sys, build_kernel_frame(sys), spec or SamplingSpec())
    pipeline.closure  # builds every stage it rests on
    return pipeline


def render_reduced_bc(sys: RelaxationSystem, rbc: ReducedBC) -> str:
    """Human-readable rendering of the reduced boundary condition.

    The condition acts on the canonical variables V = T U (``sys.transform``
    T).  Where T is the identity they are the input's own and carry its
    ``labels`` (u1, u2, ... without them).  Otherwise they are named V1,
    V2, ... and each one the condition reads is written out in the input
    variables, which carry the labels."""
    coeff = np.round(rbc.coefficient, RENDER_DIGITS)
    B_o = np.round(rbc.B_o, RENDER_DIGITS)
    lines = ["reduced boundary condition  (B_o B_u) ubar(0, t) = B_o b(t)"]
    raw = [*sys.labels, *(f"u{i+1}" for i in range(len(sys.labels), sys.n))]
    T = sys.transform
    same = T is None or np.array_equal(T, np.eye(sys.n))
    names = raw if same else [f"V{i+1}" for i in range(sys.n)]
    for i in range(coeff.shape[0]):
        lhs = " + ".join(
            f"{coeff[i, j]:+g}*{names[j]}(0,t)" for j in range(coeff.shape[1])
        )
        rhs = " + ".join(
            f"{B_o[i, j]:+g}*b{j+1}(t)" for j in range(B_o.shape[1])
        )
        lines.append(f"  {lhs} = {rhs}")
    if not same and coeff.shape[0]:
        lines.append("in the canonical variables V = T U:")
        for i in range(coeff.shape[1]):
            row = np.round(T[i], RENDER_DIGITS)
            terms = " + ".join(f"{row[j]:+g}*{raw[j]}" for j in np.flatnonzero(row))
            lines.append(f"  {names[i]} = {terms}")
    return "\n".join(lines)


__all__ = [
    "EquilibriumFrame",
    "ReductionData",
    "ReducedBC",
    "ClosureSolve",
    "build_equilibrium_frame",
    "build_reduction_data",
    "limit_stable_matrix",
    "reduced_algebra",
    "derive_reduced_bc",
    "build_closure",
    "solve_closure",
    "render_reduced_bc",
    "Pipeline",
    "derive_all",
]
