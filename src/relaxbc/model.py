"""System ingestion, normalization, and validation of the standing
structural assumptions (symmetrizer, Onsager relation, coupling inequality,
Shizuta-Kawashima-like condition, boundary matrix constraints)."""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AmbiguousSpectrum,
    DimensionMismatch,
    NonSymmetricSymmetrizer,
    ParseError,
    SkConditionViolated,
    ValidationFailed,
)
from .linalg import full_rank_cond
from .tolerances import spectral_norm, tau_eig, tau_rank, tau_sym


def _as_matrix(obj, name: str) -> np.ndarray:
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ParseError(f"field '{name}' is not a rectangular numeric matrix: {exc}")
    if arr.ndim != 2:
        raise ParseError(f"field '{name}' must be a 2-D matrix, got ndim={arr.ndim}")
    return arr


@dataclass(frozen=True)
class SystemIndices:
    """Eigenvalue counts of the boundary-normal coefficient and its
    equilibrium block."""

    n0: int
    n_plus: int
    n10: int
    n1_plus: int


@dataclass(frozen=True)
class RelaxationSystem:
    """A linear relaxation system in canonical form.

    d spatial dimensions, state dimension n, relaxation rank r.  A[0] is the
    boundary-normal coefficient; all A[j] are symmetric, Q = diag(0, S) with S
    symmetric negative definite, and the n_+ x n boundary matrix B has full
    row rank and annihilates the kernel of A[0].
    """

    d: int
    n: int
    r: int
    A: tuple
    Q: np.ndarray
    B: np.ndarray
    labels: tuple = ()
    transform: np.ndarray | None = None  # change of variables from raw input

    @property
    def A1(self) -> np.ndarray:
        return self.A[0]

    @property
    def A11(self) -> np.ndarray:
        return self.A1[: self.n - self.r, : self.n - self.r]

    @property
    def A12(self) -> np.ndarray:
        return self.A1[: self.n - self.r, self.n - self.r :]

    @property
    def A22(self) -> np.ndarray:
        return self.A1[self.n - self.r :, self.n - self.r :]

    @property
    def S(self) -> np.ndarray:
        return self.Q[self.n - self.r :, self.n - self.r :]

    @property
    def B_u(self) -> np.ndarray:
        return self.B[:, : self.n - self.r]

    @property
    def B_v(self) -> np.ndarray:
        return self.B[:, self.n - self.r :]

    def validate(self) -> None:
        """Check the canonical-form invariants; raises ValidationFailed."""
        n, r, d = self.n, self.r, self.d
        if not (d >= 1 and n >= 2 and 1 <= r < n):
            raise ValidationFailed(f"bad dimensions d={d}, n={n}, r={r}")
        if len(self.A) != d:
            raise DimensionMismatch(f"expected {d} coefficient matrices")
        scale = max(spectral_norm(Aj) for Aj in self.A)
        for j, Aj in enumerate(self.A):
            if Aj.shape != (n, n):
                raise DimensionMismatch(f"A[{j}] has shape {Aj.shape}")
            if spectral_norm(Aj - Aj.T) > tau_sym(scale):
                raise ValidationFailed(f"A[{j}] is not symmetric")
        if self.Q.shape != (n, n):
            raise DimensionMismatch(f"Q has shape {self.Q.shape}")
        qs = spectral_norm(self.Q)
        layout = self.Q.copy()
        layout[n - r :, n - r :] = 0.0
        if spectral_norm(layout) > tau_sym(qs):
            raise ValidationFailed("Q is not of the form diag(0, S)")
        S = self.S
        if spectral_norm(S - S.T) > tau_sym(qs):
            raise ValidationFailed("S is not symmetric")
        if np.max(np.linalg.eigvalsh(S)) >= -tau_eig(qs):
            raise ValidationFailed("S is not negative definite")
        speeds, _ = split_speeds(self)
        n_plus = speeds.pos.size
        if self.B.shape != (n_plus, n):
            raise DimensionMismatch(
                f"B has shape {self.B.shape}, expected ({n_plus}, {n})"
            )
        if np.linalg.matrix_rank(self.B, tol=tau_rank(spectral_norm(self.B))) != n_plus:
            raise ValidationFailed("rank(B) < n_+")
        if spectral_norm(self.B @ speeds.kernel) > tau_sym(max(spectral_norm(self.B), 1.0)):
            raise ValidationFailed("B R0 != 0: boundary condition involves the "
                                   "zero-speed characteristic mode")


@dataclass(frozen=True)
class SpeedSplit:
    """Eigenpairs A V = V diag(w) of a symmetric coefficient, w ascending,
    and the index sets of its negative, zero and positive speeds."""

    w: np.ndarray
    V: np.ndarray
    neg: np.ndarray
    zero: np.ndarray
    pos: np.ndarray

    @property
    def kernel(self) -> np.ndarray:
        """Orthonormal eigenvectors of the zero speeds."""
        return self.V[:, self.zero]


def split_speeds(sys: RelaxationSystem) -> tuple[SpeedSplit, SpeedSplit]:
    """The speed splits of A1 and of its equilibrium block A11.

    Both count a speed as zero when its magnitude is at most
    tau = tau_eig(||A1||), so every reduced dimension (n0, n_+, n10, n1_+)
    rests on one rule.  Raises AmbiguousSpectrum if a speed of either falls
    in the grey band (tau, 10 tau): misclassifying a zero multiplicity
    corrupts every downstream dimension, so we fail loudly instead of
    choosing a sign.
    """
    pairs = np.linalg.eigh(sys.A1), np.linalg.eigh(sys.A11)
    tau = tau_eig(float(np.max(np.abs(pairs[0][0]), initial=0.0)))
    splits = []
    for name, (w, V) in zip(("A1", "A11"), pairs):
        grey = (np.abs(w) > tau) & (np.abs(w) < 10 * tau)
        if np.any(grey):
            raise AmbiguousSpectrum(
                f"{name} eigenvalue(s) {w[grey]} within (tau, 10*tau) = "
                f"({tau:.3e}, {10 * tau:.3e})"
            )
        splits.append(SpeedSplit(
            w, V, np.flatnonzero(w < -tau), np.flatnonzero(np.abs(w) <= tau), np.flatnonzero(w > tau)
        ))
    return tuple(splits)


@dataclass(frozen=True)
class RawSystem:
    """A pre-canonical system: symmetrizer candidate A0, coefficients, source,
    and the kernel-splitting pair (P, S) of the structural stability condition.

    When P is omitted the source is required to already carry the
    diag(0, S) block layout and P defaults to the identity.
    """

    A0: np.ndarray
    A: tuple
    Q: np.ndarray
    B: np.ndarray
    d: int
    n: int
    r: int
    P: np.ndarray | None = None
    labels: tuple = ()


@dataclass
class ValidationReport:
    item_kernel_split: bool
    item_symmetrizer: bool
    item_coupling: bool
    onsager: bool
    residuals: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return (
            self.item_kernel_split
            and self.item_symmetrizer
            and self.item_coupling
            and self.onsager
        )

    def to_dict(self) -> dict:
        return {
            "item_kernel_split": self.item_kernel_split,
            "item_symmetrizer": self.item_symmetrizer,
            "item_coupling": self.item_coupling,
            "onsager": self.onsager,
            "passed": self.passed,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
        }


def validate_structural_stability(raw: RawSystem) -> ValidationReport:
    """Check the three-item structural stability condition plus the Onsager
    relation A0 Q = Q^T A0.

    Item (iii) is tested as lambda_max(A0 Q + Q^T A0 + P^T diag(0, I_r) P) <= tau.
    """
    n, r = raw.n, raw.r
    A0 = np.asarray(raw.A0, dtype=float)
    if A0.shape != (n, n):
        raise DimensionMismatch(f"A0 has shape {A0.shape}, expected ({n}, {n})")
    for j, Aj in enumerate(raw.A):
        if np.asarray(Aj).shape != (n, n):
            raise DimensionMismatch(f"A[{j}] has shape {np.asarray(Aj).shape}")
    if raw.Q.shape != (n, n):
        raise DimensionMismatch(f"Q has shape {raw.Q.shape}")
    if spectral_norm(A0 - A0.T) > tau_sym(spectral_norm(A0)):
        raise NonSymmetricSymmetrizer("A0 is not symmetric")
    if np.min(np.linalg.eigvalsh(A0)) <= 0:
        raise NonSymmetricSymmetrizer("A0 is not positive definite")

    P = np.eye(n) if raw.P is None else np.asarray(raw.P, dtype=float)
    scale_q = max(spectral_norm(raw.Q), 1.0)

    # (i) P Q = diag(0, S) P with S the lower-right r x r block of P Q P^{-1}
    PQ = P @ raw.Q
    ref = PQ @ np.linalg.inv(P)
    S_split = ref[n - r :, n - r :]
    blocked = np.zeros_like(ref)
    blocked[n - r :, n - r :] = S_split
    res_i = spectral_norm(PQ - blocked @ P)
    ok_i = res_i <= tau_sym(scale_q * spectral_norm(P) ** 2) * 1e2

    # (ii) A0 A_j = A_j^T A0
    scale_a = max(spectral_norm(Aj) for Aj in raw.A)
    res_ii = max(spectral_norm(A0 @ Aj - Aj.T @ A0) for Aj in raw.A)
    ok_ii = res_ii <= tau_sym(scale_a * spectral_norm(A0))

    # (iii) A0 Q + Q^T A0 <= -P^T diag(0, I_r) P
    proj = np.zeros((n, n))
    proj[n - r :, n - r :] = np.eye(r)
    gap = A0 @ raw.Q + raw.Q.T @ A0 + P.T @ proj @ P
    lam_max = float(np.max(np.linalg.eigvalsh((gap + gap.T) / 2)))
    ok_iii = lam_max <= tau_sym(scale_q)

    res_onsager = spectral_norm(A0 @ raw.Q - raw.Q.T @ A0)
    ok_onsager = res_onsager <= tau_sym(scale_q * spectral_norm(A0))

    return ValidationReport(
        item_kernel_split=bool(ok_i),
        item_symmetrizer=bool(ok_ii),
        item_coupling=bool(ok_iii),
        onsager=bool(ok_onsager),
        residuals={
            "kernel_split": res_i,
            "symmetrizer": res_ii,
            "coupling_lambda_max": lam_max,
            "onsager": res_onsager,
        },
    )


def _is_canonical(raw: RawSystem) -> bool:
    n, r = raw.n, raw.r
    scale_a = max(spectral_norm(Aj) for Aj in raw.A)
    if spectral_norm(raw.A0 - np.eye(n)) > tau_sym(1.0):
        return False
    if any(spectral_norm(Aj - Aj.T) > tau_sym(scale_a) for Aj in raw.A):
        return False
    qs = max(spectral_norm(raw.Q), 1.0)
    layout = raw.Q.copy()
    layout[n - r :, n - r :] = 0.0
    if spectral_norm(layout) > tau_sym(qs):
        return False
    S = raw.Q[n - r :, n - r :]
    if spectral_norm(S - S.T) > tau_sym(qs):
        return False
    return bool(np.max(np.linalg.eigvalsh((S + S.T) / 2)) < 0)


def canonicalize(raw: RawSystem) -> RelaxationSystem:
    """Normalize a validated raw system to A0 = I, symmetric A_j, Q = diag(0, S).

    The change of variables V = T U (T = O^T A0^{1/2}, O orthogonal) is recorded
    on the returned system so solutions map back.  Spectra of the A_j are
    preserved (the transform is a similarity).
    """
    report = validate_structural_stability(raw)
    if not report.passed:
        raise ValidationFailed(f"structural stability failed: {report.to_dict()}")

    n, r = raw.n, raw.r
    if _is_canonical(raw):
        sys = RelaxationSystem(
            d=raw.d,
            n=n,
            r=r,
            A=tuple(np.asarray(Aj, dtype=float) for Aj in raw.A),
            Q=np.asarray(raw.Q, dtype=float),
            B=np.asarray(raw.B, dtype=float),
            labels=tuple(raw.labels),
            transform=np.eye(n),
        )
        sys.validate()
        return sys

    A0 = np.asarray(raw.A0, dtype=float)
    w0, V0 = np.linalg.eigh(A0)
    sq = V0 @ np.diag(np.sqrt(w0)) @ V0.T
    sq_inv = V0 @ np.diag(1.0 / np.sqrt(w0)) @ V0.T

    A_sym = []
    for Aj in raw.A:
        At = sq @ Aj @ sq_inv
        A_sym.append((At + At.T) / 2)
    Qt = sq @ raw.Q @ sq_inv
    Qt = (Qt + Qt.T) / 2  # symmetric under the Onsager relation

    # orthogonal rotation putting the kernel block of Q first
    wq, Vq = np.linalg.eigh(Qt)
    t = tau_eig(max(np.abs(wq).max(), 1e-300))
    zero_mask = np.abs(wq) <= t
    neg_mask = wq < -t
    if int(np.sum(neg_mask)) != r or int(np.sum(zero_mask)) != n - r:
        raise ValidationFailed(
            f"transformed source has {int(np.sum(neg_mask))} negative and "
            f"{int(np.sum(zero_mask))} zero eigenvalues, expected ({r}, {n - r})"
        )
    O = np.hstack([Vq[:, zero_mask], Vq[:, neg_mask]])
    Qc = np.zeros((n, n))
    Qc[n - r :, n - r :] = np.diag(wq[neg_mask])

    T = O.T @ sq
    A_out = tuple(O.T @ As @ O for As in A_sym)
    B_out = np.asarray(raw.B, dtype=float) @ sq_inv @ O
    sys = RelaxationSystem(
        d=raw.d,
        n=n,
        r=r,
        A=A_out,
        Q=Qc,
        B=B_out,
        labels=tuple(raw.labels),
        transform=T,
    )
    sys.validate()
    return sys


def check_sk_condition(sys: RelaxationSystem) -> bool:
    """Shizuta-Kawashima-like condition ker(A1) intersect ker(Q) = {0},
    tested as full rank of R0^T Q R0 (R0 an orthonormal kernel basis) by the
    package's rank rule, ``linalg.full_rank_cond``."""
    R0 = split_speeds(sys)[0].kernel
    try:
        full_rank_cond(R0.T @ sys.Q @ R0, SkConditionViolated())
    except SkConditionViolated:
        return False
    return True


def compute_indices(sys: RelaxationSystem) -> SystemIndices:
    """The zero and positive speed counts of A1 and A11 (``split_speeds``)."""
    a1, a11 = split_speeds(sys)
    return SystemIndices(
        n0=a1.zero.size, n_plus=a1.pos.size, n10=a11.zero.size, n1_plus=a11.pos.size
    )


def load_system(path) -> RelaxationSystem:
    """Read a system specification file (JSON) and return the canonical system.

    Fields: d, n, r, A (list of row-major matrices), Q or S, B, and optional
    A0, P, labels.  Providing A0 marks the system as raw; it is validated and
    canonicalized on load.
    """
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read system file {path}: {exc}")
    return system_from_dict(doc)


def raw_system_from_dict(doc: dict) -> RawSystem:
    """The system a parsed file describes, before validation."""
    for key in ("d", "n", "r", "A", "B"):
        if key not in doc:
            raise ParseError(f"missing field '{key}'")
    d, n, r = int(doc["d"]), int(doc["n"]), int(doc["r"])
    if not isinstance(doc["A"], list) or len(doc["A"]) != d:
        raise ParseError(f"field 'A' must be a list of {d} matrices")
    A = tuple(_as_matrix(m, f"A[{j}]") for j, m in enumerate(doc["A"]))

    if "Q" in doc:
        Q = _as_matrix(doc["Q"], "Q")
    elif "S" in doc:
        S = _as_matrix(doc["S"], "S")
        if S.shape != (r, r):
            raise ParseError(f"S has shape {S.shape}, expected ({r}, {r})")
        Q = np.zeros((n, n))
        Q[n - r :, n - r :] = S
    else:
        raise ParseError("one of 'Q' or 'S' is required")

    B = _as_matrix(doc["B"], "B")
    labels = tuple(doc.get("labels", ()))

    A0 = _as_matrix(doc["A0"], "A0") if "A0" in doc else np.eye(n)
    P = _as_matrix(doc["P"], "P") if "P" in doc else None
    return RawSystem(A0=A0, A=A, Q=Q, B=B, d=d, n=n, r=r, P=P, labels=labels)


def system_from_dict(doc: dict) -> RelaxationSystem:
    return canonicalize(raw_system_from_dict(doc))


def system_to_dict(sys: RelaxationSystem) -> dict:
    return {
        "d": sys.d,
        "n": sys.n,
        "r": sys.r,
        "A": [Aj.tolist() for Aj in sys.A],
        "Q": sys.Q.tolist(),
        "B": sys.B.tolist(),
        "labels": list(sys.labels or ()),
    }
