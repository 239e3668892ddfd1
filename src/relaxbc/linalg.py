"""Dense linear-algebra kernels: invariant-subspace splits (per matrix, or
stable eigenvectors of a stack), the rank rule, orthonormal complements, the
matrix exponential and its action over many arguments.

All routines are pure and use numpy's LAPACK only.  A stable invariant
subspace is the range of the spectral projector (I - sign M) / 2, with
sign M from a stacked, scaled Newton iteration (Higham, Functions of
Matrices, SIAM 2008, ch. 5); its bases are orthonormal.  The stacked stable
eigenvectors are not, so determinant ratios on them divide by their volume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NearImaginaryEigenvalue, RankDeficient, RankMismatch, SignNotConverged,
    SpectralCountMismatch,
)
from .tolerances import (
    AXIS_MARGIN,
    EIGVEC_COND_MAX,
    EXP_EIGVEC_COND_MAX,
    RANK_REL,
    SIGN_MAX_STEPS,
    SIGN_REL_CHANGE,
    SIGN_SCALED_STEPS,
    spectral_norm,
    tau_axis,
)


@dataclass(frozen=True)
class StableSubspace:
    """Orthonormal basis ``basis_s`` of the stable invariant subspace of M,
    of dimension ``k``: M basis_s = basis_s (basis_s^* M basis_s)."""

    basis_s: np.ndarray
    k: int


def guarded_eigvals(M) -> np.ndarray:
    """Eigenvalues of a square matrix M.

    Raises NearImaginaryEigenvalue if one lies within tau_axis(||M||_2) of the
    imaginary axis: that signals the caller drifted to an inadmissible
    parameter point.
    """
    eigs = np.linalg.eigvals(M)
    tol = tau_axis(spectral_norm(M))
    worst = eigs[np.argmin(np.abs(eigs.real))]
    if abs(worst.real) < tol:
        raise NearImaginaryEigenvalue(worst, tol)
    return eigs


def matrix_sign(M: np.ndarray) -> np.ndarray:
    """sign(M) for a stack M (N, n, n) of matrices with no eigenvalue on the
    imaginary axis, by Newton's iteration S <- (mu S + (mu S)^{-1}) / 2 from
    S = M, with mu = |det S|^{-1/n} in the first SIGN_SCALED_STEPS steps and
    mu = 1 after them.

    Each row iterates until one step changes it by at most SIGN_REL_CHANGE
    of its Frobenius norm and is then left alone, so a row's result does not
    depend on the other rows of the stack.  A row still moving after
    SIGN_MAX_STEPS steps raises SignNotConverged naming the first such row.
    """
    S = np.array(M)
    n = S.shape[-1]
    active = np.arange(len(S))
    for step in range(SIGN_MAX_STEPS):
        X = S[active]
        X_inv = np.linalg.inv(X)
        if step < SIGN_SCALED_STEPS:
            mu = np.exp(-np.linalg.slogdet(X)[1] / n)[:, None, None]
            new = 0.5 * (mu * X + X_inv / mu)
        else:
            new = 0.5 * (X + X_inv)
        change = np.linalg.norm(new - X, axis=(1, 2))
        S[active] = new
        # a row whose change is NaN stays active, and so raises below
        active = active[~(change <= SIGN_REL_CHANGE * np.linalg.norm(new, axis=(1, 2)))]
        if not active.size:
            return S
    raise SignNotConverged(
        f"sign iteration still moving after {SIGN_MAX_STEPS} steps", row=int(active[0])
    )


def _stable_bases(M: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Orthonormal bases (N, n, n) whose first counts[i] columns span the
    stable subspace of M[i], the range of (I - sign M[i]) / 2, from its
    singular vectors.  Raises SignNotConverged where round(trace) of that
    projector is not counts[i], the row's count of stable eigenvalues."""
    P = 0.5 * (np.eye(M.shape[-1]) - matrix_sign(M))
    trace = np.rint(np.trace(P, axis1=1, axis2=2).real).astype(int)
    bad = np.flatnonzero(trace != counts)
    if bad.size:
        i = int(bad[0])
        raise SignNotConverged(
            f"stable projector has trace {trace[i]}, but {counts[i]} eigenvalues "
            f"are stable", row=i,
        )
    return np.linalg.svd(P)[0]


def split_invariant_subspaces(M) -> StableSubspace:
    """Split C^n into stable/unstable invariant subspaces of a square matrix.

    The basis spans the range of the spectral projector (I - sign M) / 2,
    which needs no eigenvectors, so a defective M is split as accurately as
    any other.  Raises NearImaginaryEigenvalue as ``guarded_eigvals`` does.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise RankMismatch(f"expected square matrix, got {M.shape}")
    if n == 0:
        return StableSubspace(np.zeros((0, 0), dtype=complex), 0)

    k = int(np.sum(guarded_eigvals(M).real < 0))
    return StableSubspace(basis_s=_stable_bases(M[None], np.array([k]))[0][:, :k], k=k)


def stable_basis_real(M) -> np.ndarray:
    """Real orthonormal basis of the stable invariant subspace of a real M,
    with the axis guard of ``guarded_eigvals``.

    The stable subspace of a real matrix is closed under conjugation, so a
    real basis exists: sign M is real for a real M.  Each column's largest
    entry in magnitude (the first, on ties) is positive, whatever signs
    LAPACK gives the singular vectors.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    k = int(np.sum(guarded_eigvals(M).real < 0))
    Z = _stable_bases(M[None], np.array([k]))[0][:, :k]
    return Z * np.sign(Z[np.abs(Z).argmax(axis=0), np.arange(k)])


def stable_eigvecs(M: np.ndarray, n_s: int):
    """Bases of the stable invariant subspaces of a stack M (N, k, k) at
    points where that subspace has dimension n_s.

    Returns ``(V_s, skipped)``.  V_s (N, k, n_s) holds the unit stable
    eigenvectors of each M[i] from one stacked ``eig`` or, where they cannot
    stand in, the orthonormal basis ``split_invariant_subspaces(M[i])`` would
    return, from one stacked sign iteration over those rows: when an eigenvalue
    lies within AXIS_MARGIN * tau_axis(||M[i]||_F) of the imaginary axis, when
    M[i] has other than n_s stable eigenvalues, when its eigenvector matrix
    has Frobenius condition number above EIGVEC_COND_MAX (a nearly defective
    M[i]), or when the stacked ``eig`` raised LinAlgError.  A ratio
    |det(X V_s)| / vol(V_s) does not depend on the basis, so neither is
    orthonormalised.

    ``skipped`` maps each i whose axis guard raised NearImaginaryEigenvalue
    to that exception; its row of V_s is meaningless.  A fallback row with
    other than n_s stable eigenvalues raises SpectralCountMismatch, ``row`` i.
    """
    N, k = M.shape[:2]
    try:
        w, V = np.linalg.eig(M)
    except np.linalg.LinAlgError:
        V_s, ok = np.zeros((N, k, n_s), dtype=complex), np.zeros(N, dtype=bool)
    else:
        stable = w.real < 0
        ok = stable.sum(axis=1) == n_s
        if k:
            # the Frobenius norm bounds the spectral norm of the axis guard
            # from above, so this screen passes no row that guard would skip
            norms = np.linalg.norm(M, axis=(1, 2))
            ok &= np.abs(w.real).min(axis=1) >= AXIS_MARGIN * tau_axis(norms)
            # the Frobenius condition number bounds the spectral one from
            # above, so this screen sends no fewer rows to the sign split;
            # a singular V gives inf
            ok &= np.linalg.cond(V, "fro") <= EIGVEC_COND_MAX
        order = np.argsort(~stable, axis=1, kind="stable")[:, :n_s]
        V_s = np.take_along_axis(V, order[:, None, :], axis=2)
    skipped, rows = {}, []
    for i in np.flatnonzero(~ok):
        try:
            count = int(np.sum(guarded_eigvals(M[i]).real < 0))
        except NearImaginaryEigenvalue as exc:
            skipped[int(i)] = exc
            continue
        if count != n_s:
            raise SpectralCountMismatch(
                f"{count} stable eigenvalues, expected {n_s}", row=int(i)
            )
        rows.append(i)
    if rows:
        try:
            V_s[rows] = _stable_bases(M[rows], np.full(len(rows), n_s))[:, :, :n_s]
        except SignNotConverged as exc:
            raise SignNotConverged(str(exc), row=int(rows[exc.row])) from exc
    return V_s, skipped


def full_rank_cond(M, error: Exception, rel: float = RANK_REL) -> float:
    """Condition number s_max / s_min of a matrix M of full column rank; 1
    when M has no columns.

    Raises ``error`` when M has fewer singular values than columns or
    s_min <= rel * max(s_max, 1): the one rank rule of the package.
    """
    if M.shape[1] == 0:
        return 1.0
    s = np.linalg.svd(M, compute_uv=False)
    if s.size < M.shape[1] or s[-1] <= rel * max(s[0], 1.0):
        raise error
    return float(s[0] / s[-1])


def orthonormal_complement(V) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(V).

    V must have full column rank; for a k-column n-row V the result has
    n - k orthonormal columns with result^T V = 0.
    """
    V = np.asarray(V)
    n, k = V.shape
    if k == 0:
        return np.eye(n)
    full_rank_cond(V, RankDeficient(f"matrix of shape {V.shape} is column-rank deficient"))
    Q, _ = np.linalg.qr(V, mode="complete")
    comp = Q[:, k:]
    if np.isrealobj(V):
        comp = comp.real
    return comp


#: Pade [13/13] numerator coefficients of exp (Higham 2005, eq. 2.3), over
#: the first, so that exp(0) = I exactly
_PADE13 = tuple(c / 64764752532480000.0 for c in (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
    1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
    33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
))
#: largest 1-norm at which the [13/13] Pade approximant of exp is exact to
#: double precision (Higham 2005, table 2.3)
_THETA13 = 5.371920351148152


def expm(A) -> np.ndarray:
    """exp(A) of a square matrix by scaling and squaring of the [13/13] Pade
    approximant (Higham, SIAM J. Matrix Anal. Appl. 26, 2005; Functions of
    Matrices, SIAM 2008, ch. 10): A is scaled by 2^-s so that its 1-norm is
    at most _THETA13, and the approximant is squared s times.  A 1 x 1 A
    takes the scalar exp."""
    A = np.asarray(A)
    if A.shape[0] <= 1:
        return np.exp(A)
    norm = np.linalg.norm(A, 1)
    s = math.ceil(math.log2(norm / _THETA13)) if norm > _THETA13 else 0
    A = A / 2.0**s
    b, eye = _PADE13, np.eye(len(A))
    A2 = A @ A
    A4 = A2 @ A2
    A6 = A4 @ A2
    U = A @ (A6 @ (b[13] * A6 + b[11] * A4 + b[9] * A2)
             + b[7] * A6 + b[5] * A4 + b[3] * A2 + b[1] * eye)
    V = (A6 @ (b[12] * A6 + b[10] * A4 + b[8] * A2)
         + b[6] * A6 + b[4] * A4 + b[2] * A2 + b[0] * eye)
    E = np.linalg.solve(V - U, V + U)
    for _ in range(s):
        E = E @ E
    return E


class ExpActionEvaluator:
    """Vectorized exp(M y) v over many y values.

    Diagonalizes M once when the eigenvector matrix is well conditioned
    (condition number below EXP_EIGVEC_COND_MAX) and falls back to per-point
    scaling-and-squaring otherwise.
    """

    def __init__(self, M):
        self.M = np.atleast_2d(np.asarray(M, dtype=float))
        self._diag = None
        m = self.M.shape[0]
        if m == 0:
            return
        w, V = np.linalg.eig(self.M)
        if np.linalg.cond(V) < EXP_EIGVEC_COND_MAX:
            self._diag = (w, V, np.linalg.inv(V))

    def apply(self, ys, v) -> np.ndarray:
        """Return array of shape (len(ys), dim) with rows exp(M y_i) v."""
        ys = np.atleast_1d(np.asarray(ys, dtype=float))
        v = np.asarray(v)
        m = self.M.shape[0]
        if m == 0:
            return np.zeros((ys.size, 0))
        if self._diag is not None:
            w, V, Vinv = self._diag
            phases = np.exp(np.outer(ys, w))  # (ny, m)
            out = (phases * (Vinv @ v.astype(complex))) @ V.T
            return out.real if np.isrealobj(v) else out
        return np.stack([expm(self.M * y) @ v for y in ys])
