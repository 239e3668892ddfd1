"""Dense linear-algebra kernels: invariant-subspace splits (per matrix, or
stable eigenvectors of a stack), the rank rule, orthonormal complements, and
matrix-exponential actions over many arguments.

All routines are pure.  Schur bases have orthonormal columns; the stacked
stable eigenvectors do not, so determinant ratios on them divide by their
volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import (
    NearImaginaryEigenvalue, RankDeficient, RankMismatch, SpectralCountMismatch,
)
from .tolerances import (
    AXIS_MARGIN,
    EIGVEC_COND_MAX,
    EXP_EIGVEC_COND_MAX,
    RANK_REL,
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


def split_invariant_subspaces(M) -> StableSubspace:
    """Split C^n into stable/unstable invariant subspaces of a square matrix.

    Uses a unitary (complex Schur) triangularization with the stable block
    leading, which avoids ill-conditioned eigenvector matrices for defective M.
    Raises NearImaginaryEigenvalue as ``guarded_eigvals`` does.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise RankMismatch(f"expected square matrix, got {M.shape}")
    if n == 0:
        return StableSubspace(np.zeros((0, 0), dtype=complex), 0)

    guarded_eigvals(M)
    _, Z, sdim = sla.schur(M, output="complex", sort=lambda z: z.real < 0)
    k = int(sdim)
    return StableSubspace(basis_s=Z[:, :k], k=k)


def stable_basis_real(M) -> np.ndarray:
    """Real orthonormal basis of the stable invariant subspace of a real M,
    with the axis guard of ``guarded_eigvals``.

    The stable subspace of a real matrix is closed under conjugation, so a
    real basis exists; it is extracted from the sorted real Schur form.
    """
    M = np.asarray(M, dtype=float)
    if M.shape[0] == 0:
        return np.zeros((0, 0))
    guarded_eigvals(M)
    _, Z, sdim = sla.schur(M, output="real", sort=lambda re, im: re < 0)
    return Z[:, : int(sdim)]


def stable_eigvecs(M: np.ndarray, n_s: int):
    """Bases of the stable invariant subspaces of a stack M (N, k, k) at
    points where that subspace has dimension n_s.

    Returns ``(V_s, skipped)``.  V_s (N, k, n_s) holds the unit stable
    eigenvectors of each M[i] from one stacked ``eig`` or, where they cannot
    stand in, ``split_invariant_subspaces(M[i]).basis_s``: when an eigenvalue
    lies within AXIS_MARGIN * tau_axis(||M[i]||_F) of the imaginary axis, when
    M[i] has other than n_s stable eigenvalues, when its eigenvector matrix
    has Frobenius condition number above EIGVEC_COND_MAX (a nearly defective
    M[i]), or when the stacked ``eig`` raised LinAlgError.  A ratio
    |det(X V_s)| / vol(V_s) does not depend on the basis, so neither is
    orthonormalised.

    ``skipped`` maps each i whose Schur split raised NearImaginaryEigenvalue
    to that exception; its row of V_s is meaningless.  A Schur split with
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
            # the Frobenius norm bounds the spectral norm of the Schur guard
            # from above, so this screen passes no row that guard would skip
            norms = np.linalg.norm(M, axis=(1, 2))
            ok &= np.abs(w.real).min(axis=1) >= AXIS_MARGIN * tau_axis(norms)
            # the Frobenius condition number bounds the spectral one from
            # above, so this screen sends no fewer rows to the Schur split;
            # a singular V gives inf
            ok &= np.linalg.cond(V, "fro") <= EIGVEC_COND_MAX
        order = np.argsort(~stable, axis=1, kind="stable")[:, :n_s]
        V_s = np.take_along_axis(V, order[:, None, :], axis=2)
    skipped = {}
    for i in np.flatnonzero(~ok):
        try:
            sub = split_invariant_subspaces(M[i])
        except NearImaginaryEigenvalue as exc:
            skipped[int(i)] = exc
            continue
        if sub.k != n_s:
            raise SpectralCountMismatch(
                f"{sub.k} stable eigenvalues, expected {n_s}", row=int(i)
            )
        V_s[i] = sub.basis_s
    return V_s, skipped


def full_rank_cond(M, error: Exception, rel: float = RANK_REL) -> float:
    """Condition number s_max / s_min of a matrix M of full column rank; 1
    when M has no columns.

    Raises ``error`` when M has fewer singular values than columns or
    s_min <= rel * max(s_max, 1): the one rank rule of the package.
    """
    if M.shape[1] == 0:
        return 1.0
    s = sla.svdvals(M)
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
    Q, _ = sla.qr(V, mode="full")
    comp = Q[:, k:]
    if np.isrealobj(V):
        comp = comp.real
    return comp


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
        return np.stack([sla.expm(self.M * y) @ v for y in ys])
