"""Dense linear-algebra kernels: invariant-subspace splits (per matrix, or
stable eigenvectors of a stack), orthonormal kernels and complements, and
matrix-exponential actions over many arguments.

All routines are pure.  Bases have orthonormal columns, so determinant ratios
are basis-independent; ratios on the batched eigenvectors divide by their
volume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla

from .errors import NearImaginaryEigenvalue, RankDeficient, RankMismatch
from .tolerances import (
    AXIS_MARGIN,
    EIGVEC_COND_MAX,
    EXP_EIGVEC_COND_MAX,
    spectral_norm,
    tau_axis,
    tau_eig,
    tau_rank,
)


@dataclass(frozen=True)
class StableSubspace:
    """Unitary split of C^n into the stable invariant subspace of M and its
    orthogonal complement.

    ``basis_s`` spans the stable invariant subspace: M basis_s = basis_s block_s.
    ``basis_u`` completes [basis_s | basis_u] to a unitary matrix; the combined
    basis brings M to block upper-triangular form with coupling ``coupling``:

        M [basis_s | basis_u] = [basis_s | basis_u] [[block_s, coupling],
                                                     [0,       block_u]]

    The unstable column block is therefore not itself M-invariant unless M is
    normal; exact invariance holds for the stable side only.
    """

    basis_s: np.ndarray
    basis_u: np.ndarray
    block_s: np.ndarray
    block_u: np.ndarray
    coupling: np.ndarray
    k: int


def split_invariant_subspaces(M) -> StableSubspace:
    """Split C^n into stable/unstable invariant subspaces of a square matrix.

    Uses a unitary (complex Schur) triangularization with the stable block
    leading, which avoids ill-conditioned eigenvector matrices for defective M.

    Raises NearImaginaryEigenvalue if any eigenvalue of M lies within
    tau_axis(||M||_2) of the imaginary axis: that signals the caller drifted
    to an inadmissible parameter point.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise RankMismatch(f"expected square matrix, got {M.shape}")
    if n == 0:
        e = np.zeros((0, 0), dtype=complex)
        return StableSubspace(e, e, e, e, e, 0)

    tol = tau_axis(spectral_norm(M))
    eigs = np.linalg.eigvals(M)
    worst = eigs[np.argmin(np.abs(eigs.real))]
    if abs(worst.real) < tol:
        raise NearImaginaryEigenvalue(worst, tol)

    T, Z, sdim = sla.schur(M, output="complex", sort=lambda z: z.real < 0)
    k = int(sdim)
    return StableSubspace(
        basis_s=Z[:, :k],
        basis_u=Z[:, k:],
        block_s=T[:k, :k],
        block_u=T[k:, k:],
        coupling=T[:k, k:],
        k=k,
    )


def stable_basis_real(M) -> np.ndarray:
    """Real orthonormal basis of the stable invariant subspace of a real M,
    with the axis guard of ``split_invariant_subspaces``.

    The stable subspace of a real matrix is closed under conjugation, so a
    real basis exists; it is extracted from the sorted real Schur form.
    """
    M = np.asarray(M, dtype=float)
    n = M.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    tol = tau_axis(spectral_norm(M))
    eigs = np.linalg.eigvals(M)
    worst = eigs[np.argmin(np.abs(eigs.real))]
    if abs(worst.real) < tol:
        raise NearImaginaryEigenvalue(worst, tol)
    _, Z, sdim = sla.schur(M, output="real", sort=lambda re, im: re < 0)
    return Z[:, : int(sdim)]


def stable_eigvecs(M: np.ndarray, n_s: int):
    """Stable eigenvectors of a stack M of shape (N, k, k), for a batch of
    points at which the stable subspace has dimension n_s.

    Returns ``(V_s, vol, ok)``: V_s (N, k, n_s) holds unit eigenvectors for the
    eigenvalues of M[i] with negative real part, vol[i] = sqrt(det(V_s^* V_s))
    from the singular values of V_s[i], and ``ok`` marks the points where V_s
    may stand in for ``split_invariant_subspaces(M[i]).basis_s``.  A
    determinant ratio |det(X V_s)| / vol does not depend on the basis of the
    stable subspace, so the eigenvectors need no orthonormalisation.

    A point is not ok, and must go through split_invariant_subspaces, which
    then returns or raises exactly what it does on its own, when
      - an eigenvalue lies within AXIS_MARGIN * tau_axis(||M[i]||_2) of the
        imaginary axis, so the scalar axis guard decides it;
      - it has other than n_s stable eigenvalues;
      - its eigenvector matrix has condition number above EIGVEC_COND_MAX,
        as at a (nearly) defective M.
    """
    k = M.shape[1]
    w, V = np.linalg.eig(M)
    stable = w.real < 0
    ok = stable.sum(axis=1) == n_s
    if k:
        norms = np.linalg.svd(M, compute_uv=False)[:, 0]
        ok &= np.abs(w.real).min(axis=1) >= AXIS_MARGIN * tau_axis(norms)
        sv = np.linalg.svd(V, compute_uv=False)
        ok &= sv[:, -1] * EIGVEC_COND_MAX >= sv[:, 0]
    order = np.argsort(~stable, axis=1, kind="stable")[:, :n_s]
    V_s = np.take_along_axis(V, order[:, None, :], axis=2)
    vol = np.prod(np.linalg.svd(V_s, compute_uv=False), axis=1)
    return V_s, vol, ok


def orthonormal_kernel(A) -> np.ndarray:
    """Orthonormal basis of the kernel of a real symmetric matrix.

    Returns an n x n0 matrix (possibly with zero columns) whose columns are
    eigenvectors of A for eigenvalues of magnitude at most tau_eig(max |w|).
    """
    A = np.asarray(A, dtype=float)
    n = A.shape[0]
    if n == 0:
        return np.zeros((0, 0))
    w, V = np.linalg.eigh(A)
    scale = float(np.max(np.abs(w))) if w.size else 0.0
    mask = np.abs(w) <= tau_eig(scale)
    return V[:, mask]


def orthonormal_complement(V) -> np.ndarray:
    """Orthonormal basis of the orthogonal complement of span(V).

    V must have full column rank; for a k-column n-row V the result has
    n - k orthonormal columns with result^T V = 0.
    """
    V = np.asarray(V)
    n, k = V.shape
    if k == 0:
        return np.eye(n)
    s = sla.svdvals(V)
    if s[-1] <= tau_rank(s[0]):
        raise RankDeficient(f"matrix of shape {V.shape} is column-rank deficient")
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
