"""Dense linear-algebra kernels: invariant-subspace splits (per matrix, or
stable eigenvectors of a stack), the rank rule and orthonormal complements.

All routines are pure and use numpy's LAPACK only.  A stable invariant
subspace is the range of the spectral projector (I - sign M) / 2, with
sign M from a stacked, scaled Newton iteration (Higham, Functions of
Matrices, SIAM 2008, ch. 5); its bases are orthonormal.  The stable
eigenvectors of a stack come from its eigenvalues alone: one stacked
``eigvals``, then inverse iteration on the stable eigenvalues (Golub & Van
Loan, Matrix Computations, sec. 7.6.1), with the sign split for the rows
whose vectors fail a screen.  They are not orthonormal, so determinant
ratios on them divide by their volume.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    AssumptionViolated, NearImaginaryEigenvalue, SignNotConverged, SpectralCountMismatch,
)
from .tolerances import (
    AXIS_MARGIN,
    EIGVAL_GAP_REL,
    EIGVEC_COND_MAX,
    EIGVEC_RESIDUAL_REL,
    INVERSE_SHIFT_REL,
    INVERSE_STEPS,
    RANK_REL,
    SIGN_MAX_STEPS,
    SIGN_REL_CHANGE,
    SIGN_SCALED_STEPS,
    tau_axis,
)


def _axis_guard(M: np.ndarray, w: np.ndarray) -> dict:
    """The axis guard on a stack M (N, k, k) with eigenvalues w (N, k):
    {i: NearImaginaryEigenvalue} for each row i with an eigenvalue within
    tau_axis(||M[i]||_2) of the imaginary axis, naming the first in the
    order of w that lies nearest it."""
    if not len(M):
        return {}
    tol = tau_axis(np.linalg.norm(M, 2, axis=(1, 2)))
    dist = np.abs(w.real)
    near = np.flatnonzero(dist.min(axis=1, initial=np.inf) < tol)
    return {int(i): NearImaginaryEigenvalue(w[i, dist[i].argmin()], tol[i]) for i in near}


def guarded_eigvals(M: np.ndarray) -> np.ndarray:
    """Eigenvalues of a square matrix M.

    Raises NearImaginaryEigenvalue if one lies within tau_axis(||M||_2) of the
    imaginary axis: that signals the caller drifted to an inadmissible
    parameter point.  It is the one-row case of ``_axis_guard``.
    """
    eigs = np.linalg.eigvals(M)
    skip = _axis_guard(M[None], eigs[None])
    if skip:
        raise skip[0]
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


def split_invariant_subspaces(M) -> np.ndarray:
    """Orthonormal basis Z (n, k) of the stable invariant subspace of a square
    matrix M, k its count of stable eigenvalues: M Z = Z (Z^* M Z).

    Z spans the range of the spectral projector (I - sign M) / 2, which
    needs no eigenvectors, so a defective M is split as accurately as any
    other.  Raises NearImaginaryEigenvalue as ``guarded_eigvals`` does.
    """
    M = np.asarray(M, dtype=complex)
    n = M.shape[0]
    if M.shape != (n, n):
        raise ValueError(f"expected square matrix, got {M.shape}")
    if n == 0:
        return np.zeros((0, 0), dtype=complex)

    k = int(np.sum(guarded_eigvals(M).real < 0))
    return _stable_bases(M[None], np.array([k]))[0][:, :k]


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


def volume(L: np.ndarray) -> np.ndarray:
    """vol(L) = sqrt(det(L^* L)) = |det R| for the QR factorisation L = Q R,
    of each basis of a stack L (N, m, k)."""
    R = np.linalg.qr(L, mode="r")
    return np.abs(np.prod(np.diagonal(R, axis1=1, axis2=2), axis=1))


def _inverse_iteration(M: np.ndarray, lam: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Unit eigenvectors (N, k, n_s) of a stack M (N, k, k) for its
    eigenvalues lam (N, n_s): INVERSE_STEPS steps of inverse iteration from
    one fixed start vector, one stacked solve per eigenvalue and step.  Each
    shift is offset from its eigenvalue by INVERSE_SHIFT_REL * ||M[i]||_F,
    so that an eigenvalue computed exactly leaves M - shift I nonsingular;
    the error along an eigenvector of eigenvalue mu shrinks by
    |offset / (mu - lam)| per step.  Equal eigenvalues give parallel
    vectors."""
    N, k = M.shape[:2]
    rng = np.random.default_rng(k)  # the start vector depends on no row
    start = rng.standard_normal((k, 1)) + 1j * rng.standard_normal((k, 1))
    shift = lam + INVERSE_SHIFT_REL * norms[:, None]
    V = np.empty((N, k, lam.shape[1]), dtype=complex)
    A = np.empty((N, k, k), dtype=complex)
    for j in range(lam.shape[1]):
        A[...] = M
        A.reshape(N, k * k)[:, :: k + 1] -= shift[:, j, None]
        x = np.broadcast_to(start, (N, k, 1))
        for _ in range(INVERSE_STEPS):
            x = np.linalg.solve(A, x)
            x = x / np.linalg.norm(x, axis=1, keepdims=True)
        V[:, :, j] = x[:, :, 0]
    return V


def stable_eigvecs(M: np.ndarray, n_s: int):
    """Bases of the stable invariant subspaces of a stack M (N, k, k) at
    points where that subspace has dimension n_s.

    Returns ``(V_s, vol, skipped, split)`` with vol = ``volume(V_s)``.  One
    stacked ``eigvals`` decides every row.  V_s (N, k, n_s) holds the unit
    stable eigenvectors of M[i] from ``_inverse_iteration`` where they can
    stand in for a basis: M[i] has n_s stable eigenvalues, every eigenvalue
    lies at least AXIS_MARGIN * tau_axis(||M[i]||_F) from the imaginary axis
    (checked at n_s = 0 too), each stable eigenvalue lies at least
    EIGVAL_GAP_REL * ||M[i]||_F from each unstable one, each vector's
    residual |M v - lam v| is at most EIGVEC_RESIDUAL_REL * ||M[i]||_F, and
    the vectors span a volume of at least 1 / EIGVEC_COND_MAX.  The other
    rows (all, when the inverse iteration raised LinAlgError) meet
    ``_axis_guard`` on the same eigenvalues: ``skipped`` maps each row it
    flags to its NearImaginaryEigenvalue, with a zero basis; the first other
    row with other than n_s stable eigenvalues raises SpectralCountMismatch,
    ``row`` i; the rest, listed in ``split``, take the orthonormal basis
    ``split_invariant_subspaces(M[i])`` would return, from one stacked sign
    iteration.  A ratio |det(X V_s)| / vol(V_s) does not depend on the
    basis, so neither is orthonormalised, and only the rows not screened are
    factored for their volume.  Unless a LinAlgError sends the whole stack
    to the sign split, a row's result depends on that row alone.
    """
    N, k = M.shape[:2]
    V_s, vol, screened = np.zeros((N, k, n_s), dtype=complex), np.empty(N), np.zeros(N, bool)
    w = np.linalg.eigvals(M)
    stable = w.real < 0
    count = stable.sum(axis=1)
    # the Frobenius norm bounds the spectral norm of the axis guard from
    # above, so this screen passes no row that guard would skip
    norms = np.linalg.norm(M, axis=(1, 2))
    ok = (count == n_s) & (
        np.abs(w.real).min(axis=1, initial=np.inf) >= AXIS_MARGIN * tau_axis(norms)
    )
    if n_s and ok.any():
        order = np.argsort(~stable, axis=1, kind="stable")
        lam = np.take_along_axis(w, order, axis=1)
        gap = np.abs(lam[:, :n_s, None] - lam[:, None, n_s:]).min(axis=(1, 2), initial=np.inf)
        ok &= gap >= EIGVAL_GAP_REL * norms
        # a row that passed the axis screen has ||M[i]||_F > 0
        live = np.flatnonzero(ok)
        # no copy of M when every row passed
        A = M if live.size == N else M[live]
        lam, scale = lam[live, :n_s], norms[live]
        try:
            V = _inverse_iteration(A, lam, scale)
        except np.linalg.LinAlgError:
            ok[:] = False
        else:
            residual = np.linalg.norm(A @ V - V * lam[:, None, :], axis=1).max(axis=1)
            spanned = volume(V)
            good = (residual <= EIGVEC_RESIDUAL_REL * scale) & (spanned >= 1 / EIGVEC_COND_MAX)
            V_s[live[good]], vol[live[good]] = V[good], spanned[good]
            screened[live[good]] = True
            ok[live[~good]] = False
    rows = np.flatnonzero(~ok)
    near = _axis_guard(M[rows], w[rows])
    skipped = {int(rows[i]): exc for i, exc in near.items()}
    rows = np.delete(rows, list(near))
    for i in rows[count[rows] != n_s][:1]:
        raise SpectralCountMismatch(f"{count[i]} stable eigenvalues, expected {n_s}", row=int(i))
    if rows.size:
        try:
            V_s[rows] = _stable_bases(M[rows], np.full(rows.size, n_s))[:, :, :n_s]
        except SignNotConverged as exc:
            raise SignNotConverged(str(exc), row=int(rows[exc.row])) from exc
    if not screened.all():
        vol[~screened] = volume(V_s[~screened])
    return V_s, vol, skipped, rows


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
    full_rank_cond(V, AssumptionViolated(f"matrix of shape {V.shape} is column-rank deficient"))
    return np.linalg.qr(V, mode="complete")[0][:, k:]
