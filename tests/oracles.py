"""Dense per-point oracles for the frequency symbols and their determinant
ratios, built from the system matrices without the package's builders:
M from a dense G and the frame's R0/R1, M1 from a dense C(omega), stable
bases from ``scipy.linalg.schur``; the cell-by-cell loop that built the
stiff solver's graded mesh before it was vectorised; and the time levels
the stiff solver took before it counted them down from the bulk cell."""

import numpy as np
import scipy.linalg as sla

from relaxbc.tolerances import MESH_ROUNDOFF_REL, tau_axis


def dense_M(sys_obj, frame, xi, omega, eta):
    """M = A1_hat^{-1}[G11 - G10 G00^{-1} G01] with G_kl = R_k^T G R_l and
    G = eta Q - xi I - i sum_j omega_j A_j formed densely."""
    G = eta * sys_obj.Q - xi * np.eye(sys_obj.n)
    for w, Aj in zip(omega, sys_obj.A[1:]):
        G = G - 1j * w * Aj
    k = frame.R1.shape[1]
    F = np.hstack([frame.R1, frame.R0])
    G = F.T @ G @ F
    core = G[:k, :k]
    if k < sys_obj.n:
        core = core - G[:k, k:] @ np.linalg.solve(G[k:, k:], G[k:, :k])
    return np.linalg.solve(frame.R1.T @ sys_obj.A1 @ frame.R1, core)


def dense_m1(sys_obj, eq, xi, omega):
    """M1(xi, omega) and X = [xi I + P0^T C P0]^{-1} P0^T C P1 by the dense
    formula, with C(omega) = i sum_j omega_j A_{j,11} built from sys.A."""
    n1 = sys_obj.n - sys_obj.r
    C = np.zeros((n1, n1), dtype=complex)
    for w, Aj in zip(omega, sys_obj.A[1:]):
        C += 1j * w * Aj[:n1, :n1]
    P1, P0 = eq.P1, eq.P0
    X = np.linalg.solve(xi * np.eye(P0.shape[1]) + P0.T @ C @ P0, P0.T @ C @ P1)
    core = xi * np.eye(P1.shape[1]) + P1.T @ C @ P1 - P1.T @ C @ P0 @ X
    return -np.diag(1.0 / eq.Lam1) @ core, X


def dense_limit(eq, data, R1S, R2S, X):
    """The eta = infinity limit basis in the paper's form

        [ (P1 - P0 X) R1S    P0    N R2S ]
        [        0           0    K~ R2S ]."""
    top = np.hstack([(eq.P1 - eq.P0 @ X) @ R1S, eq.P0, data.N @ R2S])
    low = np.hstack([
        np.zeros((data.K_tilde.shape[0], R1S.shape[1] + eq.P0.shape[1])),
        data.K_tilde @ R2S,
    ])
    return np.vstack([top, low])


def schur_stable_basis(M):
    """Orthonormal basis of the stable subspace of M from the sorted complex
    Schur form, or None when an eigenvalue lies within the axis tolerance."""
    if M.shape[0] == 0:
        return np.zeros((0, 0), dtype=complex)
    T, Z, k = sla.schur(M.astype(complex), output="complex", sort="lhp")
    if np.min(np.abs(np.diag(T).real)) < tau_axis(np.linalg.norm(M, 2)):
        return None
    return Z[:, :k]


def ratio(X, L):
    """|det(X L)| / sqrt(det(L^* L))."""
    den = np.sqrt(max(np.linalg.det(L.conj().T @ L).real, 0.0))
    return 0.0 if den == 0.0 else abs(np.linalg.det(X @ L)) / den


def graded_mesh_loop(x_max, dx_min, dx_max, ratio=1.05):
    """``sim.graded_mesh`` one cell at a time, without its argument guards:
    cells grow by ``ratio`` from dx_min up to dx_max until the next node
    would reach x_max, and a remainder short of dx_min (beyond round-off) is
    merged into the last cell."""
    xs = [0.0]
    dx = dx_min
    while xs[-1] + dx < x_max:
        xs.append(xs[-1] + dx)
        dx = min(dx * ratio, dx_max)
    if len(xs) > 1 and x_max - xs[-1] < dx_min * (1.0 - MESH_ROUNDOFF_REL):
        xs[-1] = x_max
    else:
        xs.append(x_max)
    return np.asarray(xs)


def time_levels_from_smallest_cell(dx):
    """Time level of each node of a mesh with cells ``dx``: the largest k with
    2^k times the smallest cell at most its smaller adjacent cell (up to
    round-off).  The outflow node copies the update of its neighbour, so it
    shares that neighbour's level.  The finest step is set by the smallest
    cell."""
    adjacent = np.minimum(np.append(dx, np.inf), np.insert(dx, 0, np.inf))
    ratio = adjacent / dx.min() * (1.0 + MESH_ROUNDOFF_REL)
    level = np.floor(np.log2(ratio)).astype(int)
    level[-1] = level[-2]
    return level
