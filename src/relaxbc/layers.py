"""Boundary-layer profiles: the exponential eps-layer, the diffusive
sqrt(eps)-layer, the second-order correction, and the composite approximate
solution

    U_eps(x, t) = (ubar; 0) + (mu0; nu0)(x/eps, t)
                  + (mu1; 0)(x/sqrt(eps), t)
                  + sqrt(eps) (mu2; nu2)(x/sqrt(eps), t).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import lapack

from .errors import AssumptionViolated, UnresolvedLayerWarning
from .linalg import ExpActionEvaluator, stable_basis_real
from .model import RelaxationSystem
from .reduction import EquilibriumFrame, ReductionData
from .spectral import KernelFrame
from .tolerances import SAVE_TIME_ABS, tau_eig


@dataclass
class EpsLayer:
    """The eps-scale profile (mu0; nu0)(y, t) = amplitude @ exp(M2 y) R2S w_s(t).

    ``amplitude`` is the n x k matrix carrying the stable layer modes back to
    the original variables; w_s(t) comes from the closure solve.
    """

    amplitude: np.ndarray  # n x k_tilde
    M2: np.ndarray
    R2S: np.ndarray
    _evaluator: ExpActionEvaluator | None = None

    @property
    def mode_count(self) -> int:
        return self.R2S.shape[1]

    def evaluate(self, y: np.ndarray, w_s: np.ndarray) -> np.ndarray:
        """Profile values, shape (len(y), n)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        n = self.amplitude.shape[0]
        if self.mode_count == 0 or self.M2.shape[0] == 0:
            return np.zeros((y.size, n))
        if self._evaluator is None:
            self._evaluator = ExpActionEvaluator(self.M2)
        w0 = self.R2S @ np.atleast_1d(w_s)
        w = self._evaluator.apply(y, w0)  # (len(y), dim)
        return np.real(w) @ self.amplitude.T


def build_eps_layer(
    sys: RelaxationSystem, frame: KernelFrame, data: ReductionData
) -> EpsLayer:
    """Assemble the eps-layer directions from the kernel-frame reduction."""
    R0, R1, Q = frame.R0, frame.R1, sys.Q
    V1 = np.vstack([data.N, data.K_tilde])
    if frame.n0 > 0:
        V0 = -np.linalg.solve(R0.T @ Q @ R0, R0.T @ Q @ R1 @ V1)
        amp = R1 @ V1 + R0 @ V0
    else:
        amp = R1 @ V1
    R2S = (
        stable_basis_real(data.M2)
        if data.M2.shape[0]
        else np.zeros((data.M2.shape[0], 0))
    )
    return EpsLayer(amplitude=amp, M2=data.M2, R2S=R2S)


@dataclass
class SqrtEpsLayer:
    """Final-time state of the diffusive layer m(z, t): mu1 = P0 m."""

    z: np.ndarray  # (nz,)
    m: np.ndarray  # (nz, n10)
    dm_dz: np.ndarray  # (nz, n10)
    P0: np.ndarray
    D: np.ndarray
    z_max: float
    doublings: int
    tail_fraction: float
    snapshots: dict  # time -> (m, dm_dz)

    def interp_m(self, z: np.ndarray) -> np.ndarray:
        return self._interp(z, self.m)

    def interp_dm_dz(self, z: np.ndarray) -> np.ndarray:
        return self._interp(z, self.dm_dz)

    def _interp(self, z, table):
        z = np.atleast_1d(np.asarray(z, dtype=float))
        out = np.zeros((z.size, table.shape[1]))
        for k in range(table.shape[1]):
            out[:, k] = np.interp(z, self.z, table[:, k], right=0.0)
        return out


def diffusion_matrix(sys: RelaxationSystem, eq: EquilibriumFrame) -> np.ndarray:
    """D = P0^T A12 S^{-1} A12^T P0, symmetric negative definite whenever the
    layer absorption condition holds."""
    P0 = eq.P0
    core = sys.A12 @ np.linalg.solve(sys.S, sys.A12.T)
    D = P0.T @ core @ P0
    D = 0.5 * (D + D.T)
    if D.shape[0] > 0:
        w = np.linalg.eigvalsh(D)
        if w.max() >= -tau_eig(max(abs(w).max(), 1.0)):
            raise AssumptionViolated(
                "P0^T A12 S^{-1} A12^T P0 is not negative definite; the "
                "sqrt(eps)-layer diffusion is ill-posed"
            )
    return D


def solve_sqrt_eps_layer(
    sys: RelaxationSystem,
    eq: EquilibriumFrame,
    boundary,
    T: float,
    z_max: float | None = None,
    nz: int = 600,
    nt: int = 800,
    save_times=None,
    max_doublings: int = 4,
    tail_tol: float = 1e-8,
) -> SqrtEpsLayer:
    """Crank-Nicolson solve of  m_t = (-D) m_zz  on (0, z_max) x (0, T].

    Dirichlet data m(0, t) = boundary(t), m(z_max, t) = 0, m(z, 0) = 0;
    ``boundary`` maps an array of times to their (len(t), n10) data and is
    called once, for all nt time levels.  The domain length defaults to
    12 sqrt(lam_max T) and is doubled (re-solving) while the tail of the
    final-time profile is not negligible; an UnresolvedLayerWarning is
    emitted if it never becomes so.
    """
    D = diffusion_matrix(sys, eq)
    n10 = D.shape[0]
    if n10 == 0:
        z = np.linspace(0.0, 1.0, 2)
        empty = np.zeros((2, 0))
        return SqrtEpsLayer(
            z=z, m=empty, dm_dz=empty, P0=eq.P0, D=D,
            z_max=1.0, doublings=0, tail_fraction=0.0, snapshots={},
        )
    lam, V = np.linalg.eigh(-D)  # lam > 0
    if z_max is None:
        z_max = 12.0 * math.sqrt(lam.max() * T)
    save_times = sorted(set(save_times or [])) or []
    # eigen-coordinates V^T m(0, t) at the end of every time step
    g = np.asarray(boundary(np.arange(1, nt + 1) * (T / nt)), dtype=float) @ V

    doublings = 0
    while True:
        z = np.linspace(0.0, z_max, nz)
        m, snaps = _cn_solve(lam, V, g, T, z, save_times)
        tail = np.abs(m[int(0.95 * nz) :, :]).max(initial=0.0)
        scale = max(np.abs(m).max(initial=0.0), 1e-30)
        frac = tail / scale
        if frac <= tail_tol or doublings >= max_doublings:
            break
        z_max *= 2.0
        nz *= 2
        doublings += 1
    if frac > tail_tol:
        warnings.warn(
            f"sqrt(eps)-layer tail not resolved: relative tail {frac:.2e} "
            f"after {doublings} domain doublings",
            UnresolvedLayerWarning,
        )
    dm = np.gradient(m, z, axis=0)
    snapshots = {
        t: (sm, np.gradient(sm, z, axis=0)) for t, sm in snaps.items()
    }
    return SqrtEpsLayer(
        z=z, m=m, dm_dz=dm, P0=eq.P0, D=D,
        z_max=float(z_max), doublings=doublings, tail_fraction=float(frac),
        snapshots=snapshots,
    )


def _cn_solve(lam, V, g, T, z, save_times):
    """Scalar Crank-Nicolson for every eigenmode q_k = (V^T m)_k at once, with
    Dirichlet ends q_k(0, t_j) = g[j - 1, k] and q_k(z_max, t) = 0 over the
    len(g) steps of size T / len(g).

    The modes' matrices (I - r_k/2 L), L the Dirichlet Laplacian, stack into
    one block-diagonal matrix, itself symmetric positive definite and
    tridiagonal, factored once."""
    nt, n10 = g.shape
    m = z.size - 2
    dt = T / nt
    r = lam * dt / (z[1] - z[0]) ** 2
    off = np.repeat(-r / 2, m)
    off[m - 1 :: m] = 0.0  # no coupling between the modes' blocks
    d, e, info = lapack.dpttrf(np.repeat(1.0 + r, m), off[:-1])
    if info:
        raise np.linalg.LinAlgError(f"Crank-Nicolson matrix not factored (info {info})")
    q = np.zeros((z.size, n10))
    want = list(save_times)
    snaps = {}
    for step in range(nt):
        t_new = (step + 1) * dt
        interior = q[1:-1]
        rhs = interior + (r / 2) * (q[2:] - 2 * interior + q[:-2])
        rhs[0] += (r / 2) * g[step]  # q[:-2] already carries the old boundary
        sol, _ = lapack.dpttrs(d, e, rhs.T.ravel())
        q[1:-1] = sol.reshape(n10, m).T
        q[0] = g[step]
        while want and t_new >= want[0] - SAVE_TIME_ABS:
            snaps[want.pop(0)] = q @ V.T
    return q @ V.T, snaps


@dataclass
class SecondCorrection:
    """sqrt(eps)-weighted correction (mu2; nu2)(z, t) built from dm/dz."""

    layer: SqrtEpsLayer
    mu2_coeff: np.ndarray  # (n - r) x n10, applied to dm/dz
    nu2_coeff: np.ndarray  # r x n10

    def evaluate(self, z: np.ndarray) -> np.ndarray:
        """(len(z), n) values of (mu2; nu2) at the final time."""
        dm = self.layer.interp_dm_dz(z)
        mu2 = dm @ self.mu2_coeff.T
        nu2 = dm @ self.nu2_coeff.T
        return np.hstack([mu2, nu2])


def build_second_correction(
    sys: RelaxationSystem, eq: EquilibriumFrame, layer: SqrtEpsLayer
) -> SecondCorrection:
    """nu2 = S^{-1} A12^T P0 dm/dz and
    mu2 = -P1 Lam1^{-1} P1^T A12 S^{-1} A12^T P0 dm/dz (P0^T mu2 = 0)."""
    Sinv_A12T_P0 = np.linalg.solve(sys.S, sys.A12.T @ eq.P0)
    nu2_coeff = Sinv_A12T_P0
    if eq.Lam1.size:
        mu2_coeff = -eq.P1 @ np.diag(1.0 / eq.Lam1) @ eq.P1.T @ sys.A12 @ Sinv_A12T_P0
    else:
        mu2_coeff = np.zeros((sys.n - sys.r, eq.P0.shape[1]))
    return SecondCorrection(layer=layer, mu2_coeff=mu2_coeff, nu2_coeff=nu2_coeff)


def assemble_composite(
    sys: RelaxationSystem,
    x: np.ndarray,
    ubar: np.ndarray,
    eps: float,
    eps_layer: EpsLayer | None = None,
    w_s: np.ndarray | None = None,
    sqrt_layer: SqrtEpsLayer | None = None,
    second: SecondCorrection | None = None,
) -> np.ndarray:
    """Composite approximation at one time instant, shape (len(x), n).

    ``ubar`` is the outer equilibrium solution sampled on ``x`` (shape
    (len(x), n - r)); the layer objects are evaluated at y = x/eps and
    z = x/sqrt(eps).
    """
    x = np.asarray(x, dtype=float)
    n1 = sys.n - sys.r
    U = np.zeros((x.size, sys.n))
    U[:, :n1] = np.atleast_2d(ubar.T).T if ubar.ndim == 1 else ubar
    if eps_layer is not None and w_s is not None and np.size(w_s):
        U += eps_layer.evaluate(x / eps, w_s)
    if sqrt_layer is not None and sqrt_layer.m.shape[1] > 0:
        z = x / math.sqrt(eps)
        U[:, :n1] += sqrt_layer.interp_m(z) @ sqrt_layer.P0.T
        if second is not None:
            U += math.sqrt(eps) * second.evaluate(z)
    return U


__all__ = [
    "EpsLayer",
    "SqrtEpsLayer",
    "SecondCorrection",
    "build_eps_layer",
    "diffusion_matrix",
    "solve_sqrt_eps_layer",
    "build_second_correction",
    "assemble_composite",
]
