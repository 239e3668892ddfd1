"""Boundary-layer profiles: the exponential eps-layer, the diffusive
sqrt(eps)-layer, the second-order correction, and the composite approximate
solution

    U_eps(x, t) = (ubar; 0) + (mu0; nu0)(x/eps, t)
                  + (mu1; 0)(x/sqrt(eps), t)
                  + sqrt(eps) (mu2; nu2)(x/sqrt(eps), t).

The sqrt(eps)-layer solves a constant-coefficient heat equation on the half
line; it is evaluated in closed form (Duhamel's erfc superposition), with no
time stepping and no truncation boundary.  erfc is evaluated here, for
x >= 0, by two rational approximations in the variables of Cody (Math. Comp.
23, 1969), with exp(-x^2) split as cephes does so that the rounding of x^2
does not enter it (``erfc``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AssumptionViolated
# stable_basis_real is not called here; perfbench/spans.py wraps it by this name
from .linalg import ExpActionEvaluator, stable_basis_real
from .model import RelaxationSystem
from .reduction import EquilibriumFrame, ReductionData
from .spectral import KernelFrame
from .tolerances import tau_eig

#: z nodes of the sqrt(eps)-layer table and intervals of its boundary data
SQRT_LAYER_NZ, SQRT_LAYER_NT = 600, 800

#: z rows per block of the erfc superposition
_Z_BLOCK = 64

#: P / Q of the two pieces of ``erfc``, lowest degree first, from
#: ``tools/fit_erfc.py``: near-minimax in relative error, with fit errors
#: 9.7e-17 and 1.7e-15 (the latter of t P(t) / Q(t), a term at most 0.03 of
#: erfc)
_P_NEAR = (
    1.0, 1.658972066120972, 1.3769608728461402, 0.7044913285621548,
    0.236471448111923, 0.05176123600681503, 0.006846933319705875,
    0.00042515563694399573,
)
_Q_NEAR = (
    1.0, 2.787351233216471, 3.522149935786338, 2.6437134843229138,
    1.2942254405757285, 0.42519734405596216, 0.09212158306122055,
    0.012135854292802256, 0.0007535691873169597,
)
_P_FAR = (
    -0.2820947917738711, -5.5757525980832, -32.33172904901305,
    -56.169511778379366, -11.128761738743957, 2.4903442655770847,
)
_Q_FAR = (
    1.0, 21.265528328308218, 142.76128782366493, 346.6369328597315,
    244.09886166730175,
)
_RSQRT_PI = 1.0 / math.sqrt(math.pi)


def _horner(coef, v):
    out = coef[-1] * v
    for c in coef[-2:0:-1]:
        out += c
        out *= v
    out += coef[0]
    return out


def _gauss(x):
    """exp(-x^2) with x = m + f, m a multiple of 1/128: m^2 is exact and
    exp(-m^2) exp(-f (x + m)) carries no rounding of x^2 (cephes expx2)."""
    m = np.rint(x * 128.0) / 128.0
    return np.exp(-m * m) * np.exp(-(x - m) * (x + m))


def erfc(x, gauss=None):
    """erfc(x) for an array of x >= 0, given ``gauss`` = ``_gauss(x)`` or
    computing it: exp(-x^2) P(x) / Q(x) for x < 4, and
    exp(-x^2) / x (1 / sqrt(pi) + t P(t) / Q(t)) with t = 1 / x^2 beyond,
    which underflows to 0 past x = 26.6."""
    x = np.asarray(x, dtype=float)
    if gauss is None:
        gauss = _gauss(x)
    out = np.empty_like(x)
    near = x < 4.0
    v = x[near]
    out[near] = _horner(_P_NEAR, v) / _horner(_Q_NEAR, v)
    v = x[~near]
    t = 1.0 / (v * v)
    out[~near] = (_RSQRT_PI + t * _horner(_P_FAR, t) / _horner(_Q_FAR, t)) / v
    out *= gauss
    return out


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

    def __post_init__(self):
        # built here, not on the first evaluate: the stiff runs of a
        # convergence study evaluate one layer from several threads
        if self._evaluator is None:
            self._evaluator = ExpActionEvaluator(self.M2)

    @property
    def mode_count(self) -> int:
        return self.R2S.shape[1]

    def evaluate(self, y: np.ndarray, w_s: np.ndarray) -> np.ndarray:
        """Profile values, shape (len(y), n)."""
        y = np.atleast_1d(np.asarray(y, dtype=float))
        n = self.amplitude.shape[0]
        if self.mode_count == 0 or self.M2.shape[0] == 0:
            return np.zeros((y.size, n))
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
    return EpsLayer(amplitude=amp, M2=data.M2, R2S=data.R2S)


@dataclass
class SqrtEpsLayer:
    """Final-time state of the diffusive layer m(z, t): mu1 = P0 m."""

    z: np.ndarray  # (nz,)
    m: np.ndarray  # (nz, n10)
    dm_dz: np.ndarray  # (nz, n10)
    P0: np.ndarray
    # always 0, as the closed form has no domain to double; kept, like the
    # stable_basis_real import above, only because perfbench/spans.py reads it
    doublings: int = 0

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
    sys: RelaxationSystem, eq: EquilibriumFrame, boundary, T: float
) -> SqrtEpsLayer:
    """Exact final-time solution of  m_t = (-D) m_zz  on z > 0, t in (0, T],
    with m(z, 0) = 0 and m(0, t) = boundary(t) interpolated linearly between
    the SQRT_LAYER_NT + 1 equispaced times 0, T / SQRT_LAYER_NT, ..., T.

    ``boundary`` maps an array of times to their (len(t), n10) data and is
    called once.  In each eigenmode q_k = (V^T m)_k, -D = V diag(lam) V^T, the
    solution is Duhamel's erfc superposition (``_erfc_superposition``),
    tabulated with its exact z-derivative on SQRT_LAYER_NZ nodes of
    [0, 12 sqrt(lam_max T)].  |q_k(z, T)| <= max |g_k| erfc(z / 2 sqrt(lam_k T))
    bounds the profile beyond the table by 2e-17 max |g_k|, so no truncation
    boundary enters the solution.
    """
    D = diffusion_matrix(sys, eq)
    if D.shape[0] == 0:
        z = np.linspace(0.0, 1.0, 2)
        empty = np.zeros((2, 0))
        return SqrtEpsLayer(z=z, m=empty, dm_dz=empty, P0=eq.P0)
    lam, V = np.linalg.eigh(-D)  # lam > 0
    z = np.linspace(0.0, 12.0 * math.sqrt(lam.max() * T), SQRT_LAYER_NZ)
    times = np.arange(SQRT_LAYER_NT + 1) * (T / SQRT_LAYER_NT)
    g = np.asarray(boundary(times), dtype=float) @ V
    q, dq = _erfc_superposition(lam, g, T, z)
    return SqrtEpsLayer(z=z, m=q @ V.T, dm_dz=dq @ V.T, P0=eq.P0)


def _erfc_superposition(lam, g, T, z):
    """q_k(z, T) and dq_k/dz for  q_t = lam_k q_zz,  q(z, 0) = 0, with q(0, t)
    the piecewise-linear interpolant of g[:, k] at s_j = j T / (len(g) - 1)
    (Carslaw & Jaeger, Conduction of Heat in Solids, 1959, sec. 2.5).

    The data g_0 H(t) + sum_j c_j [(t - s_j)_+ - (t - s_{j+1})_+], c_j the
    slope on [s_j, s_{j+1}], superpose the step response erfc(z / 2 sqrt(lam t))
    and the ramp response

        F(tau) = (tau + z^2 / 2 lam) erfc(z / 2 sqrt(lam tau))
                 - z sqrt(tau / pi lam) exp(-z^2 / 4 lam tau),
        dF/dz  = (z / lam) erfc(z / 2 sqrt(lam tau))
                 - 2 sqrt(tau / pi lam) exp(-z^2 / 4 lam tau),

    so q = g_0 erfc(z / 2 sqrt(lam T)) + sum_j (c_j - c_{j-1}) F(T - s_j),
    with c_{-1} = 0 and F(0) = 0.  Returns two (len(z), len(lam)) arrays."""
    nt = g.shape[0] - 1
    tau = T - np.arange(nt) * (T / nt)  # T - s_j > 0
    c = np.diff(g, axis=0) / (T / nt)
    dc = np.diff(c, axis=0, prepend=0.0)
    q = np.empty((z.size, lam.size))
    dq = np.empty_like(q)
    for k, lk in enumerate(lam):
        x_T = z / (2.0 * math.sqrt(lk * T))
        gauss_T = _gauss(x_T)
        q[:, k] = g[0, k] * erfc(x_T, gauss_T)
        dq[:, k] = -g[0, k] * gauss_T / math.sqrt(math.pi * lk * T)
        root = np.sqrt(tau / (math.pi * lk))
        # blocks of z rows keep the (rows, nt) temporaries small
        for rows in range(0, z.size, _Z_BLOCK):
            zb = z[rows : rows + _Z_BLOCK, None]
            x = zb / (2.0 * np.sqrt(lk * tau))
            gauss = _gauss(x)
            e = erfc(x, gauss)
            gauss *= root
            F = (tau + zb**2 / (2.0 * lk)) * e - zb * gauss
            dF = (zb / lk) * e - 2.0 * gauss
            q[rows : rows + _Z_BLOCK, k] += F @ dc[:, k]
            dq[rows : rows + _Z_BLOCK, k] += dF @ dc[:, k]
    return q, dq


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
