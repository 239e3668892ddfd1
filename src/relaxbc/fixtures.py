"""Reference systems, scenarios, and random fixture generators.

``example_system`` is the 2x2 worked example whose reduced boundary condition is
ubar(0, t) = g(t) + h(t)/3; ``double_characteristic_system`` is a 3x3 fixture
that is characteristic for both the full and the equilibrium operator
(n0 >= 1 and n10 >= 1).  The random generators rejection-sample the
structural conditions and the derivation chain of ``derive_all`` (not the
generalized Kreiss condition) and are the workhorses of the property tests.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import RelaxbcError
from .model import (
    RawSystem,
    RelaxationSystem,
    canonicalize,
    check_sk_condition,
    compute_indices,
    split_speeds,
)
from .reduction import Pipeline, derive_all
from .sim import Scenario
from .spectral import FrequencyPoint, SamplingSpec
from .tolerances import (
    FIXTURE_A1_HAT_COND_MAX,
    FIXTURE_BOUNDARY_ROW_MIN,
    FIXTURE_DAMPING_GAP_MIN,
    FIXTURE_FIRST_COMPONENT_MIN,
    FIXTURE_KERNEL_OVERLAP_MIN,
    FIXTURE_KERNEL_RELAXED_MIN,
    FIXTURE_ORTHOGONAL_MIN,
    FIXTURE_RATE_SPREAD_MAX,
    FIXTURE_ZERO_EIG_ABS,
)


def example_system() -> RelaxationSystem:
    """The 2x2 example: A1 = [[3, 1], [1, 1]], Q = diag(0, -1), B = I."""
    raw = RawSystem(
        A0=np.eye(2),
        A=(np.array([[3.0, 1.0], [1.0, 1.0]]),),
        Q=np.diag([0.0, -1.0]),
        B=np.eye(2),
        d=1,
        n=2,
        r=1,
    )
    return canonicalize(raw)


def example_scenario(T: float = 0.5, x_max: float = 2.0) -> Scenario:
    """Standard scenario for example_system: b = (sin t, cos t) and a smooth outer
    initial profile whose boundary value and slope match the reduced boundary
    condition at t = 0 (value 1/3, slope -1/3)."""

    def b(t):
        return np.stack([np.sin(t), np.cos(t)], axis=-1)

    def u0(x):
        x = np.asarray(x, dtype=float)
        return (1.0 / 3.0) * (1.0 - x) * np.exp(-(x**2) / 0.5)

    return Scenario(b=b, u0=u0, T=T, x_max=x_max)


def make_double_characteristic(
    rng: np.random.Generator, max_tries: int = 200
) -> RelaxationSystem:
    """Rejection-sample a 3x3 system (n = 3, r = 2) with one zero speed of A1
    whose kernel leaves the equilibrium operator characteristic (A11 = 0).

    Construction: orthonormal vectors p, q with the scaling alpha p_1^2 =
    beta q_1^2 force (A1)_{11} = 0 for A1 = alpha p p^T - beta q q^T.  A draw
    is rejected when the kernel of A1 has a (numerically) vanishing relaxed
    part — the kernel-overlap invertibility oracle — or when ``derive_all``
    fails on it (the reduction, or the reduced condition's sampled uniform
    Kreiss certificate); the generalized Kreiss condition is not checked.
    """
    for _ in range(max_tries):
        p = rng.normal(size=3)
        p /= np.linalg.norm(p)
        q = rng.normal(size=3)
        q -= p * (p @ q)
        nq = np.linalg.norm(q)
        if (
            nq < FIXTURE_ORTHOGONAL_MIN
            or abs(q[0]) < FIXTURE_FIRST_COMPONENT_MIN
            or abs(p[0]) < FIXTURE_FIRST_COMPONENT_MIN
        ):
            continue
        q /= nq
        alpha = rng.uniform(0.5, 2.0)
        beta = alpha * p[0] ** 2 / q[0] ** 2
        if not 0.1 < beta < 10.0:
            continue
        A1 = alpha * np.outer(p, p) - beta * np.outer(q, q)
        A1 = 0.5 * (A1 + A1.T)
        k = np.cross(p, q)  # kernel direction of A1
        if np.linalg.norm(k[1:]) < FIXTURE_KERNEL_RELAXED_MIN:
            continue
        S = -np.eye(2)
        Q = np.zeros((3, 3))
        Q[1:, 1:] = S
        # one incoming characteristic: B is 1 x 3 and must annihilate the kernel
        g = rng.normal(size=3)
        b_row = g - k * (k @ g) / (k @ k)
        if np.linalg.norm(b_row) < FIXTURE_BOUNDARY_ROW_MIN:
            continue
        b_row /= np.linalg.norm(b_row)
        raw = RawSystem(
            A0=np.eye(3), A=(A1,), Q=Q, B=b_row[None, :], d=1, n=3, r=2
        )
        try:
            sys = canonicalize(raw)
            if not check_sk_condition(sys):
                continue
            idx = compute_indices(sys)
            if idx.n0 < 1 or idx.n10 < 1 or idx.n_plus != 1:
                continue
            derive_all(sys, spec=SamplingSpec(resolution=12))
        except RelaxbcError:
            continue
        return sys
    raise RelaxbcError("no admissible double-characteristic fixture found")


def double_characteristic_system(seed: int = 7) -> RelaxationSystem:
    """A deterministic double-characteristic fixture (fixed sampling seed)."""
    return make_double_characteristic(np.random.default_rng(seed))


def scenario_double_characteristic(
    sys: RelaxationSystem, T: float = 0.5, x_max: float = 2.0
) -> Scenario:
    """Boundary signal b(t) = sin(t) * e (per boundary row) with b(0) = 0 and
    an interior bump initial profile vanishing at x = 0, so the layer data
    start from zero (compatible initial state)."""
    m = sys.B.shape[0]

    def b(t):
        return np.multiply.outer(np.sin(t), np.ones(m))

    def u0(x):
        x = np.asarray(x, dtype=float)
        bump = 0.5 * np.exp(-((x - 0.6) ** 2) / 0.05)
        cols = [bump] * (sys.n - sys.r)
        return np.stack(cols, axis=-1) if len(cols) > 1 else bump

    return Scenario(b=b, u0=u0, T=T, x_max=x_max)


def random_system(
    rng: np.random.Generator,
    n_max: int = 8,
    d: int | None = None,
    require_n0: int | None = None,
    max_tries: int = 500,
) -> RelaxationSystem:
    """A random structurally stable system in canonical variables that
    satisfies the kernel-overlap (Shizuta-Kawashima-like) condition.

    ``require_n0`` pins the number of zero speeds of A1; by default about half
    the draws are characteristic.  Rejection keeps only draws for which the
    kernel basis has a full-rank relaxed block and the spectra are cleanly
    classified.
    """
    for _ in range(max_tries):
        n = int(rng.integers(2, n_max + 1))
        r = int(rng.integers(1, n))
        dd = int(rng.integers(1, 4)) if d is None else d
        if require_n0 is None:
            n0 = 0 if rng.random() < 0.5 else int(rng.integers(1, min(r, n - 1) + 1))
        else:
            n0 = require_n0
            if n0 > min(r, n - 1):
                continue
        mags = rng.uniform(0.5, 2.5, size=n - n0)
        signs = np.where(rng.random(n - n0) < 0.5, -1.0, 1.0)
        eigs = np.concatenate([mags * signs, np.zeros(n0)])
        if not np.any(eigs > 0):
            eigs[0] = abs(eigs[0]) if eigs[0] != 0 else 1.0
        O, _ = np.linalg.qr(rng.normal(size=(n, n)))
        A1 = O @ np.diag(eigs) @ O.T
        A1 = 0.5 * (A1 + A1.T)

        G = rng.normal(size=(r, r))
        S = -(G @ G.T + (0.2 + rng.random()) * np.eye(r))
        sv_s = np.linalg.svd(S, compute_uv=False)
        if sv_s[0] / sv_s[-1] > FIXTURE_RATE_SPREAD_MAX:
            continue
        S = S / sv_s[-1]  # slowest relaxation rate normalised to 1
        Q = np.zeros((n, n))
        Q[n - r :, n - r :] = S

        A_rest = []
        for _j in range(dd - 1):
            W = rng.normal(size=(n, n))
            A_rest.append(0.5 * (W + W.T))

        n_plus = int(np.sum(eigs > 0))
        B = rng.normal(size=(n_plus, n))
        sys = RelaxationSystem(
            d=dd, n=n, r=r,
            A=tuple([A1] + A_rest), Q=Q, B=B,
            labels=None, transform=np.eye(n),
        )
        try:
            # the B-operator annihilates the kernel basis of A1
            R0 = split_speeds(sys)[0].kernel
            sys = replace(sys, B=B - (B @ R0) @ R0.T)
            sys.validate()
            if not check_sk_condition(sys):
                continue
            if R0.shape[1]:
                sv = np.linalg.svd(R0.T @ Q @ R0, compute_uv=False)
                if sv[-1] < FIXTURE_KERNEL_OVERLAP_MIN:
                    continue
            idx = compute_indices(sys)
            if idx.n0 != n0:
                continue
        except RelaxbcError:
            continue
        return sys
    raise RelaxbcError("random system sampling failed to converge")


def random_admissible_bundle(
    rng: np.random.Generator,
    n_max: int = 8,
    d: int | None = None,
    require_n0: int | None = None,
    max_tries: int = 200,
) -> Pipeline:
    """A random system together with its full derivation chain; draws on
    which ``derive_all`` fails (the reduction, or the reduced condition's
    sampled uniform Kreiss certificate) are rejected.  The generalized Kreiss
    condition of the full boundary condition (``check_gkc``) is not checked."""
    for _ in range(max_tries):
        sys = random_system(rng, n_max=n_max, d=d, require_n0=require_n0)
        try:
            return derive_all(sys, spec=SamplingSpec(resolution=8, rim_points=0))
        except RelaxbcError:
            continue
    raise RelaxbcError("no admissible bundle found")


def well_conditioned(bundle: Pipeline, cond_max: float = FIXTURE_A1_HAT_COND_MAX,
                     gap_min: float = FIXTURE_DAMPING_GAP_MIN) -> bool:
    """Whether the large-frequency limit of the stable subspace is reached with
    an O(1) constant.

    Two quantities control the approach rate: the conditioning of the reduced
    symbol ``A1_hat`` and the slowest damping rate among the nonzero
    eigenvalues of ``A1_hat^{-1} Q_hat``.  The subspace perturbation at finite
    eta scales like 1/(eta * gap), so fixtures with a weakly damped fast mode
    converge with an arbitrarily large constant even when ``A1_hat`` itself is
    well conditioned.

    A system with a zero equilibrium speed (n10 >= 1) is never well
    conditioned: its diffusive layer makes the approach go like eta^{-1/2},
    not 1/(eta * gap).
    """
    if bundle.eq.n10 > 0:
        return False
    frame = bundle.frame
    if np.linalg.cond(frame.A1_hat) >= cond_max:
        return False
    lam = np.linalg.eigvals(np.linalg.solve(frame.A1_hat, frame.Q_hat))
    nz = lam[np.abs(lam) > FIXTURE_ZERO_EIG_ABS]
    if nz.size and np.min(np.abs(nz.real)) < gap_min:
        return False
    return True


def random_frequency_point(
    rng: np.random.Generator, d: int, eta_max: float = 10.0
) -> FrequencyPoint:
    """Re xi > 0, arbitrary Im xi and omega, eta >= 0."""
    return FrequencyPoint(
        xi=complex(rng.uniform(0.05, 2.0), rng.uniform(-2.0, 2.0)),
        omega=rng.uniform(-2.0, 2.0, size=d - 1),
        eta=float(rng.uniform(0.0, eta_max)),
    )


__all__ = [
    "example_system",
    "example_scenario",
    "double_characteristic_system",
    "make_double_characteristic",
    "scenario_double_characteristic",
    "random_system",
    "random_admissible_bundle",
    "well_conditioned",
    "random_frequency_point",
]
