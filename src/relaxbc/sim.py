"""One-dimensional half-line simulation of the stiff relaxation system and of
its equilibrium limit, plus the convergence study that measures the distance
between the stiff solution and the composite layer expansion.

The relaxation solver uses characteristic upwinding on a boundary-graded mesh
(first order) with Lie splitting; the stiff source is applied exactly through
exp(S dt / eps).  The equilibrium solver uses the same transport scheme with
the derived reduced boundary condition.
"""

from __future__ import annotations

import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla

from .errors import (
    BoundarySolveSingular,
    CflViolation,
    GridMismatch,
    UnresolvedLayerWarning,
)
from .layers import (
    assemble_composite,
    build_eps_layer,
    build_second_correction,
    solve_sqrt_eps_layer,
)
from .model import RelaxationSystem, compute_indices
from .reduction import (
    ClosureSolve,
    EquilibriumFrame,
    ReducedBC,
    ReductionData,
    solve_closure,
)
from .spectral import KernelFrame
from .tolerances import tau_eig


@dataclass
class Scenario:
    """Problem data for a half-line run: boundary data b(t) (shape (n_+,)),
    initial data u0(x) (shape (nx, n - r)) and v0(x) (shape (nx, r))."""

    b: callable
    u0: callable
    v0: callable = None
    T: float = 0.5
    x_max: float = 2.0


@dataclass
class SimResult:
    x: np.ndarray
    U: np.ndarray  # (nx, n) at t = T
    t_final: float
    steps: int
    dt: float
    eps: float | None = None
    boundary_times: np.ndarray | None = None
    boundary_values: np.ndarray | None = None  # trace of the state at x = 0
    wall_time: float | None = None
    boundary_cond: float | None = None  # conditioning of the inflow extraction

    def boundary_interp(self):
        ts, vs = self.boundary_times, self.boundary_values
        def f(t):
            return np.array(
                [np.interp(t, ts, vs[:, k]) for k in range(vs.shape[1])]
            )
        return f


def graded_mesh(x_max: float, dx_min: float, dx_max: float, ratio: float = 1.05):
    """Nodes on [0, x_max]: spacing grows geometrically from dx_min at the
    boundary to dx_max, then stays uniform; the last cell is clipped."""
    xs = [0.0]
    dx = dx_min
    while xs[-1] + dx < x_max:
        xs.append(xs[-1] + dx)
        dx = min(dx * ratio, dx_max)
    # absorb a too-short final cell into its neighbor to keep the CFL bound
    # controlled by dx_min, not by a clipping artifact
    if len(xs) > 1 and x_max - xs[-1] < 0.5 * dx_min:
        xs[-1] = x_max
    else:
        xs.append(x_max)
    return np.asarray(xs)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    w[1:] += 0.5 * np.diff(x)
    w[:-1] += 0.5 * np.diff(x)
    return w


def l2_error(x: np.ndarray, U: np.ndarray, V: np.ndarray) -> float:
    """L2(0, x_max) norm of U - V (row-wise states) by the trapezoid rule."""
    w = _trapezoid_weights(x)
    diff2 = np.sum(np.abs(U - V) ** 2, axis=1)
    return float(math.sqrt(np.dot(w, diff2)))


def measure_error(result: SimResult, composite: np.ndarray) -> float:
    """Discrete L2 distance between a simulation state and a composite state
    evaluated on the same mesh."""
    composite = np.asarray(composite)
    if composite.shape != result.U.shape:
        raise GridMismatch(
            f"composite shape {composite.shape} does not match "
            f"simulation state shape {result.U.shape}"
        )
    return l2_error(result.x, result.U, composite)


def _upwind_step(chi, lam, pos, neg, dxm, dxp, dt):
    """One explicit upwind transport step in characteristic variables.

    Interior update only; boundary rows are handled by the callers."""
    new = chi.copy()
    if pos.size:
        grad = (chi[1:, pos] - chi[:-1, pos]) / dxm[:, None]
        new[1:, pos] -= dt * lam[pos][None, :] * grad
    if neg.size:
        grad = (chi[1:, neg] - chi[:-1, neg]) / dxp[:, None]
        new[:-1, neg] -= dt * lam[neg][None, :] * grad
    return new


def solve_relaxation(
    sys: RelaxationSystem,
    scenario: Scenario,
    eps: float,
    dx_max: float = 1e-3,
    ratio: float = 1.05,
    cfl: float = 0.9,
) -> SimResult:
    """First-order characteristic upwind + Lie splitting for

        U_t + A1 U_x = Q U / eps,  B U(0, t) = b(t).

    The mesh is graded with dx_min = eps / 4 so the eps-layer is represented;
    the time step obeys dt <= cfl * dx_min / rho(A1).  Outgoing characteristics
    are extrapolated at x_max.
    """
    t_start = time.perf_counter()
    n = sys.n
    lam, R = np.linalg.eigh(sys.A1)
    scale = max(np.abs(lam).max(), 1.0)
    tol = tau_eig(scale)
    pos = np.where(lam > tol)[0]
    neg = np.where(lam < -tol)[0]
    zer = np.where(np.abs(lam) <= tol)[0]

    # the boundary cell scales with eps so the eps-layer is always represented
    # with the same number of cells per decay length
    dx_min = eps / 4.0
    x = graded_mesh(scenario.x_max, dx_min, max(dx_max, dx_min), ratio)
    dxm = np.diff(x)
    dxp = dxm
    rho = np.abs(lam).max()
    if rho <= tol:
        raise CflViolation("A1 has no nonzero characteristic speed")
    dt_cap = cfl * dxm.min() / rho
    steps = max(int(math.ceil(scenario.T / dt_cap)), 1)
    dt = scenario.T / steps

    if scenario.T > 0.9 * scenario.x_max / rho:
        warnings.warn(
            "final time exceeds 0.9 * x_max / rho(A1): reflections from the "
            "truncation boundary may reach x = 0",
            UnresolvedLayerWarning,
        )
    # the eps-layer decays on the scale eps / |Re lambda(M2)| ~ eps; require
    # at least 4 boundary cells inside it
    n_layer_cells = int(np.searchsorted(x, eps))
    if n_layer_cells < 4:
        warnings.warn(
            f"only {n_layer_cells} mesh cells inside the eps-layer width",
            UnresolvedLayerWarning,
        )

    # boundary solve for incoming characteristics: (B R_+) chi_+ = rhs
    BRp = sys.B @ R[:, pos]
    boundary_cond = None
    if pos.size:
        s = sla.svdvals(BRp)
        if s.size < min(BRp.shape) or s[-1] <= 1e-12 * max(s[0], 1.0):
            raise BoundarySolveSingular(
                "B restricted to incoming characteristics is singular"
            )
        boundary_cond = float(s[0] / s[-1])
        BRp_lu = sla.lu_factor(BRp)
    B_Rrest = sys.B @ R[:, np.concatenate([neg, zer])]

    # exact stiff source over one step, in the original variables
    E = sla.expm(sys.S * dt / eps)

    U = np.empty((x.size, n))
    U[:, : n - sys.r] = np.atleast_2d(scenario.u0(x).T).T
    if scenario.v0 is not None:
        U[:, n - sys.r :] = np.atleast_2d(scenario.v0(x).T).T
    else:
        U[:, n - sys.r :] = 0.0

    rest = np.concatenate([neg, zer])
    times = np.empty(steps + 1)
    trace = np.empty((steps + 1, n))
    times[0], trace[0] = 0.0, U[0]
    for step in range(steps):
        t_new = (step + 1) * dt
        chi = U @ R
        chi = _upwind_step(chi, lam, pos, neg, dxm, dxp, dt)
        # outflow extrapolation for outgoing characteristics at x_max
        if neg.size:
            chi[-1, neg] = chi[-2, neg]
        U = chi @ R.T
        U[:, n - sys.r :] = U[:, n - sys.r :] @ E.T
        # inflow boundary condition last, so B U(0, t_new) = b(t_new) holds
        # exactly at the end of the step (the stiff source must not spoil it)
        if pos.size:
            chi0 = U[0] @ R
            rhs = scenario.b(t_new) - B_Rrest @ chi0[rest]
            chi0[pos] = sla.lu_solve(BRp_lu, rhs)
            U[0] = chi0 @ R.T
        times[step + 1], trace[step + 1] = t_new, U[0]
    return SimResult(
        x=x, U=U, t_final=scenario.T, steps=steps, dt=dt, eps=eps,
        boundary_times=times, boundary_values=trace,
        wall_time=time.perf_counter() - t_start, boundary_cond=boundary_cond,
    )


def solve_equilibrium(
    sys: RelaxationSystem,
    eq: EquilibriumFrame,
    rbc: ReducedBC,
    scenario: Scenario,
    rhs=None,
    dx: float = 1e-3,
    cfl: float = 0.9,
) -> SimResult:
    """Upwind solve of the equilibrium system  ubar_t + A11 ubar_x = 0  with
    the reduced boundary condition (B_o B_u) ubar(0, t) = B_o b(t).

    ``rhs`` overrides the boundary right-hand side t -> B_o b(t); it is used
    by the naive-closure negative control.  The boundary trace ubar(0, t) is
    recorded at every step for the layer closure.
    """
    t_start = time.perf_counter()
    n1 = sys.n - sys.r
    A11 = sys.A11
    lam, W = np.linalg.eigh(A11)
    scale = max(np.abs(lam).max(initial=0.0), 1.0)
    tol = tau_eig(scale)
    pos = np.where(lam > tol)[0]
    neg = np.where(lam < -tol)[0]
    zer = np.where(np.abs(lam) <= tol)[0]
    rest = np.concatenate([neg, zer])

    x = np.arange(0.0, scenario.x_max + dx / 2, dx)
    rho = np.abs(lam).max(initial=0.0)
    if rho > tol:
        dt_cap = cfl * dx / rho
        steps = max(int(math.ceil(scenario.T / dt_cap)), 1)
    else:
        steps = 100
    dt = scenario.T / steps
    dxm = np.diff(x)

    coeff = rbc.coefficient  # B_o B_u, shape n1_+ x n1
    CWp = coeff @ W[:, pos]
    boundary_cond = None
    if pos.size:
        s = sla.svdvals(CWp)
        if s.size < min(CWp.shape) or s[-1] <= 1e-12 * max(s[0], 1.0):
            raise BoundarySolveSingular(
                "reduced boundary condition is singular on incoming modes"
            )
        boundary_cond = float(s[0] / s[-1])
        CWp_lu = sla.lu_factor(CWp)
    C_rest = coeff @ W[:, rest]

    if rhs is None:
        rhs = lambda t: rbc.B_o @ scenario.b(t)

    u = np.atleast_2d(scenario.u0(x).T).T.copy()
    times = np.empty(steps + 1)
    trace = np.empty((steps + 1, n1))
    times[0], trace[0] = 0.0, u[0]
    for step in range(steps):
        t_new = (step + 1) * dt
        chi = u @ W
        chi = _upwind_step(chi, lam, pos, neg, dxm, dxm, dt)
        if neg.size:
            chi[-1, neg] = chi[-2, neg]
        if pos.size:
            r = rhs(t_new) - C_rest @ chi[0, rest]
            chi[0, pos] = sla.lu_solve(CWp_lu, r)
        u = chi @ W.T
        times[step + 1], trace[step + 1] = t_new, u[0]
    return SimResult(
        x=x, U=u, t_final=scenario.T, steps=steps, dt=dt,
        boundary_times=times, boundary_values=trace,
        wall_time=time.perf_counter() - t_start, boundary_cond=boundary_cond,
    )


@dataclass
class ConvergenceStudy:
    eps: list
    errors: list
    slope: float | None
    fit_residual: float | None = None  # 95% bound on the log-log fit residual
    outer_errors: list | None = None  # against the bare outer solution
    outer_slope: float | None = None
    control_errors: list | None = None
    control_slope: float | None = None
    degenerate: bool = False  # all errors at round-off: slope undefined
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        opt = lambda v: None if v is None else float(v)
        opt_list = lambda v: None if v is None else [float(e) for e in v]
        return {
            "eps": [float(e) for e in self.eps],
            "errors": [float(e) for e in self.errors],
            "slope": opt(self.slope),
            "fit_residual": opt(self.fit_residual),
            "outer_errors": opt_list(self.outer_errors),
            "outer_slope": opt(self.outer_slope),
            "control_errors": opt_list(self.control_errors),
            "control_slope": opt(self.control_slope),
            "degenerate": bool(self.degenerate),
            "details": self.details,
        }


def _fit_slope(eps, errors):
    """Least-squares slope of log error vs log eps with a 95% residual bound;
    (None, None) when the data are degenerate (errors at round-off level)."""
    errors = np.asarray(errors, dtype=float)
    if np.all(errors < 1e-14):
        return None, None
    le, lr = np.log(np.asarray(eps, dtype=float)), np.log(errors)
    slope, intercept = np.polyfit(le, lr, 1)
    resid = lr - (slope * le + intercept)
    return float(slope), float(2.0 * np.std(resid))


def naive_rhs(sys: RelaxationSystem, rbc: ReducedBC, scenario: Scenario):
    """Negative-control right-hand side: pretend the boundary data rows that
    act on the relaxed variables carry no information, i.e. zero every
    component of b whose row of B touches v.  For B = I this reproduces the
    naive condition ubar(0) = g."""
    touches_v = np.any(np.abs(sys.B_v) > 1e-14, axis=1)
    def f(t):
        b = np.array(scenario.b(t), dtype=float)
        b[touches_v] = 0.0
        return rbc.B_o @ b
    return f


def composite_at_final_time(
    sys: RelaxationSystem,
    frame: KernelFrame,
    eq: EquilibriumFrame,
    data: ReductionData,
    rbc: ReducedBC,
    closure: ClosureSolve,
    scenario: Scenario,
    equil: SimResult,
    x: np.ndarray,
    eps: float,
) -> np.ndarray:
    """Evaluate the composite expansion at t = T on the mesh ``x``."""
    idx = compute_indices(sys)
    n10 = idx.n10
    ubar0 = equil.boundary_interp()

    def layer_data(t):
        mu, _ = solve_closure(closure, sys, scenario.b(t), ubar0(t), n10)
        return mu

    sqrt_layer = None
    second = None
    if n10 > 0:
        sqrt_layer = solve_sqrt_eps_layer(sys, eq, layer_data, scenario.T)
        second = build_second_correction(sys, eq, sqrt_layer)
    eps_layer = build_eps_layer(sys, frame, data)
    _, w_s = solve_closure(
        closure, sys, scenario.b(scenario.T), ubar0(scenario.T), n10
    )

    ubar_x = np.empty((x.size, sys.n - sys.r))
    for k in range(sys.n - sys.r):
        ubar_x[:, k] = np.interp(x, equil.x, equil.U[:, k])
    return assemble_composite(
        sys, x, ubar_x, eps,
        eps_layer=eps_layer, w_s=w_s,
        sqrt_layer=sqrt_layer, second=second,
    )


def run_convergence_study(
    sys: RelaxationSystem,
    frame: KernelFrame,
    eq: EquilibriumFrame,
    data: ReductionData,
    rbc: ReducedBC,
    closure: ClosureSolve,
    scenario: Scenario,
    eps_list=(1e-2, 3e-3, 1e-3, 3e-4),
    dx_max: float = 5e-4,
    equilibrium_dx: float = 1e-4,
    with_control: bool = True,
    well_prepared: bool = True,
) -> ConvergenceStudy:
    """Measure ||U^eps - U_eps||_{L2} at t = T for each eps and fit the decay
    slope; optionally repeat against the naive-closure equilibrium solution
    as a negative control (its error should plateau).

    ``scenario.u0``/``scenario.v0`` describe the outer initial data.  With
    ``well_prepared`` the stiff runs start from data that already carry the
    eps-layer at its t = 0 amplitude, so the measured gap is the expansion
    error rather than an initial-relaxation transient.
    """
    equil = solve_equilibrium(sys, eq, rbc, scenario, dx=equilibrium_dx)
    control_equil = None
    if with_control:
        control_equil = solve_equilibrium(
            sys, eq, rbc, scenario,
            rhs=naive_rhs(sys, rbc, scenario), dx=equilibrium_dx,
        )

    idx = compute_indices(sys)
    layer0 = build_eps_layer(sys, frame, data)
    u0_at_0 = np.atleast_1d(np.asarray(scenario.u0(np.zeros(1))).ravel())
    _, w_s0 = solve_closure(
        closure, sys, scenario.b(0.0), u0_at_0, idx.n10
    )

    errors, outer_errors, control_errors = [], [], []
    details = {"per_eps": []}
    n1 = sys.n - sys.r
    for eps in eps_list:
        if well_prepared and np.size(w_s0):
            def u0_eps(x, _e=eps):
                base = np.atleast_2d(scenario.u0(x).T).T
                return base + layer0.evaluate(x / _e, w_s0)[:, :n1]
            def v0_eps(x, _e=eps):
                if scenario.v0 is not None:
                    base = np.atleast_2d(scenario.v0(x).T).T
                else:
                    base = np.zeros((np.size(x), sys.r))
                return base + layer0.evaluate(x / _e, w_s0)[:, n1:]
            stiff_scenario = Scenario(
                b=scenario.b, u0=u0_eps, v0=v0_eps,
                T=scenario.T, x_max=scenario.x_max,
            )
        else:
            stiff_scenario = scenario
        t0 = time.perf_counter()
        stiff = solve_relaxation(sys, stiff_scenario, eps, dx_max=dx_max)
        comp = composite_at_final_time(
            sys, frame, eq, data, rbc, closure, scenario, equil, stiff.x, eps
        )
        err = measure_error(stiff, comp)
        errors.append(err)
        # against the bare outer solution (ubar; 0): same rate away from the
        # boundary layers, slower globally
        outer = np.zeros_like(stiff.U)
        for k in range(n1):
            outer[:, k] = np.interp(stiff.x, equil.x, equil.U[:, k])
        outer_err = measure_error(stiff, outer)
        outer_errors.append(outer_err)
        entry = {
            "eps": float(eps),
            "error": float(err),
            "outer_error": float(outer_err),
            "steps": stiff.steps,
            "nodes": int(stiff.x.size),
        }
        if with_control:
            ctrl = composite_at_final_time(
                sys, frame, eq, data, rbc, closure, scenario,
                control_equil, stiff.x, eps,
            )
            cerr = l2_error(stiff.x, stiff.U, ctrl)
            control_errors.append(cerr)
            entry["control_error"] = float(cerr)
        entry["seconds"] = round(time.perf_counter() - t0, 3)
        details["per_eps"].append(entry)

    slope, fit_residual = _fit_slope(eps_list, errors)
    outer_slope, _ = _fit_slope(eps_list, outer_errors)
    cslope = None
    if with_control:
        cslope, _ = _fit_slope(eps_list, control_errors)
    return ConvergenceStudy(
        eps=list(eps_list),
        errors=errors,
        slope=slope,
        fit_residual=fit_residual,
        outer_errors=outer_errors,
        outer_slope=outer_slope,
        control_errors=control_errors if with_control else None,
        control_slope=cslope,
        degenerate=slope is None,
        details=details,
    )


__all__ = [
    "Scenario",
    "SimResult",
    "ConvergenceStudy",
    "graded_mesh",
    "l2_error",
    "measure_error",
    "solve_relaxation",
    "solve_equilibrium",
    "composite_at_final_time",
    "naive_rhs",
    "run_convergence_study",
]
