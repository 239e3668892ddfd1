"""One-dimensional half-line simulation of the stiff relaxation system and of
its equilibrium limit, plus the convergence study that measures the distance
between the stiff solution and the composite layer expansion.

The relaxation solver uses characteristic upwinding on a boundary-graded mesh
(first order) with Lie splitting; the stiff source is applied exactly through
exp(S dt / eps), diagonal in the eigenbasis of the symmetric S, and one step
is one sparse matrix.  Time steps are local, by
power-of-two levels (Osher & Sanders, Math. Comp. 41, 1983): a node whose
adjacent cells are at least 2^k times a base cell h, no larger than the
smallest cell, steps by 2^k times the finest dt <= 0.9 h / rho(A1), so the
bulk of the mesh, past the cells graded down to the boundary, takes one
step where the boundary cell takes 2^K.  The base cell is the bulk cell
halved down to the smallest cell where that saves node updates, so the bulk
steps at the full Courant number.  The scheme is linear, so the 2^K finest
steps of one cycle, each with its inflow solve, are one affine map: one
sparse matrix, whose rows differ from the step matrix only at node 0 and
the nodes below the top level, plus a small forcing by the boundary data.
The solver takes one iteration per cycle: one sparse product and that
forcing.

The equilibrium system has constant coefficients: its method-of-
characteristics solution with the derived reduced boundary condition is
evaluated in closed form where it is read, on no grid and with no time step.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
import warnings
from dataclasses import asdict, dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .errors import AssumptionViolated, ConfigError, UnresolvedLayerWarning
from .layers import (
    EpsLayer,
    assemble_composite,
    build_eps_layer,
    build_second_correction,
    solve_sqrt_eps_layer,
)
from .linalg import full_rank_cond
from .model import RelaxationSystem, compute_indices
from .reduction import ClosureSolve, EquilibriumFrame, Pipeline, ReducedBC, solve_closure
from .pool import thread_map, workers
from .stepping import csr_product, cycle_operator, step_operator, time_levels
from .tolerances import (
    BOUNDARY_SINGULAR_REL,
    DEGENERATE_ERROR_ABS,
    LAYER_CELLS_MIN,
    MESH_ROUNDOFF_REL,
    REFLECTION_TIME_FRAC,
    STIFF_NODES_MAX,
    STIFF_STEPS_MAX,
    TOUCHES_V_ABS,
)

log = logging.getLogger(__name__)

#: Courant number of the stiff step
CFL = 0.9

#: length ratio of neighbouring cells where the stiff mesh is graded
GRADING = 1.05

#: local-time-stepping cycles per block of the stiff time loop, which holds
#: the block's boundary forcing and trace inputs
CYCLE_BLOCK = 128


@dataclass
class Scenario:
    """Problem data for a half-line run: boundary data b(t), shape (n_+,) at
    a scalar t and (N, n_+) at an array of N times; the initial state U0(x),
    shape (nx, n), the equilibrium variables u in its first n - r columns
    and the relaxed variables v in the last r."""

    b: callable
    U0: callable
    T: float = 0.5
    x_max: float = 2.0


@dataclass
class SimResult:
    x: np.ndarray
    U: np.ndarray  # (nx, n) at t = T; (nx, n - r) for the equilibrium
    t_final: float
    steps: int = 0  # finest time steps; the closed-form equilibrium takes none
    dt: float | None = None
    boundary_times: np.ndarray | None = None
    boundary_values: np.ndarray | None = None  # trace of the state at x = 0
    boundary_cond: float | None = None  # conditioning of the inflow extraction
    node_steps: int | None = None  # node updates the stiff solver made
    cycles: int | None = None  # local-time-stepping cycles of the stiff solver


def _cell_bound(x_max, dx_min, dx_max, fields: str, ratio=GRADING) -> int:
    """A bound on the cells of ``graded_mesh``, whose cells it counts reach
    past x_max: the cells shorter than dx_max, log(dx_max / dx_min) /
    log(ratio) and at most x_max / dx_min of them (these alone span x_max if
    there are that many), then x_max / dx_max cells and 2 to spare.  Raises
    ConfigError, naming ``fields``, past STIFF_NODES_MAX nodes or the float range."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        x_max, dx_min, dx_max = np.float64(x_max), np.float64(dx_min), np.float64(dx_max)
        grow = np.log(dx_max / dx_min) / np.log(ratio) if dx_min < dx_max else 0.0
        cells = np.ceil(x_max / dx_max) + 2 + np.ceil(min(grow, x_max / dx_min))
    if not cells + 1 <= STIFF_NODES_MAX:
        raise ConfigError(
            f"{fields} ask for about {cells + 1:.3g} mesh nodes; the limit is {STIFF_NODES_MAX:,}"
        )
    return int(cells)


def graded_mesh(x_max: float, dx_min: float, dx_max: float, ratio: float = GRADING):
    """Nodes on [0, x_max]: spacing grows geometrically from dx_min at the
    boundary to dx_max, then stays uniform; the last cell is clipped, and a
    remainder shorter than dx_min is merged into the cell before it, so no
    cell is shorter than dx_min.

    Raises ConfigError unless x_max, dx_min and dx_max are finite and
    positive and ratio is finite and at least 1 (otherwise the cells stop
    growing and the node list never ends), when dx_min exceeds dx_max (such
    a mesh is not graded to the boundary), and, before allocating, when the
    cell bound ``plan_run`` applies allows over STIFF_NODES_MAX nodes."""
    for name, value in (("x_max", x_max), ("dx_min", dx_min), ("dx_max", dx_max)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"graded_mesh {name} must be finite and positive, got {value!r}")
    if not (math.isfinite(ratio) and ratio >= 1):
        raise ConfigError(f"graded_mesh ratio must be finite and at least 1, got {ratio!r}")
    if dx_min > dx_max:
        raise ConfigError(f"graded_mesh dx_min {dx_min!r} exceeds dx_max {dx_max!r}")
    fields = f"graded_mesh x_max {x_max!r}, dx_min {dx_min!r} and dx_max {dx_max!r}"
    count = _cell_bound(x_max, dx_min, dx_max, fields, ratio)
    # cell k > 0 is min(dx_min ratio^k, dx_max), cell 0 is dx_min, and the
    # nodes are their running sum up to the first that reaches x_max:
    # products and sums in sequence, as a loop over the cells makes them
    cells = np.full(count, ratio, dtype=float)
    cells[0] = dx_min
    with np.errstate(over="ignore"):  # a product past dx_max is clipped
        np.cumprod(cells, out=cells)
    np.minimum(cells, dx_max, out=cells)
    nodes = np.concatenate([[0.0], np.cumsum(cells)])
    xs = nodes[: np.searchsorted(nodes, x_max)]
    # the smallest cell sets the time step: a remainder short of dx_min by
    # more than round-off would shrink it below dx_min
    if xs.size > 1 and x_max - xs[-1] < dx_min * (1.0 - MESH_ROUNDOFF_REL):
        xs[-1] = x_max
        return xs
    return np.append(xs, x_max)


class RunPlan(NamedTuple):
    """The numbers a stiff run steps on (``plan_run``)."""

    x: np.ndarray  # the graded mesh
    level: np.ndarray  # time level of each node (``stepping.time_levels``)
    h: float  # base cell
    cycle: int  # finest steps per cycle, 2^K for the top level K
    steps: int  # finest steps, a multiple of ``cycle``
    dt: float  # finest step


def plan_run(sys: RelaxationSystem, scenario: Scenario, eps: float, dx_max: float) -> RunPlan:
    """The stiff run of ``scenario`` at ``eps`` on cells of at most ``dx_max``
    as ``solve_relaxation`` takes it: the mesh graded with dx_min = eps / 4
    (so the eps-layer has the same number of cells per decay length at
    every eps), the levels and base cell h of ``stepping.time_levels``, the
    finest steps of dt <= CFL h / rho(A1) rounded up to whole cycles, and
    dt.  Raises ConfigError, naming the fields, when ``graded_mesh``'s cell
    bound allows more than STIFF_NODES_MAX nodes, before anything is
    allocated, and when the run takes more than STIFF_STEPS_MAX finest
    steps, counts past the float range included."""
    dx_min = eps / 4.0
    bulk = max(dx_max, dx_min)
    _cell_bound(scenario.x_max, dx_min, bulk,
                f"x_max {scenario.x_max:g}, dx_max {dx_max:g} and eps {eps:g} (dx_min = eps / 4)")
    x = graded_mesh(scenario.x_max, dx_min, bulk)
    level, h = time_levels(np.diff(x))
    cycle = 2 ** int(level.max())
    rho = np.abs(sys.speeds[0].w).max(initial=0.0)
    with np.errstate(divide="ignore", over="ignore"):
        steps = np.ceil(max(np.ceil(scenario.T / (CFL * h / rho)), 1.0) / cycle) * cycle
    if not steps <= STIFF_STEPS_MAX:
        raise ConfigError(
            f"T {scenario.T:g} and eps {eps:g} ask for about {steps:.3g} finest time "
            f"steps; the limit is {STIFF_STEPS_MAX:,}"
        )
    steps = int(steps)
    return RunPlan(x, level, h, cycle, steps, scenario.T / steps)


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
        raise ValueError(
            f"composite shape {composite.shape} does not match "
            f"simulation state shape {result.U.shape}"
        )
    return l2_error(result.x, result.U, composite)


def _inflow_inverse(M: np.ndarray, message: str):
    """Inverse and condition number of an inflow boundary block M; raises
    AssumptionViolated when M is singular.  numpy's LAPACK inverts a
    block this small on the calling thread, leaving no OpenBLAS thread
    spinning against the single-threaded work that follows."""
    cond = full_rank_cond(M, AssumptionViolated(message), BOUNDARY_SINGULAR_REL)
    return np.linalg.inv(M), cond


def solve_relaxation(
    sys: RelaxationSystem,
    scenario: Scenario,
    eps: float,
    dx_max: float = 1e-3,
) -> SimResult:
    """First-order characteristic upwind + Lie splitting for

        U_t + A1 U_x = Q U / eps,  B U(0, t) = b(t).

    ``plan_run`` sets the mesh, graded with dx_min = eps / 4 so the
    eps-layer is represented, and the steps, and raises its ConfigErrors.
    Time steps are local, by power-of-two levels: with h the base cell of
    ``stepping.time_levels`` (the smallest cell, or the bulk cell halved K
    times down to it, whichever takes fewer node updates), node i takes
    level k_i = floor(log2(smaller adjacent cell / h)) and steps by
    dt_k = 2^k dt, so dt_k <= CFL * (smaller adjacent cell) / rho(A1) holds
    at every node; dt <= CFL * h / rho(A1), and the number of finest steps
    is a multiple of 2^K for the top level K.  Outgoing characteristics are
    extrapolated at x_max.  Transport and the exact stiff source
    exp(S dt_k / eps) make one sparse step matrix, assembled once over the
    whole mesh, whose row of each node carries the node's own dt_k.  At
    finest step m = 0, 1, ... the nodes of level k <= v_2(m) (2^k divides
    m; every node at m = 0) advance by their dt_k together from the current
    state, reading their neighbours as last updated; then every finest step
    solves (B R_+) chi_+ = b - (B R_rest) chi_rest at x = 0.

    The solver runs that scheme one cycle of 2^K finest steps per
    iteration (see ``stepping.cycle_operator``): one product with the cycle
    matrix, which holds every inflow solve of the cycle, and the forcing of
    the cycle's boundary data on the first entries.  (B R_+)^{-1} is formed
    once.  The trace at every finest step is evaluated after each block of
    cycles from the first state entries at each cycle start and the
    boundary data.  ``steps``, ``dt`` and the boundary trace count finest
    steps; ``node_steps`` counts the node updates of the scheme.  With
    ``RELAXBC_LOG=debug`` the run logs one line: its steps, nodes, levels,
    node-steps, cycles and nonzeros, the base cell h and the top level's
    Courant number rho 2^K dt / c on the bulk cell c.  Raises
    AssumptionViolated, naming eps, with no RuntimeWarning, when the state
    at T is not finite: it grew past the float range, or started so.
    """
    x, level, h, cycle, steps, dt = plan_run(sys, scenario, eps, dx_max)
    n = sys.n
    speeds = sys.speeds[0]
    lam, R, pos, neg = speeds.w, speeds.V, speeds.pos, speeds.neg
    rest = np.concatenate([neg, speeds.zero])
    dx = np.diff(x)
    rho = np.abs(lam).max()
    if not (pos.size or neg.size):
        raise AssumptionViolated("A1 has no nonzero characteristic speed")

    if scenario.T > REFLECTION_TIME_FRAC * scenario.x_max / rho:
        warnings.warn(
            f"final time exceeds {REFLECTION_TIME_FRAC:g} * x_max / rho(A1): reflections "
            "from the truncation boundary may reach x = 0",
            UnresolvedLayerWarning,
        )
    # the eps-layer decays on the scale eps / |Re lambda(M2)| ~ eps
    n_layer_cells = int(np.searchsorted(x, eps))
    if n_layer_cells < LAYER_CELLS_MIN:
        warnings.warn(
            f"only {n_layer_cells} mesh cells inside the eps-layer width",
            UnresolvedLayerWarning,
        )

    # boundary solve for incoming characteristics: (B R_+) chi_+ = rhs, that
    # is chi_+ = inflow_b b + inflow_rest chi_rest, formed once and folded
    # into the cycle map
    boundary_cond = None
    inflow_b, inflow_rest = np.zeros((0, 0)), np.zeros((0, rest.size))
    if pos.size:
        inflow_b, boundary_cond = _inflow_inverse(
            sys.B @ R[:, pos],
            "B restricted to incoming characteristics is singular",
        )
        inflow_rest = -inflow_b @ (sys.B @ R[:, rest])

    # S is symmetric negative definite, so exp(S dt_k / eps) is diagonal in
    # its eigenbasis
    s, V = np.linalg.eigh(0.5 * (sys.S + sys.S.T))
    sources = [(V * np.exp(s * (dt * 2**k / eps))) @ V.T for k in range(level.max() + 1)]
    C, H, G, step_nnz = cycle_operator(
        step_operator(lam, R, pos, neg, dx, dt * 2.0**level, level, sources, sys.r),
        level, pos, rest, inflow_b, inflow_rest, R,
    )
    cycles = steps // cycle
    node_steps = int(np.sum(steps >> level))
    # the top level's Courant number on the bulk cell, the largest but the last
    courant = rho * dt * cycle / dx[:-1].max(initial=dx[0])
    log.debug(
        "eps %g: %d steps on %d nodes, %d time levels, %d node-steps, "
        "%d cycles, cycle map nnz %d (step matrix %d), base cell %.4g, "
        "top-level Courant number %.3f",
        eps, steps, x.size, level.max() + 1, node_steps,
        cycles, C.nnz, step_nnz, h, courant,
    )

    U = np.array(scenario.U0(x), dtype=float, order="C")
    times = np.arange(steps + 1, dtype=float)
    times *= dt
    trace = np.empty((steps + 1, n))
    trace[0] = U[0]
    # boundary data beta of each cycle's finest steps
    beta = np.zeros((cycles, 0))
    if pos.size:
        beta = np.reshape(
            np.asarray(scenario.b(times[1:]), dtype=float), (cycles, H.shape[1])
        )
    nf, g = H.shape[0], G.shape[1] - H.shape[1]
    traces = trace[1:].reshape(cycles, cycle * n)
    # a state that grows past the float range or starts non-finite is
    # refused below, once, from the final state
    with np.errstate(over="ignore", invalid="ignore"):
        # the state alternates between two buffers; a pass is the product
        # from one into the other, the head chi[:g] it starts from and the
        # forced rows chi[:nf] it ends in, bound once, so a cycle slices
        # nothing
        a = (U @ R).ravel()
        b = np.empty_like(a)
        passes = itertools.cycle(
            [(csr_product(C, a, b), a[:g], b[:nf]), (csr_product(C, b, a), b[:g], a[:nf])]
        )
        # a block of cycles at a time holds its forcing H beta and its
        # inputs (chi[:g] at the cycle start, beta) to the traces
        # G (head, beta); einsum, not BLAS, whose threads would spin against
        # the loop
        for first in range(0, cycles, CYCLE_BLOCK):
            part = slice(first, first + CYCLE_BLOCK)
            forcing = np.einsum("ck,hk->ch", beta[part], H)
            inputs = np.empty((forcing.shape[0], G.shape[1]))
            inputs[:, g:] = beta[part]
            # zip draws from ``passes`` last, so a block's end loses no pass
            for head, f, (advance, start, forced) in zip(inputs[:, :g], forcing, passes):
                head[:] = start
                advance()
                forced += f
            np.einsum("ck,ik->ci", inputs, G, out=traces[part])
        U = (a, b)[cycles % 2].reshape(x.size, n) @ R.T
    if not np.all(np.isfinite(U)):
        raise AssumptionViolated(
            f"the stiff state at eps {eps:g} is not finite at T = {scenario.T:g}"
        )
    return SimResult(
        x=x, U=U, t_final=scenario.T, steps=steps,
        dt=dt, boundary_times=times, boundary_values=trace,
        boundary_cond=boundary_cond, node_steps=node_steps, cycles=cycles,
    )


def _modes(eq: EquilibriumFrame):
    """W = (P1 P0) and lam = (Lam1, 0): A11 = W diag(lam) W^T."""
    return np.hstack([eq.P1, eq.P0]), np.concatenate([eq.Lam1, np.zeros(eq.n10)])


def equilibrium_trace(eq: EquilibriumFrame, rbc: ReducedBC, scenario: Scenario, rhs=None):
    """The exact boundary trace t -> ubar(0, t), shape (n - r,) at a time and
    (N, n - r) at N times, of the equilibrium system ubar_t + A11 ubar_x = 0
    under the reduced boundary condition C ubar(0, t) = B_o b(t),
    C = B_o B_u.  In the modes chi = ubar W, those with lam <= 0 carry
    initial data to the boundary from min(|lam| t, x_max), the constant
    state a zero-gradient outflow holds at x_max; the incoming ones solve
    chi_+(0, t) = (C W_+)^{-1} (rhs(t) - C W_rest chi_rest(0, t)).

    ``rhs`` overrides t -> B_o b(t), which maps N times to (N, n1_+); the
    naive-closure negative control uses it.  Raises AssumptionViolated when
    C W_+ is singular."""
    W, lam = _modes(eq)
    pos, rest = np.flatnonzero(lam > 0), np.flatnonzero(lam <= 0)
    if pos.size:
        CWp_inv, _ = _inflow_inverse(
            rbc.coefficient @ W[:, pos],
            "reduced boundary condition is singular on incoming modes",
        )
        C_rest = rbc.coefficient @ W[:, rest]
        rhs = rhs or (lambda t: scenario.b(t) @ rbc.B_o.T)

    def trace(t):
        t = np.asarray(t, dtype=float)
        ts = t.reshape(-1)
        chi = np.empty((ts.size, lam.size))
        for k in rest:
            feet = np.minimum(-lam[k] * ts, scenario.x_max)
            chi[:, k] = scenario.U0(feet)[:, : lam.size] @ W[:, k]
        if pos.size:
            r = np.reshape(rhs(ts), (ts.size, pos.size)) - chi[:, rest] @ C_rest.T
            chi[:, pos] = r @ CWp_inv.T
        return (chi @ W.T).reshape(t.shape + (lam.size,))

    return trace


def solve_equilibrium(eq: EquilibriumFrame, trace, scenario: Scenario, x: np.ndarray) -> SimResult:
    """The method-of-characteristics solution at t = T on the nodes ``x`` of
    the equilibrium problem whose exact boundary trace is ``trace``
    (``equilibrium_trace``), in closed form: no grid, no time step
    (``steps`` is 0).  Each mode chi_k reads its initial data at
    clip(x - lam_k T, 0, x_max), so zero-speed modes keep theirs, except an
    incoming mode where x < lam_k T, which reads the trace at its foot time
    T - x / lam_k."""
    W, lam = _modes(eq)
    T, x = scenario.T, np.asarray(x, dtype=float)
    chi = np.empty((x.size, lam.size))
    for k in range(lam.size):
        foot = np.clip(x - lam[k] * T, 0.0, scenario.x_max)
        chi[:, k] = scenario.U0(foot)[:, : lam.size] @ W[:, k]
    for k in np.flatnonzero(lam > 0):
        inflow = x < lam[k] * T
        chi[inflow, k] = trace(T - x[inflow] / lam[k]) @ W[:, k]
    return SimResult(x=x, U=chi @ W.T, t_final=T)


@dataclass
class ConvergenceStudy:
    eps: list
    errors: list
    slope: float | None
    fit_residual: float | None = None  # 95% bound on the log-log fit residual
    outer_errors: list | None = None  # against the bare outer solution
    outer_slope: float | None = None
    control_applicable: bool = True  # whether the naive closure differs
    control_errors: list | None = None
    control_slope: float | None = None
    degenerate: bool = False  # all errors at round-off: slope undefined
    details: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def check_epsilons(eps_list) -> None:
    """Raise ConfigError unless ``eps_list`` holds at least two distinct
    values: a slope through one point is not determined."""
    if len(set(eps_list)) < 2:
        raise ConfigError(
            f"'epsilons' must hold at least two distinct values to fit a "
            f"slope, got {list(eps_list)!r}"
        )


def _fit_slope(eps, errors):
    """Least-squares slope of log error vs log eps with a 95% residual bound;
    (None, None) when the data are degenerate (errors at round-off level)."""
    errors = np.asarray(errors, dtype=float)
    if np.all(errors < DEGENERATE_ERROR_ABS):
        return None, None
    le, lr = np.log(np.asarray(eps, dtype=float)), np.log(errors)
    slope, intercept = np.polyfit(le, lr, 1)
    resid = lr - (slope * le + intercept)
    return float(slope), float(2.0 * np.std(resid))


def _touches_v(sys: RelaxationSystem) -> np.ndarray:
    """Rows of B that act on the relaxed variables v."""
    return np.any(np.abs(sys.B_v) > TOUCHES_V_ABS, axis=1)


def naive_rhs(sys: RelaxationSystem, rbc: ReducedBC, scenario: Scenario):
    """Negative-control right-hand side: pretend the boundary data rows that
    act on the relaxed variables carry no information, i.e. zero every
    component of b whose row of B touches v.  For B = I this reproduces the
    naive condition ubar(0) = g.  Like ``scenario.b`` it takes a scalar or
    an array of times."""
    keep = ~_touches_v(sys)
    return lambda t: (scenario.b(t) * keep) @ rbc.B_o.T


def control_applicable(sys: RelaxationSystem, rbc: ReducedBC) -> bool:
    """Whether the naive closure of ``naive_rhs`` can differ from the derived
    one.  It cannot when no row of B touches v, or when the reduced condition
    has no rows (n1_+ = 0): a control would then only repeat the study."""
    return rbc.B_o.shape[0] > 0 and bool(np.any(_touches_v(sys)))


def layers_at_final_time(
    sys: RelaxationSystem,
    eq: EquilibriumFrame,
    closure: ClosureSolve,
    scenario: Scenario,
    trace,
    eps_layer: EpsLayer,
) -> dict:
    """Solve the layers of the composite expansion at t = T that do not
    depend on eps, once per equilibrium solution, from its boundary trace
    ubar(0, t) (``equilibrium_trace``): the keyword arguments of
    ``assemble_composite``, the eps-layer with its closure amplitude
    w_s(T), and the sqrt(eps)-layer with the matrix of its second
    correction (both None without zero-speed equilibrium modes).  The
    sqrt(eps)-layer takes its boundary data at all of its sample times from
    one closure solve."""
    n10 = compute_indices(sys).n10

    def layer_data(ts):
        mu, _ = solve_closure(closure, sys, scenario.b(ts).T, trace(ts).T, n10)
        return mu.T

    sqrt_layer = second = None
    if n10 > 0:
        sqrt_layer = solve_sqrt_eps_layer(sys, eq, layer_data, scenario.T)
        second = build_second_correction(sys, eq)
    _, w_s = solve_closure(closure, sys, scenario.b(scenario.T), trace(scenario.T), n10)
    return dict(eps_layer=eps_layer, w_s=w_s, sqrt_layer=sqrt_layer, second=second)


def composite_at_final_time(
    sys: RelaxationSystem, layers: dict, x: np.ndarray, ubar: np.ndarray, eps: float
) -> np.ndarray:
    """The composite expansion at t = T on the mesh ``x``, from the outer
    solution ``ubar`` on it and the ``layers_at_final_time``."""
    return assemble_composite(sys, x, ubar, eps, **layers)


def run_convergence_study(
    pipeline: Pipeline,
    scenario: Scenario,
    eps_list=(1e-2, 3e-3, 1e-3, 3e-4),
    dx_max: float = 5e-4,
) -> ConvergenceStudy:
    """Measure ||U^eps - U_eps||_{L2} at t = T for each eps, U_eps the
    composite expansion that ``pipeline`` derives through its closure, and
    fit the decay slope, and repeat it against the naive-closure equilibrium
    solution as a negative control (its error should plateau) whenever the
    control is applicable (``control_applicable``).  Raises ConfigError,
    before any run, unless ``eps_list`` holds two distinct values.

    ``dx_max`` is the largest cell of the stiff solver's graded mesh.  The
    derived closure and, where applicable, the naive one are keyed by their
    report fields (``error``, ``control_error``).  Each builds its exact
    boundary trace (``equilibrium_trace``) and its layers once per study,
    and reads the trace for its outer solution on each stiff mesh
    (``solve_equilibrium``).

    ``scenario.U0`` is the outer initial data.  The stiff runs start from
    well-prepared data that already carry the eps-layer at its t = 0
    amplitude, so the measured gap is the expansion error rather than an
    initial-relaxation transient.

    The runs at different eps are independent: each (well-prepared data,
    ``solve_relaxation``, composites, errors) is one item of
    ``pool.thread_map``, one thread per CPU in the affinity mask, the
    smallest eps submitted first.  The stiff loops do not overlap (see
    ``pool``): on 2 vCPUs two concurrent ``solve_relaxation(eps=3e-4)`` runs
    of the 2x2 study took 0.187 s, 0.184 s back to back, so the pool's gain
    (0.47 s against 0.63 s serial on converge's ladders) is the numpy work
    around the loops.  Results are gathered in eps order, so the study is
    the same, bit for bit, on any number of CPUs, and when several runs
    raise, the first in eps order does.  With ``RELAXBC_LOG=debug`` the study
    logs one line after gathering: the thread count, then each eps with its
    wall time, node-steps and cycles; the per-run lines of
    ``solve_relaxation``, written from the worker threads, may interleave.
    """
    check_epsilons(eps_list)
    sys, eq, rbc, closure = pipeline.sys, pipeline.eq, pipeline.rbc, pipeline.closure
    idx = compute_indices(sys)
    layer0 = build_eps_layer(sys, pipeline.frame, pipeline.data)
    applicable = control_applicable(sys, rbc)
    traces = {"error": equilibrium_trace(eq, rbc, scenario)}
    if applicable:
        naive = naive_rhs(sys, rbc, scenario)
        traces["control_error"] = equilibrium_trace(eq, rbc, scenario, naive)
    # each closure's trace with the layers it makes, by report field
    expansions = {
        name: (trace, layers_at_final_time(sys, eq, closure, scenario, trace, layer0))
        for name, trace in traces.items()
    }

    n1 = sys.n - sys.r
    _, w_s0 = solve_closure(
        closure, sys, scenario.b(0.0), scenario.U0(np.zeros(1))[0, :n1], idx.n10
    )

    def at(eps):
        """The stiff run at eps from its well-prepared data, and its errors:
        ``(per_eps entry, wall seconds, cycles)``."""
        start = time.perf_counter()
        stiff_scenario = scenario
        if np.size(w_s0):
            stiff_scenario = replace(
                scenario, U0=lambda x: scenario.U0(x) + layer0.evaluate(x / eps, w_s0)
            )
        stiff = solve_relaxation(sys, stiff_scenario, eps, dx_max=dx_max)
        entry = {"eps": float(eps), "steps": stiff.steps, "nodes": int(stiff.x.size),
                 "node_steps": stiff.node_steps}
        for name, (trace, layers) in expansions.items():
            ubar = solve_equilibrium(eq, trace, scenario, stiff.x).U
            comp = composite_at_final_time(sys, layers, stiff.x, ubar, eps)
            entry[name] = float(measure_error(stiff, comp))
            if name == "error":
                # against the bare outer solution (ubar; 0): same rate away
                # from the boundary layers, slower globally
                outer = np.zeros_like(stiff.U)
                outer[:, :n1] = ubar
                entry["outer_error"] = float(measure_error(stiff, outer))
        return entry, time.perf_counter() - start, stiff.cycles

    # the smallest eps takes the most cycles: submitted first, it is not
    # left to run alone at the end
    costliest = sorted(range(len(eps_list)), key=lambda i: eps_list[i])
    runs = thread_map(at, eps_list, order=costliest)
    per_eps = [entry for entry, _, _ in runs]
    log.debug("convergence study on %d threads: %s", workers(len(runs)), "; ".join(
        f"eps {e['eps']:g} {wall:.3f} s, {e['node_steps']} node-steps, {cycles} cycles"
        for e, wall, cycles in runs
    ))
    errors = [e["error"] for e in per_eps]
    outer_errors = [e["outer_error"] for e in per_eps]
    slope, fit_residual = _fit_slope(eps_list, errors)
    outer_slope, _ = _fit_slope(eps_list, outer_errors)
    control_errors = cslope = None
    if applicable:
        control_errors = [e["control_error"] for e in per_eps]
        cslope, _ = _fit_slope(eps_list, control_errors)
    return ConvergenceStudy(
        eps=list(eps_list),
        errors=errors,
        slope=slope,
        fit_residual=fit_residual,
        outer_errors=outer_errors,
        outer_slope=outer_slope,
        control_applicable=applicable,
        control_errors=control_errors,
        control_slope=cslope,
        degenerate=slope is None,
        details={"per_eps": per_eps},
    )


__all__ = [
    "Scenario",
    "SimResult",
    "ConvergenceStudy",
    "graded_mesh",
    "plan_run",
    "l2_error",
    "measure_error",
    "solve_relaxation",
    "equilibrium_trace",
    "solve_equilibrium",
    "layers_at_final_time",
    "composite_at_final_time",
    "naive_rhs",
    "control_applicable",
    "check_epsilons",
    "run_convergence_study",
]
