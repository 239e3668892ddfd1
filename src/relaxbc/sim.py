"""One-dimensional half-line simulation of the stiff relaxation system and of
its equilibrium limit, plus the convergence study that measures the distance
between the stiff solution and the composite layer expansion.

The relaxation solver uses characteristic upwinding on a boundary-graded mesh
(first order) with Lie splitting; the stiff source is applied exactly through
exp(S dt / eps), and one step is one sparse matrix.  Time steps are local, by
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

The equilibrium system has constant coefficients, so its solver evaluates
the method-of-characteristics solution with the derived reduced boundary
condition in closed form, with no time stepping.
"""

from __future__ import annotations

import itertools
import logging
import math
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BoundarySolveSingular,
    CflViolation,
    ConfigError,
    GridMismatch,
    UnresolvedLayerWarning,
)
from .layers import (
    EpsLayer,
    SecondCorrection,
    SqrtEpsLayer,
    assemble_composite,
    build_eps_layer,
    build_second_correction,
    solve_sqrt_eps_layer,
)
from .linalg import expm, full_rank_cond
from .model import RelaxationSystem, compute_indices, split_speeds
from .reduction import (
    ClosureSolve,
    EquilibriumFrame,
    ReducedBC,
    ReductionData,
    solve_closure,
)
from .pool import thread_map, workers
from .spectral import KernelFrame
from .stepping import csr_product, cycle_operator, step_operator, time_levels
from .tolerances import (
    BOUNDARY_SINGULAR_REL,
    DEGENERATE_ERROR_ABS,
    MESH_ROUNDOFF_REL,
    TOUCHES_V_ABS,
)

log = logging.getLogger(__name__)

#: Courant number of the stiff step and of the equilibrium trace sampling
CFL = 0.9

#: local-time-stepping cycles per block of the stiff time loop, which holds
#: the block's boundary forcing and trace inputs
CYCLE_BLOCK = 128


@dataclass
class Scenario:
    """Problem data for a half-line run: boundary data b(t), shape (n_+,) at
    a scalar t and (N, n_+) at an array of N times; initial data u0(x)
    (shape (nx, n - r)) and v0(x) (shape (nx, r))."""

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
    boundary_cond: float | None = None  # conditioning of the inflow extraction
    node_steps: int | None = None  # node updates the stiff solver made
    cycles: int | None = None  # local-time-stepping cycles of the stiff solver

    def boundary_interp(self):
        ts, vs = self.boundary_times, self.boundary_values
        def f(t):
            return np.array(
                [np.interp(t, ts, vs[:, k]) for k in range(vs.shape[1])]
            )
        return f


def graded_mesh(x_max: float, dx_min: float, dx_max: float, ratio: float = 1.05):
    """Nodes on [0, x_max]: spacing grows geometrically from dx_min at the
    boundary to dx_max, then stays uniform; the last cell is clipped, and a
    remainder shorter than dx_min is merged into the cell before it, so no
    cell is shorter than dx_min.

    Raises ConfigError unless x_max, dx_min and dx_max are finite and
    positive and ratio is finite and at least 1: otherwise the cells stop
    growing and the node list never ends."""
    for name, value in (("x_max", x_max), ("dx_min", dx_min), ("dx_max", dx_max)):
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"graded_mesh {name} must be finite and positive, got {value!r}")
    if not (math.isfinite(ratio) and ratio >= 1):
        raise ConfigError(f"graded_mesh ratio must be finite and at least 1, got {ratio!r}")
    # cell k > 0 is min(dx_min ratio^k, dx_max), cell 0 is dx_min, and the
    # nodes are their running sum up to the first that reaches x_max:
    # products and sums in sequence, as a loop over the cells makes them.
    # At most x_max / dx_min cells are shorter than dx_max, and about
    # log(dx_max / dx_min) / log(ratio) of them grow; the count is doubled
    # until the nodes reach x_max
    count = math.ceil(x_max / dx_max) + 2
    if dx_min < dx_max:
        grow = math.log(dx_max / dx_min) / math.log(ratio) if ratio > 1 else math.inf
        count += math.ceil(min(grow, x_max / dx_min))
    while True:
        cells = np.full(count, ratio, dtype=float)
        cells[0] = dx_min
        with np.errstate(over="ignore"):  # a product past dx_max is clipped
            np.cumprod(cells, out=cells)
        np.minimum(cells, dx_max, out=cells)
        cells[0] = dx_min
        nodes = np.concatenate([[0.0], np.cumsum(cells)])
        if nodes[-1] >= x_max:
            break
        count *= 2
    xs = nodes[: np.searchsorted(nodes, x_max)]
    # the smallest cell sets the time step: a remainder short of dx_min by
    # more than round-off would shrink it below dx_min
    if xs.size > 1 and x_max - xs[-1] < dx_min * (1.0 - MESH_ROUNDOFF_REL):
        xs[-1] = x_max
        return xs
    return np.append(xs, x_max)


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


def _inflow_inverse(M: np.ndarray, message: str):
    """Inverse and condition number of an inflow boundary block M; raises
    BoundarySolveSingular when M is singular.  numpy's LAPACK inverts a
    block this small on the calling thread, leaving no OpenBLAS thread
    spinning against the single-threaded work that follows."""
    cond = full_rank_cond(M, BoundarySolveSingular(message), BOUNDARY_SINGULAR_REL)
    return np.linalg.inv(M), cond


def solve_relaxation(
    sys: RelaxationSystem,
    scenario: Scenario,
    eps: float,
    dx_max: float = 1e-3,
) -> SimResult:
    """First-order characteristic upwind + Lie splitting for

        U_t + A1 U_x = Q U / eps,  B U(0, t) = b(t).

    The mesh is graded with dx_min = eps / 4 so the eps-layer is represented.
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
    Courant number rho 2^K dt / c on the bulk cell c.
    """
    n = sys.n
    speeds = split_speeds(sys)[0]
    lam, R, pos, neg = speeds.w, speeds.V, speeds.pos, speeds.neg
    rest = np.concatenate([neg, speeds.zero])

    # the boundary cell scales with eps so the eps-layer is always represented
    # with the same number of cells per decay length
    dx_min = eps / 4.0
    x = graded_mesh(scenario.x_max, dx_min, max(dx_max, dx_min))
    dx = np.diff(x)
    rho = np.abs(lam).max()
    if not (pos.size or neg.size):
        raise CflViolation("A1 has no nonzero characteristic speed")
    level, h = time_levels(dx)
    cycle = 2 ** int(level.max())
    steps = max(int(math.ceil(scenario.T / (CFL * h / rho))), 1)
    steps = -(-steps // cycle) * cycle
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

    sources = [expm(sys.S * (dt * 2**k) / eps) for k in range(level.max() + 1)]
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

    U = np.empty((x.size, n))
    U[:, : n - sys.r] = np.atleast_2d(scenario.u0(x).T).T
    if scenario.v0 is not None:
        U[:, n - sys.r :] = np.atleast_2d(scenario.v0(x).T).T
    else:
        U[:, n - sys.r :] = 0.0

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
    # the state alternates between two buffers; a pass is the product from
    # one into the other, the head chi[:g] it starts from and the forced
    # rows chi[:nf] it ends in, bound once, so a cycle slices nothing
    a = (U @ R).ravel()
    b = np.empty_like(a)
    passes = itertools.cycle(
        [(csr_product(C, a, b), a[:g], b[:nf]), (csr_product(C, b, a), b[:g], a[:nf])]
    )
    # a block of cycles at a time holds its forcing H beta and its inputs
    # (chi[:g] at the cycle start, beta) to the traces G (head, beta);
    # einsum, not BLAS, whose threads would spin against the loop
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
    chi = (a, b)[cycles % 2]
    return SimResult(
        x=x, U=chi.reshape(x.size, n) @ R.T, t_final=scenario.T, steps=steps,
        dt=dt, eps=eps, boundary_times=times, boundary_values=trace,
        boundary_cond=boundary_cond, node_steps=node_steps, cycles=cycles,
    )


def solve_equilibrium(
    sys: RelaxationSystem,
    eq: EquilibriumFrame,
    rbc: ReducedBC,
    scenario: Scenario,
    rhs=None,
    dx: float = 1e-3,
) -> SimResult:
    """Method-of-characteristics solution at t = T of the equilibrium system
    ubar_t + A11 ubar_x = 0 with the reduced boundary condition
    C ubar(0, t) = B_o b(t), C = B_o B_u.

    In the eigenbasis of the equilibrium frame, A11 = W diag(lam) W^T with
    W = (P1 P0) and lam = (Lam1, 0), each mode chi_k is transported exactly,
    with no time stepping:

    - zero-speed modes keep their initial data;
    - lam < 0 modes read initial data at min(x + |lam| T, x_max), the
      constant state a zero-gradient outflow holds at x_max;
    - lam > 0 modes read initial data at x - lam T where x >= lam T, and
      elsewhere the inflow value g(T - x / lam), where
      g(s) = (C W_+)^{-1} (rhs(s) - C W_rest chi_rest(0, s)).

    ``dx`` spaces the nodes where the solution is sampled.  The boundary
    trace ubar(0, t), for the layer closure, is sampled every
    dt = T / ceil(T / (CFL dx / rho(A11))); the inflow values between the
    samples are read from it by linear interpolation, as the closure reads
    it.  ``rhs`` overrides the boundary right-hand side t -> B_o b(t), which
    maps an array of N times to (N, n1_+); it is used by the naive-closure
    negative control.
    """
    n1 = sys.n - sys.r
    W = np.hstack([eq.P1, eq.P0])
    lam = np.concatenate([eq.Lam1, np.zeros(eq.n10)])
    pos = np.flatnonzero(lam > 0)
    rest = np.flatnonzero(lam <= 0)

    T, x_max = scenario.T, scenario.x_max
    x = np.arange(0.0, x_max + dx / 2, dx)
    rho = np.abs(lam).max(initial=0.0)
    steps = max(int(math.ceil(T / (CFL * dx / rho))), 1) if rho > 0 else 100
    dt = T / steps
    times = np.arange(steps + 1) * dt

    def initial_mode(k, points):
        u = np.atleast_2d(scenario.u0(points).T).T
        return u @ W[:, k]

    # chi(0, t) at the trace times: outgoing and zero-speed modes carry
    # initial data, the incoming ones solve the reduced condition
    chi0 = np.empty((times.size, n1))
    for k in rest:
        chi0[:, k] = initial_mode(k, np.minimum(-lam[k] * times, x_max))
    boundary_cond = None
    if pos.size:
        coeff = rbc.coefficient
        CWp_inv, boundary_cond = _inflow_inverse(
            coeff @ W[:, pos],
            "reduced boundary condition is singular on incoming modes",
        )
        if rhs is None:
            rhs = lambda t: scenario.b(t) @ rbc.B_o.T
        r = rhs(times).T - (coeff @ W[:, rest]) @ chi0[:, rest].T
        chi0[:, pos] = np.einsum("ij,jt->ti", CWp_inv, r)

    chi = np.empty((x.size, n1))
    for k in range(n1):
        foot = np.minimum(x - lam[k] * T, x_max)
        chi[:, k] = initial_mode(k, np.maximum(foot, 0.0))
    for k in pos:
        inflow = x < lam[k] * T
        chi[inflow, k] = np.interp(T - x[inflow] / lam[k], times, chi0[:, k])
    return SimResult(
        x=x, U=chi @ W.T, t_final=T, steps=steps, dt=dt,
        boundary_times=times, boundary_values=chi0 @ W.T,
        boundary_cond=boundary_cond,
    )


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
        opt = lambda v: None if v is None else float(v)
        opt_list = lambda v: None if v is None else [float(e) for e in v]
        return {
            "eps": [float(e) for e in self.eps],
            "errors": [float(e) for e in self.errors],
            "slope": opt(self.slope),
            "fit_residual": opt(self.fit_residual),
            "outer_errors": opt_list(self.outer_errors),
            "outer_slope": opt(self.outer_slope),
            "control_applicable": bool(self.control_applicable),
            "control_errors": opt_list(self.control_errors),
            "control_slope": opt(self.control_slope),
            "degenerate": bool(self.degenerate),
            "details": self.details,
        }


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


@dataclass
class FinalTimeLayers:
    """The eps-independent parts of the composite expansion at t = T for one
    equilibrium solution: the outer solution ubar on its nodes x, the
    eps-layer with its closure amplitude w_s(T), and the sqrt(eps)-layer
    with its second correction (None without zero-speed equilibrium modes)."""

    x: np.ndarray
    ubar: np.ndarray
    eps_layer: EpsLayer
    w_s: np.ndarray
    sqrt_layer: SqrtEpsLayer | None
    second: SecondCorrection | None

    def outer_on(self, x: np.ndarray) -> np.ndarray:
        """The outer solution sampled on ``x``, shape (len(x), n - r)."""
        return np.column_stack(
            [np.interp(x, self.x, u) for u in self.ubar.T]
        )


def layers_at_final_time(
    sys: RelaxationSystem,
    eq: EquilibriumFrame,
    closure: ClosureSolve,
    scenario: Scenario,
    equil: SimResult,
    eps_layer: EpsLayer,
) -> FinalTimeLayers:
    """Solve the layers of the composite expansion that do not depend on eps,
    once per equilibrium solution ``equil``.  The sqrt(eps)-layer takes its
    boundary data at all of its sample times from one closure solve."""
    n10 = compute_indices(sys).n10
    ubar0 = equil.boundary_interp()

    def layer_data(ts):
        mu, _ = solve_closure(closure, sys, scenario.b(ts).T, ubar0(ts), n10)
        return mu.T

    sqrt_layer = second = None
    if n10 > 0:
        sqrt_layer = solve_sqrt_eps_layer(sys, eq, layer_data, scenario.T)
        second = build_second_correction(sys, eq, sqrt_layer)
    _, w_s = solve_closure(
        closure, sys, scenario.b(scenario.T), ubar0(scenario.T), n10
    )
    return FinalTimeLayers(
        x=equil.x, ubar=equil.U, eps_layer=eps_layer, w_s=w_s,
        sqrt_layer=sqrt_layer, second=second,
    )


def composite_at_final_time(
    sys: RelaxationSystem, layers: FinalTimeLayers, x: np.ndarray, eps: float
) -> np.ndarray:
    """Evaluate the composite expansion at t = T on the mesh ``x``."""
    return assemble_composite(
        sys, x, layers.outer_on(x), eps,
        eps_layer=layers.eps_layer, w_s=layers.w_s,
        sqrt_layer=layers.sqrt_layer, second=layers.second,
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
) -> ConvergenceStudy:
    """Measure ||U^eps - U_eps||_{L2} at t = T for each eps and fit the decay
    slope, and repeat it against the naive-closure equilibrium solution as a
    negative control (its error should plateau) whenever the control is
    applicable (``control_applicable``).  Raises ConfigError, before any
    run, unless ``eps_list`` holds two distinct values.

    ``dx_max`` is the largest cell of the stiff solver's graded mesh;
    ``equilibrium_dx`` spaces the nodes where the closed-form equilibrium
    solution is sampled (see ``solve_equilibrium``).

    ``scenario.u0``/``scenario.v0`` describe the outer initial data.  The
    stiff runs start from well-prepared data that already carry the eps-layer
    at its t = 0 amplitude, so the measured gap is the expansion error rather
    than an initial-relaxation transient.

    The runs at different eps are independent: each (well-prepared data,
    ``solve_relaxation``, composites, errors) is one item of
    ``pool.thread_map``, one thread per CPU in the affinity mask, the
    smallest eps submitted first.  The sparse product of the stiff loop
    releases the GIL.  Results are gathered in eps order, so the study is
    the same, bit for bit, on any number of CPUs, and when several runs
    raise, the first in eps order does.  With ``RELAXBC_LOG=debug`` the study
    logs one line after gathering: the thread count, then each eps with its
    wall time, node-steps and cycles; the per-run lines of
    ``solve_relaxation``, written from the worker threads, may interleave.
    """
    check_epsilons(eps_list)
    idx = compute_indices(sys)
    layer0 = build_eps_layer(sys, frame, data)

    def layers_for(rhs):
        equil = solve_equilibrium(
            sys, eq, rbc, scenario, rhs=rhs, dx=equilibrium_dx
        )
        return layers_at_final_time(sys, eq, closure, scenario, equil, layer0)

    layers = layers_for(None)
    applicable = control_applicable(sys, rbc)
    control = layers_for(naive_rhs(sys, rbc, scenario)) if applicable else None

    u0_at_0 = np.atleast_1d(np.asarray(scenario.u0(np.zeros(1))).ravel())
    _, w_s0 = solve_closure(
        closure, sys, scenario.b(0.0), u0_at_0, idx.n10
    )

    n1 = sys.n - sys.r

    def at(eps):
        """The stiff run at eps from its well-prepared data, and its errors:
        ``(per_eps entry, wall seconds, cycles)``."""
        start = time.perf_counter()
        stiff_scenario = scenario
        if np.size(w_s0):
            def u0_eps(x):
                base = np.atleast_2d(scenario.u0(x).T).T
                return base + layer0.evaluate(x / eps, w_s0)[:, :n1]
            def v0_eps(x):
                if scenario.v0 is not None:
                    base = np.atleast_2d(scenario.v0(x).T).T
                else:
                    base = np.zeros((np.size(x), sys.r))
                return base + layer0.evaluate(x / eps, w_s0)[:, n1:]
            stiff_scenario = Scenario(
                b=scenario.b, u0=u0_eps, v0=v0_eps,
                T=scenario.T, x_max=scenario.x_max,
            )
        stiff = solve_relaxation(sys, stiff_scenario, eps, dx_max=dx_max)
        comp = composite_at_final_time(sys, layers, stiff.x, eps)
        # against the bare outer solution (ubar; 0): same rate away from the
        # boundary layers, slower globally
        outer = np.zeros_like(stiff.U)
        outer[:, :n1] = layers.outer_on(stiff.x)
        entry = {
            "eps": float(eps),
            "error": float(measure_error(stiff, comp)),
            "outer_error": float(measure_error(stiff, outer)),
            "steps": stiff.steps,
            "nodes": int(stiff.x.size),
            "node_steps": stiff.node_steps,
        }
        if control is not None:
            ctrl = composite_at_final_time(sys, control, stiff.x, eps)
            entry["control_error"] = float(l2_error(stiff.x, stiff.U, ctrl))
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
    if control is not None:
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
    "FinalTimeLayers",
    "graded_mesh",
    "l2_error",
    "measure_error",
    "solve_relaxation",
    "solve_equilibrium",
    "layers_at_final_time",
    "composite_at_final_time",
    "naive_rhs",
    "control_applicable",
    "check_epsilons",
    "run_convergence_study",
]
