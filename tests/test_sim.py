"""Half-line simulation: graded mesh, stiff and equilibrium solvers, error
measurement, and the convergence study."""

import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp

from relaxbc import fixtures, sim, stepping
from relaxbc.errors import ConfigError, GridMismatch, UnresolvedLayerWarning
from relaxbc.model import RelaxationSystem
from relaxbc.reduction import derive_all
from relaxbc.sim import (
    Scenario,
    SimResult,
    control_applicable,
    graded_mesh,
    l2_error,
    measure_error,
    naive_rhs,
    run_convergence_study,
    solve_equilibrium,
    solve_relaxation,
)
from relaxbc.tolerances import tau_eig


def _bump(x, center=1.0, width=0.05):
    return np.exp(-((np.asarray(x, dtype=float) - center) ** 2) / width)


# ---------------------------------------------------------------------------
# reference implementations: the per-step loops the package used before the
# sparse stiff step, the local-time-stepping cycle map and the closed-form
# equilibrium solution


def _split(a):
    lam, R = np.linalg.eigh(a)
    tol = tau_eig(max(np.abs(lam).max(initial=0.0), 1.0))
    pos = np.where(lam > tol)[0]
    neg = np.where(lam < -tol)[0]
    zer = np.where(np.abs(lam) <= tol)[0]
    return lam, R, pos, neg, np.concatenate([neg, zer])


def _upwind_step(chi, lam, pos, neg, dxm, dxp, dt):
    new = chi.copy()
    if pos.size:
        grad = (chi[1:, pos] - chi[:-1, pos]) / dxm[:, None]
        new[1:, pos] -= dt * lam[pos][None, :] * grad
    if neg.size:
        grad = (chi[1:, neg] - chi[:-1, neg]) / dxp[:, None]
        new[:-1, neg] -= dt * lam[neg][None, :] * grad
    return new


def _stiff_loop(sys_obj, scenario, eps, dx_max, ratio=1.05, cfl=0.9):
    """Upwind + Lie splitting, one dense update per step: (x, U, trace)."""
    n, r = sys_obj.n, sys_obj.r
    lam, R, pos, neg, rest = _split(sys_obj.A1)
    x = graded_mesh(scenario.x_max, eps / 4.0, max(dx_max, eps / 4.0), ratio)
    dxm = np.diff(x)
    steps = max(int(math.ceil(scenario.T / (cfl * dxm.min() / np.abs(lam).max()))), 1)
    dt = scenario.T / steps
    BRp_lu = sla.lu_factor(sys_obj.B @ R[:, pos])
    B_Rrest = sys_obj.B @ R[:, rest]
    E = sla.expm(sys_obj.S * dt / eps)
    U = np.zeros((x.size, n))
    U[:, : n - r] = np.atleast_2d(scenario.u0(x).T).T
    if scenario.v0 is not None:
        U[:, n - r :] = np.atleast_2d(scenario.v0(x).T).T
    trace = [U[0].copy()]
    for step in range(steps):
        chi = _upwind_step(U @ R, lam, pos, neg, dxm, dxm, dt)
        if neg.size:
            chi[-1, neg] = chi[-2, neg]
        U = chi @ R.T
        U[:, n - r :] = U[:, n - r :] @ E.T
        chi0 = U[0] @ R
        rhs = scenario.b((step + 1) * dt) - B_Rrest @ chi0[rest]
        chi0[pos] = sla.lu_solve(BRp_lu, rhs)
        U[0] = chi0 @ R.T
        trace.append(U[0].copy())
    return x, U, np.array(trace)


def _global_dt_relaxation(sys_obj, scenario, eps, dx_max=1e-3, ratio=1.05, cfl=0.9):
    """Reference stiff solver with one global time step: every node steps by
    the dt of the smallest cell, through the package's step matrix on one
    time level."""
    n, r = sys_obj.n, sys_obj.r
    lam, R, pos, neg, rest = _split(sys_obj.A1)
    x = graded_mesh(scenario.x_max, eps / 4.0, max(dx_max, eps / 4.0), ratio)
    dx = np.diff(x)
    steps = max(int(math.ceil(scenario.T / (cfl * dx.min() / np.abs(lam).max()))), 1)
    dt = scenario.T / steps
    step_op = stepping.step_operator(
        lam, R, pos, neg, dx, np.full(x.size, dt), np.zeros(x.size, dtype=int),
        [sla.expm(sys_obj.S * dt / eps)], r,
    )
    BRp_lu = sla.lu_factor(sys_obj.B @ R[:, pos])
    B_Rrest = sys_obj.B @ R[:, rest]
    U = np.zeros((x.size, n))
    U[:, : n - r] = np.atleast_2d(scenario.u0(x).T).T
    if scenario.v0 is not None:
        U[:, n - r :] = np.atleast_2d(scenario.v0(x).T).T
    chi = (U @ R).ravel()
    times = np.arange(steps + 1) * dt
    b = scenario.b(times[1:])
    trace = np.empty((steps + 1, n))
    trace[0] = U[0]
    for step in range(steps):
        chi = step_op @ chi
        chi0 = chi[:n]
        chi0[pos] = sla.lu_solve(BRp_lu, b[step] - B_Rrest @ chi0[rest])
        trace[step + 1] = R @ chi0
    return SimResult(
        x=x, U=chi.reshape(x.size, n) @ R.T, t_final=scenario.T, steps=steps,
        dt=dt, eps=eps, boundary_times=times, boundary_values=trace,
        node_steps=steps * x.size,
    )


def _level_blocks(step_op, level, n):
    """For each level v, the rows of the nodes at level <= v as CSR views of
    ``step_op``, one (first entry, end entry, matrix) per contiguous run of
    nodes; the views share the data and column indices of ``step_op``."""
    blocks = []
    for v in range(int(level.max()) + 1):
        active = np.concatenate([[False], level <= v, [False]])
        edges = np.flatnonzero(np.diff(active.astype(np.int8)))
        runs = []
        for lo, hi in (edges.reshape(-1, 2) * n).tolist():
            a, b = step_op.indptr[lo], step_op.indptr[hi]
            view = sp.csr_matrix(
                (step_op.data[a:b], step_op.indices[a:b],
                 step_op.indptr[lo : hi + 1] - a),
                shape=(hi - lo, step_op.shape[1]),
            )
            view.data, view.indices = step_op.data[a:b], step_op.indices[a:b]
            runs.append((lo, hi, view))
        blocks.append(runs)
    return blocks


def _per_substep_relaxation(sys_obj, scenario, eps, dx_max=1e-3, ratio=1.05, cfl=0.9):
    """Reference local-time-stepping solver, one finest step per iteration:
    at finest step m the nodes of level <= v_2(m) advance through row views
    of the package's step matrix, then the inflow solve and the boundary
    trace run."""
    n, r = sys_obj.n, sys_obj.r
    lam, R, pos, neg, rest = _split(sys_obj.A1)
    x = graded_mesh(scenario.x_max, eps / 4.0, max(dx_max, eps / 4.0), ratio)
    dx = np.diff(x)
    level = stepping.time_levels(dx)
    top = 2 ** int(level.max())
    steps = max(int(math.ceil(scenario.T / (cfl * dx.min() / np.abs(lam).max()))), 1)
    steps = -(-steps // top) * top
    dt = scenario.T / steps
    sources = [sla.expm(sys_obj.S * (dt * 2**k) / eps) for k in range(level.max() + 1)]
    step_op = stepping.step_operator(
        lam, R, pos, neg, dx, dt * 2.0**level, level, sources, r
    )
    blocks = _level_blocks(step_op, level, n)
    BRp_lu = sla.lu_factor(sys_obj.B @ R[:, pos])
    B_Rrest = sys_obj.B @ R[:, rest]
    U = np.zeros((x.size, n))
    U[:, : n - r] = np.atleast_2d(scenario.u0(x).T).T
    if scenario.v0 is not None:
        U[:, n - r :] = np.atleast_2d(scenario.v0(x).T).T
    chi = (U @ R).ravel()
    times = np.arange(steps + 1) * dt
    b = scenario.b(times[1:])
    trace = np.empty((steps + 1, n))
    trace[0] = U[0]
    for step in range(steps):
        # the lowest set bit of step | 2^K is bit min(v_2(step), K); runs of
        # one level are at least one idle node apart, so updating run by run
        # is the same as updating them all from one state
        m = step | top
        for lo, hi, op in blocks[(m & -m).bit_length() - 1]:
            chi[lo:hi] = op @ chi
        chi0 = chi[:n]
        chi0[pos] = sla.lu_solve(BRp_lu, b[step] - B_Rrest @ chi0[rest])
        trace[step + 1] = R @ chi[:n]
    return SimResult(
        x=x, U=chi.reshape(x.size, n) @ R.T, t_final=scenario.T, steps=steps,
        dt=dt, eps=eps, boundary_times=times, boundary_values=trace,
        node_steps=int(np.sum(steps >> level)),
    )


def _upwind_equilibrium(pipe, scenario, dx, cfl=0.9):
    """Upwind time stepping of ubar_t + A11 ubar_x = 0 with the reduced
    boundary condition: (x, ubar(., T))."""
    lam, W, pos, neg, rest = _split(pipe.sys.A11)
    x = np.arange(0.0, scenario.x_max + dx / 2, dx)
    dxm = np.diff(x)
    steps = max(int(math.ceil(scenario.T / (cfl * dx / np.abs(lam).max()))), 1)
    dt = scenario.T / steps
    coeff = pipe.rbc.coefficient
    CWp_lu = sla.lu_factor(coeff @ W[:, pos])
    C_rest = coeff @ W[:, rest]
    u = np.atleast_2d(scenario.u0(x).T).T.copy()
    for step in range(steps):
        chi = _upwind_step(u @ W, lam, pos, neg, dxm, dxm, dt)
        if neg.size:
            chi[-1, neg] = chi[-2, neg]
        rhs = pipe.rbc.B_o @ scenario.b((step + 1) * dt)
        chi[0, pos] = sla.lu_solve(CWp_lu, rhs - C_rest @ chi[0, rest])
        u = chi @ W.T
    return x, u


def _rel_l2(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def _distance(res, other):
    """L2 distance on the mesh of ``res`` to ``other`` interpolated onto it."""
    on_mesh = np.column_stack(
        [np.interp(res.x, other.x, u) for u in other.U.T]
    )
    return l2_error(res.x, res.U, on_mesh)


def _neg_mode_pipe():
    """A11 = diag(1, -1): one incoming and one outgoing equilibrium mode; the
    reduced condition u1(0) + 0.3 u2(0) = b couples the outgoing one into
    the inflow."""
    A1 = np.array([[1.0, 0.0, 1.0], [0.0, -1.0, 0.5], [1.0, 0.5, 0.0]])
    sys_obj = RelaxationSystem(
        d=1, n=3, r=1, A=(A1,), Q=np.diag([0.0, 0.0, -1.0]),
        B=np.array([[1.0, 0.3, 0.2]]),
    )
    return derive_all(sys_obj)


class TestGradedMesh:
    def test_endpoints_and_first_cell(self):
        x = graded_mesh(2.0, 1e-3, 1e-2)
        assert x[0] == 0.0
        assert x[-1] == 2.0
        assert x[1] - x[0] == pytest.approx(1e-3)

    def test_spacing_grows_then_saturates(self):
        x = graded_mesh(2.0, 1e-3, 1e-2, ratio=1.05)
        dx = np.diff(x)
        assert np.all(dx[:-1] >= dx[0] * (1 - 1e-12))
        assert dx.max() <= 1.5e-2  # dx_max up to the clipped final cell
        # the tail is uniform at dx_max, except possibly the clipped last cell
        np.testing.assert_allclose(dx[len(dx) // 2 : -1], dx.max(), rtol=1e-12)

    def test_uniform_when_limits_agree(self):
        x = graded_mesh(1.0, 1e-2, 1e-2)
        np.testing.assert_allclose(np.diff(x), 1e-2, rtol=1e-10)

    @pytest.mark.parametrize("name, args", [
        ("ratio", (2.0, 1e-3, 1e-2, 0.9)),
        ("dx_min", (2.0, 0.0, 1e-2)),
        ("dx_min", (2.0, -1e-3, 1e-2)),
        ("dx_max", (2.0, 1e-3, 0.0)),
        ("x_max", (math.inf, 1e-3, 1e-2)),
        ("ratio", (2.0, 1e-3, 1e-2, math.nan)),
    ])
    def test_args_that_never_end_the_mesh_are_refused(self, name, args):
        with pytest.raises(ConfigError, match=name):
            graded_mesh(*args)

    def test_zero_eps_is_refused(self, pipe2x2):
        with pytest.raises(ConfigError, match="dx_min"):
            solve_relaxation(pipe2x2.sys, fixtures.example_scenario(), 0.0)

    def test_short_remainder_does_not_set_dt(self, pipe2x2):
        # eps = 3e-3 on [0, 2]: cells of dx_min = 7.5e-4 leave a remainder of
        # 0.67 dx_min, which is merged, so dx_min sets the time step
        eps, T = 3e-3, 0.05
        dx_min = eps / 4.0
        assert np.diff(graded_mesh(2.0, dx_min, dx_min)).min() >= dx_min * (1 - 1e-9)
        scen = fixtures.example_scenario(T=T)
        res = solve_relaxation(pipe2x2.sys, scen, eps, dx_max=5e-4)
        rho = max(abs(np.linalg.eigvalsh(pipe2x2.sys.A1)))
        assert res.steps == math.ceil(T / (0.9 * dx_min / rho))


class TestMeasureError:
    def test_zero_on_identical_states(self):
        x = np.linspace(0.0, 1.0, 11)
        U = np.random.default_rng(0).normal(size=(11, 2))
        res = SimResult(x=x, U=U, t_final=1.0, steps=1, dt=1.0)
        assert measure_error(res, U.copy()) == 0.0

    def test_constant_offset_quadrature(self):
        # trapezoid rule integrates a constant exactly: a shift by c in one
        # component over [0, 1] has L2 distance |c|
        x = np.linspace(0.0, 1.0, 17)
        U = np.zeros((17, 2))
        V = U.copy()
        V[:, 1] = 0.3
        res = SimResult(x=x, U=U, t_final=1.0, steps=1, dt=1.0)
        assert measure_error(res, V) == pytest.approx(0.3, abs=1e-14)

    def test_shape_mismatch_raises(self):
        x = np.linspace(0.0, 1.0, 5)
        res = SimResult(
            x=x, U=np.zeros((5, 2)), t_final=1.0, steps=1, dt=1.0
        )
        with pytest.raises(GridMismatch, match="shape"):
            measure_error(res, np.zeros((6, 2)))


class TestSolveRelaxation:
    def test_zero_data_stays_zero(self, pipe2x2):
        scen = Scenario(
            b=lambda t: np.zeros(np.shape(t) + (2,)),
            u0=lambda x: np.zeros((np.size(x), 1)),
            T=0.3,
            x_max=2.0,
        )
        res = solve_relaxation(pipe2x2.sys, scen, eps=1e-2, dx_max=2e-3)
        assert np.abs(res.U).max() == 0.0

    def test_boundary_condition_exact_at_final_time(self, pipe2x2):
        scen = fixtures.example_scenario(T=0.3)
        res = solve_relaxation(pipe2x2.sys, scen, eps=1e-2, dx_max=2e-3)
        np.testing.assert_allclose(
            pipe2x2.sys.B @ res.U[0],
            [math.sin(0.3), math.cos(0.3)],
            atol=1e-12,
        )
        assert res.boundary_times[-1] == pytest.approx(0.3)
        np.testing.assert_allclose(res.boundary_values[-1], res.U[0])

    def test_cfl_respected(self, pipe2x2):
        scen = fixtures.example_scenario(T=0.3)
        eps = 1e-2
        res = solve_relaxation(pipe2x2.sys, scen, eps, dx_max=2e-3, cfl=0.9)
        rho = max(abs(np.linalg.eigvalsh(pipe2x2.sys.A1)))
        assert res.dt <= 0.9 * (eps / 4.0) / rho + 1e-15

    def test_warns_when_truncation_boundary_reachable(self, pipe2x2):
        scen = fixtures.example_scenario(T=0.6, x_max=2.0)
        with pytest.warns(UnresolvedLayerWarning, match="reflections"):
            solve_relaxation(pipe2x2.sys, scen, eps=1e-2, dx_max=5e-3)

    def test_warns_when_layer_underresolved(self, pipe2x2):
        scen = fixtures.example_scenario(T=0.1)
        with pytest.warns(UnresolvedLayerWarning, match="eps-layer"):
            # ratio 2 leaves fewer than 4 cells inside the layer width
            solve_relaxation(
                pipe2x2.sys, scen, eps=1e-2, dx_max=5e-3, ratio=2.0
            )

    def test_energy_decays_with_homogeneous_boundary(self, pipe2x2):
        scen = Scenario(
            b=lambda t: np.zeros(np.shape(t) + (2,)),
            u0=lambda x: _bump(x)[:, None],
            T=0.4,
            x_max=2.0,
        )
        res = solve_relaxation(pipe2x2.sys, scen, eps=1e-2, dx_max=2e-3)
        U0 = np.column_stack([_bump(res.x), np.zeros(res.x.size)])
        zero = np.zeros_like(res.U)
        assert l2_error(res.x, res.U, zero) < l2_error(res.x, U0, zero)


class TestSparseStepOracle:
    """The one-matrix stiff step with one global dt against the dense
    per-step loop, and the local time steps against that global-dt oracle."""

    @pytest.mark.parametrize("eps, T", [(1e-2, 0.3), (3e-4, 0.03)])
    @pytest.mark.parametrize("which", ["2x2", "3x3"])
    def test_matches_per_step_loop(self, which, eps, T, pipe2x2, sys3):
        if which == "2x2":
            sys_obj = pipe2x2.sys
            scen = fixtures.example_scenario(T=T, x_max=1.2)
        else:  # outgoing characteristics: the x_max extrapolation matters
            sys_obj = sys3
            scen = fixtures.scenario_double_characteristic(sys3, T=T, x_max=1.2)
        res = solve_relaxation(sys_obj, scen, eps, dx_max=2e-3)
        ref = _global_dt_relaxation(sys_obj, scen, eps, dx_max=2e-3)
        x, U, trace = _stiff_loop(sys_obj, scen, eps, dx_max=2e-3)
        np.testing.assert_array_equal(res.x, x)
        np.testing.assert_array_equal(ref.x, x)
        assert ref.steps + 1 == len(trace)
        assert np.abs(U).max() > 1e-3
        assert _rel_l2(ref.U, U) <= 1e-12
        assert _rel_l2(ref.boundary_values, trace) <= 1e-12
        if eps == 1e-2:
            # dx_min = 2.5e-3 > dx_max: a uniform mesh, one time level
            assert res.node_steps == res.steps * res.x.size
            np.testing.assert_array_equal(res.U, ref.U)
            np.testing.assert_array_equal(res.boundary_values, ref.boundary_values)
        else:
            # graded from dx_min = 7.5e-5 to dx_max = 2e-3: levels 0 to 4
            assert 3 * res.node_steps <= ref.node_steps
            assert _rel_l2(res.U, ref.U) <= 3e-3


class TestCycleMapOracle:
    """One iteration per local-time-stepping cycle against the loop that
    takes one iteration per finest step."""

    @pytest.mark.parametrize("x_max, clipped", [(1.2, True), (1.2011, False)])
    @pytest.mark.parametrize("which", ["2x2", "3x3"])
    def test_matches_per_substep_loop(self, which, x_max, clipped, pipe2x2, sys3):
        eps, dx_max = 3e-4, 2e-3
        if which == "2x2":  # n_+ = n and B = I: the trace ignores the interior
            sys_obj = pipe2x2.sys
            scen = fixtures.example_scenario(T=0.03, x_max=x_max)
        else:  # outgoing and zero-speed modes
            sys_obj = sys3
            scen = fixtures.scenario_double_characteristic(sys3, T=0.03, x_max=x_max)
        level = stepping.time_levels(np.diff(graded_mesh(x_max, eps / 4.0, dx_max)))
        # levels 0 to 4, so 16-step cycles; a last cell clipped short puts
        # the outflow nodes below the top level
        assert level.min() == 0 and level.max() == 4
        assert (level[-2] < level.max()) == clipped
        res = solve_relaxation(sys_obj, scen, eps, dx_max=dx_max)
        ref = _per_substep_relaxation(sys_obj, scen, eps, dx_max=dx_max)
        np.testing.assert_array_equal(res.x, ref.x)
        np.testing.assert_array_equal(res.boundary_times, ref.boundary_times)
        assert (res.steps, res.node_steps) == (ref.steps, ref.node_steps)
        assert res.steps > 16 and np.abs(ref.U).max() > 1e-3
        assert _rel_l2(res.U, ref.U) <= 1e-12
        # every trace row, the inner finest steps of each cycle included
        err = np.linalg.norm(res.boundary_values - ref.boundary_values, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref.boundary_values, axis=1))

    def test_converge_mesh(self, sys3):
        # the converge default dx_max = 5e-4 at eps = 3e-4: levels 0 to 2
        scen = fixtures.scenario_double_characteristic(sys3, T=0.02, x_max=2.0)
        res = solve_relaxation(sys3, scen, 3e-4, dx_max=5e-4)
        ref = _per_substep_relaxation(sys3, scen, 3e-4, dx_max=5e-4)
        assert _rel_l2(res.U, ref.U) <= 1e-12
        err = np.linalg.norm(res.boundary_values - ref.boundary_values, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref.boundary_values, axis=1))

    def test_debug_line_reports_cycles_and_nnz(self, pipe2x2, caplog):
        caplog.set_level(logging.DEBUG, logger="relaxbc.sim")
        scen = fixtures.example_scenario(T=0.03, x_max=1.2)
        res = solve_relaxation(pipe2x2.sys, scen, 3e-4, dx_max=2e-3)
        line = next(
            r.getMessage() for r in caplog.records if r.getMessage().startswith("eps 0.0003: ")
        )
        m = re.search(r"(\d+) cycles, cycle map nnz (\d+) \(step matrix (\d+)\)", line)
        assert m, line
        cycles, cycle_nnz, step_nnz = map(int, m.groups())
        assert cycles * 16 == res.steps
        # the rows below the top level hold products of the step rows
        assert step_nnz < cycle_nnz < 2 * step_nnz


class TestSolveEquilibrium:
    def test_matches_method_of_characteristics(self, pipe2x2):
        # ubar_t + 3 ubar_x = 0 with ubar(0, t) = g(t) + h(t)/3: the exact
        # solution transports the boundary trace along x = 3t
        scen = fixtures.example_scenario()
        res = solve_equilibrium(
            pipe2x2.sys, pipe2x2.eq, pipe2x2.rbc, scen, dx=2e-3
        )
        x, T = res.x, scen.T
        u0 = np.atleast_2d(scen.u0(x).T).T.ravel()
        inflow = np.sin(T - x / 3.0) + np.cos(T - x / 3.0) / 3.0
        exact = np.where(x < 3.0 * T, inflow, np.interp(x - 3.0 * T, x, u0))
        assert l2_error(x, res.U, exact[:, None]) < 5e-4

    def test_boundary_trace_satisfies_reduced_bc(self, pipe2x2):
        scen = fixtures.example_scenario(T=0.3)
        res = solve_equilibrium(
            pipe2x2.sys, pipe2x2.eq, pipe2x2.rbc, scen, dx=2e-3
        )
        want = math.sin(0.3) + math.cos(0.3) / 3.0
        assert res.U[0, 0] == pytest.approx(want, abs=1e-12)

    def test_zero_speed_mode_stays_at_initial_data(self):
        # A11 = diag(2, 0): the second equilibrium component has zero speed
        # and no boundary condition, so it must not move at all
        A1 = np.array([[2.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]])
        sys_obj = RelaxationSystem(
            d=1, n=3, r=1, A=(A1,), Q=np.diag([0.0, 0.0, -1.0]), B=np.eye(2, 3)
        )
        pipe = derive_all(sys_obj)
        scen = Scenario(
            b=lambda t: np.stack([np.sin(t), np.zeros_like(t)], axis=-1),
            u0=lambda x: np.column_stack(
                [np.zeros(np.size(x)), _bump(x)]
            ),
            T=0.4,
            x_max=2.0,
        )
        res = solve_equilibrium(sys_obj, pipe.eq, pipe.rbc, scen, dx=2e-3)
        np.testing.assert_allclose(res.U[:, 1], _bump(res.x), atol=1e-14)

    def test_closed_form_is_the_upwind_limit(self, pipe2x2):
        # first-order upwinding converges to the closed form: their distance
        # halves with the mesh width
        scen = fixtures.example_scenario()
        dist = []
        for dx in (4e-3, 2e-3, 1e-3):
            x, u = _upwind_equilibrium(pipe2x2, scen, dx)
            res = solve_equilibrium(
                pipe2x2.sys, pipe2x2.eq, pipe2x2.rbc, scen, dx=dx
            )
            np.testing.assert_array_equal(res.x, x)
            dist.append(l2_error(x, res.U, u))
        for coarse, fine in zip(dist, dist[1:]):
            assert 1.7 <= coarse / fine <= 2.3

    def test_outgoing_mode_clamp_and_inflow_coupling(self):
        pipe = _neg_mode_pipe()
        np.testing.assert_allclose(np.linalg.eigvalsh(pipe.sys.A11), [-1.0, 1.0])
        np.testing.assert_allclose(pipe.rbc.coefficient, [[1.0, 0.3]])
        T, x_max = 0.5, 1.0
        u2 = lambda x: 1.0 + np.sin(3.0 * np.asarray(x, dtype=float))
        scen = Scenario(
            b=lambda t: np.expand_dims(0.5 + np.sin(2.0 * t), -1),
            u0=lambda x: np.column_stack([_bump(x, 0.6), u2(x)]),
            T=T, x_max=x_max,
        )
        res = solve_equilibrium(pipe.sys, pipe.eq, pipe.rbc, scen, dx=1e-3)
        x = res.x
        # the outgoing mode u2 moves left at speed 1 and holds u2(x_max)
        # where its characteristic starts beyond x_max
        np.testing.assert_allclose(
            res.U[:, 1], u2(np.minimum(x + T, x_max)), rtol=0, atol=1e-14
        )
        # the boundary trace solves u1 + 0.3 u2 = B_o b at every sample,
        # with u2(0, t) = u2(t) carried in from the interior
        t = res.boundary_times
        rhs = np.array([pipe.rbc.B_o @ scen.b(s) for s in t])[:, 0]
        np.testing.assert_allclose(res.boundary_values[:, 1], u2(t), atol=1e-14)
        np.testing.assert_allclose(
            res.boundary_values @ pipe.rbc.coefficient[0], rhs, atol=1e-12
        )
        # the incoming mode u1 carries that trace into x < T and its initial
        # data beyond
        inflow = x < T
        s = T - x[inflow]
        want = np.array([pipe.rbc.B_o @ scen.b(v) for v in s])[:, 0] - 0.3 * u2(s)
        np.testing.assert_allclose(res.U[inflow, 0], want, atol=1e-6)
        np.testing.assert_allclose(
            res.U[~inflow, 0], _bump(x[~inflow] - T, 0.6), atol=1e-14
        )

    def test_naive_rhs_zeroes_relaxed_rows(self, pipe2x2):
        # for B = I the second row of b acts on v, so the naive closure
        # replaces B_o (g, h) by B_o (g, 0)
        scen = fixtures.example_scenario()
        f = naive_rhs(pipe2x2.sys, pipe2x2.rbc, scen)
        t = 0.7
        want = pipe2x2.rbc.B_o @ np.array([math.sin(t), 0.0])
        np.testing.assert_allclose(f(t), want, atol=1e-14)


class TestGridRefinement:
    def test_first_order_in_dx(self, pipe2x2):
        # the global-dt oracle against a reference at the same dx_min
        scen = fixtures.example_scenario()
        eps = 4e-3
        ref = _global_dt_relaxation(pipe2x2.sys, scen, eps, dx_max=5e-4)
        errs = []
        steps = (8e-3, 4e-3, 2e-3)
        for dxm in steps:
            res = _global_dt_relaxation(pipe2x2.sys, scen, eps, dx_max=dxm)
            errs.append(_distance(res, ref))
        slope = np.polyfit(np.log(steps), np.log(errs), 1)[0]
        assert 0.7 <= slope <= 1.3

    def test_local_steps_self_convergence(self, pipe2x2):
        # local time steps leave an error of about 3e-4 from the graded
        # region that does not depend on dx_max, so against the reference of
        # test_first_order_in_dx the fitted slope reads about 0.5; the
        # distances between successive meshes still halve with dx_max
        scen = fixtures.example_scenario()
        eps = 4e-3
        u8, u4, u2 = (
            solve_relaxation(pipe2x2.sys, scen, eps, dx_max=dxm)
            for dxm in (8e-3, 4e-3, 2e-3)
        )
        rate = math.log2(_distance(u8, u4) / _distance(u4, u2))
        assert 0.7 <= rate <= 1.3


class TestConvergenceStudy:
    def test_errors_decay_with_eps(self, pipe2x2):
        scen = fixtures.example_scenario()
        study = run_convergence_study(
            pipe2x2.sys, pipe2x2.frame, pipe2x2.eq, pipe2x2.data,
            pipe2x2.rbc, pipe2x2.closure, scen,
            eps_list=(1e-2, 3e-3),
            dx_max=2e-3, equilibrium_dx=1e-3, with_control=False,
        )
        assert study.errors[1] < study.errors[0]
        assert not study.degenerate
        assert len(study.details["per_eps"]) == 2
        entry = study.details["per_eps"][0]
        assert {"eps", "error", "outer_error", "steps", "nodes", "node_steps"} <= set(entry)

    def test_local_and_global_steps_approach_composite(self, pipe2x2, monkeypatch):
        # both stiff solvers' errors decay at the rate the 2x2 gate asks for
        scen = fixtures.example_scenario()

        def study():
            return run_convergence_study(
                pipe2x2.sys, pipe2x2.frame, pipe2x2.eq, pipe2x2.data,
                pipe2x2.rbc, pipe2x2.closure, scen,
                eps_list=(1e-2, 3e-3, 1e-3, 3e-4), with_control=False,
            )

        local = study()
        monkeypatch.setattr(sim, "solve_relaxation", _global_dt_relaxation)
        global_dt = study()
        for s in (local, global_dt):
            assert 0.45 <= s.slope <= 0.65
        work = [
            [e["node_steps"] for e in s.details["per_eps"]]
            for s in (local, global_dt)
        ]
        assert 3 * work[0][-1] <= work[1][-1]

    def test_one_sqrt_layer_solve_per_equilibrium_solution(
        self, pipe3, monkeypatch
    ):
        calls = {"equilibrium": 0, "sqrt_layer": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            sim, "solve_equilibrium",
            counted("equilibrium", sim.solve_equilibrium),
        )
        monkeypatch.setattr(
            sim, "solve_sqrt_eps_layer",
            counted("sqrt_layer", sim.solve_sqrt_eps_layer),
        )
        scen = fixtures.scenario_double_characteristic(pipe3.sys)
        study = run_convergence_study(
            pipe3.sys, pipe3.frame, pipe3.eq, pipe3.data,
            pipe3.rbc, pipe3.closure, scen,
            eps_list=(1e-2, 3e-3, 1e-3),
            dx_max=2e-3, equilibrium_dx=1e-3,
        )
        assert len(study.errors) == 3
        assert calls == {"equilibrium": 1, "sqrt_layer": 1}

    def test_vacuous_control_is_not_computed(self, pipe3):
        # n1_+ = 0: B_o has no rows, so the naive closure changes nothing
        assert pipe3.rbc.B_o.shape[0] == 0
        assert not control_applicable(pipe3.sys, pipe3.rbc)
        scen = fixtures.scenario_double_characteristic(pipe3.sys)
        study = run_convergence_study(
            pipe3.sys, pipe3.frame, pipe3.eq, pipe3.data,
            pipe3.rbc, pipe3.closure, scen,
            eps_list=(1e-2, 3e-3),
            dx_max=2e-3, equilibrium_dx=1e-3,
        )
        doc = study.to_dict()
        assert doc["control_applicable"] is False
        assert doc["control_errors"] is None and doc["control_slope"] is None
        assert all("control_error" not in e for e in doc["details"]["per_eps"])

    def test_control_applicable_when_b_rows_touch_v(self, pipe2x2):
        assert control_applicable(pipe2x2.sys, pipe2x2.rbc)
        # a boundary operator acting on u alone leaves the control vacuous
        pipe = derive_all(
            RelaxationSystem(
                d=1, n=3, r=1, A=_neg_mode_pipe().sys.A,
                Q=np.diag([0.0, 0.0, -1.0]), B=np.array([[1.0, 0.3, 0.0]]),
            )
        )
        assert pipe.rbc.B_o.shape[0] == 1
        assert not control_applicable(pipe.sys, pipe.rbc)

    def test_zero_data_is_degenerate(self, pipe2x2):
        scen = Scenario(
            b=lambda t: np.zeros(np.shape(t) + (2,)),
            u0=lambda x: np.zeros((np.size(x), 1)),
            T=0.2,
            x_max=1.0,
        )
        study = run_convergence_study(
            pipe2x2.sys, pipe2x2.frame, pipe2x2.eq, pipe2x2.data,
            pipe2x2.rbc, pipe2x2.closure, scen,
            eps_list=(1e-2, 3e-3),
            dx_max=2e-3, equilibrium_dx=1e-3, with_control=False,
        )
        assert study.degenerate
        assert study.slope is None
        assert study.to_dict()["slope"] is None
