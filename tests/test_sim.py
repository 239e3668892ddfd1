"""Half-line simulation: graded mesh, stiff and equilibrium solvers, error
measurement, and the convergence study."""

import logging
import math
import re

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import graded_mesh_loop, time_levels_from_smallest_cell
from relaxbc import fixtures, pool, sim, stepping
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
from relaxbc.tolerances import MESH_ROUNDOFF_REL, tau_eig


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
    trace run.  The levels and the base cell of the finest step come from
    ``stepping.time_levels``."""
    n, r = sys_obj.n, sys_obj.r
    lam, R, pos, neg, rest = _split(sys_obj.A1)
    x = graded_mesh(scenario.x_max, eps / 4.0, max(dx_max, eps / 4.0), ratio)
    dx = np.diff(x)
    level, h = stepping.time_levels(dx)
    top = 2 ** int(level.max())
    steps = max(int(math.ceil(scenario.T / (cfl * h / np.abs(lam).max()))), 1)
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

    @staticmethod
    def _same_bits(x, *args):
        want = graded_mesh_loop(*args)
        return x.dtype == want.dtype and x.tobytes() == want.tobytes()

    def test_matches_the_cell_loop_bit_for_bit(self, pipe2x2, pipe3):
        # every mesh of both converge fixtures' studies (the default ladder
        # and the dx_max of the benchmark) and of solve_relaxation's default
        for eps in (1e-2, 3e-3, 1e-3, 3e-4, 1e-4, 1e-5):
            for dx_max in (5e-4, 1e-3, 2e-3):
                args = (2.0, eps / 4.0, max(dx_max, eps / 4.0), 1.05)
                assert self._same_bits(graded_mesh(*args), *args), args
        for pipe, scen in (
            (pipe2x2, fixtures.example_scenario(T=0.5, x_max=2.0)),
            (pipe3, fixtures.scenario_double_characteristic(pipe3.sys)),
        ):
            res = solve_relaxation(pipe.sys, scen, 3e-4, dx_max=5e-4)
            args = (scen.x_max, 3e-4 / 4.0, 5e-4, 1.05)
            assert self._same_bits(res.x, *args)

    @pytest.mark.parametrize("args", [
        (1.0, 1e-2, 1e-2, 1.0),  # ratio 1: uniform
        (1.0, 1e-3, 1e-2, 1.0),  # ratio 1 below dx_max: dx_min throughout
        (0.5, 1e-3, 1e-2, 3.0),  # cells reach dx_max at once
        (1e-3, 1e-2, 1e-2, 1.05),  # x_max < dx_min: one cell
        (1e-3, 1e-2, 1e-1, 1.05),
        (2.0, 1e-2, 1e-3, 1.05),  # dx_min above dx_max
        (2.0, 1e-5, 1e-2, 1.0 + 1e-9),  # cells that barely grow
        (7.3, 1e-300, 1.0, 1e300),  # products past the float range
    ])
    def test_edge_cases_match_the_cell_loop(self, args):
        assert self._same_bits(graded_mesh(*args), *args)

    def test_remainder_at_the_round_off_limit(self):
        # uniform cells of 0.1: the merge threshold sits at dx_min (1 - 1e-9)
        # past the last node below x_max; x_max steps across it by ulps
        dx = 0.1
        base = graded_mesh_loop(1.0, dx, dx, 1.0)[-2]
        limit = base + dx * (1.0 - MESH_ROUNDOFF_REL)
        merged = set()
        x_max = limit
        for _ in range(6):
            x_max = np.nextafter(x_max, 0.0)
        for _ in range(12):
            args = (float(x_max), dx, dx, 1.0)
            x = graded_mesh(*args)
            assert self._same_bits(x, *args), args
            merged.add(x.size)
            x_max = np.nextafter(x_max, np.inf)
        assert len(merged) == 2  # both sides of the threshold were hit

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


class TestTimeLevels:
    """``stepping.time_levels`` counts the levels down from the bulk cell
    where that lowers the node-step rate; ``time_levels_from_smallest_cell``
    is the rule that counted them up from the smallest cell."""

    @staticmethod
    def _rate(level, h):
        return np.ldexp(1.0, -level).sum() / h

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        eps=st.floats(1e-4, 1e-1),
        dx_max=st.floats(1e-4, 1e-2),
        x_max=st.floats(1e-3, 2.0),
        ratio=st.floats(1.0, 1.5),
    )
    def test_every_node_meets_its_cfl_bound_at_no_higher_rate(self, eps, dx_max, x_max, ratio):
        dx = np.diff(graded_mesh(x_max, eps / 4.0, max(dx_max, eps / 4.0), ratio))
        level, h = stepping.time_levels(dx)
        assert level.min() >= 0 and h <= dx.min() * (1.0 + MESH_ROUNDOFF_REL)
        # rho 2^k_i dt / adjacent_i at the largest dt = 0.9 h / rho
        adjacent = np.minimum(np.append(dx, np.inf), np.insert(dx, 0, np.inf))
        courant = 0.9 * np.ldexp(h, level) / adjacent
        assert courant.max() <= 0.9 * (1.0 + MESH_ROUNDOFF_REL)
        parent = time_levels_from_smallest_cell(dx)
        assert self._rate(level, h) <= self._rate(parent, dx.min())

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(
        eps=st.floats(1e-4, 1e-1),
        doublings=st.integers(0, 6),
        ratio=st.just(1.0) | st.floats(1.02, 2.0),
        bulk=st.floats(2.0, 400.0),
    )
    def test_uniform_and_power_of_two_meshes_keep_the_smallest_cell(
        self, eps, doublings, ratio, bulk
    ):
        # cells graded from dx_min to dx_max = 2^doublings dx_min (or uniform
        # at dx_min when ratio is 1) cover less than dx_max / (ratio - 1), so
        # x_max leaves at least two bulk cells before the last one
        dx_min = eps / 4.0
        dx_max = math.ldexp(dx_min, doublings)
        grading = dx_max / (ratio - 1.0) if ratio > 1.0 else 0.0
        dx = np.diff(graded_mesh(grading + bulk * dx_max, dx_min, dx_max, ratio))
        bulk_cell = dx_max if ratio > 1.0 else dx_min
        assert dx[:-1].max() == pytest.approx(bulk_cell, rel=MESH_ROUNDOFF_REL)
        level, h = stepping.time_levels(dx)
        assert h == dx.min()
        np.testing.assert_array_equal(level, time_levels_from_smallest_cell(dx))

    @pytest.mark.parametrize("which", ["2x2", "3x3"])
    def test_power_of_two_fixture_runs_are_unchanged(self, which, pipe2x2, sys3, monkeypatch):
        # the converge dx_max 5e-4 at eps = 1e-2, 3e-3 (uniform) and 1e-3
        # (dx_max = 2 dx_min): the same levels, dt and state, bit for bit
        if which == "2x2":
            sys_obj, scen = pipe2x2.sys, fixtures.example_scenario(T=0.05)
        else:
            sys_obj = sys3
            scen = fixtures.scenario_double_characteristic(sys3, T=0.05)
        for eps in (1e-2, 3e-3, 1e-3):
            res = solve_relaxation(sys_obj, scen, eps, dx_max=5e-4)
            with monkeypatch.context() as m:
                m.setattr(sim, "time_levels",
                          lambda dx: (time_levels_from_smallest_cell(dx), dx.min()))
                ref = solve_relaxation(sys_obj, scen, eps, dx_max=5e-4)
            assert (res.steps, res.dt, res.node_steps) == (ref.steps, ref.dt, ref.node_steps)
            assert res.U.tobytes() == ref.U.tobytes()
            assert res.boundary_values.tobytes() == ref.boundary_values.tobytes()

    def test_bulk_cycle_does_not_depend_on_eps(self, pipe2x2):
        # the README 2x2 scenario at the converge dx_max 5e-4: the bulk cell
        # sets the cycle at eps = 3e-4 (levels 0 to 3; 6,323 cycles when the
        # smallest cell set dt) as at eps = 1e-3 (levels 0 and 1)
        scen = fixtures.example_scenario()
        runs = [solve_relaxation(pipe2x2.sys, scen, eps, dx_max=5e-4) for eps in (1e-3, 3e-4)]
        assert [r.cycles for r in runs] == [3794, 3794]
        assert [r.steps for r in runs] == [2 * 3794, 8 * 3794]


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
        res = solve_relaxation(pipe2x2.sys, scen, eps, dx_max=2e-3)
        rho = max(abs(np.linalg.eigvalsh(pipe2x2.sys.A1)))
        assert res.dt <= 0.9 * (eps / 4.0) / rho + 1e-15

    def test_warns_when_truncation_boundary_reachable(self, pipe2x2):
        scen = fixtures.example_scenario(T=0.6, x_max=2.0)
        with pytest.warns(UnresolvedLayerWarning, match="reflections"):
            solve_relaxation(pipe2x2.sys, scen, eps=1e-2, dx_max=5e-3)

    def test_warns_when_layer_underresolved(self, pipe2x2):
        # a domain two boundary cells long holds fewer than 4 cells inside
        # the layer width
        scen = fixtures.example_scenario(T=1e-3, x_max=5e-3)
        with pytest.warns(UnresolvedLayerWarning, match="eps-layer"):
            solve_relaxation(pipe2x2.sys, scen, eps=1e-2, dx_max=5e-3)

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
            # the cycle map folds the inflow solve into the step rows of
            # node 0, so it rounds differently from the oracle's lu_solve
            assert _rel_l2(res.U, ref.U) <= 1e-12
            err = np.linalg.norm(res.boundary_values - ref.boundary_values, axis=1)
            assert np.all(err <= 1e-12 * np.linalg.norm(ref.boundary_values, axis=1))
        else:
            # graded from dx_min = 7.5e-5 to dx_max = 2e-3: levels 0 to 5
            assert 3 * res.node_steps <= ref.node_steps
            assert _rel_l2(res.U, ref.U) <= 3e-3

    @pytest.mark.parametrize("x_max, clipped", [(1.2, True), (1.2001, False)])
    @pytest.mark.parametrize("which", ["2x2", "3x3"])
    def test_multilevel_rows_match_dense_update(self, which, x_max, clipped, pipe2x2, sys3):
        sys_obj = pipe2x2.sys if which == "2x2" else sys3
        n, r, eps = sys_obj.n, sys_obj.r, 3e-4
        lam, R, pos, neg, _ = _split(sys_obj.A1)
        dx = np.diff(graded_mesh(x_max, eps / 4.0, 5e-4))
        nx = dx.size + 1
        level, h = stepping.time_levels(dx)
        assert level.min() == 0 and level.max() == 3
        assert (level[-2] < level.max()) == clipped
        dt0 = 0.9 * h / np.abs(lam).max()
        E = [sla.expm(sys_obj.S * (dt0 * 2**k) / eps) for k in range(4)]
        dt = dt0 * 2.0**level
        # outgoing modes of the outflow node copy node nx - 2, dt included,
        # so a dt of its own shows only in its incoming modes
        dt[-1] *= 0.5
        chi = np.random.default_rng(3).normal(size=(nx, n))
        new = chi.copy()
        for i in range(nx):
            for k in pos:
                if i > 0:
                    c = dt[i] * lam[k] / dx[i - 1]
                    new[i, k] = chi[i, k] - c * (chi[i, k] - chi[i - 1, k])
            for k in neg:
                if i < nx - 1:
                    c = dt[i] * lam[k] / dx[i]
                    new[i, k] = chi[i, k] - c * (chi[i + 1, k] - chi[i, k])
        new[-1, neg] = new[-2, neg]
        ref = np.empty_like(new)
        for i in range(nx):
            source = np.eye(n)
            source[n - r :, n - r :] = E[level[i]]
            ref[i] = R.T @ (source @ (R @ new[i]))
        step = stepping.step_operator(lam, R, pos, neg, dx, dt, level, E, r)
        got = (step @ chi.ravel()).reshape(nx, n)
        assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()


class TestCycleMapOracle:
    """One iteration per local-time-stepping cycle against the loop that
    takes one iteration per finest step."""

    @pytest.mark.parametrize("x_max, clipped", [(1.2, True), (1.2019, False)])
    @pytest.mark.parametrize("which", ["2x2", "3x3"])
    def test_matches_per_substep_loop(self, which, x_max, clipped, pipe2x2, sys3):
        eps, dx_max = 3e-4, 2e-3
        if which == "2x2":  # n_+ = n and B = I: the trace ignores the interior
            sys_obj = pipe2x2.sys
            scen = fixtures.example_scenario(T=0.03, x_max=x_max)
        else:  # outgoing and zero-speed modes
            sys_obj = sys3
            scen = fixtures.scenario_double_characteristic(sys3, T=0.03, x_max=x_max)
        level, _ = stepping.time_levels(np.diff(graded_mesh(x_max, eps / 4.0, dx_max)))
        # levels 0 to 5, so 32-step cycles; a last cell clipped short puts
        # the outflow nodes below the top level, and one that takes a short
        # remainder in does not
        assert level.min() == 0 and level.max() == 5
        assert (level[-2] < level.max()) == clipped
        res = solve_relaxation(sys_obj, scen, eps, dx_max=dx_max)
        ref = _per_substep_relaxation(sys_obj, scen, eps, dx_max=dx_max)
        np.testing.assert_array_equal(res.x, ref.x)
        np.testing.assert_array_equal(res.boundary_times, ref.boundary_times)
        assert (res.steps, res.node_steps) == (ref.steps, ref.node_steps)
        assert res.steps > 32 and np.abs(ref.U).max() > 1e-3
        assert _rel_l2(res.U, ref.U) <= 1e-12
        # every trace row, the inner finest steps of each cycle included
        err = np.linalg.norm(res.boundary_values - ref.boundary_values, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref.boundary_values, axis=1))

    def test_converge_mesh(self, sys3):
        # the converge default dx_max = 5e-4 at eps = 3e-4: levels 0 to 3
        scen = fixtures.scenario_double_characteristic(sys3, T=0.02, x_max=2.0)
        res = solve_relaxation(sys3, scen, 3e-4, dx_max=5e-4)
        ref = _per_substep_relaxation(sys3, scen, 3e-4, dx_max=5e-4)
        assert _rel_l2(res.U, ref.U) <= 1e-12
        err = np.linalg.norm(res.boundary_values - ref.boundary_values, axis=1)
        assert np.all(err <= 1e-12 * np.linalg.norm(ref.boundary_values, axis=1))

    @pytest.mark.parametrize("which", ["2x2", "3x3"])
    def test_one_level_map_is_the_step_then_the_inflow_solve(self, which, pipe2x2, sys3):
        sys_obj = pipe2x2.sys if which == "2x2" else sys3
        n, eps = sys_obj.n, 1e-2
        lam, R, pos, neg, rest = _split(sys_obj.A1)
        dx = np.diff(graded_mesh(1.2, eps / 4.0, eps / 4.0))
        level, h = stepping.time_levels(dx)
        assert level.max() == 0 and h == dx.min()
        dt = 0.9 * h / np.abs(lam).max()
        step_args = (lam, R, pos, neg, dx, np.full(dx.size + 1, dt), level,
                     [sla.expm(sys_obj.S * dt / eps)], sys_obj.r)
        inflow_b = np.linalg.inv(sys_obj.B @ R[:, pos])
        inflow_rest = -inflow_b @ (sys_obj.B @ R[:, rest])
        C, H, G, _ = stepping.cycle_operator(
            stepping.step_operator(*step_args), level, pos, rest, inflow_b, inflow_rest, R
        )
        step = stepping.step_operator(*step_args)
        # every row outside node 0 is the step row, bit for bit
        np.testing.assert_array_equal(np.diff(C.indptr[n:]), np.diff(step.indptr[n:]))
        np.testing.assert_array_equal(C[n:].indices, step[n:].indices)
        np.testing.assert_array_equal(C[n:].data, step[n:].data)
        # node 0: the step rows, then chi_+ = inflow_b b + inflow_rest chi_rest
        node0 = step[:n].toarray()
        node0[pos] = inflow_rest @ node0[rest]
        scale = np.abs(node0).max()
        assert np.abs(C[:n].toarray() - node0).max() <= 1e-14 * scale
        forcing = np.zeros((n, pos.size))
        forcing[pos] = inflow_b
        np.testing.assert_array_equal(H, forcing[: H.shape[0]])
        assert not forcing[H.shape[0] :].any()
        # the trace of the one finest step is U(0) = R chi[:n] of that state
        g = G.shape[1] - pos.size
        trace = np.zeros((n, step.shape[1]))
        trace[:, :g] = G[:, :g]
        assert np.abs(trace - R @ node0).max() <= 1e-14 * scale
        assert np.abs(G[:, g:] - R @ forcing).max() <= 1e-14 * np.abs(inflow_b).max()

    @pytest.mark.parametrize("which", ["2x2", "3x3"])
    def test_boundary_condition_holds_at_every_finest_step(self, which, pipe2x2, sys3):
        if which == "2x2":
            sys_obj = pipe2x2.sys
            scen = fixtures.example_scenario(T=0.03, x_max=1.2)
        else:
            sys_obj = sys3
            scen = fixtures.scenario_double_characteristic(sys3, T=0.03, x_max=1.2)
        res = solve_relaxation(sys_obj, scen, 3e-4, dx_max=2e-3)
        b = scen.b(res.boundary_times[1:])
        residual = res.boundary_values[1:] @ sys_obj.B.T - b
        assert res.steps > 32
        assert np.abs(residual).max() <= 1e-12 * max(np.abs(b).max(), 1.0)

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
        assert cycles * 32 == res.steps
        # the rows below the top level hold products of the step rows
        assert step_nnz < cycle_nnz < 2 * step_nnz
        # the base cell is the bulk cell 2e-3 halved 5 times, and the bulk
        # steps at the full Courant number, less the rounding of the step
        # count to whole cycles (0.54 with the smallest cell)
        m = re.search(r"base cell (\S+), top-level Courant number (\S+)$", line)
        assert m, line
        assert float(m.group(1)) == pytest.approx(2e-3 / 32, rel=1e-3)
        assert 0.85 <= float(m.group(2)) <= 0.9


class TestCsrProduct:
    """``stepping.csr_product`` calls a private scipy kernel; these pin it
    bit for bit against ``C @ x``, so a scipy change fails here."""

    def _cycle_matrix(self, sys3):
        scen = fixtures.scenario_double_characteristic(sys3, T=0.02, x_max=1.2)
        lam, R, pos, neg, rest = _split(sys3.A1)
        eps, x = 3e-4, graded_mesh(scen.x_max, 3e-4 / 4.0, 2e-3)
        dx = np.diff(x)
        level, h = stepping.time_levels(dx)
        dt = 0.9 * h / np.abs(lam).max()
        sources = [sla.expm(sys3.S * (dt * 2**k) / eps) for k in range(level.max() + 1)]
        step_args = (lam, R, pos, neg, dx, dt * 2.0**level, level, sources, sys3.r)
        inflow_b = np.linalg.inv(sys3.B @ R[:, pos])
        inflow_rest = -inflow_b @ (sys3.B @ R[:, rest])
        return stepping.cycle_operator(
            stepping.step_operator(*step_args), level, pos, rest, inflow_b, inflow_rest, R
        )[0]

    def test_matches_matmul_bit_for_bit(self, sys3):
        rng = np.random.default_rng(5)
        random = sp.random(300, 200, density=0.05, format="csr", random_state=rng)
        for C in (self._cycle_matrix(sys3), random):
            x = np.empty(C.shape[1])
            out = np.full(C.shape[0], np.nan)  # stale contents are overwritten
            apply = stepping.csr_product(C, x, out)
            for _ in range(3):
                x[:] = rng.normal(size=C.shape[1])
                assert apply() is out
                np.testing.assert_array_equal(out, C @ x)

    def test_refuses_what_the_kernel_cannot_check(self):
        C = sp.random(4, 3, density=0.5, format="csr", random_state=0)
        with pytest.raises(ValueError, match="4 x 3"):
            stepping.csr_product(C, np.zeros(4), np.zeros(4))
        with pytest.raises(ValueError, match="4 x 3"):
            stepping.csr_product(C, np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError, match="4 x 3"):
            stepping.csr_product(C, np.zeros(3, dtype=np.float32), np.zeros(4))
        with pytest.raises(ValueError, match="4 x 3"):
            stepping.csr_product(C, np.zeros(3), np.zeros(8)[::2])
        square = sp.random(4, 4, density=0.5, format="csr", random_state=0)
        state = np.zeros(4)
        with pytest.raises(ValueError, match="overlap"):
            stepping.csr_product(square, state, state)
        with pytest.raises(TypeError, match="CSR"):
            stepping.csr_product(C.tocsc(), np.zeros(3), np.zeros(4))
        with pytest.raises(TypeError, match="float64"):
            stepping.csr_product(C.astype(np.complex128), np.zeros(3), np.zeros(4))


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
            dx_max=2e-3, equilibrium_dx=1e-3,
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
                eps_list=(1e-2, 3e-3, 1e-3, 3e-4),
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

    @pytest.mark.parametrize("eps_list", [(3e-3,), (3e-3, 3e-3)])
    def test_fewer_than_two_distinct_eps_are_refused(self, pipe2x2, monkeypatch, eps_list):
        # a slope through one point is not determined: refused before any
        # stiff run
        def refuse(*args, **kwargs):
            raise AssertionError("a stiff run was started")

        monkeypatch.setattr(sim, "solve_relaxation", refuse)
        with pytest.raises(ConfigError, match="'epsilons' must hold at least two distinct"):
            run_convergence_study(
                pipe2x2.sys, pipe2x2.frame, pipe2x2.eq, pipe2x2.data,
                pipe2x2.rbc, pipe2x2.closure, fixtures.example_scenario(),
                eps_list=eps_list, dx_max=2e-3, equilibrium_dx=1e-3,
            )

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
            dx_max=2e-3, equilibrium_dx=1e-3,
        )
        assert study.degenerate
        assert study.slope is None
        assert study.to_dict()["slope"] is None


class TestPooledLadder:
    """``run_convergence_study`` runs its eps ladder through
    ``pool.thread_map``; the pool is forced to a number of workers by
    patching ``pool.cpus``."""

    EPS = (1e-2, 3e-3, 1e-3)

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Run a study with the pool forced to ``cpus`` workers; returns the
        study, the workers of each pool started and the eps in the order
        they were submitted."""
        started, submitted = [], []

        class Counting(pool.ThreadPoolExecutor):
            def __init__(self, workers):
                started.append(workers)
                super().__init__(workers)

            def submit(self, fn, item):
                submitted.append(item)
                return super().submit(fn, item)

        monkeypatch.setattr(pool, "ThreadPoolExecutor", Counting)

        def run(cpus, pipe, scen, eps_list=self.EPS):
            started.clear()
            submitted.clear()
            monkeypatch.setattr(pool, "cpus", lambda: cpus)
            study = run_convergence_study(
                pipe.sys, pipe.frame, pipe.eq, pipe.data, pipe.rbc,
                pipe.closure, scen, eps_list=eps_list,
                dx_max=2e-3, equilibrium_dx=1e-3,
            )
            return study, list(started), list(submitted)

        return run

    @staticmethod
    def _bits(values):
        return np.asarray(values, dtype=float).tobytes()

    def test_pooled_study_equals_the_serial_one(self, pooled, pipe2x2, pipe3):
        for pipe, scen in (
            (pipe2x2, fixtures.example_scenario()),
            (pipe3, fixtures.scenario_double_characteristic(pipe3.sys)),
        ):
            serial, none, _ = pooled(1, pipe, scen)
            threaded, started, submitted = pooled(2, pipe, scen)
            assert none == [] and started == [2]
            assert submitted == sorted(self.EPS)  # the costliest first
            for key in ("errors", "outer_errors"):
                a, b = getattr(serial, key), getattr(threaded, key)
                assert self._bits(a) == self._bits(b), key
            assert serial.details["per_eps"] == threaded.details["per_eps"]
            for a, b in zip(serial.details["per_eps"], threaded.details["per_eps"]):
                assert self._bits(list(a.values())) == self._bits(list(b.values()))
            assert (serial.control_errors is None) == (pipe is pipe3)
            if serial.control_errors is not None:
                assert self._bits(serial.control_errors) == self._bits(threaded.control_errors)
            for key in ("slope", "fit_residual", "outer_slope", "control_slope"):
                a, b = getattr(serial, key), getattr(threaded, key)
                assert (a is None and b is None) or self._bits(a) == self._bits(b), key

    def test_first_failure_in_eps_order_surfaces(self, pooled, pipe2x2, monkeypatch):
        # the 2nd and 3rd eps raise; the 3rd is submitted first, so it fails
        # before the 2nd has run
        solve = sim.solve_relaxation

        def failing(sys_obj, scenario, eps, **kwargs):
            if eps in self.EPS[1:]:
                raise GridMismatch(f"failed at eps {eps:g}")
            return solve(sys_obj, scenario, eps, **kwargs)

        monkeypatch.setattr(sim, "solve_relaxation", failing)
        for cpus in (1, 2):
            with pytest.raises(GridMismatch, match="failed at eps 0.003"):
                pooled(cpus, pipe2x2, fixtures.example_scenario())

    def test_one_item_starts_no_pool(self, monkeypatch):
        # a study refuses a single eps (check_epsilons), so the one-item
        # rule of the pool is pinned on thread_map itself
        def refuse(workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(pool, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(pool, "cpus", lambda: 4)
        assert pool.thread_map(lambda eps: 2.0 * eps, [3e-3]) == [6e-3]

    def test_debug_line_lists_each_eps_in_order(self, pooled, pipe2x2, caplog):
        with caplog.at_level(logging.DEBUG, logger="relaxbc.sim"):
            study, _, _ = pooled(2, pipe2x2, fixtures.example_scenario())
        lines = [r.getMessage() for r in caplog.records
                 if r.getMessage().startswith("convergence study")]
        assert len(lines) == 1
        runs = re.findall(
            r"eps (\S+) \d+\.\d+ s, (\d+) node-steps, (\d+) cycles", lines[0]
        )
        assert lines[0].startswith("convergence study on 2 threads: ")
        assert [float(e) for e, _, _ in runs] == list(self.EPS)
        assert [int(w) for _, w, _ in runs] == [
            e["node_steps"] for e in study.details["per_eps"]
        ]
        assert all(int(c) > 0 for _, _, c in runs)
