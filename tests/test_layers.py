"""Boundary-layer construction: the exponential layer, the diffusive layer,
the second correction, and the composite solution."""

import math

import mpmath
import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erfc

from relaxbc import layers
from relaxbc.errors import AssumptionViolated
from relaxbc.layers import (
    SqrtEpsLayer,
    _erfc_superposition,
    assemble_composite,
    build_eps_layer,
    build_second_correction,
    diffusion_matrix,
    solve_sqrt_eps_layer,
)
from relaxbc.model import RelaxationSystem
from relaxbc.reduction import EquilibriumFrame, solve_closure


def _closure_ws(pipe, g, h):
    ubar0 = np.array([g + h / 3.0])
    _, ws = solve_closure(
        pipe.closure, pipe.sys, np.array([g, h]), ubar0, pipe.eq.n10
    )
    return ws


class TestEpsLayer:
    def test_worked_boundary_value(self, pipe2x2):
        layer = build_eps_layer(pipe2x2.sys, pipe2x2.frame, pipe2x2.data)
        g, h = 0.2, 0.9
        vals = layer.evaluate(0.0, _closure_ws(pipe2x2, g, h))
        assert vals.shape == (1, 2)
        np.testing.assert_allclose(vals[0], [-h / 3.0, h], atol=1e-12)

    def test_decays_to_zero(self, pipe2x2):
        layer = build_eps_layer(pipe2x2.sys, pipe2x2.frame, pipe2x2.data)
        ws = _closure_ws(pipe2x2, 0.2, 0.9)
        far = layer.evaluate(40.0, ws)
        assert np.abs(far).max() < 1e-12

    def test_profile_solves_layer_ode(self, pipe2x2):
        # the profile W(y) = amplitude @ exp(M2 y) R2S w_s must satisfy
        # A1 W'(y) = Q W(y) pointwise
        layer = build_eps_layer(pipe2x2.sys, pipe2x2.frame, pipe2x2.data)
        ws = _closure_ws(pipe2x2, 0.2, 0.9)
        A1, Q = pipe2x2.sys.A1, pipe2x2.sys.Q
        for y in (0.0, 0.3, 1.0, 4.0):
            w = sla.expm(layer.M2 * y) @ layer.R2S @ ws
            U = layer.amplitude @ np.real(w)
            dU = layer.amplitude @ np.real(layer.M2 @ w)
            assert np.abs(A1 @ dU - Q @ U).max() < 1e-12

    def test_zero_closure_gives_zero_profile(self, pipe2x2):
        layer = build_eps_layer(pipe2x2.sys, pipe2x2.frame, pipe2x2.data)
        ws = _closure_ws(pipe2x2, 0.0, 0.0)
        y = np.linspace(0.0, 5.0, 7)
        assert np.abs(layer.evaluate(y, ws)).max() < 1e-14

    def test_square_transfer_has_no_modes(self, pipe3):
        layer = build_eps_layer(pipe3.sys, pipe3.frame, pipe3.data)
        assert layer.mode_count == 0
        vals = layer.evaluate(np.array([0.0, 1.0]), np.zeros(0))
        assert vals.shape == (2, pipe3.sys.n)
        assert np.abs(vals).max() == 0.0


class TestDiffusionMatrix:
    def test_negative_definite(self, pipe3):
        D = diffusion_matrix(pipe3.sys, pipe3.eq)
        assert D.shape == (1, 1)
        assert D[0, 0] < 0.0
        np.testing.assert_allclose(D, D.T)

    def test_empty_without_zero_speed_modes(self, pipe2x2):
        D = diffusion_matrix(pipe2x2.sys, pipe2x2.eq)
        assert D.shape == (0, 0)

    def test_decoupled_zero_mode_rejected(self):
        # A12 = 0 with a singular A11 makes D = 0: the zero-speed mode never
        # feels the relaxation and the diffusive layer is ill-posed
        sys_obj = RelaxationSystem(
            d=1,
            n=2,
            r=1,
            A=(np.diag([0.0, 1.0]),),
            Q=np.diag([0.0, -1.0]),
            B=np.array([[0.0, 1.0]]),
        )
        eq = EquilibriumFrame(
            P1=np.zeros((1, 0)), P0=np.eye(1), Lam1=np.zeros(0)
        )
        with pytest.raises(AssumptionViolated, match="negative definite"):
            diffusion_matrix(sys_obj, eq)


def _cn_per_mode(lam, V, g, T, z):
    """Reference Crank-Nicolson: one banded solve per mode and step, with
    q_k(0, t_j) = g[j - 1, k] over the len(g) steps of size T / len(g) and
    q_k(z[-1], t) = 0."""
    nt, n10 = g.shape
    nz, dz, dt = z.size, z[1] - z[0], T / nt
    q = np.zeros((nz, n10))
    for step in range(nt):
        for k in range(n10):
            r = lam[k] * dt / dz**2
            ab = np.zeros((3, nz - 2))
            ab[0, 1:] = -r / 2
            ab[1, :] = 1 + r
            ab[2, :-1] = -r / 2
            interior = q[1:-1, k]
            rhs = interior + (r / 2) * (q[2:, k] - 2 * interior + q[:-2, k])
            rhs[0] += (r / 2) * g[step, k]
            q[1:-1, k] = sla.solve_banded((1, 1), ab, rhs)
            q[0, k] = g[step, k]
    return q @ V.T


class TestErfc:
    """``layers.erfc`` against 40-digit mpmath on [0, 26.5], where erfc is a
    normal double, and against scipy where scipy is accurate.  scipy's erfc
    exponentiates -x^2 after rounding x^2, so it is off by up to x^2 u
    (5.7e-14 relative near x = 26) and, through 1 - erf, by 1.6e-15 on
    [0.5, 1]."""

    XS = np.concatenate([
        np.linspace(0.0, 26.5, 2001),
        np.random.default_rng(5).uniform(0.0, 26.5, 2000),
        [0.5, 4.0, np.nextafter(4.0, 0.0), np.nextafter(0.5, 0.0)],
    ])

    def test_matches_mpmath(self):
        with mpmath.workdps(40):
            want = np.array([float(mpmath.erfc(mpmath.mpf(x))) for x in self.XS])
        got = layers.erfc(self.XS)
        assert np.all(np.abs(got - want) <= 1e-15 * want)

    def test_matches_scipy_where_scipy_is_accurate(self):
        x = np.concatenate([np.linspace(0.0, 0.5, 501), [40.0]])
        got, want = layers.erfc(x), erfc(x)
        assert np.all(np.abs(got - want) <= 1e-15 * want)
        assert got[0] == 1.0 and got[-1] == 0.0

    def test_gauss_needs_no_rounding_of_x_squared(self):
        # exp(-fl(x^2)) loses up to x^2 u (7.8e-14 at x = 26.5) to the
        # rounding of x^2 alone; the split evaluation keeps to 4 ulp
        x = np.array([26.5 - 2.0**-40, 19.0 + 1.0 / 3.0, 7.1])
        with mpmath.workdps(40):
            want = np.array([float(mpmath.exp(-mpmath.mpf(v) ** 2)) for v in x])
        assert np.all(np.abs(layers._gauss(x) - want) <= 4 * np.spacing(want))


class TestSqrtEpsLayer:
    def test_closed_form_is_the_crank_nicolson_limit(self, rng):
        # second-order Crank-Nicolson converges to the closed form: the
        # distance of the profiles, and of their z-derivatives against second-
        # order differences of the reference, falls about fourfold per halving
        # of dz and dt
        lam = np.array([0.4, 1.3, 2.5])
        V, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        T, z_max = 0.4, 12.0 * math.sqrt(2.5 * 0.4)
        data = lambda t: np.column_stack([np.sin(3 * t), 1 - np.cos(t), t**2])
        dist, dist_dz = [], []
        for nt, nz in ((50, 61), (100, 121), (200, 241)):
            z = np.linspace(0.0, z_max, nz)
            t = np.arange(nt + 1) * (T / nt)
            q, dq = _erfc_superposition(lam, data(t) @ V, T, z)
            ref = _cn_per_mode(lam, V, data(t[1:]) @ V, T, z)
            dist.append(np.abs(q @ V.T - ref).max())
            ref_dz = np.gradient(ref, z, axis=0, edge_order=2)
            dist_dz.append(np.abs(dq @ V.T - ref_dz).max())
        assert dist[0] < 1e-2 and dist_dz[0] < 0.1
        for d in (dist, dist_dz):
            for coarse, fine in zip(d, d[1:]):
                assert coarse / fine >= 3.0

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        lam=st.floats(0.05, 20.0),
        T=st.floats(0.01, 5.0),
        g=arrays(np.float64, st.integers(2, 40), elements=st.floats(-10.0, 10.0)),
    )
    def test_bounded_by_erfc_of_max_data(self, lam, T, g):
        # |q(z, T)| <= max |g| erfc(z / 2 sqrt(lam T)), up to rounding: the
        # comparison solution max |g| erfc(z / 2 sqrt(lam t)) dominates the
        # data at z = 0
        z = np.linspace(0.0, 16.0 * math.sqrt(lam * T), 200)
        q, _ = _erfc_superposition(np.array([lam]), g[:, None], T, z)
        bound = np.abs(g).max() * erfc(z / (2.0 * math.sqrt(lam * T)))
        assert np.all(np.abs(q[:, 0]) <= bound + 1e-12 * np.abs(g).max())

    def test_zero_boundary_is_zero(self, pipe3):
        layer = solve_sqrt_eps_layer(
            pipe3.sys, pipe3.eq, lambda t: np.zeros((np.size(t), 1)), T=0.4
        )
        assert np.abs(layer.m).max() == 0.0

    def test_empty_when_no_zero_speed_modes(self, pipe2x2):
        layer = solve_sqrt_eps_layer(
            pipe2x2.sys, pipe2x2.eq, lambda t: np.zeros((np.size(t), 0)), T=0.4
        )
        assert layer.m.shape[1] == 0
        assert layer.interp_m(np.array([0.0, 1.0])).shape == (2, 0)

    def test_constant_boundary_matches_erfc(self, pipe3):
        # with constant Dirichlet data the layer is the classical similarity
        # solution m0 * erfc(z / (2 sqrt(delta t)))
        D = diffusion_matrix(pipe3.sys, pipe3.eq)
        delta, T, m0 = -D[0, 0], 0.3, 1.7
        layer = solve_sqrt_eps_layer(
            pipe3.sys, pipe3.eq, lambda t: np.full((np.size(t), 1), m0), T=T
        )
        x = layer.z / (2.0 * math.sqrt(delta * T))
        assert np.abs(layer.m[:, 0] - m0 * erfc(x)).max() <= 1e-12 * m0
        dm = -m0 * np.exp(-(x**2)) / math.sqrt(math.pi * delta * T)
        assert np.abs(layer.dm_dz[:, 0] - dm).max() <= 1e-12 * m0

    def test_maximum_principle(self, pipe3):
        layer = solve_sqrt_eps_layer(
            pipe3.sys, pipe3.eq, lambda t: np.sin(t)[:, None], T=1.0
        )
        assert np.abs(layer.m).max() <= math.sin(1.0) + 1e-9


class TestSecondCorrection:
    def test_coefficient_formulas(self, pipe3):
        sys_obj, eq = pipe3.sys, pipe3.eq
        layer = solve_sqrt_eps_layer(
            sys_obj, eq, lambda t: np.ones((np.size(t), 1)), T=0.2
        )
        second = build_second_correction(sys_obj, eq, layer)
        want_nu2 = np.linalg.solve(sys_obj.S, sys_obj.A12.T @ eq.P0)
        np.testing.assert_allclose(second.nu2_coeff, want_nu2, atol=1e-12)
        # the fast-mode correction carries no zero-speed component
        assert np.abs(eq.P0.T @ second.mu2_coeff).max() < 1e-12

    def test_evaluate_synthetic_profile(self, pipe3):
        # plant m(z) = exp(-z) so dm/dz is known in closed form
        z = np.linspace(0.0, 8.0, 400)
        m = np.exp(-z)[:, None]
        synthetic = SqrtEpsLayer(
            z=z,
            m=m,
            dm_dz=-m,
            P0=pipe3.eq.P0,
        )
        second = build_second_correction(pipe3.sys, pipe3.eq, synthetic)
        zq = z[[0, 50, 150]]  # on-grid queries keep the interpolation exact
        vals = second.evaluate(zq)
        n1 = pipe3.sys.n - pipe3.sys.r
        dm = -np.exp(-zq)[:, None]
        np.testing.assert_allclose(
            vals[:, :n1], dm @ second.mu2_coeff.T, atol=1e-12
        )
        np.testing.assert_allclose(
            vals[:, n1:], dm @ second.nu2_coeff.T, atol=1e-12
        )


class TestComposite:
    def test_outer_only(self, pipe2x2):
        x = np.linspace(0.0, 2.0, 11)
        ubar = np.cos(x)[:, None]
        U = assemble_composite(pipe2x2.sys, x, ubar, eps=1e-2)
        np.testing.assert_allclose(U[:, 0], np.cos(x))
        assert np.abs(U[:, 1]).max() == 0.0

    def test_boundary_exactness(self, pipe2x2):
        # without zero-speed modes the composite meets the boundary condition
        # exactly: B U(0) = b
        g, h = 0.2, 0.9
        layer = build_eps_layer(pipe2x2.sys, pipe2x2.frame, pipe2x2.data)
        ws = _closure_ws(pipe2x2, g, h)
        x = np.array([0.0, 0.05, 1.0])
        ubar = np.full((x.size, 1), g + h / 3.0)
        U = assemble_composite(
            pipe2x2.sys, x, ubar, eps=1e-3, eps_layer=layer, w_s=ws
        )
        np.testing.assert_allclose(
            pipe2x2.sys.B @ U[0], [g, h], atol=1e-12
        )

    def test_far_field_is_outer(self, pipe3):
        sys_obj, eq = pipe3.sys, pipe3.eq
        layer = build_eps_layer(sys_obj, pipe3.frame, pipe3.data)
        sqrt_layer = solve_sqrt_eps_layer(
            sys_obj, eq, lambda t: np.full((np.size(t), 1), 0.4), T=0.3
        )
        second = build_second_correction(sys_obj, eq, sqrt_layer)
        x = np.array([0.9 * sqrt_layer.z[-1] * math.sqrt(1e-4), 50.0])
        n1 = sys_obj.n - sys_obj.r
        ubar = np.ones((x.size, n1))
        U = assemble_composite(
            sys_obj,
            x,
            ubar,
            eps=1e-4,
            eps_layer=layer,
            w_s=np.zeros(0),
            sqrt_layer=sqrt_layer,
            second=second,
        )
        np.testing.assert_allclose(U[:, :n1], ubar, atol=1e-6)
        assert np.abs(U[:, n1:]).max() < 1e-6
