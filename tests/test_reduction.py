import dataclasses

import numpy as np
import pytest
import scipy.linalg as sla

from diagnostics import large_eta_expansion_check, limit_subspace_angle
from oracles import dense_limit, dense_m1
from relaxbc import fixtures
from relaxbc.model import RelaxationSystem, compute_indices
from relaxbc.reduction import (
    _M1_stack,
    build_closure,
    build_equilibrium_frame,
    build_reduction_data,
    derive_all,
    derive_reduced_bc,
    limit_stable_matrix,
    render_reduced_bc,
    solve_closure,
)
from relaxbc.errors import SingularKtXKt
from relaxbc.spectral import FrequencyPoint, SamplingSpec, build_kernel_frame, check_gkc


def _plain(A1, Q, B, r, d=1, A_rest=()):
    n = A1.shape[0]
    return RelaxationSystem(
        d=d, n=n, r=r, A=(A1,) + tuple(A_rest), Q=Q, B=B,
        labels=(), transform=np.eye(n),
    )


class TestEquilibriumFrame:
    def test_worked_example_scalar(self, pipe2x2):
        eq = pipe2x2.eq
        assert eq.P0.shape == (1, 0)
        assert np.allclose(np.abs(eq.P1), [[1.0]])
        assert np.allclose(eq.Lam1, [3.0])

    def test_zero_block(self):
        A1 = np.array([[0.0, 1.0], [1.0, 0.0]])
        sys_obj = _plain(A1, np.diag([0.0, -1.0]), np.array([[0.5, 2.0]]), r=1)
        eq = build_equilibrium_frame(sys_obj)
        assert eq.P1.shape == (1, 0)
        assert np.allclose(np.abs(eq.P0), [[1.0]])

    def test_mixed_block(self):
        A1 = np.zeros((3, 3))
        A1[0, 0] = 2.0
        A1[1, 2] = A1[2, 1] = 1.0
        sys_obj = _plain(A1, np.diag([0.0, 0.0, -1.0]), np.eye(2, 3), r=1)
        eq = build_equilibrium_frame(sys_obj)
        assert np.allclose(eq.Lam1, [2.0])
        assert np.allclose(np.abs(eq.P0), [[0.0], [1.0]])


class TestReductionData:
    def test_worked_example_values(self, pipe2x2):
        data = pipe2x2.data
        assert data.K.shape == (1, 0)
        assert np.allclose(data.K_tilde, [[1.0]])
        assert np.allclose(data.X, [[2.0 / 3.0]], atol=1e-12)
        assert np.allclose(data.N, [[-1.0 / 3.0]], atol=1e-12)
        assert np.allclose(data.M2, [[-1.5]], atol=1e-12)

    def test_square_k_no_eps_layer(self, pipe3):
        # the double-characteristic fixture has n10 = r - n0 = 1: K is square
        # invertible, so no stable layer ODE remains
        data = pipe3.data
        assert data.K.shape[1] == data.K.shape[0]
        assert data.K_tilde.shape[1] == 0
        assert data.M2.shape == (0, 0)

    def test_m2_stable_count(self, random_bundles):
        for b in random_bundles[:25]:
            idx = compute_indices(b.sys)
            expected = idx.n_plus - idx.n1_plus - idx.n10
            assert b.data.R2S.shape[1] == expected


class TestLimitStableMatrix:
    def test_worked_example_span(self, pipe2x2):
        R = limit_stable_matrix(
            pipe2x2.sys, pipe2x2.frame, pipe2x2.eq, pipe2x2.data, 1.0, np.zeros(0)
        )
        assert R.shape == (2, 2)
        want = np.column_stack([[1.0, 0.0], [-1.0 / 3.0, 1.0]])
        angles = sla.subspace_angles(R, want)
        assert np.max(angles, initial=0.0) < 1e-12

    def test_angle_decreases_with_eta(self, pipe3):
        sys_obj = pipe3.sys
        angles = [
            limit_subspace_angle(
                sys_obj, pipe3.frame, pipe3.eq, pipe3.data,
                1.0 + 0.3j, np.zeros(sys_obj.d - 1), eta=eta,
            )
            for eta in (1e2, 1e3, 1e4)
        ]
        assert angles[0] >= angles[1] >= angles[2]
        # the coalescing boundary characteristic halves the approach order,
        # so each decade of eta buys ~sqrt(10) in angle
        assert angles[2] < angles[0] / 8.0

    def test_zero_speed_systems_are_not_well_conditioned(self, pipe3, zero_speed_bundle):
        # at n10 >= 1 the limit is approached like eta^{-1/2}, not 1/(eta * gap)
        for b in (pipe3, zero_speed_bundle):
            assert b.eq.n10 > 0 and not fixtures.well_conditioned(b)


class TestLargeEtaExpansion:
    def test_exact_when_noncharacteristic(self, pipe2x2):
        out = large_eta_expansion_check(
            pipe2x2.sys, pipe2x2.frame, FrequencyPoint(1.0 + 0.5j, np.zeros(0), 1.0)
        )
        assert out["exact"]
        assert out["top_left_residual"] < 1e-10

    def test_first_order_decay(self, pipe3):
        p = FrequencyPoint(0.8 + 0.3j, 0.2 * np.ones(pipe3.sys.d - 1), 1.0)
        out = large_eta_expansion_check(
            pipe3.sys, pipe3.frame, p, etas=(1e2, 1e3)
        )
        if not out["exact"]:
            ratio = out["residuals"][0] / out["residuals"][1]
            assert 5.0 < ratio < 20.0

    def test_top_left_block_identity(self, rng):
        sys_obj = fixtures.random_system(rng, n_max=6, d=2)
        frame = build_kernel_frame(sys_obj)
        p = FrequencyPoint(0.9 + 0.4j, np.array([0.7]), 1.0)
        out = large_eta_expansion_check(sys_obj, frame, p)
        assert out["top_left_residual"] < 1e-10


class TestReducedBC:
    def test_worked_example_operator(self, pipe2x2):
        rbc = pipe2x2.rbc
        # B_o is normalized; the ray is what matters
        ray = rbc.B_o[0] / rbc.B_o[0, 0]
        assert np.allclose(ray, [1.0, 1.0 / 3.0], atol=1e-12)
        assert abs(abs(rbc.coefficient[0, 0]) - 0.9486832980505138) < 1e-12
        assert rbc.annihilation_residual < 1e-12
        assert rbc.ukc_min_ratio > 1e-6

    def test_pass_through_when_no_layers(self):
        A1 = np.diag([2.0, -1.0])
        sys_obj = _plain(A1, np.diag([0.0, -1.0]), np.array([[1.0, 0.0]]), r=1)
        frame = build_kernel_frame(sys_obj)
        eq = build_equilibrium_frame(sys_obj)
        data = build_reduction_data(sys_obj, frame, eq)
        rbc = derive_reduced_bc(sys_obj, frame, eq, data)
        assert np.allclose(np.abs(rbc.B_o), [[1.0]])
        assert np.allclose(np.abs(rbc.coefficient), np.abs(sys_obj.B_u))

    def test_small_equilibrium_speed_is_zero_for_every_stage(self):
        # A11 = diag(1, 2e-9) with ||A1|| = 3.4: the speed 2e-9 lies below
        # tau = tau_eig(||A1||) = 3.4e-9, so the reduction treats it as zero
        # (n10 = 1), as the indices do, and matches the system with that
        # speed set to 0
        def system(speed):
            A1 = np.array([[1.0, 0.0, 0.0], [0.0, speed, 1.0], [0.0, 1.0, 3.0]])
            B = np.array([[1.0, 0.2, 0.1], [0.3, 1.0, 0.5]])
            return _plain(A1, np.diag([0.0, 0.0, -1.0]), B, r=1)

        sys_obj = system(2e-9)
        sys_obj.validate()
        assert compute_indices(sys_obj).n10 == 1
        pipe = derive_all(sys_obj)
        assert pipe.eq.n10 == 1
        exact = derive_all(system(0.0))
        np.testing.assert_allclose(pipe.rbc.B_o, exact.rbc.B_o, rtol=0, atol=1e-8)
        report = check_gkc(sys_obj, pipe.frame, SamplingSpec(resolution=12))
        assert report.passed, report.eta_inf_error

    def test_characteristic_fixture_annihilations(self, pipe3):
        rbc = pipe3.rbc
        assert rbc.annihilation_residual < 1e-10
        assert rbc.p0_residual < 1e-10
        assert rbc.ukc_min_ratio > 1e-6

    def test_render_mentions_coefficients(self, pipe2x2):
        text = render_reduced_bc(pipe2x2.sys, pipe2x2.rbc)
        assert "0.948683" in text


    def test_nearly_singular_ktxkt_is_refused(self):
        # K is empty (n0 = n10 = 0), so K~^T X K~ = A22_hat, here with
        # singular values (1, 1e-12): a round-off rank deficiency whose
        # determinant 1e-12 still exceeds (tau_rank(1))^2 = 1e-18
        sys_obj = _plain(
            np.diag([1.0, 2.0, 3.0]), np.diag([0.0, -1.0, -1.0]), np.eye(3), r=2
        )
        frame = dataclasses.replace(
            build_kernel_frame(sys_obj), A22_hat=np.diag([1.0, 1e-12])
        )
        with pytest.raises(SingularKtXKt):
            build_reduction_data(sys_obj, frame, build_equilibrium_frame(sys_obj))


class TestClosure:
    def test_worked_example_boundary_match(self, pipe2x2):
        # with b = (g, h) and the equilibrium trace g + h/3, the layer carries
        # (-h/3, h) at the boundary
        g, h = 0.2, 0.9
        ubar0 = np.array([g + h / 3.0])
        mu, w_s = solve_closure(
            pipe2x2.closure, pipe2x2.sys, np.array([g, h]), ubar0, n10=0
        )
        assert mu.size == 0
        from relaxbc.layers import build_eps_layer

        layer = build_eps_layer(pipe2x2.sys, pipe2x2.frame, pipe2x2.data)
        val = layer.evaluate(np.zeros(1), w_s)[0]
        assert np.allclose(val, [-h / 3.0, h], atol=1e-12)

    def test_homogeneous_rhs_zero_solution(self, pipe3):
        sys_obj = pipe3.sys
        idx = compute_indices(sys_obj)
        ubar0 = np.array([0.7] * (sys_obj.n - sys_obj.r))
        b = sys_obj.B_u @ ubar0
        mu, w_s = solve_closure(pipe3.closure, sys_obj, b, ubar0, idx.n10)
        assert np.allclose(mu, 0.0, atol=1e-12)
        assert np.allclose(w_s, 0.0, atol=1e-12)

    def test_round_trip(self, pipe3, rng):
        sys_obj = pipe3.sys
        idx = compute_indices(sys_obj)
        b = rng.normal(size=sys_obj.B.shape[0])
        ubar0 = rng.normal(size=sys_obj.n - sys_obj.r)
        mu, w_s = solve_closure(pipe3.closure, sys_obj, b, ubar0, idx.n10)
        sol = np.concatenate([np.atleast_1d(mu), np.atleast_1d(w_s)])
        rhs = pipe3.closure.B_tilde_o @ (b - sys_obj.B_u @ ubar0)
        assert np.allclose(pipe3.closure.coefficient @ sol, rhs, atol=1e-10)


class TestEquilibriumReducedMatrix:
    def test_scalar_case(self, pipe2x2):
        M1 = _M1_at(pipe2x2.sys, pipe2x2.eq, 2.0 + 0j, np.zeros(0))
        # -Lam1^{-1} xi = -2/3
        assert np.allclose(M1, [[-2.0 / 3.0]], atol=1e-12)


def _M1_at(sys_obj, eq, xi, omega):
    return _M1_stack(sys_obj, eq)(np.array([[xi.real, xi.imag, *omega]]))[0]


def _dense_limit(sys_obj, frame, eq, data, xi, omega):
    """The eta = infinity limit basis from eigenvectors of M1 and M2."""
    M1, X = dense_m1(sys_obj, eq, xi, omega)
    w1, V1 = np.linalg.eig(M1)
    w2, V2 = np.linalg.eig(data.M2)
    return dense_limit(eq, data, V1[:, w1.real < 0], V2[:, w2.real < 0], X)


def _mixed_block_d2(rng):
    """d = 2, A11 = diag(2, 0): one nonzero and one zero equilibrium speed,
    so M1 carries the coupling through X."""
    A1 = np.zeros((3, 3))
    A1[0, 0] = 2.0
    A1[1, 2] = A1[2, 1] = 1.0
    W = rng.normal(size=(3, 3))
    return _plain(
        A1, np.diag([0.0, 0.0, -1.0]), np.eye(2, 3), r=1, d=2,
        A_rest=(0.5 * (W + W.T),),
    )


class TestSharedM1Builder:
    """The per-point and batched paths share one M1 builder; these check it
    against the dense formula at omega != 0."""

    def _cases(self, random_bundles, zero_speed_bundle, rng):
        cases = [(b.sys, b.frame, b.eq, b.data) for b in random_bundles if b.sys.d >= 2]
        sys_obj = _mixed_block_d2(rng)
        frame = build_kernel_frame(sys_obj)
        eq = build_equilibrium_frame(sys_obj)
        cases.append((sys_obj, frame, eq, build_reduction_data(sys_obj, frame, eq)))
        b = zero_speed_bundle
        cases.append((b.sys, b.frame, b.eq, b.data))
        # the pool has no zero equilibrium speed; the last two cases do
        assert eq.P0.shape[1] == 1 and eq.P1.shape[1] == 1
        assert b.eq.P0.shape[1] == 1 and b.eq.P1.shape[1] == 2
        return cases

    def test_equilibrium_reduced_matrix(self, random_bundles, zero_speed_bundle, rng):
        cases = self._cases(random_bundles, zero_speed_bundle, rng)
        for sys_obj, _, eq, _ in cases:
            xi = complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0))
            omega = rng.uniform(-1.0, 1.0, size=sys_obj.d - 1)
            got = _M1_at(sys_obj, eq, xi, omega)
            want, _ = dense_m1(sys_obj, eq, xi, omega)
            assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_limit_stable_matrix(self, random_bundles, zero_speed_bundle, rng):
        cases = self._cases(random_bundles, zero_speed_bundle, rng)
        for sys_obj, frame, eq, data in cases:
            xi = complex(rng.uniform(0.1, 1.0), rng.uniform(-1.0, 1.0))
            omega = rng.uniform(-1.0, 1.0, size=sys_obj.d - 1)
            got = limit_stable_matrix(sys_obj, frame, eq, data, xi, omega)
            want = _dense_limit(sys_obj, frame, eq, data, xi, omega)
            assert got.shape == want.shape
            assert np.max(sla.subspace_angles(got, want), initial=0.0) < 1e-10
