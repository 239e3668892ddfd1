import numpy as np
import pytest
import scipy.linalg as sla

from diagnostics import (
    PlainFrame, count_stable_eigenvalues, frame_independence_check, random_frame_pair,
    verify_stable_count,
)
from oracles import dense_M
from relaxbc import fixtures
from relaxbc.errors import FrameMismatch, SpectralCountMismatch
from relaxbc.fixtures import example_system
from relaxbc.model import RelaxationSystem, compute_indices
from relaxbc.spectral import (
    FrequencyPoint,
    SamplingSpec,
    build_kernel_frame,
    build_M,
    check_gkc,
    gkc_ratio,
)


def char_fixture_3x3():
    """n = 3, r = 2, A1 with kernel e3 and Q = diag(0, -I2)."""
    A1 = np.array([[1.0, 0.5, 0.0], [0.5, -1.0, 0.0], [0.0, 0.0, 0.0]])
    Q = np.diag([0.0, -1.0, -1.0])
    n_plus = int(np.sum(np.linalg.eigvalsh(A1) > 1e-12))
    B = np.zeros((n_plus, 3))
    B[0, 0] = 1.0
    B[0, 1] = 0.3
    return RelaxationSystem(
        d=1, n=3, r=2, A=(A1,), Q=Q, B=B, labels=(), transform=np.eye(3)
    )


class TestKernelFrame:
    def test_noncharacteristic_degenerates(self, pipe2x2):
        f = pipe2x2.frame
        assert f.n0 == 0
        assert np.allclose(f.R1, np.eye(2))
        assert np.allclose(f.A1_hat, pipe2x2.sys.A1)
        assert np.allclose(f.S_hat, [[-1.0]])

    def test_characteristic_fixture(self):
        sys_obj = char_fixture_3x3()
        f = build_kernel_frame(sys_obj)
        assert f.n0 == 1
        assert np.allclose(np.abs(f.R0[:, 0]), [0.0, 0.0, 1.0])
        # lower block of the kernel basis has full column rank
        assert np.linalg.matrix_rank(f.R02) == 1
        assert f.S_hat.shape == (1, 1) and f.S_hat[0, 0] < 0

    def test_r_equals_n0_void_complement(self):
        A1 = np.diag([1.0, 0.0])
        sys_obj = RelaxationSystem(
            d=1, n=2, r=1, A=(A1,), Q=np.diag([0.0, -1.0]),
            B=np.array([[1.0, 0.0]]), labels=(), transform=np.eye(2),
        )
        f = build_kernel_frame(sys_obj)
        assert f.R02_perp.shape == (1, 0)
        assert np.allclose(f.Q_hat, 0.0)


class TestBuildM:
    def test_hand_formula(self, pipe2x2):
        for xi, eta in [(1.0, 1.0), (0.7 + 0.2j, 3.0), (2.0, 0.0)]:
            M = build_M(pipe2x2.sys, pipe2x2.frame, FrequencyPoint(xi, np.zeros(0), eta))
            want = 0.5 * np.array([
                [-xi, eta + xi],
                [xi, -3 * (eta + xi)],
            ])
            assert np.allclose(M, want, atol=1e-12)

    def test_matches_dense_schur_complement(self, pipe3, zero_speed_bundle, rng):
        for b in (pipe3, zero_speed_bundle):
            for _ in range(5):
                p = fixtures.random_frequency_point(rng, b.sys.d)
                want = dense_M(b.sys, b.frame, p.xi, np.atleast_1d(p.omega), p.eta)
                got = build_M(b.sys, b.frame, p)
                assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_plain_frame_matches_dense(self, pipe3, rng):
        # a bare (R0, R1) pair carries no A1_hat; build_M forms R1^T A1 R1
        frame = random_frame_pair(rng, pipe3.frame)
        p = fixtures.random_frequency_point(rng, pipe3.sys.d)
        want = dense_M(pipe3.sys, frame, p.xi, np.atleast_1d(p.omega), p.eta)
        got = build_M(pipe3.sys, frame, p)
        assert np.linalg.norm(got - want) <= 1e-10 * np.linalg.norm(want)

    def test_omega_eta_zero_gives_scaled_inverse(self):
        # with the kernel orthogonal to the retained directions the Schur
        # complement vanishes and M(xi, 0, 0) = -xi A1_hat^{-1} exactly
        sys_obj = char_fixture_3x3()
        frame = build_kernel_frame(sys_obj)
        xi = 1.3 + 0.4j
        M = build_M(sys_obj, frame, FrequencyPoint(xi, np.zeros(0), 0.0))
        want = -xi * np.linalg.inv(frame.A1_hat)
        assert np.allclose(M, want, atol=1e-12)

    def test_omega_eta_zero_counts_match_inertia(self, pipe3):
        sys_obj, frame = pipe3.sys, pipe3.frame
        idx = compute_indices(sys_obj)
        p = FrequencyPoint(1.3 + 0.4j, np.zeros(sys_obj.d - 1), 0.0)
        M = build_M(sys_obj, frame, p)
        k_s, k_u = count_stable_eigenvalues(M)
        assert (k_s, k_u) == (idx.n_plus, sys_obj.n - idx.n0 - idx.n_plus)

    def test_degree_one_homogeneity(self, pipe3):
        sys_obj, frame = pipe3.sys, pipe3.frame
        omega = 0.4 * np.ones(sys_obj.d - 1)
        p = FrequencyPoint(0.8 + 0.1j, omega, 1.5)
        s = 2.75
        ps = FrequencyPoint(s * p.xi, s * omega, s * p.eta)
        M1 = build_M(sys_obj, frame, p)
        M2 = build_M(sys_obj, frame, ps)
        assert np.allclose(M2, s * M1, atol=1e-11 * np.linalg.norm(M2))


class TestStableCounts:
    def test_worked_example(self, pipe2x2):
        M = build_M(pipe2x2.sys, pipe2x2.frame, FrequencyPoint(1.0, np.zeros(0), 0.0))
        assert count_stable_eigenvalues(M) == (2, 0)

    def test_mismatch_raises(self, pipe2x2):
        M = build_M(pipe2x2.sys, pipe2x2.frame, FrequencyPoint(1.0, np.zeros(0), 0.0))
        with pytest.raises(SpectralCountMismatch):
            count_stable_eigenvalues(M, expected_stable=1)

    def test_counts_at_real_axis_points(self, rng):
        for _ in range(10):
            sys_obj = fixtures.random_system(rng, n_max=6)
            frame = build_kernel_frame(sys_obj)
            p = FrequencyPoint(float(rng.uniform(0.1, 2.0)), np.zeros(sys_obj.d - 1), 0.0)
            verify_stable_count(sys_obj, frame, p)

    def test_counts_at_random_points(self, pipe3, rng):
        for _ in range(50):
            p = fixtures.random_frequency_point(rng, pipe3.sys.d)
            verify_stable_count(pipe3.sys, pipe3.frame, p)


class TestGkcRatio:
    def test_worked_example_is_one(self, pipe2x2):
        val = gkc_ratio(pipe2x2.sys, pipe2x2.frame, FrequencyPoint(1.0, np.zeros(0), 0.0))
        assert abs(val - 1.0) < 1e-12

    def test_scale_invariance(self, pipe3, rng):
        p = fixtures.random_frequency_point(rng, pipe3.sys.d)
        a = gkc_ratio(pipe3.sys, pipe3.frame, p)
        ps = FrequencyPoint(3.0 * p.xi, 3.0 * np.atleast_1d(p.omega), 3.0 * p.eta)
        b = gkc_ratio(pipe3.sys, pipe3.frame, ps)
        assert abs(a - b) < 1e-9 * max(a, 1.0)

    def test_singular_boundary_matrix_gives_zero(self, pipe2x2):
        sys_obj = pipe2x2.sys
        bad = RelaxationSystem(
            d=1, n=2, r=1, A=sys_obj.A, Q=sys_obj.Q,
            B=np.array([[1.0, 0.0], [1.0, 0.0]]),
            labels=(), transform=np.eye(2),
        )
        val = gkc_ratio(bad, pipe2x2.frame, FrequencyPoint(1.0, np.zeros(0), 0.0))
        assert val < 1e-12


class TestCheckGkc:
    def test_worked_example_passes(self, pipe2x2):
        report = check_gkc(pipe2x2.sys, pipe2x2.frame, SamplingSpec(resolution=8, rim_points=8))
        assert report.passed
        assert report.min_ratio > 0.5
        assert report.eta_inf_min_ratio is not None

    def test_adversarial_boundary_fails(self, pipe2x2):
        sys_obj = pipe2x2.sys
        bad = RelaxationSystem(
            d=1, n=2, r=1, A=sys_obj.A, Q=sys_obj.Q,
            B=np.array([[1.0, 0.0], [1.0, 1e-9]]),
            labels=(), transform=np.eye(2),
        )
        report = check_gkc(bad, pipe2x2.frame, SamplingSpec(resolution=8, rim_points=0))
        assert not report.passed
        assert report.argmin_point is not None


class TestFrameIndependence:
    def test_same_frame_zero_residual(self, pipe3, rng):
        p = fixtures.random_frequency_point(rng, pipe3.sys.d)
        frame_b = PlainFrame(R0=pipe3.frame.R0, R1=pipe3.frame.R1)
        out = frame_independence_check(pipe3.sys, pipe3.frame, frame_b, p)
        assert out["similarity_residual"] < 1e-12 * max(out["M_norm"], 1.0)
        assert out["det_residual"] < 1e-12 * max(abs(out["det_value"]), 1.0)

    def test_random_c1(self, pipe3, rng):
        p = fixtures.random_frequency_point(rng, pipe3.sys.d)
        frame_b = random_frame_pair(rng, pipe3.frame)
        out = frame_independence_check(pipe3.sys, pipe3.frame, frame_b, p)
        assert out["similarity_residual"] <= 1e-9 * max(out["M_norm"], 1.0)
        assert out["det_residual"] <= 1e-8 * max(abs(out["det_value"]), 1.0)

    def test_inexpressible_frame_raises(self, pipe3, rng):
        bad = PlainFrame(
            R0=rng.normal(size=pipe3.frame.R0.shape), R1=pipe3.frame.R1
        )
        p = fixtures.random_frequency_point(rng, pipe3.sys.d)
        with pytest.raises(FrameMismatch):
            frame_independence_check(pipe3.sys, pipe3.frame, bad, p)
