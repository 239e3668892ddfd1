import math

import numpy as np
import pytest
import scipy.linalg as sla

from oracles import schur_stable_basis
from relaxbc import linalg, sim
from relaxbc.errors import NearImaginaryEigenvalue, RankDeficient, SignNotConverged
from relaxbc.fixtures import (
    double_characteristic_system, example_scenario, example_system,
    scenario_double_characteristic,
)
from relaxbc.linalg import (
    ExpActionEvaluator,
    expm,
    full_rank_cond,
    matrix_sign,
    orthonormal_complement,
    split_invariant_subspaces,
    stable_basis_real,
    stable_eigvecs,
)
from relaxbc.reduction import _M1_stack
from relaxbc.spectral import SamplingSpec, _M_stack, directions, xi_omega_directions


class TestSplitInvariantSubspaces:
    def test_diagonal(self):
        sub = split_invariant_subspaces(np.diag([-1.0, 2.0]))
        assert sub.k == 1
        assert np.allclose(np.abs(sub.basis_s.ravel()), [1.0, 0.0])

    def test_worked_example_matrix(self):
        M = 0.5 * np.array([[-1.0, 1.0], [1.0, -3.0]])
        sub = split_invariant_subspaces(M)
        assert sub.k == 2
        # oracle: characteristic roots -1 +- 1/sqrt(2), both stable
        w = np.linalg.eigvals(M)
        assert np.allclose(sorted(w.real), [-1 - 2**-0.5, -1 + 2**-0.5])

    def test_prescribed_spectrum(self, rng):
        eigs = np.array([-3.0, -1.0, -0.2, 0.5, 1.0, 4.0])
        V = rng.normal(size=(6, 6))
        M = V @ np.diag(eigs) @ np.linalg.inv(V)
        sub = split_invariant_subspaces(M)
        assert sub.k == 3

    def test_reconstruction_invariant(self, rng):
        M = rng.normal(size=(7, 7))
        sub = split_invariant_subspaces(M)
        Z = sub.basis_s
        res = np.linalg.norm(M @ Z - Z @ (Z.conj().T @ M @ Z))
        assert res <= 1e-10 * np.linalg.norm(M)

    def test_positive_scaling_same_subspace(self, rng):
        M = rng.normal(size=(5, 5))
        a = split_invariant_subspaces(M).basis_s
        b = split_invariant_subspaces(3.7 * M).basis_s
        assert a.shape == b.shape
        angles = sla.subspace_angles(a, b)
        assert np.max(angles, initial=0.0) < 1e-8

    def test_near_imaginary_raises(self):
        with pytest.raises(NearImaginaryEigenvalue):
            split_invariant_subspaces(np.diag([1e-12, -1.0]))

    def test_real_stable_basis_is_real(self, rng):
        M = rng.normal(size=(6, 6)) - 2 * np.eye(6)
        R = stable_basis_real(M)
        assert np.isrealobj(R)
        angles = sla.subspace_angles(R, split_invariant_subspaces(M).basis_s)
        assert np.max(angles, initial=0.0) < 1e-8

    @pytest.mark.parametrize("flip", ["all", "alternate"])
    def test_real_stable_basis_ignores_singular_vector_signs(self, flip, rng, monkeypatch):
        M = rng.normal(size=(6, 6)) - 2 * np.eye(6)
        R = stable_basis_real(M)
        assert R.shape[1] >= 2
        lead = R[np.abs(R).argmax(axis=0), np.arange(R.shape[1])]
        assert np.all(lead > 0)
        svd = np.linalg.svd

        def flipped(a, *args, **kwargs):
            out = svd(a, *args, **kwargs)
            if not kwargs.get("compute_uv", True):
                return out
            U, s, Vh = out
            signs = -np.ones(U.shape[-1]) if flip == "all" else (-1.0) ** np.arange(U.shape[-1])
            return U * signs, s, Vh * signs[:, None]

        monkeypatch.setattr(np.linalg, "svd", flipped)
        assert np.array_equal(stable_basis_real(M), R)


class TestSignSplitter:
    """The stable subspace as the range of (I - sign M) / 2, against the
    sorted complex Schur form of ``tests/oracles.py``."""

    def test_matches_sorted_schur_on_pool(self, random_bundles):
        spec = SamplingSpec(resolution=4, rim_points=0)
        worst = 0.0
        for b in random_bundles:
            d = b.sys.d
            Ms = [*_M_stack(b.sys, b.frame)(directions(d + 2, spec)),
                  *_M1_stack(b.sys, b.eq)(xi_omega_directions(d, spec)), b.data.M2]
            for M in Ms:
                Z = schur_stable_basis(M)
                sub = split_invariant_subspaces(M)
                assert Z is not None and sub.k == Z.shape[1]
                if sub.k:
                    worst = max(worst, sla.subspace_angles(Z, sub.basis_s).max())
            R = stable_basis_real(b.data.M2)
            assert np.isrealobj(R)
            if R.shape[1]:
                worst = max(worst, sla.subspace_angles(schur_stable_basis(b.data.M2), R).max())
        assert worst <= 1e-12

    def test_rows_do_not_depend_on_the_stack(self, rng):
        M = rng.normal(size=(5, 4, 4)) + 1j * rng.normal(size=(5, 4, 4))
        S = matrix_sign(M)
        for i in range(len(M)):
            assert np.array_equal(S[i], matrix_sign(M[i : i + 1])[0])
        assert np.allclose(S @ S, np.eye(4), atol=1e-12)

    def test_unconverged_row_raises(self, monkeypatch):
        # diag(-1, 1) is its own sign after one step; the Jordan block of
        # the second row is not
        monkeypatch.setattr(linalg, "SIGN_MAX_STEPS", 1)
        jordan = np.array([[-1.0, 1.0], [0.0, -1.0]])
        with pytest.raises(SignNotConverged) as exc:
            matrix_sign(np.array([np.diag([-1.0, 1.0]), jordan]))
        assert exc.value.row == 1
        # a fallback row of a stack is named by its row in the stack
        M = np.array([np.diag([-1.0, -2.0]), np.diag([-1.0, -3.0]), jordan], dtype=complex)
        with pytest.raises(SignNotConverged) as exc:
            stable_eigvecs(M, 2)
        assert exc.value.row == 2
        with pytest.raises(SignNotConverged):
            split_invariant_subspaces(jordan)

    def test_trace_other_than_the_stable_count_raises(self, monkeypatch):
        monkeypatch.setattr(linalg, "matrix_sign", lambda M: -np.ones_like(M) * np.eye(M.shape[-1]))
        with pytest.raises(SignNotConverged, match="trace 2, but 1 eigenvalues"):
            split_invariant_subspaces(np.diag([-1.0, 2.0]))


def _level_sources(sys_obj, scenario, eps_list, monkeypatch):
    """Every (argument, value) pair of ``sim.expm`` that ``solve_relaxation``
    forms as a per-level source, stopping each run before its time loop."""
    calls = []

    def record(A):
        calls.append((A, expm(A)))
        return calls[-1][1]

    class Stop(Exception):
        pass

    def stop(*args, **kwargs):
        raise Stop

    monkeypatch.setattr(sim, "expm", record)
    monkeypatch.setattr(sim, "cycle_operator", stop)
    for eps in eps_list:
        with pytest.raises(Stop):
            sim.solve_relaxation(sys_obj, scenario, eps, dx_max=5e-4)
    return calls


class TestExpm:
    @pytest.mark.parametrize("fixture", ["2x2", "3x3-7", "3x3-22"])
    def test_matches_scipy_on_level_sources(self, fixture, monkeypatch):
        if fixture == "2x2":
            sys_obj, scenario = example_system(), example_scenario()
        else:
            sys_obj = double_characteristic_system(int(fixture.split("-")[1]))
            scenario = scenario_double_characteristic(sys_obj)
        calls = _level_sources(sys_obj, scenario, [1e-2, 3e-3, 1e-3, 3e-4], monkeypatch)
        assert len(calls) >= 4 and {A.shape[0] for A, _ in calls} == {sys_obj.r}
        for A, E in calls:
            want = sla.expm(A)
            assert np.abs(E - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 50.0])
    def test_jordan_block(self, scale):
        J = scale * (np.eye(3, k=1) - np.eye(3))
        E = expm(J)
        closed = math.exp(-scale) * np.array(
            [[1.0, scale, scale**2 / 2], [0.0, 1.0, scale], [0.0, 0.0, 1.0]]
        )
        want = sla.expm(J)
        assert np.abs(E - want).max() <= 1e-14 * np.abs(want).max()
        assert np.abs(E - closed).max() <= 1e-14 * np.abs(closed).max()

    def test_small_and_zero(self):
        assert np.array_equal(expm(np.zeros((3, 3))), np.eye(3))
        assert expm(np.zeros((0, 0))).shape == (0, 0)
        assert expm(np.array([[2.0]]))[0, 0] == math.exp(2.0)


class TestFullRankCond:
    def test_condition_number(self):
        assert full_rank_cond(np.diag([4.0, 0.5]), RankDeficient()) == pytest.approx(8.0)

    def test_no_columns(self):
        assert full_rank_cond(np.zeros((3, 0)), RankDeficient()) == 1.0

    @pytest.mark.parametrize("M", [
        np.diag([1.0, 1e-12]),  # the smallest singular value is round-off
        np.diag([1e-10, 1e-11]),  # relative to max(s_max, 1), not to s_max
        np.ones((1, 2)),  # fewer singular values than columns
    ])
    def test_rank_deficient_raises(self, M):
        with pytest.raises(RankDeficient, match="marker"):
            full_rank_cond(M, RankDeficient("marker"))


class TestOrthonormalComplement:
    def test_e1_in_r3(self):
        C = orthonormal_complement(np.eye(3)[:, [0]])
        assert C.shape == (3, 2)
        assert np.allclose(C[0], 0.0)

    def test_2d(self):
        v = np.array([[1.0], [1.0]]) / math.sqrt(2)
        C = orthonormal_complement(v)
        assert abs(abs(C[0, 0]) - 1 / math.sqrt(2)) < 1e-12
        assert abs(C.T @ v) < 1e-12

    def test_random_properties(self, rng):
        V = rng.normal(size=(5, 2))
        C = orthonormal_complement(V)
        assert C.shape == (5, 3)
        assert np.linalg.norm(C.T @ V) < 1e-12
        assert np.linalg.norm(C.T @ C - np.eye(3)) < 1e-12

    def test_rank_deficient_raises(self):
        V = np.ones((4, 2))
        with pytest.raises(RankDeficient):
            orthonormal_complement(V)


class TestMatrixExponentialAction:
    def test_evaluator_matches_expm(self, rng):
        M = rng.normal(size=(5, 5)) - 2 * np.eye(5)
        v = rng.normal(size=5)
        ys = np.array([0.0, 0.3, 1.7])
        got = ExpActionEvaluator(M).apply(ys, v)
        want = np.array([sla.expm(M * y) @ v for y in ys])
        assert np.allclose(got, want, atol=1e-10)

    def test_defective_M_takes_expm(self):
        # a Jordan block has no eigenvector basis, so every point takes expm
        M = np.eye(3, k=1) - np.eye(3)
        ev = ExpActionEvaluator(M)
        assert ev._diag is None
        ys, v = np.array([0.0, 0.5, 2.0]), np.array([1.0, -2.0, 0.5])
        want = np.array([sla.expm(M * y) @ v for y in ys])
        assert np.abs(ev.apply(ys, v) - want).max() <= 1e-14
