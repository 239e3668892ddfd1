import math

import numpy as np
import pytest
import scipy.linalg as sla

from relaxbc.errors import NearImaginaryEigenvalue, RankDeficient
from relaxbc.linalg import (
    ExpActionEvaluator,
    orthonormal_complement,
    orthonormal_kernel,
    split_invariant_subspaces,
    stable_basis_real,
)


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


class TestOrthonormalKernel:
    def test_diag(self):
        K = orthonormal_kernel(np.diag([1.0, 0.0, 0.0]))
        assert K.shape == (3, 2)
        assert np.allclose(K[0], 0.0)

    def test_invertible_empty(self):
        K = orthonormal_kernel(np.array([[3.0, 1.0], [1.0, 1.0]]))
        assert K.shape == (2, 0)

    def test_construction_oracle(self, rng):
        O, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A = O @ np.diag([2.0, 0.0, -1.0]) @ O.T
        K = orthonormal_kernel(0.5 * (A + A.T))
        assert K.shape == (3, 1)
        assert abs(abs(K[:, 0] @ O[:, 1]) - 1.0) < 1e-10


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
