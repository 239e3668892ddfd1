import math

import numpy as np
import pytest
import scipy.linalg as sla

from oracles import dense_m2, schur_stable_basis
from relaxbc import linalg
from relaxbc.errors import AssumptionViolated, NearImaginaryEigenvalue, SignNotConverged
from relaxbc.linalg import (
    full_rank_cond,
    matrix_sign,
    orthonormal_complement,
    split_invariant_subspaces,
    stable_basis_real,
    stable_eigvecs,
)
from relaxbc.reduction import _M1_stack
from relaxbc.spectral import SamplingSpec, _M_stack, directions, xi_omega_directions


def test_axis_guard_takes_no_2_norm_of_an_empty_stack(monkeypatch):
    # every row of this stack passes the screens of stable_eigvecs, so the
    # axis guard gets no row and takes no stacked 2-norm
    frobenius = np.linalg.norm

    def no_2_norm(x, ord=None, axis=None, keepdims=False):
        if ord == 2:
            raise AssertionError("2-norm taken")
        return frobenius(x, ord, axis, keepdims)

    M = np.tile(np.diag([-1.0, -2.0, 3.0]), (4, 1, 1))
    monkeypatch.setattr(np.linalg, "norm", no_2_norm)
    V_s, vol, skipped, split = stable_eigvecs(M, 2)
    assert skipped == {} and split.size == 0
    np.testing.assert_allclose(vol, 1.0)
    assert linalg._axis_guard(M[:0], np.zeros((0, 3), complex)) == {}


class TestSplitInvariantSubspaces:
    def test_diagonal(self):
        Z = split_invariant_subspaces(np.diag([-1.0, 2.0]))
        assert Z.shape[1] == 1
        assert np.allclose(np.abs(Z.ravel()), [1.0, 0.0])

    def test_worked_example_matrix(self):
        M = 0.5 * np.array([[-1.0, 1.0], [1.0, -3.0]])
        assert split_invariant_subspaces(M).shape[1] == 2
        # oracle: characteristic roots -1 +- 1/sqrt(2), both stable
        w = np.linalg.eigvals(M)
        assert np.allclose(sorted(w.real), [-1 - 2**-0.5, -1 + 2**-0.5])

    def test_prescribed_spectrum(self, rng):
        eigs = np.array([-3.0, -1.0, -0.2, 0.5, 1.0, 4.0])
        V = rng.normal(size=(6, 6))
        M = V @ np.diag(eigs) @ np.linalg.inv(V)
        assert split_invariant_subspaces(M).shape[1] == 3

    def test_reconstruction_invariant(self, rng):
        M = rng.normal(size=(7, 7))
        Z = split_invariant_subspaces(M)
        res = np.linalg.norm(M @ Z - Z @ (Z.conj().T @ M @ Z))
        assert res <= 1e-10 * np.linalg.norm(M)

    def test_positive_scaling_same_subspace(self, rng):
        M = rng.normal(size=(5, 5))
        a = split_invariant_subspaces(M)
        b = split_invariant_subspaces(3.7 * M)
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
        angles = sla.subspace_angles(R, split_invariant_subspaces(M))
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
            d, M2 = b.sys.d, dense_m2(b)
            Ms = [*_M_stack(b.sys, b.frame)(directions(d + 2, spec)),
                  *_M1_stack(b.sys, b.eq)(xi_omega_directions(d, spec)), M2]
            for M in Ms:
                Z = schur_stable_basis(M)
                basis = split_invariant_subspaces(M)
                assert Z is not None and basis.shape[1] == Z.shape[1]
                if basis.shape[1]:
                    worst = max(worst, sla.subspace_angles(Z, basis).max())
            R = stable_basis_real(M2)
            assert np.isrealobj(R)
            if R.shape[1]:
                worst = max(worst, sla.subspace_angles(schur_stable_basis(M2), R).max())
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


def _spans_stable_subspace(V, M):
    """V has full column rank and spans the stable subspace of M."""
    Z = split_invariant_subspaces(M)
    unit = V / np.linalg.norm(V, axis=0)
    return (
        np.linalg.svd(unit, compute_uv=False)[-1] > 1e-3
        and np.linalg.norm(unit - Z @ (Z.conj().T @ unit)) <= 1e-10
    )


class TestFallback:
    """``stable_eigvecs`` takes the stable eigenvectors of a row from
    inverse iteration on its eigenvalues, and sends the rows where they
    cannot stand in for a basis to the sign split (``split``)."""

    def test_semisimple_double_stable_eigenvalue(self):
        # eigvals gives -1 twice exactly: the two equal shifts give parallel
        # vectors, and the row still comes back with a full-rank basis
        M = np.array([[-1.0, 0.0, 1.0], [0.0, -1.0, 1.0], [0.0, 0.0, 2.0]], dtype=complex)
        lam = np.array([[-1.0, -1.0]], dtype=complex)
        V = linalg._inverse_iteration(M[None], lam, np.linalg.norm(M, keepdims=True)[0])
        assert np.array_equal(V[0, :, 0], V[0, :, 1])
        V_s, _, skipped, split = stable_eigvecs(M[None], 2)
        assert skipped == {} and list(split) == [0]
        assert _spans_stable_subspace(V_s[0], M)

    def test_near_jordan_block(self):
        # eigenvalues -1 +- 1e-6 whose eigenvectors are 2e-6 apart
        M = np.array([[-1.0, 1.0, 0.0], [1e-12, -1.0, 0.0], [0.0, 0.0, 3.0]], dtype=complex)
        V_s, _, skipped, split = stable_eigvecs(M[None], 2)
        assert skipped == {} and list(split) == [0]
        assert _spans_stable_subspace(V_s[0], M)

    def test_stable_and_unstable_eigenvalue_inside_the_gap(self, rng):
        # -3e-7 and 3e-7 clear the axis margin (2e-8 of ||M||_F) but lie
        # closer than EIGVAL_GAP_REL * ||M||_F to each other
        O = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        M = (O @ np.diag([-1.0, -3e-7, 3e-7]) @ O.T).astype(complex)
        norm = np.linalg.norm(M)
        assert 6e-7 < linalg.EIGVAL_GAP_REL * norm and 3e-7 > linalg.AXIS_MARGIN * 1e-8 * norm
        V_s, _, skipped, split = stable_eigvecs(M[None], 2)
        assert skipped == {} and list(split) == [0]
        assert _spans_stable_subspace(V_s[0], M)

    def test_eigenvalues_computed_exactly(self, monkeypatch):
        # a triangular M: eigvals returns its diagonal exactly, so a shift
        # equal to the eigenvalue would make the stacked solve singular
        T = np.array([[-1.0, 2.0, 0.5], [0.0, -2.0, 1.0], [0.0, 0.0, 3.0]], dtype=complex)
        M = np.stack([T, T.T, T + 0.5j * np.eye(3)])
        assert np.array_equal(np.sort_complex(np.linalg.eigvals(T)), [-2.0, -1.0, 3.0])
        V_s, _, skipped, split = stable_eigvecs(M, 2)
        assert skipped == {} and split.size == 0
        assert all(_spans_stable_subspace(V, A) for V, A in zip(V_s, M))
        # without the offset the solve raises LinAlgError for the whole stack
        monkeypatch.setattr(linalg, "INVERSE_SHIFT_REL", 0.0)
        assert list(stable_eigvecs(M, 2)[3]) == [0, 1, 2]

    def test_near_axis_row_is_skipped_without_stable_eigenvalues(self):
        M = np.array([[[2.0, 0.0], [0.0, 3.0]], [[1e-17, 0.0], [0.0, 2.0]]], dtype=complex)
        V_s, _, skipped, split = stable_eigvecs(M, 0)
        assert V_s.shape == (2, 2, 0) and list(skipped) == [1] and split.size == 0
        assert "imaginary axis" in str(skipped[1])

    def test_rows_do_not_depend_on_the_stack(self, rng):
        # 512 rows with two stable eigenvalues of six, row 300 a near-Jordan
        # block that takes the sign split
        N = 512
        X = rng.normal(size=(N, 6, 6)) + 1j * rng.normal(size=(N, 6, 6))
        lam = rng.uniform(0.2, 2.0, size=(N, 6)) * np.array([-1, -1, 1, 1, 1, 1])
        lam = lam + 1j * rng.normal(size=(N, 6))
        M = X * lam[:, None, :] @ np.linalg.inv(X)
        M[300] = np.diag([-1.0, -1.0, 1.0, 2.0, 3.0, 4.0]) + np.diag([1.0, 0, 0, 0, 0], 1)
        M[300, 1, 0] = 1e-12
        V_s, _, skipped, split = stable_eigvecs(M, 2)
        assert skipped == {} and list(split) == [300]
        for i in (0, 1, 300, 511):
            alone = stable_eigvecs(M[i : i + 1], 2)[0][0]
            assert alone.tobytes() == V_s[i].tobytes()

    def test_volume_is_that_of_each_returned_basis(self, rng):
        # eigenvector rows return the screen's volume; a sign-split row
        # (5) and a skipped row (9, whose basis is zero) have theirs
        # computed from the basis returned, bit for bit
        N = 16
        X = rng.normal(size=(N, 6, 6)) + 1j * rng.normal(size=(N, 6, 6))
        lam = rng.uniform(0.2, 2.0, size=(N, 6)) * np.array([-1, -1, 1, 1, 1, 1])
        M = X * lam[:, None, :] @ np.linalg.inv(X)
        M[5] = np.diag([-1.0, -1.0, 1.0, 2.0, 3.0, 4.0]) + np.diag([1.0, 0, 0, 0, 0], 1)
        M[5, 1, 0] = 1e-12
        M[9] = np.diag([-1.0, -2.0, 1e-17, 2.0, 3.0, 4.0])
        V_s, vol, skipped, split = stable_eigvecs(M, 2)
        assert list(skipped) == [9] and list(split) == [5]
        assert vol.dtype == np.float64 and vol.shape == (N,)
        assert vol.tobytes() == linalg.volume(V_s).tobytes()
        assert vol[9] == 0.0 and np.all(vol[vol > 0] >= 1 / linalg.EIGVEC_COND_MAX)


    def test_rejected_rows_take_no_second_eigvals(self, monkeypatch):
        # row 1 is skipped, though its stable count is also wrong; its two
        # eigenvalues nearest the axis tie, and the first in LAPACK order is
        # named, as the axis guard of the one matrix names it; row 2 takes
        # the sign split
        near = np.diag([-1.0, -2.0, 1e-17 + 1j, -1e-17 + 2j])
        jordan = np.diag([-1.0, -1.0, 1.0, 2.0]) + np.diag([1.0, 0.0, 0.0], 1)
        jordan[1, 0] = 1e-12
        M = np.array([np.diag([-1.0, -2.0, 3.0, 4.0]), near, jordan], dtype=complex)
        with pytest.raises(NearImaginaryEigenvalue) as alone:
            linalg.guarded_eigvals(M[1])
        assert alone.value.eigenvalue == 1e-17 + 1j

        def unreachable(M):
            raise AssertionError("guarded_eigvals reached")

        monkeypatch.setattr(linalg, "guarded_eigvals", unreachable)
        _, _, skipped, split = stable_eigvecs(M, 2)
        assert list(skipped) == [1] and list(split) == [2]
        assert str(skipped[1]) == str(alone.value)

    def test_linalg_error_from_eigvals_propagates(self, monkeypatch):
        def fail(M):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigvals", fail)
        with pytest.raises(np.linalg.LinAlgError, match="did not converge"):
            stable_eigvecs(np.array([np.diag([-1.0, 2.0])], dtype=complex), 1)


class TestFullRankCond:
    def test_condition_number(self):
        assert full_rank_cond(np.diag([4.0, 0.5]), AssumptionViolated()) == pytest.approx(8.0)

    def test_no_columns(self):
        assert full_rank_cond(np.zeros((3, 0)), AssumptionViolated()) == 1.0

    @pytest.mark.parametrize("M", [
        np.diag([1.0, 1e-12]),  # the smallest singular value is round-off
        np.diag([1e-10, 1e-11]),  # relative to max(s_max, 1), not to s_max
        np.ones((1, 2)),  # fewer singular values than columns
    ])
    def test_rank_deficient_raises(self, M):
        with pytest.raises(AssumptionViolated, match="marker"):
            full_rank_cond(M, AssumptionViolated("marker"))


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
        with pytest.raises(AssumptionViolated, match="column-rank deficient"):
            orthonormal_complement(V)
