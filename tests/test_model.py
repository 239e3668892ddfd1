import dataclasses
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbc.errors import ParseError, ValidationFailed
from relaxbc.fixtures import double_characteristic_system, example_system, random_system
from relaxbc.model import (
    RawSystem,
    RelaxationSystem,
    canonicalize,
    check_sk_condition,
    compute_indices,
    load_system,
    raw_system_from_dict,
    split_speeds,
    system_from_dict,
    system_to_dict,
    validate_structural_stability,
)
from relaxbc.reduction import build_equilibrium_frame
from relaxbc.spectral import build_kernel_frame
from relaxbc.tolerances import EIG_GREY_FACTOR, RANK_REL, spectral_norm, tau_eig

#: the words by which split_speeds names a speed in its grey band
GREY_BAND = f"within (tau, {EIG_GREY_FACTOR:g}*tau)"


def raw_12():
    return RawSystem(
        A0=np.eye(2),
        A=(np.array([[3.0, 1.0], [1.0, 1.0]]),),
        Q=np.diag([0.0, -1.0]),
        B=np.eye(2),
        d=1, n=2, r=1,
    )


class TestStructuralStability:
    def test_worked_example_passes(self):
        report = validate_structural_stability(raw_12())
        assert report.passed and report.onsager

    def test_zero_flux_passes(self):
        n, r = 4, 2
        raw = RawSystem(
            A0=np.eye(n), A=(np.zeros((n, n)),),
            Q=np.diag([0.0, 0.0, -1.0, -1.0]),
            B=np.zeros((0, n)), d=1, n=n, r=r,
        )
        assert validate_structural_stability(raw).passed

    def test_positive_source_fails_dissipation(self):
        raw = RawSystem(
            A0=np.eye(2), A=(np.array([[3.0, 1.0], [1.0, 1.0]]),),
            Q=np.diag([0.0, 1.0]), B=np.eye(2), d=1, n=2, r=1,
        )
        report = validate_structural_stability(raw)
        assert not report.passed


class TestCanonicalize:
    def test_already_canonical_unchanged(self):
        sys_obj = canonicalize(raw_12())
        assert np.allclose(sys_obj.A1, [[3, 1], [1, 1]])
        assert np.allclose(sys_obj.transform, np.eye(2))

    def test_idempotence(self):
        first = canonicalize(raw_12())
        again = canonicalize(
            RawSystem(A0=np.eye(2), A=first.A, Q=first.Q, B=first.B,
                      d=1, n=2, r=1)
        )
        assert np.allclose(again.A1, first.A1)
        assert np.allclose(again.Q, first.Q)

    def test_nontrivial_symmetrizer_congruence_oracle(self):
        # A0 = diag(4, 1); the flux is chosen so A0 @ A_raw is symmetric.
        A0 = np.diag([4.0, 1.0])
        M_sym = np.array([[2.0, 1.0], [1.0, -1.0]])
        A_raw = np.linalg.inv(A0) @ M_sym
        raw = RawSystem(
            A0=A0, A=(A_raw,), Q=np.diag([0.0, -1.0]),
            B=np.array([[1.0, 0.0]]), d=1, n=2, r=1,
        )
        sys_obj = canonicalize(raw)
        # oracle: congruence by A0^{-1/2} applied independently
        W = np.diag([0.5, 1.0])
        expected = W @ M_sym @ W
        assert np.allclose(sys_obj.A1, expected, atol=1e-12)
        # inertia preserved (one positive, one negative eigenvalue)
        w = np.linalg.eigvalsh(sys_obj.A1)
        assert (w[0] < 0) and (w[1] > 0)


def _plain_system(A1, Q, B, r):
    n = A1.shape[0]
    return RelaxationSystem(
        d=1, n=n, r=r, A=(A1,), Q=Q, B=B, labels=(), transform=np.eye(n)
    )


class TestSkCondition:
    def test_invertible_a1_vacuous(self):
        assert check_sk_condition(example_system())

    def test_kernel_outside_ker_q(self):
        A1 = np.diag([1.0, 0.0, -1.0])
        Q = np.diag([0.0, -1.0, -1.0])
        sys_obj = _plain_system(A1, Q, np.eye(2, 3), r=2)
        assert check_sk_condition(sys_obj)
        # oracle: null-space intersection is trivial
        k_a = np.eye(3)[:, [1]]
        assert np.linalg.norm(Q @ k_a) > 0.5

    def test_kernel_inside_ker_q_fails(self):
        A1 = np.diag([0.0, 1.0, -1.0])
        Q = np.diag([0.0, 0.0, -1.0])
        sys_obj = _plain_system(A1, Q, np.eye(1, 3), r=1)
        assert not check_sk_condition(sys_obj)

    @pytest.mark.parametrize("big, factor, holds", [
        (0.5, 2.0, True), (0.5, 0.5, False), (10.0, 2.0, True), (10.0, 0.5, False),
    ])
    def test_threshold_is_the_rank_rule(self, big, factor, holds):
        # ker(A1) = span(k), k = (1, small, 0, 0) / |k|: its lower block R02
        # has the one singular value small / |k|, and the rank rule of
        # linalg.full_rank_cond fails it once that is <= RANK_REL, whatever
        # the size of Q = big diag(0, -I)
        small = factor * RANK_REL
        norm = np.hypot(1.0, small)
        V = np.eye(4)
        V[:2, :2] = np.array([[1.0, -small], [small, 1.0]]) / norm
        A1 = V @ np.diag([0.0, 1.0, -1.0, -1.0]) @ V.T
        Q = big * np.diag([0.0, -1.0, -1.0, -1.0])
        assert check_sk_condition(_plain_system(A1, Q, V[:, 1:2].T, r=3)) is holds

    def test_verdict_does_not_scale_with_q(self):
        # the rank of R0^T Q R0 scaled with |Q|: at Q * 1e-9 it failed this
        # fixture, whose R02 has singular value 0.88
        sys_obj = double_characteristic_system(7)
        scaled = dataclasses.replace(sys_obj, Q=sys_obj.Q * 1e-9)
        assert check_sk_condition(sys_obj) and check_sk_condition(scaled)


class TestIndices:
    def test_worked_example(self):
        idx = compute_indices(example_system())
        assert (idx.n0, idx.n_plus, idx.n10, idx.n1_plus) == (0, 2, 0, 1)

    def test_zero_flux(self):
        A1 = np.zeros((2, 2))
        sys_obj = _plain_system(A1, np.diag([0.0, -1.0]), np.zeros((0, 2)), r=1)
        idx = compute_indices(sys_obj)
        assert (idx.n0, idx.n_plus) == (2, 0)

    def test_prescribed_spectrum(self, rng):
        O, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A1 = O @ np.diag([1.0, 0.0, -2.0]) @ O.T
        A1 = 0.5 * (A1 + A1.T)
        sys_obj = _plain_system(A1, np.diag([0.0, 0.0, -1.0]), np.eye(1, 3), r=1)
        idx = compute_indices(sys_obj)
        assert (idx.n0, idx.n_plus) == (1, 1)

    def test_grey_band_raises(self):
        A1 = np.diag([5e-9, 1.0])
        sys_obj = _plain_system(A1, np.diag([0.0, -1.0]), np.eye(1, 2), r=1)
        with pytest.raises(ValidationFailed, match=re.escape(GREY_BAND)):
            compute_indices(sys_obj)

    def test_invariance_under_block_orthogonal_conjugation(self, rng):
        from relaxbc.fixtures import random_system

        sys_obj = random_system(rng, n_max=6)
        idx = compute_indices(sys_obj)
        n1, r = sys_obj.n - sys_obj.r, sys_obj.r
        O1, _ = np.linalg.qr(rng.normal(size=(n1, n1)))
        O2, _ = np.linalg.qr(rng.normal(size=(r, r)))
        O = np.block([[O1, np.zeros((n1, r))], [np.zeros((r, n1)), O2]])
        conj = RelaxationSystem(
            d=sys_obj.d, n=sys_obj.n, r=r,
            A=tuple(O.T @ Aj @ O for Aj in sys_obj.A),
            Q=O.T @ sys_obj.Q @ O, B=sys_obj.B @ O,
            labels=(), transform=np.eye(sys_obj.n),
        )
        idx2 = compute_indices(conj)
        assert idx == idx2


def _planted(sys_obj, s, sign):
    """sys_obj with the A11 speed nearest zero moved to sign * s * tau,
    tau = tau_eig(||A1||) of the returned system."""
    n1 = sys_obj.n - sys_obj.r
    mu, W = np.linalg.eigh(sys_obj.A11)
    k = int(np.argmin(np.abs(mu)))
    A1 = sys_obj.A1.copy()
    tau = 0.0
    for _ in range(3):  # the planted speed moves ||A1||, hence tau, slightly
        mu[k] = sign * s * tau
        A1[:n1, :n1] = W @ np.diag(mu) @ W.T
        A1 = 0.5 * (A1 + A1.T)
        tau = tau_eig(spectral_norm(A1))
    others = int(np.sum(np.abs(np.delete(mu, k)) <= tau))
    return dataclasses.replace(sys_obj, A=(A1, *sys_obj.A[1:])), others


def _or_ambiguous(f):
    try:
        return f()
    except ValidationFailed as exc:
        if GREY_BAND not in str(exc):
            raise
        return "ambiguous"


class TestSpeedSplit:
    def test_diag(self):
        sys_obj = _plain_system(
            np.diag([1.0, 0.0, 0.0]), np.diag([0.0, -1.0, -1.0]), np.eye(1, 3), r=2
        )
        K = split_speeds(sys_obj)[0].kernel
        assert K.shape == (3, 2)
        assert np.allclose(K[0], 0.0)

    def test_invertible_empty(self):
        K = split_speeds(example_system())[0].kernel
        assert K.shape == (2, 0)

    def test_construction_oracle(self, rng):
        O, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        A = O @ np.diag([2.0, 0.0, -1.0]) @ O.T
        sys_obj = _plain_system(
            0.5 * (A + A.T), np.diag([0.0, 0.0, -1.0]), np.eye(1, 3), r=1
        )
        K = split_speeds(sys_obj)[0].kernel
        assert K.shape == (3, 1)
        assert abs(abs(K[:, 0] @ O[:, 1]) - 1.0) < 1e-10

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(["n0=0", "n0=1", "double"]),
        seed=st.integers(0, 2**16),
        s=st.one_of(
            st.floats(0.0, 0.999), st.floats(1.001, 9.99), st.floats(10.01, 1e3)
        ),
        sign=st.sampled_from([-1.0, 1.0]),
    )
    def test_one_rule_for_every_zero_speed(self, sys3, kind, seed, s, sign):
        # one A11 speed planted at sign * s * tau: the indices, the kernel
        # frame and the equilibrium frame classify it alike, and all three
        # refuse it in the grey band (tau, 10 tau)
        if kind == "double":
            base = sys3
        else:
            rng = np.random.default_rng(seed)
            base = random_system(rng, n_max=5, require_n0=int(kind[-1]))
        sys_obj, others = _planted(base, s, sign)
        idx = _or_ambiguous(lambda: compute_indices(sys_obj))
        n0 = _or_ambiguous(lambda: build_kernel_frame(sys_obj).n0)
        n10 = _or_ambiguous(lambda: build_equilibrium_frame(sys_obj).n10)
        if 1.0 < s < 10.0:
            assert idx == n0 == n10 == "ambiguous"
        elif idx == "ambiguous":
            # the planted speed moved a speed of A1 into its grey band
            assert n0 == n10 == "ambiguous"
        else:
            assert (n0, n10) == (idx.n0, idx.n10)
            assert idx.n10 == others + (s <= 1.0)


class TestSerialization:
    def test_round_trip(self):
        sys_obj = example_system()
        again = system_from_dict(system_to_dict(sys_obj))
        assert np.allclose(again.A1, sys_obj.A1)
        assert np.allclose(again.B, sys_obj.B)

    def test_random_fixture_file_round_trip(self, tmp_path):
        # random fixtures carry labels=None
        sys_obj = random_system(np.random.default_rng(7))
        path = tmp_path / "system.json"
        path.write_text(json.dumps(system_to_dict(sys_obj)))
        again = load_system(str(path))
        assert again.labels == ()
        for Aj, Bj in zip(again.A, sys_obj.A):
            assert np.array_equal(Aj, Bj)
        assert np.array_equal(again.Q, sys_obj.Q)
        assert np.array_equal(again.B, sys_obj.B)

    def test_ragged_matrix_rejected(self):
        doc = system_to_dict(example_system())
        doc["A"] = [[[3.0, 1.0], [1.0]]]
        with pytest.raises(ParseError):
            system_from_dict(doc)

    @pytest.mark.parametrize("labels", ["uv", ["u"], ["u", 2], None])
    def test_labels_must_name_the_equilibrium_components(self, labels):
        # n - r = 2: labels, when given, name both equilibrium components;
        # the string "uv" was read as ("u", "v")
        doc = {
            "d": 1, "n": 3, "r": 1,
            "A": [[[1.0, 0.0, 1.0], [0.0, -1.0, 0.5], [1.0, 0.5, 0.0]]],
            "Q": [[0.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
            "B": [[1.0, 0.3, 0.2]],
        }
        for fine in ([], ["u", "w"], ["u", "w", "v"]):
            assert raw_system_from_dict({**doc, "labels": fine}).labels == tuple(fine)
        with pytest.raises(ParseError, match="'labels' must list at least 2 strings"):
            raw_system_from_dict({**doc, "labels": labels})

    def test_missing_field_rejected(self):
        doc = system_to_dict(example_system())
        del doc["B"]
        with pytest.raises(ParseError):
            system_from_dict(doc)

    def test_s_block_shorthand(self):
        doc = system_to_dict(example_system())
        del doc["Q"]
        doc["S"] = [[-1.0]]
        sys_obj = system_from_dict(doc)
        assert np.allclose(sys_obj.Q, np.diag([0.0, -1.0]))


class TestCanonicalValidate:
    def test_rank_deficient_b_rejected(self):
        sys_obj = example_system()
        bad = RelaxationSystem(
            d=1, n=2, r=1, A=sys_obj.A, Q=sys_obj.Q,
            B=np.array([[1.0, 0.0], [1.0, 0.0]]),
            labels=(), transform=np.eye(2),
        )
        with pytest.raises(ValidationFailed, match="rank"):
            bad.validate()

    def test_b_touching_kernel_rejected(self):
        A1 = np.diag([0.0, 1.0, -1.0])
        Q = np.diag([0.0, -1.0, -1.0])
        bad = _plain_system(A1, Q, np.array([[1.0, 1.0, 0.0]]), r=2)
        with pytest.raises(ValidationFailed, match="zero-speed"):
            bad.validate()
