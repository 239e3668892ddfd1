"""The batched frequency sampler against the scalar per-point oracles:
direction grid, GKC ratios, eta = infinity and UKC minima, the fallback to the
Schur path, and the report fields for skipped or unformed limits."""

import math

import numpy as np
import pytest

from relaxbc import reduction
from relaxbc.errors import AssumptionViolated, NearImaginaryEigenvalue
from relaxbc.fixtures import example_system, random_admissible_bundle
from relaxbc.linalg import stable_eigvecs
from relaxbc.model import RelaxationSystem
from relaxbc.reduction import (
    _ukc_ratio,
    derive_all,
    eta_inf_ratios,
    limit_stable_matrix,
    ukc_ratios,
)
from relaxbc.spectral import (
    SamplingSpec,
    _unit_to_point,
    build_kernel_frame,
    check_gkc,
    directions,
    gkc_ratio,
    gkc_ratios,
    xi_omega_directions,
)

REL = 1e-10
SPEC8 = SamplingSpec(resolution=8, rim_points=0)


def _close(batched, scalar):
    both = ~np.isnan(scalar)
    assert np.array_equal(np.isnan(batched), ~both)
    err = np.abs(batched[both] - scalar[both])
    assert np.all(err <= REL * np.abs(scalar[both]))


def _scalar_gkc(sys_obj, frame, units):
    vals, failures = [], []
    for u in units:
        p = _unit_to_point(u, sys_obj.d)
        try:
            vals.append(gkc_ratio(sys_obj, frame, p))
        except NearImaginaryEigenvalue as exc:
            vals.append(math.nan)
            failures.append(f"{p.as_tuple()}: {exc}")
    return np.array(vals), failures


def _scalar_eta_inf(b, units):
    vals = []
    for u in units:
        try:
            R = limit_stable_matrix(
                b.sys, b.frame, b.eq, b.data, complex(u[0], u[1]), u[2:]
            )
        except NearImaginaryEigenvalue:
            vals.append(math.nan)
            continue
        num = abs(np.linalg.det(b.sys.B @ b.frame.R1 @ R))
        den = math.sqrt(max(np.linalg.det(R.conj().T @ R).real, 0.0))
        vals.append(0.0 if den == 0.0 else num / den)
    return np.array(vals)


def _scalar_ukc(b, units):
    vals = []
    for u in units:
        try:
            vals.append(_ukc_ratio(
                b.sys, b.eq, b.rbc.coefficient, complex(u[0], u[1]), u[2:]
            ))
        except NearImaginaryEigenvalue:
            vals.append(math.nan)
    return np.array(vals)


class TestDirections:
    def test_rows_are_distinct_unit_and_ordered(self):
        spec = SamplingSpec(resolution=6, rim_points=4)
        u = directions(5, spec)
        assert np.allclose(np.linalg.norm(u, axis=1), 1.0)
        assert len({tuple(row) for row in u.tolist()}) == len(u)
        assert not np.any(np.signbit(u) & (u == 0.0))  # no -0.0 left
        assert np.all(u[:, 0] >= spec.delta - 1e-15) and np.all(u[:, -1] >= 0.0)
        # first-occurrence order: the pole phi_1 = 0 comes first, once
        assert np.array_equal(u[0], [1.0, 0.0, 0.0, 0.0, 0.0])
        assert np.sum(u[:, 0] == 1.0) == 1

    def test_counts_at_resolution_12(self):
        spec = SamplingSpec(resolution=12, rim_points=64)
        assert len(directions(5, spec)) == 16233
        assert len(xi_omega_directions(3, spec)) == 1464

    def test_shared_grid_has_no_rim_points(self):
        spec = SamplingSpec(resolution=5, rim_points=16)
        shared = xi_omega_directions(2, spec)
        tensor = directions(3, SamplingSpec(resolution=5, rim_points=0))
        assert np.array_equal(shared, tensor)


def test_batched_gkc_matches_scalar_on_random_pool(random_bundles):
    """Batched GKC ratios agree with per-point gkc_ratio to 1e-10 relative,
    with the same skipped points, on the 100-bundle pool at resolution 8."""
    for b in random_bundles:
        units = directions(b.sys.d + 2, SPEC8)
        vals, failures = gkc_ratios(b.sys, b.frame, units)
        want, want_failures = _scalar_gkc(b.sys, b.frame, units)
        _close(vals, want)
        assert failures == want_failures


def test_batched_limits_match_scalar_on_random_pool(random_bundles):
    """The batched eta = infinity and UKC ratios, hence their minima, agree
    with the limit_stable_matrix and _ukc_ratio loops to 1e-10 relative."""
    for b in random_bundles:
        units = xi_omega_directions(b.sys.d, SPEC8)
        _close(eta_inf_ratios(b.sys, b.frame, b.eq, b.data, units),
               _scalar_eta_inf(b, units))
        got = ukc_ratios(b.sys, b.eq, b.rbc.coefficient, units)
        want = _scalar_ukc(b, units)
        _close(got, want)
        assert abs(b.rbc.ukc_min_ratio - np.nanmin(want)) <= REL * np.nanmin(want)


def _plain(Q, A2, B):
    return RelaxationSystem(
        d=2, n=2, r=1, A=(np.eye(2), A2), Q=Q, B=B,
        labels=(), transform=np.eye(2),
    )


class TestFallback:
    def test_defective_and_count_masks(self):
        jordan = np.array([[[-1.0, 1.0], [0.0, -1.0]]], dtype=complex)
        assert not stable_eigvecs(jordan, 2)[2][0]
        near = jordan + np.array([[[0.0, 0.0], [1e-14, 0.0]]])
        assert not stable_eigvecs(near, 2)[2][0]
        split = np.array([[[-1.0, 0.0], [0.0, 2.0]]], dtype=complex)
        assert stable_eigvecs(split, 1)[2][0]
        assert not stable_eigvecs(split, 2)[2][0]

    def test_defective_M_gives_scalar_value(self):
        # M = G = eta Q - xi I - i omega A2 is defective where eta = 2 |omega|
        sys_obj = _plain(np.diag([0.0, -1.0]),
                         np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        frame = build_kernel_frame(sys_obj)
        units = np.array([[1.0, 0.0, 0.5, 1.0], [1.0, 0.2, 0.3, 1.0]])
        M = -units[0, 0] * np.eye(2) + np.diag([0.0, -1.0]) - 0.5j * sys_obj.A[1]
        assert not stable_eigvecs(M[None], 2)[2][0]
        vals, failures = gkc_ratios(sys_obj, frame, units)
        want, _ = _scalar_gkc(sys_obj, frame, units)
        assert failures == []
        _close(vals, want)

    def test_stable_count_mismatch_raises_as_scalar(self):
        # an anti-damped Q leaves one stable eigenvalue where n_+ = 2
        sys_obj = _plain(np.diag([0.0, 1.0]), np.zeros((2, 2)), np.eye(2))
        frame = build_kernel_frame(sys_obj)
        units = np.array([[1.0, 0.0, 0.0, 2.0]])
        with pytest.raises(np.linalg.LinAlgError) as scalar_exc:
            _scalar_gkc(sys_obj, frame, units)
        with pytest.raises(np.linalg.LinAlgError) as batched_exc:
            gkc_ratios(sys_obj, frame, units)
        assert str(batched_exc.value) == str(scalar_exc.value)


class TestReportedGaps:
    def test_eta_infinity_error_fails_the_check(self, pipe2x2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssumptionViolated("M2 has 0 stable eigenvalues, expected 1")

        monkeypatch.setattr(reduction, "build_reduction_data", refuse)
        report = check_gkc(pipe2x2.sys, pipe2x2.frame, SPEC8)
        assert report.min_ratio > 0.5
        assert report.eta_inf_min_ratio is None
        assert report.eta_inf_error == (
            "AssumptionViolated: M2 has 0 stable eigenvalues, expected 1"
        )
        doc = report.to_dict()
        assert doc["includes_eta_infinity"] is False
        assert doc["passed"] is False
        assert doc["eta_inf_error"] == report.eta_inf_error

    def test_eta_infinity_skipped_everywhere_fails_the_check(
        self, pipe2x2, monkeypatch
    ):
        monkeypatch.setattr(
            reduction, "eta_inf_ratios",
            lambda sys_obj, frame, eq, data, units: np.full(len(units), np.nan),
        )
        report = check_gkc(pipe2x2.sys, pipe2x2.frame, SPEC8)
        assert report.eta_inf_min_ratio is None
        assert report.eta_inf_skipped == len(xi_omega_directions(1, SPEC8))
        assert report.eta_inf_error is not None
        assert not report.includes_eta_infinity and not report.passed

    def test_eta_infinity_argmin_is_the_attaining_direction(self):
        # the first bundle of the rng-1234 pool (d = 3) takes its overall
        # minimum at eta = inf, away from (xi, omega) = (1, 0)
        b = random_admissible_bundle(np.random.default_rng(1234))
        report = check_gkc(b.sys, b.frame, SPEC8)
        point = report.argmin_point
        assert math.isinf(point.eta)
        assert report.min_ratio == report.eta_inf_min_ratio
        u = np.array(point.as_tuple()[:-1])
        assert _scalar_eta_inf(b, [u])[0] == pytest.approx(
            report.min_ratio, rel=REL
        )
        corner = np.zeros_like(u)
        corner[0] = 1.0
        assert _scalar_eta_inf(b, [corner])[0] > 2.0 * report.min_ratio
        assert report.to_dict()["argmin_point"] == list(point.as_tuple())

    def test_skipped_points_are_counted(self):
        # at Re xi = delta = 1e-12 the eigenvalues of M and M1 sit within the
        # axis tolerance, so the last Re xi slice of every grid is skipped
        spec = SamplingSpec(resolution=6, rim_points=0, delta=1e-12)
        pipe = derive_all(example_system(), spec=spec)
        units = xi_omega_directions(1, spec)
        rim = int(np.sum(units[:, 0] < 1e-6))
        assert rim > 0
        assert pipe.rbc.ukc_skipped == rim
        assert pipe.rbc.ukc_samples == len(units) - rim
        assert pipe.rbc.to_dict()["ukc_skipped"] == rim

        report = check_gkc(pipe.sys, pipe.frame, spec)
        assert report.eta_inf_skipped == rim
        assert report.to_dict()["eta_inf_skipped"] == rim
        assert len(report.failures) > 0
        assert report.samples + len(report.failures) == len(directions(3, spec))
