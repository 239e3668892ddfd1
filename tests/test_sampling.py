"""The batched frequency sampler against dense per-point oracles that share
none of its builders: direction grids and the conjugate half of the GKC
grid, the rim points' Sobol sequence against scipy's, GKC ratios,
eta = infinity and UKC minima, the per-row Schur fallback, and the report
fields for skipped or unformed limits."""

import dataclasses
import logging
import math
import os

import numpy as np
import pytest
from scipy.spatial import cKDTree

from oracles import (
    dense_limit, dense_M, dense_m1, dense_m2, schur_stable_bases, schur_stable_basis, stack_ratio,
)
from relaxbc import linalg, pool, reduction, spectral
from relaxbc.errors import (
    AssumptionViolated, ConfigError, GkcFailed, NearImaginaryEigenvalue, SignNotConverged,
    SpectralCountMismatch,
)
from relaxbc.fixtures import (
    example_system, random_admissible_bundle, repeated_speed_system,
)
from relaxbc.linalg import stable_eigvecs
from relaxbc.model import RawSystem, RelaxationSystem, canonicalize, compute_indices
from relaxbc.reduction import Pipeline, derive_all
from relaxbc.spectral import (
    SOBOL_MAX_DIM,
    Sample,
    SamplingSpec,
    _gkc_sample,
    _sobol,
    _refine_minimum,
    build_kernel_frame,
    check_gkc,
    directions,
    gkc_directions,
    gkc_ratio,
    sample,
    xi_omega_directions,
)

REL = 1e-10
SPEC8 = SamplingSpec(resolution=8, rim_points=0)


def _gkc(sys_obj, frame, units):
    """The GKC sample of ``check_gkc`` at the rows ``units``."""
    return _gkc_sample("gkc", sys_obj, frame, units)


def _m1_target(b, units, name, X, basis=None):
    """The M1 split of ``Pipeline.m1`` at the rows ``units`` with the one
    target ``name``."""
    n_s = compute_indices(b.sys).n1_plus
    return sample(units, reduction._M1_stack(b.sys, b.eq), n_s, {name: (X, basis)})[name]


def _eta_inf(b, units):
    """The eta = infinity sample of ``Pipeline.gkc`` at the rows ``units``,
    split on its own."""
    def basis(V_s):
        return reduction._limit_basis(b.sys, b.frame, b.eq, b.data, V_s)

    return _m1_target(b, units, "gkc eta = inf", b.sys.B @ b.frame.R1, basis)


def _ukc(b, units):
    """The UKC sample of ``Pipeline.rbc`` at the rows ``units``, split on its
    own."""
    return _m1_target(b, units, "ukc", b.rbc.coefficient @ b.eq.P1)


def _all_skipped(units):
    """A ``Sample`` of ``units`` that skipped every row."""
    reason = NearImaginaryEigenvalue(0j, 1.0)
    return Sample(units, np.full(len(units), np.nan), [(u, reason) for u in units], 0)


def _close(batched, scalar):
    both = ~np.isnan(scalar)
    assert np.array_equal(np.isnan(batched), ~both)
    err = np.abs(batched[both] - scalar[both])
    assert np.all(err <= REL * np.abs(scalar[both]))


def _scalar_gkc(sys_obj, frame, units):
    """Dense GKC ratio per direction, NaN where the split is skipped."""
    Ms = dense_M(sys_obj, frame, np.asarray(units, dtype=float))
    return stack_ratio(sys_obj.B @ frame.R1, schur_stable_bases(Ms))


def _dense_m1_rows(b, units):
    """``dense_m1`` at each row (Re xi, Im xi, omega...) of ``units``."""
    u = np.asarray(units, dtype=float)
    return dense_m1(b.sys, b.eq, u[:, 0] + 1j * u[:, 1], u[:, 2:])


def _scalar_eta_inf(b, units):
    R2S = schur_stable_basis(dense_m2(b))
    M1s, Xs = _dense_m1_rows(b, units)
    limits = [None if R1S is None else dense_limit(b.eq, b.data, R1S, R2S, X)
              for R1S, X in zip(schur_stable_bases(M1s), Xs)]
    return stack_ratio(b.sys.B @ b.frame.R1, limits)


def _scalar_ukc(b, units):
    M1s, _ = _dense_m1_rows(b, units)
    return stack_ratio(b.rbc.coefficient @ b.eq.P1, schur_stable_bases(M1s))


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
        assert len(directions(5, spec)) == 6850
        assert len(xi_omega_directions(3, spec)) == 1343

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("res", [7, 12])
    def test_no_near_repeats(self, d, res):
        # a polar angle of pi leaves no ulp-sized coordinates after it, and
        # the repeats of a pole are dropped by their grid indices
        spec = SamplingSpec(resolution=res)
        for units in (directions(d + 2, spec), xi_omega_directions(d, spec)):
            assert cKDTree(units).query_pairs(1e-12) == set()

    @pytest.mark.parametrize("m", [3, 4, 5])
    @pytest.mark.parametrize("res", [6, 7])
    def test_half_grid_covers_the_full_grid(self, m, res):
        # every row of the full hemisphere grid, rim rows included, is a row
        # of the conjugate half or the mirror u * (1, -1, ..., -1, 1) of one
        spec = SamplingSpec(resolution=res, rim_points=8)
        half = directions(m, spec)
        full = directions(m, spec, _conjugate_half=False)
        assert len(half) < len(full)
        s = np.r_[1.0, -np.ones(m - 2), 1.0]
        dist, _ = cKDTree(np.vstack([half, half * s])).query(full)
        assert dist.max() <= 1e-14

    @pytest.mark.parametrize("m, res", [
        (3, 7), (4, 7), (5, 7), (3, 13), (4, 13), (5, 13), (3, 51),
    ])
    def test_no_row_has_its_mirror_in_the_grid(self, m, res):
        # odd resolutions put pi / 2 on the grid of phi_2, phi_3, ...: the
        # slices there are halved in the next angle, down to the row that
        # is exactly its own mirror (at resolution 51 linspace misses pi / 2
        # by an ulp)
        units = directions(m, SamplingSpec(resolution=res))
        s = np.r_[1.0, -np.ones(m - 2), 1.0]
        hits = cKDTree(units).query_ball_point(units * s, 1e-14)
        for i, hit in enumerate(hits):
            assert hit == [] or (hit == [i] and np.array_equal(units[i] * s, units[i]))

    def test_counts_at_odd_resolution_and_even_resolution_24(self):
        # d = 3 at resolution 13: 864 of the 10,581 rows were the second
        # member of a pair on the slice phi_2 = pi / 2; even grids have no
        # such slice
        assert len(directions(5, SamplingSpec(resolution=13, rim_points=64))) == 9717
        assert len(directions(5, SamplingSpec(resolution=24, rim_points=64))) == 134242

    def test_shared_grid_has_no_rim_points(self):
        spec = SamplingSpec(resolution=5, rim_points=16)
        shared = xi_omega_directions(2, spec)
        tensor = directions(3, SamplingSpec(resolution=5, rim_points=0), _conjugate_half=False)
        assert np.array_equal(shared, tensor)

    def test_grid_past_the_direction_limit_is_refused_before_allocation(self, monkeypatch):
        # resolution 200 at d = 3 asks for about 1.6e9 tensor directions,
        # and 1e8 rim points for 2e8 more: both are refused before the grid
        # indices exist
        def unreachable(*args, **kwargs):
            raise AssertionError("numpy.indices reached")

        monkeypatch.setattr(np, "indices", unreachable)
        with pytest.raises(ConfigError, match=r"resolution 200 with 64 rim points in m = 5 "
                           r"coordinates asks for about 1,600,000,128 directions"):
            directions(5, SamplingSpec(resolution=200))
        with pytest.raises(ConfigError, match="about 200,000,256 directions"):
            directions(5, SamplingSpec(resolution=4, rim_points=10**8))

    def test_direction_limit_counts_the_tensor_grid_and_the_rim_points(self, monkeypatch):
        spec = SamplingSpec(resolution=6, rim_points=4)  # 6^3 + 2 * 4 = 224
        monkeypatch.setattr(spectral, "SAMPLE_DIRECTIONS_MAX", 224)
        assert len(directions(4, spec)) < 224
        monkeypatch.setattr(spectral, "SAMPLE_DIRECTIONS_MAX", 223)
        with pytest.raises(ConfigError, match="about 224 directions"):
            directions(4, spec)


def _unique_directions(m, spec, conjugate_half=True):
    """``spectral._directions`` as it dropped its pole repeats before they
    went by index: every row of the tensor and rim grid built, then a row
    equal to an earlier one (-0.0 read as 0.0) dropped by ``np.unique``."""
    res = spec.resolution
    phi_max = math.acos(spec.delta)
    line = np.linspace(0.0, math.pi, res)
    if res % 2:
        line[res // 2] = math.pi / 2
    idx = np.indices((res,) * (m - 2)).reshape(m - 2, res ** (m - 2)).T
    if conjugate_half and m > 2:
        lead = np.zeros(len(idx), dtype=int)
        for side in np.sign(res - 1 - 2 * idx).T[::-1]:
            lead = np.where(side != 0, side, lead)
        idx = idx[lead >= 0]
    angles = np.column_stack([
        np.repeat(np.linspace(0.0, phi_max, res), len(idx)),
        np.tile(line[idx], (res, 1)),
    ])
    tensor = len(angles)
    if spec.rim_points > 0:
        extra = _sobol(m - 1, 2 * spec.rim_points, spec.seed)
        rim1 = extra[: spec.rim_points].copy()
        rim1[:, 0] = phi_max * (1 - 1e-3 * rim1[:, 0])
        rim1[:, 1:] *= math.pi
        rim2 = extra[spec.rim_points :].copy()
        rim2[:, 0] = phi_max * rim2[:, 0]
        if m > 2:
            rim2[:, 1:-1] = math.pi * rim2[:, 1:-1]
        rim2[:, -1] = math.pi / 2 * (1 - 0.02 * rim2[:, -1])
        angles = np.vstack([angles, rim1, rim2])
    units = spectral._angles_to_unit(angles, m) + 0.0
    # np.unique(units, axis=0) on the rows' bytes, which equal where the
    # rows do once -0.0 is 0.0: the same first indices, three times faster
    _, first = np.unique(units.view(np.dtype((np.void, 8 * m))).ravel(), return_index=True)
    first.sort()
    return units[first], int(np.searchsorted(first, tensor))


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_pole_repeats_dropped_by_index_equal_the_unique_dedup(m):
    # resolutions 1 ... 25 (1 ... 13 at m = 6), both halves, with and
    # without rim rows: the same rows, bit for bit, and the same tensor count
    for res in range(1, 14 if m == 6 else 26):
        for half in (True, False):
            for rim in (0, 8):
                spec = SamplingSpec(resolution=res, rim_points=rim)
                got, tensor = spectral._directions(m, spec, half)
                want, want_tensor = _unique_directions(m, spec, half)
                assert tensor == want_tensor
                assert got.shape == want.shape and got.tobytes() == want.tobytes()
    if m == 5:  # the default d = 3 GKC grid
        got, want = spectral._directions(5, SamplingSpec()), _unique_directions(5, SamplingSpec())
        assert got[1] == want[1] and got[0].tobytes() == want[0].tobytes()


class TestSobol:
    @pytest.mark.parametrize("dim", range(1, SOBOL_MAX_DIM + 1))
    @pytest.mark.filterwarnings("ignore:The balance properties:UserWarning")
    def test_equals_scipy(self, dim):
        from scipy.stats import qmc  # the oracle; the package never imports it

        for seed in (0, 1, 20240817, 2**32 - 1, 2**63):
            for n in (1, 2, 10, 128):
                expected = qmc.Sobol(d=dim, scramble=True, seed=seed).random(n)
                assert np.array_equal(_sobol(dim, n, seed), expected), (seed, n)

    def test_rim_points_past_the_table_are_refused(self):
        # d = 32: (Re xi, Im xi, omega_1 ... omega_31, eta) carries rim
        # points in 33 Sobol dimensions; resolution 1 is a single tensor row
        m = SOBOL_MAX_DIM + 2
        with pytest.raises(ConfigError, match=f"holds {SOBOL_MAX_DIM}"):
            directions(m, SamplingSpec(resolution=1))
        units = directions(m, SamplingSpec(resolution=1, rim_points=0))
        assert np.array_equal(units, np.eye(1, m))


def test_batched_gkc_matches_scalar_on_random_pool(random_bundles, zero_speed_bundle):
    """Batched GKC ratios agree with the dense oracle to 1e-10 relative,
    with the same skipped points, on the 100-bundle pool and a system with a
    zero equilibrium speed, at resolution 8."""
    for b in [*random_bundles, zero_speed_bundle]:
        units = directions(b.sys.d + 2, SPEC8)
        got = _gkc(b.sys, b.frame, units)
        want = _scalar_gkc(b.sys, b.frame, units)
        _close(got.ratios, want)
        assert [f.split(": eigenvalue")[0] for f in got.failures] == [
            str(tuple(u)) for u in units[np.isnan(want)].tolist()
        ]


def test_batched_limits_match_scalar_on_random_pool(random_bundles, zero_speed_bundle):
    """The batched eta = infinity and UKC ratios, hence their minima, agree
    with the dense oracles to 1e-10 relative, on
    the pool and on a system with a zero equilibrium speed and a UKC ratio
    that varies over the directions."""
    for b in [*random_bundles, zero_speed_bundle]:
        units = xi_omega_directions(b.sys.d, SPEC8)
        _close(_eta_inf(b, units).ratios, _scalar_eta_inf(b, units))
        got = _ukc(b, units).ratios
        want = _scalar_ukc(b, units)
        _close(got, want)
        assert abs(b.rbc.ukc_min_ratio - np.nanmin(want)) <= REL * np.nanmin(want)


def test_ratios_are_equal_at_conjugate_mirrors(random_bundles):
    """For real A, Q and B, M(conj xi, -omega, eta) = conj M(xi, omega, eta),
    and M1(conj xi, -omega) = conj M1(xi, omega): the GKC, eta = infinity and
    UKC ratios agree at a direction and at its mirror.  The GKC grid keeps
    one member of each pair on that account, and the eta = infinity and UKC
    grids keep only omega_{d-1} >= 0 (Im xi >= 0 when d = 1)."""
    assert {b.sys.d for b in random_bundles} == {1, 2, 3}
    spec = SamplingSpec(resolution=6, rim_points=4)
    for b in random_bundles:
        d = b.sys.d
        units = directions(d + 2, spec)
        mirrored = units * np.r_[1.0, -np.ones(d), 1.0]
        _close(_gkc(b.sys, b.frame, mirrored).ratios, _gkc(b.sys, b.frame, units).ratios)
        half = xi_omega_directions(d, spec)
        conj = half * np.r_[1.0, -np.ones(d)]
        assert np.all(conj[:, -1] <= 0.0)  # the half the grids leave out
        _close(_eta_inf(b, conj).ratios, _eta_inf(b, half).ratios)
        _close(_ukc(b, conj).ratios, _ukc(b, half).ratios)


def test_mirrored_check_gkc_matches_dense_oracle(random_bundles, zero_speed_bundle):
    """``check_gkc`` samples the conjugate half of the grid: every
    (row, ratio) pair it reports agrees to 1e-10 relative with the dense
    oracle evaluated at that row, and its ``min_ratio`` is the dense
    minimum over the full grid and the eta = infinity sample to 1e-12
    relative."""
    spec = SamplingSpec(resolution=8, rim_points=8)
    picks = {}
    for b in random_bundles:
        picks.setdefault(b.sys.d, b)
    for b in [*picks.values(), zero_speed_bundle]:
        d = b.sys.d
        report = Pipeline(b.sys, b.frame, spec).gkc
        rows = np.array([row for row, _ in report.ratios])
        assert report.failures == [] and len(rows) == len(directions(d + 2, spec))
        _close(np.array([v for _, v in report.ratios]), _scalar_gkc(b.sys, b.frame, rows))
        full = directions(d + 2, spec, _conjugate_half=False)
        want = min(np.nanmin(_scalar_gkc(b.sys, b.frame, full)),
                   np.nanmin(_scalar_eta_inf(b, xi_omega_directions(d, spec))))
        assert abs(report.min_ratio - want) <= 1e-12 * want


def _plain(Q, A2, B):
    return RelaxationSystem(
        d=2, n=2, r=1, A=(np.eye(2), A2), Q=Q, B=B,
        labels=(), transform=np.eye(2),
    )


def _orthonormal(V):
    return np.allclose(np.linalg.svd(V, compute_uv=False), 1.0, atol=1e-12)


class TestFallback:
    def test_defective_and_count_masks(self):
        # a (nearly) defective row takes the orthonormal Schur basis in place
        # of its near-parallel eigenvectors
        jordan = np.array([[[-1.0, 1.0], [0.0, -1.0]]], dtype=complex)
        near = jordan + np.array([[[0.0, 0.0], [1e-14, 0.0]]])
        for M in (jordan, near):
            V_s, _, skipped, _ = stable_eigvecs(M, 2)
            assert skipped == {} and _orthonormal(V_s[0])
        split = np.array([[[-1.0, 0.0], [0.0, 2.0]]], dtype=complex)
        V_s, _, _, _ = stable_eigvecs(split, 1)
        assert np.allclose(np.abs(V_s[0, :, 0]), [1.0, 0.0])
        with pytest.raises(SpectralCountMismatch) as exc:
            stable_eigvecs(np.concatenate([jordan, split]), 2)
        assert exc.value.row == 1

    def test_near_axis_row_is_skipped(self):
        M = np.array([[[-1.0, 0.0], [0.0, 2.0]], [[-1e-17, 0.0], [0.0, 2.0]]], dtype=complex)
        V_s, _, skipped, _ = stable_eigvecs(M, 1)
        assert list(skipped) == [1] and "imaginary axis" in str(skipped[1])

    def test_defective_M_gives_scalar_value(self):
        # M = G = eta Q - xi I - i omega A2 is defective where eta = 2 |omega|
        sys_obj = _plain(np.diag([0.0, -1.0]),
                         np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        frame = build_kernel_frame(sys_obj)
        units = np.array([[1.0, 0.0, 0.5, 1.0], [1.0, 0.2, 0.3, 1.0]])
        M = -units[0, 0] * np.eye(2) + np.diag([0.0, -1.0]) - 0.5j * sys_obj.A[1]
        assert _orthonormal(stable_eigvecs(M[None], 2)[0][0])
        got = _gkc(sys_obj, frame, units)
        assert got.failures == []
        _close(got.ratios, _scalar_gkc(sys_obj, frame, units))

    def test_stable_count_mismatch_raises_as_scalar(self):
        # an anti-damped Q leaves one stable eigenvalue where n_+ = 2
        sys_obj = _plain(np.diag([0.0, 1.0]), np.zeros((2, 2)), np.eye(2))
        frame = build_kernel_frame(sys_obj)
        units = np.array([[1.0, 0.0, 0.0, 2.0]])
        with pytest.raises(SpectralCountMismatch) as scalar_exc:
            gkc_ratio(sys_obj, frame, units[0])
        with pytest.raises(SpectralCountMismatch) as batched_exc:
            _gkc(sys_obj, frame, units)
        assert str(batched_exc.value) == str(scalar_exc.value)
        assert str(batched_exc.value).startswith("(1.0, 0.0, 0.0, 2.0): 1 stable")


class TestReportedGaps:
    def test_eta_infinity_error_fails_the_check(self, pipe2x2, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssumptionViolated("M2 has 0 stable eigenvalues, expected 1")

        monkeypatch.setattr(reduction, "build_reduction_data", refuse)
        report = Pipeline(pipe2x2.sys, pipe2x2.frame, SPEC8).gkc
        assert report.min_ratio > 0.5
        assert report.eta_inf_min_ratio is None
        assert report.eta_inf_error == (
            "AssumptionViolated: M2 has 0 stable eigenvalues, expected 1"
        )
        doc = report.to_dict()
        assert doc["includes_eta_infinity"] is False
        assert doc["passed"] is False
        assert doc["eta_inf_error"] == report.eta_inf_error

    def test_unformed_eta_infinity_limit_fails_the_check(self):
        # S = diag(-1, -2e-9) is negative definite, but its small entry
        # gives an eps-layer mode decaying at the rate 2e-9, within the axis
        # tolerance: the eta = infinity limit is not formed.  (A rank-
        # deficient A12_hat^T P0 cannot serve here: under the SK-like
        # condition it has full column rank.)
        Q = np.zeros((3, 3))
        Q[1:, 1:] = np.diag([-1.0, -2e-9])
        sys_obj = RelaxationSystem(
            d=1, n=3, r=2, A=(np.diag([1.0, 1.0, -1.0]),), Q=Q,
            B=np.array([[1.0, 0.0, 0.5], [0.0, 1.0, 0.5]]), labels=(), transform=np.eye(3),
        )
        sys_obj.validate()
        report = Pipeline(sys_obj, build_kernel_frame(sys_obj), SPEC8).gkc
        assert report.eta_inf_error.startswith("NearImaginaryEigenvalue: eigenvalue 1.99")
        assert report.failures == [] and report.min_ratio > spectral.C_THRESHOLD
        assert not report.includes_eta_infinity and not report.passed
        assert report.to_dict()["eta_inf_error"] == report.eta_inf_error

    def test_eta_infinity_skipped_everywhere_fails_the_check(
        self, pipe2x2, monkeypatch
    ):
        def skip_eta_inf(units, *args, _sample=reduction.sample):
            return {**_sample(units, *args), "gkc eta = inf": _all_skipped(units)}

        monkeypatch.setattr(reduction, "sample", skip_eta_inf)
        report = Pipeline(pipe2x2.sys, pipe2x2.frame, SPEC8).gkc
        assert report.eta_inf_min_ratio is None
        assert report.eta_inf_skipped == len(xi_omega_directions(1, SPEC8))
        assert report.eta_inf_error is not None
        assert not report.includes_eta_infinity and not report.passed

    def test_eta_infinity_argmin_is_the_attaining_direction(self):
        # the first bundle of the rng-1234 pool (d = 3) takes its overall
        # minimum at eta = inf, away from (xi, omega) = (1, 0)
        b = random_admissible_bundle(np.random.default_rng(1234))
        report = Pipeline(b.sys, b.frame, SPEC8).gkc
        point = report.argmin_point
        assert math.isinf(point[-1])
        assert report.min_ratio == report.eta_inf_min_ratio
        u = point[:-1]
        assert _scalar_eta_inf(b, [u])[0] == pytest.approx(
            report.min_ratio, rel=REL
        )
        corner = np.zeros_like(u)
        corner[0] = 1.0
        assert _scalar_eta_inf(b, [corner])[0] > 2.0 * report.min_ratio
        assert report.to_dict()["argmin_point"] == point.tolist()

    def test_grid_argmin_is_the_first_row_attaining_the_minimum(self, random_bundles):
        # members 4 (d = 3) and 9 (d = 1) of the pool take their minimum on
        # the grid, below the eta = inf minimum and above the refinement band
        for b in (random_bundles[4], random_bundles[9]):
            report = Pipeline(b.sys, b.frame, SPEC8).gkc
            assert report.min_ratio < report.eta_inf_min_ratio
            assert report.min_ratio >= spectral.REFINE_MARGIN * spectral.C_THRESHOLD
            first = np.flatnonzero(report.values == report.min_ratio)[0]
            assert np.array_equal(report.argmin_point, report.points[first])
            assert report.to_dict()["argmin_point"] == report.points[first].tolist()

    def test_skipped_points_are_counted(self):
        # at Re xi = delta = 1e-12 the eigenvalues of M and M1 sit within the
        # axis tolerance, so the last Re xi slice of every grid is skipped
        spec = SamplingSpec(resolution=6, rim_points=0, delta=1e-12)
        sys_obj = example_system()
        units = xi_omega_directions(1, spec)
        rim = int(np.sum(units[:, 0] < 1e-6))
        assert rim > 0

        report = Pipeline(sys_obj, build_kernel_frame(sys_obj), spec).gkc
        assert report.eta_inf_skipped == rim
        assert report.to_dict()["eta_inf_skipped"] == rim
        assert len(report.failures) > 0
        assert report.samples + len(report.failures) == len(directions(3, spec))
        assert report.min_ratio > 0.5 and not report.passed

    def test_skipped_ukc_direction_fails_the_reduction(self):
        # n1_+ = 1: the reduced condition has a row, and its certificate
        # cannot rest on a sample with a skipped direction
        spec = SamplingSpec(resolution=6, rim_points=0, delta=1e-12)
        units = xi_omega_directions(1, spec)
        rim = int(np.sum(units[:, 0] < 1e-6))
        with pytest.raises(GkcFailed, match=f"{rim} of {len(units)} sampled directions were skipped"):
            derive_all(example_system(), spec=spec)

    def test_skipped_ukc_directions_are_counted_without_rows(self):
        # A11 = -3 < 0: n1_+ = 0, the reduced condition has no rows and the
        # UKC holds vacuously, so skipped directions are counted only
        sys_obj = canonicalize(RawSystem(
            A0=np.eye(2), A=(np.array([[-3.0, 1.0], [1.0, 1.0]]),),
            Q=np.diag([0.0, -1.0]), B=np.array([[1.0, 1.0]]), d=1, n=2, r=1,
        ))
        assert compute_indices(sys_obj).n1_plus == 0
        spec = SamplingSpec(resolution=6, rim_points=0, delta=1e-12)
        units = xi_omega_directions(1, spec)
        rim = int(np.sum(units[:, 0] < 1e-6))
        assert rim > 0
        rbc = derive_all(sys_obj, spec=spec).rbc
        assert rbc.ukc_skipped == rim
        assert rbc.ukc_samples == len(units) - rim
        assert rbc.to_dict()["ukc_skipped"] == rim

    def test_skipped_refinement_points_are_failures(self, monkeypatch):
        # refining around a skipped grid point of the test above, at
        # Re xi = delta = 1e-12 and eta = 0, clamps perturbed directions onto
        # that corner, where the split is skipped
        spec = SamplingSpec(resolution=6, rim_points=0, delta=1e-12)
        sys_obj = example_system()
        frame = build_kernel_frame(sys_obj)
        corner = np.array([1e-12, 1.0, 0.0])
        best, point, sub, failures = _refine_minimum(sys_obj, frame, spec, 1.0, corner)
        assert 0 < len(failures) < 4 * spec.resolution
        assert all("imaginary axis" in f for f in failures)
        assert best < 1.0 and point[0] > 0 and sub == []

        # check_gkc lists them after the grid's own failures
        monkeypatch.setattr(spectral, "C_THRESHOLD", 2.0)  # forces a refinement
        monkeypatch.setattr(
            spectral, "_refine_minimum",
            lambda s, f, sp, best, _: _refine_minimum(s, f, sp, best, corner),
        )
        report = Pipeline(sys_obj, frame, spec).gkc
        assert report.failures[-len(failures):] == failures
        assert report.samples + len(report.failures) == (
            len(directions(3, spec)) + len(failures)
        )


class TestSignSplitCount:
    """``sample`` counts the rows whose basis came from the sign split,
    and the debug lines of the three samples report the count."""

    @pytest.mark.parametrize("seed", [1234, 2523, 2691])
    def test_certify_pool_sends_no_row_to_the_sign_split(self, seed):
        b = random_admissible_bundle(np.random.default_rng(seed), d=3, require_n0=1)
        spec = SamplingSpec(resolution=12, rim_points=64)
        assert _gkc(b.sys, b.frame, directions(5, spec)).split == 0
        shared = xi_omega_directions(3, spec)
        assert _eta_inf(b, shared).split == 0
        assert _ukc(b, shared).split == 0

    def test_debug_lines_count_the_sign_split_rows(self, caplog):
        # the double speed of A1 gives double stable eigenvalues where
        # omega = eta = 0 (GKC) and where omega = 0 (eta = inf and UKC)
        with caplog.at_level(logging.DEBUG, logger="relaxbc"):
            b = derive_all(repeated_speed_system(), SPEC8)
            report = Pipeline(b.sys, b.frame, SPEC8).gkc
        assert report.passed
        units, shared = directions(4, SPEC8), xi_omega_directions(2, SPEC8)
        grid, eta_inf, ukc = _gkc(b.sys, b.frame, units), _eta_inf(b, shared), _ukc(b, shared)
        split, m1_split = grid.split, eta_inf.split
        assert min(split, m1_split) > 0 and ukc.split == m1_split
        for line in (
            f"gkc: {len(units)} directions, 0 skipped, {split} sign-split, ",
            f"gkc eta = inf, ukc: {len(shared)} directions, 0 skipped, {m1_split} sign-split, ",
        ):
            assert line in caplog.text
        _close(grid.ratios, _scalar_gkc(b.sys, b.frame, units))
        _close(eta_inf.ratios, _scalar_eta_inf(b, shared))
        _close(ukc.ratios, _scalar_ukc(b, shared))


    def test_rejected_rows_are_decided_from_the_stacked_spectrum(self, monkeypatch):
        # the screens of stable_eigvecs reject rows of this sample; the
        # chunk's own eigenvalues decide them, so an axis guard of one
        # matrix that raises leaves the sample as it was
        sys_obj = repeated_speed_system()
        frame = build_kernel_frame(sys_obj)
        units = directions(4, SPEC8)
        before = _gkc(sys_obj, frame, units)
        assert before.split > 0

        def unreachable(M):
            raise AssertionError("guarded_eigvals reached")

        monkeypatch.setattr(linalg, "guarded_eigvals", unreachable)
        after = _gkc(sys_obj, frame, units)
        assert after.ratios.tobytes() == before.ratios.tobytes()
        assert after.failures == before.failures and after.split == before.split

    def test_unconverged_sign_split_names_its_direction(self, monkeypatch):
        sys_obj = repeated_speed_system()
        frame = build_kernel_frame(sys_obj)
        units = directions(4, SPEC8)
        split = stable_eigvecs(spectral._M_stack(sys_obj, frame)(units), sys_obj.B.shape[0])[3]
        monkeypatch.setattr(linalg, "SIGN_MAX_STEPS", 1)
        with pytest.raises(SignNotConverged) as exc:
            _gkc(sys_obj, frame, units)
        row = tuple(units[split[0]].tolist())
        assert str(exc.value) == f"{row}: sign iteration still moving after 1 steps"


class TestOneM1Split:
    """``Pipeline.m1`` splits M1 once for both of its targets: every row of
    the (Re xi, Im xi, omega) grid reaches ``stable_eigvecs`` once, and
    each target's ``Sample`` equals, bit for bit, the one its own split
    gives."""

    @pytest.fixture
    def split_rows(self, monkeypatch):
        """The (rows, order) of each stack handed to ``stable_eigvecs``."""
        shapes, fn = [], spectral.stable_eigvecs

        def recorded(M, n_s):
            shapes.append(M.shape[:2])
            return fn(M, n_s)

        monkeypatch.setattr(spectral, "stable_eigvecs", recorded)
        return shapes

    @staticmethod
    def _rows(shapes, order):
        return sum(rows for rows, k in shapes if k == order)

    def test_converge_splits_each_row_once(self, pipe2x2, sys2x2_file, scen2x2_file, tmp_path,
                                           split_rows):
        from relaxbc.cli import main

        order = pipe2x2.eq.P1.shape[1]
        assert order != pipe2x2.sys.n - pipe2x2.frame.n0  # M1 and M stacks differ in order
        argv = ["converge", sys2x2_file, "--scenario", scen2x2_file, "--out", str(tmp_path)]
        assert main(argv) == 0
        assert self._rows(split_rows, order) == len(xi_omega_directions(1, SamplingSpec()))

    def test_gkc_then_rbc_split_each_row_once(self, split_rows):
        b = random_admissible_bundle(np.random.default_rng(2523), d=3, require_n0=1)
        split_rows.clear()
        p = Pipeline(b.sys, b.frame, SamplingSpec(resolution=8))
        p.gkc
        p.rbc
        order = p.eq.P1.shape[1]
        assert order != p.sys.n - p.frame.n0
        assert self._rows(split_rows, order) == len(p.units) == 351
        for got, want in ((p.m1["gkc eta = inf"], _eta_inf(b, p.units)),
                          (p.m1["ukc"], _ukc(b, p.units))):
            assert got.ratios.tobytes() == want.ratios.tobytes()
            assert got.failures == want.failures and got.split == want.split
        assert p.rbc.ukc_min_ratio == p.m1["ukc"].minimum
        assert p.gkc.eta_inf_min_ratio == p.m1["gkc eta = inf"].minimum


class TestConjugateMirror:
    def test_complex_system_is_refused(self, pipe2x2):
        sys_c = dataclasses.replace(pipe2x2.sys, B=pipe2x2.sys.B + 0j)
        with pytest.raises(AssumptionViolated, match="real"):
            check_gkc(sys_c, pipe2x2.frame, SPEC8, gkc_directions(1, SPEC8), "not sampled")

    def test_debug_line_counts_the_half_grid(self, pipe2x2, caplog):
        with caplog.at_level(logging.DEBUG, logger="relaxbc.spectral"):
            report = Pipeline(pipe2x2.sys, pipe2x2.frame, SPEC8).gkc
        n = len(directions(3, SPEC8))
        assert report.samples == n
        assert f"gkc: {n} directions, 0 skipped, 0 sign-split, minimum " in caplog.text


class TestPooledMap:
    """``sample`` runs its chunks on a thread pool; CHUNK is lowered so
    that each sample spans several chunks."""

    @pytest.fixture
    def pooled(self, monkeypatch):
        """Run ``fn`` with the pool forced to ``cpus`` workers; returns its
        result and the number of pools started."""
        monkeypatch.setattr(spectral, "CHUNK", 8)
        started = []

        class Counting(pool.ThreadPoolExecutor):
            def __init__(self, workers):
                started.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(pool, "ThreadPoolExecutor", Counting)

        def run(cpus, fn, *args):
            started.clear()
            monkeypatch.setattr(pool, "cpus", lambda: cpus)
            return fn(*args), list(started)

        return run

    @staticmethod
    def _same_bits(a, b):
        return a.dtype == b.dtype and a.tobytes() == b.tobytes()

    def test_stacks_equal_the_serial_loop(self, pooled, random_bundles, zero_speed_bundle):
        spec = SamplingSpec(resolution=6, rim_points=4)
        b3 = next(b for b in random_bundles if b.sys.d == 3)
        for b in (b3, zero_speed_bundle):
            grid = directions(b.sys.d + 2, spec)
            shared = xi_omega_directions(b.sys.d, spec)
            assert min(len(grid), len(shared)) >= 3 * spectral.CHUNK
            for fn, args in (
                (_gkc, (b.sys, b.frame, grid)),
                (_eta_inf, (b, shared)),
                (_ukc, (b, shared)),
            ):
                serial, none = pooled(1, fn, *args)
                threaded, started = pooled(4, fn, *args)
                assert none == [] and started == [4]
                assert threaded.failures == serial.failures and threaded.split == serial.split
                assert self._same_bits(threaded.ratios, serial.ratios)

    def test_skipped_rows_keep_row_order_across_chunks(self, pooled, pipe2x2):
        # M1 = -xi / Lam1 on the 2x2 example: a row with Re xi = 1e-12 puts
        # its eigenvalue on the axis and is skipped; plant such rows in
        # several chunks
        t = np.linspace(-1.5, 1.5, 60)
        units = np.column_stack([np.cos(t), np.sin(t)])
        planted = np.arange(3, len(units), 11)
        units[planted, 0] = 1e-12
        assert len(np.unique(planted // spectral.CHUNK)) >= 3
        p = pipe2x2
        serial, _ = pooled(1, _ukc, p, units)
        got, started = pooled(2, _ukc, p, units)
        vals, skipped = got.ratios, got.skipped
        assert started == [2]
        assert np.array_equal(np.flatnonzero(np.isnan(vals)), planted)
        assert np.array_equal(np.array([row for row, _ in skipped]), units[planted])
        assert all("imaginary axis" in str(exc) for _, exc in skipped)
        assert self._same_bits(vals, serial.ratios)

    def test_count_mismatch_in_a_later_chunk_names_its_row(self, pooled):
        # an anti-damped Q leaves one stable eigenvalue where eta > Re xi;
        # the first such row lies in the fourth chunk, another in the sixth
        sys_obj = _plain(np.diag([0.0, 1.0]), np.zeros((2, 2)), np.eye(2))
        frame = build_kernel_frame(sys_obj)
        units = np.zeros((6 * spectral.CHUNK, 4))
        units[:, 0] = 1.0
        units[:, 1] = np.linspace(-1.0, 1.0, len(units))
        first, later = 3 * spectral.CHUNK + 5, 5 * spectral.CHUNK + 1
        units[first] = [1.0, 0.0, 0.0, 2.0]
        units[later] = [1.0, 0.0, 0.0, 3.0]
        for cpus in (1, 3):
            with pytest.raises(SpectralCountMismatch) as exc:
                pooled(cpus, _gkc, sys_obj, frame, units)
            assert str(exc.value).startswith("(1.0, 0.0, 0.0, 2.0): 1 stable")

    def test_eigenvector_bases_are_factored_once(self, random_bundles, monkeypatch):
        # the GKC sample divides by the volumes of the eigenvector screen;
        # spectral.volume factors only the rows that took the sign split
        b3 = next(b for b in random_bundles if b.sys.d == 3)
        spec = SamplingSpec(resolution=6, rim_points=4)
        grid = directions(b3.sys.d + 2, spec)
        want = _gkc(b3.sys, b3.frame, grid)
        factored = []

        def counted(L):
            factored.append(len(L))
            return linalg.volume(L)

        monkeypatch.setattr(spectral, "volume", counted)
        got = _gkc(b3.sys, b3.frame, grid).ratios
        assert got.tobytes() == want.ratios.tobytes()
        assert sum(factored) == 0 and want.split == 0
        _eta_inf(b3, xi_omega_directions(b3.sys.d, spec))
        assert sum(factored) > 0  # a basis transform computes its own volume

    def test_single_chunk_starts_no_threads(self, pooled, pipe2x2, monkeypatch):
        def refuse(workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(pool, "ThreadPoolExecutor", refuse)
        value, _ = pooled(4, gkc_ratio, pipe2x2.sys, pipe2x2.frame, [1.0, 0.5, 0.2])
        assert value == pytest.approx(
            _scalar_gkc(pipe2x2.sys, pipe2x2.frame, [[1.0, 0.5, 0.2]])[0], rel=REL
        )

    def test_cpus_is_the_affinity_mask(self):
        assert pool.cpus() == len(os.sched_getaffinity(0))
