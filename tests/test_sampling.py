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

from oracles import dense_limit, dense_M, dense_m1, ratio, schur_stable_basis
from relaxbc import pool, reduction, spectral
from relaxbc.errors import (
    AssumptionViolated, ConfigError, GkcFailed, SpectralCountMismatch,
)
from relaxbc.fixtures import example_system, random_admissible_bundle
from relaxbc.linalg import stable_eigvecs
from relaxbc.model import RawSystem, RelaxationSystem, canonicalize, compute_indices
from relaxbc.reduction import derive_all, eta_inf_ratios, ukc_ratios
from relaxbc.spectral import (
    SOBOL_MAX_DIM,
    FrequencyPoint,
    SamplingSpec,
    _sobol,
    _refine_minimum,
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
    """Dense GKC ratio per direction, NaN where the split is skipped."""
    vals = []
    for u in units:
        M = dense_M(sys_obj, frame, complex(u[0], u[1]), u[2:-1], u[-1])
        V = schur_stable_basis(M)
        vals.append(math.nan if V is None else ratio(sys_obj.B @ frame.R1, V))
    return np.array(vals)


def _scalar_eta_inf(b, units):
    R2S = schur_stable_basis(b.data.M2)
    vals = []
    for u in units:
        M1, X = dense_m1(b.sys, b.eq, complex(u[0], u[1]), u[2:])
        R1S = schur_stable_basis(M1)
        if R1S is None:
            vals.append(math.nan)
            continue
        L = dense_limit(b.eq, b.data, R1S, R2S, X)
        vals.append(ratio(b.sys.B @ b.frame.R1, L))
    return np.array(vals)


def _scalar_ukc(b, units):
    vals = []
    for u in units:
        M1, _ = dense_m1(b.sys, b.eq, complex(u[0], u[1]), u[2:])
        R1S = schur_stable_basis(M1)
        vals.append(math.nan if R1S is None else ratio(b.rbc.coefficient @ b.eq.P1, R1S))
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
        assert len(directions(5, spec)) == 6850
        assert len(xi_omega_directions(3, spec)) == 1343

    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("res", [7, 12])
    def test_no_near_repeats(self, d, res):
        # a polar angle of pi leaves no ulp-sized coordinates, so a pole
        # repeat is an exact repeat and the dedup drops it
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
        vals, failures = gkc_ratios(b.sys, b.frame, units)
        want = _scalar_gkc(b.sys, b.frame, units)
        _close(vals, want)
        assert [f.split(": eigenvalue")[0] for f in failures] == [
            str(tuple(u)) for u in units[np.isnan(want)].tolist()
        ]


def test_batched_limits_match_scalar_on_random_pool(random_bundles, zero_speed_bundle):
    """The batched eta = infinity and UKC ratios, hence their minima, agree
    with the dense oracles to 1e-10 relative, on
    the pool and on a system with a zero equilibrium speed and a UKC ratio
    that varies over the directions."""
    for b in [*random_bundles, zero_speed_bundle]:
        units = xi_omega_directions(b.sys.d, SPEC8)
        _close(eta_inf_ratios(b.sys, b.frame, b.eq, b.data, units),
               _scalar_eta_inf(b, units))
        got = ukc_ratios(b.sys, b.eq, b.rbc.coefficient, units)
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
        _close(gkc_ratios(b.sys, b.frame, mirrored)[0],
               gkc_ratios(b.sys, b.frame, units)[0])
        half = xi_omega_directions(d, spec)
        conj = half * np.r_[1.0, -np.ones(d)]
        assert np.all(conj[:, -1] <= 0.0)  # the half the grids leave out
        _close(eta_inf_ratios(b.sys, b.frame, b.eq, b.data, conj),
               eta_inf_ratios(b.sys, b.frame, b.eq, b.data, half))
        coeff = b.rbc.coefficient
        _close(ukc_ratios(b.sys, b.eq, coeff, conj), ukc_ratios(b.sys, b.eq, coeff, half))


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
        report = check_gkc(b.sys, b.frame, spec)
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
            V_s, skipped = stable_eigvecs(M, 2)
            assert skipped == {} and _orthonormal(V_s[0])
        split = np.array([[[-1.0, 0.0], [0.0, 2.0]]], dtype=complex)
        V_s, _ = stable_eigvecs(split, 1)
        assert np.allclose(np.abs(V_s[0, :, 0]), [1.0, 0.0])
        with pytest.raises(SpectralCountMismatch) as exc:
            stable_eigvecs(np.concatenate([jordan, split]), 2)
        assert exc.value.row == 1

    def test_near_axis_row_is_skipped(self):
        M = np.array([[[-1.0, 0.0], [0.0, 2.0]], [[-1e-17, 0.0], [0.0, 2.0]]], dtype=complex)
        V_s, skipped = stable_eigvecs(M, 1)
        assert list(skipped) == [1] and "imaginary axis" in str(skipped[1])

    def test_defective_M_gives_scalar_value(self):
        # M = G = eta Q - xi I - i omega A2 is defective where eta = 2 |omega|
        sys_obj = _plain(np.diag([0.0, -1.0]),
                         np.array([[0.0, 1.0], [1.0, 0.0]]), np.eye(2))
        frame = build_kernel_frame(sys_obj)
        units = np.array([[1.0, 0.0, 0.5, 1.0], [1.0, 0.2, 0.3, 1.0]])
        M = -units[0, 0] * np.eye(2) + np.diag([0.0, -1.0]) - 0.5j * sys_obj.A[1]
        assert _orthonormal(stable_eigvecs(M[None], 2)[0][0])
        vals, failures = gkc_ratios(sys_obj, frame, units)
        assert failures == []
        _close(vals, _scalar_gkc(sys_obj, frame, units))

    def test_stable_count_mismatch_raises_as_scalar(self):
        # an anti-damped Q leaves one stable eigenvalue where n_+ = 2
        sys_obj = _plain(np.diag([0.0, 1.0]), np.zeros((2, 2)), np.eye(2))
        frame = build_kernel_frame(sys_obj)
        units = np.array([[1.0, 0.0, 0.0, 2.0]])
        with pytest.raises(SpectralCountMismatch) as scalar_exc:
            gkc_ratio(sys_obj, frame, _unit_to_point(units[0], 2))
        with pytest.raises(SpectralCountMismatch) as batched_exc:
            gkc_ratios(sys_obj, frame, units)
        assert str(batched_exc.value) == str(scalar_exc.value)
        assert str(batched_exc.value).startswith("(1.0, 0.0, 0.0, 2.0): 1 stable")


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
        sys_obj = example_system()
        units = xi_omega_directions(1, spec)
        rim = int(np.sum(units[:, 0] < 1e-6))
        assert rim > 0

        report = check_gkc(sys_obj, build_kernel_frame(sys_obj), spec)
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
        corner = FrequencyPoint(xi=complex(1e-12, 1.0), omega=np.zeros(0), eta=0.0)
        best, point, sub, failures = _refine_minimum(sys_obj, frame, spec, 1.0, corner)
        assert 0 < len(failures) < 4 * spec.resolution
        assert all("imaginary axis" in f for f in failures)
        assert best < 1.0 and point.xi.real > 0 and sub == []

        # check_gkc lists them after the grid's own failures
        monkeypatch.setattr(spectral, "C_THRESHOLD", 2.0)  # forces a refinement
        monkeypatch.setattr(
            spectral, "_refine_minimum",
            lambda s, f, sp, best, _: _refine_minimum(s, f, sp, best, corner),
        )
        report = check_gkc(sys_obj, frame, spec)
        assert report.failures[-len(failures):] == failures
        assert report.samples + len(report.failures) == (
            len(directions(3, spec)) + len(failures)
        )


class TestConjugateMirror:
    def test_complex_system_is_refused(self, pipe2x2):
        sys_c = dataclasses.replace(pipe2x2.sys, B=pipe2x2.sys.B + 0j)
        with pytest.raises(AssumptionViolated, match="real"):
            check_gkc(sys_c, pipe2x2.frame, SPEC8)

    def test_debug_line_counts_the_half_grid(self, pipe2x2, caplog):
        with caplog.at_level(logging.DEBUG, logger="relaxbc.spectral"):
            report = check_gkc(pipe2x2.sys, pipe2x2.frame, SPEC8)
        n = len(directions(3, SPEC8))
        assert report.samples == n
        assert f"gkc: {n} directions, 0 skipped, minimum " in caplog.text


class TestPooledMap:
    """``map_chunks`` runs its chunks on a thread pool; CHUNK is lowered so
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
                (gkc_ratios, (b.sys, b.frame, grid)),
                (eta_inf_ratios, (b.sys, b.frame, b.eq, b.data, shared)),
                (ukc_ratios, (b.sys, b.eq, b.rbc.coefficient, shared)),
            ):
                serial, none = pooled(1, fn, *args)
                threaded, started = pooled(4, fn, *args)
                assert none == [] and started == [4]
                if fn is gkc_ratios:
                    assert threaded[1] == serial[1]
                    serial, threaded = serial[0], threaded[0]
                assert self._same_bits(threaded, serial)

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
        args = (units, reduction._M1_stack(p.sys, p.eq), p.rbc.coefficient @ p.eq.P1, 1)
        serial, _ = pooled(1, spectral.map_chunks, *args)
        (vals, skipped), started = pooled(2, spectral.map_chunks, *args)
        assert started == [2]
        assert np.array_equal(np.flatnonzero(np.isnan(vals)), planted)
        assert np.array_equal(np.array([row for row, _ in skipped]), units[planted])
        assert all("imaginary axis" in str(exc) for _, exc in skipped)
        assert self._same_bits(vals, serial[0])

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
                pooled(cpus, gkc_ratios, sys_obj, frame, units)
            assert str(exc.value).startswith("(1.0, 0.0, 0.0, 2.0): 1 stable")

    def test_single_chunk_starts_no_threads(self, pooled, pipe2x2, monkeypatch):
        def refuse(workers):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(pool, "ThreadPoolExecutor", refuse)
        point = _unit_to_point(np.array([1.0, 0.5, 0.2]), 1)
        value, _ = pooled(4, gkc_ratio, pipe2x2.sys, pipe2x2.frame, point)
        assert value == pytest.approx(
            _scalar_gkc(pipe2x2.sys, pipe2x2.frame, [[1.0, 0.5, 0.2]])[0], rel=REL
        )

    def test_cpus_is_the_affinity_mask(self):
        assert pool.cpus() == len(os.sched_getaffinity(0))
