"""End-to-end acceptance gate: worked-example exactness, randomized property
sweeps with pinned tolerances, convergence rates, and report determinism."""

import json
import time

import numpy as np

from diagnostics import (
    frame_independence_check,
    large_eta_expansion_check,
    limit_subspace_angle,
    random_frame_pair,
    verify_stable_count,
)
from relaxbc import cli, fixtures
from relaxbc.model import compute_indices
from relaxbc.sim import run_convergence_study
from relaxbc.spectral import SamplingSpec, build_kernel_frame, check_gkc


def _read(path):
    with open(path) as fh:
        return json.load(fh)


def test_worked_example_reduction_cli(sys2x2_file, tmp_path):
    """The 2x2 worked example reduces to ubar(0, t) = g(t) + h(t)/3, emitted
    by the CLI in under a second."""
    out = tmp_path / "out"
    t0 = time.perf_counter()
    code = cli.main(["reduce", sys2x2_file, "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    assert elapsed < 1.0
    report = _read(out / "reduce.json")
    b_o = np.asarray(report["reduced_bc"]["B_o"]).ravel()
    coeff = np.asarray(report["reduced_bc"]["coefficient"])
    assert coeff.shape == (1, 1)
    # normalize the single row by the ubar(0) coefficient: the boundary data
    # weights must be exactly (1, 1/3)
    row = b_o / coeff[0, 0]
    assert abs(row[0] - 1.0) < 1e-9
    assert abs(row[1] - 1.0 / 3.0) < 1e-9


def test_stable_count_on_500_random_fixtures():
    """count_stable_eigenvalues returns exactly (n_+, n - n0 - n_+) on 500
    random admissible (system, frequency) fixtures with n <= 8, a third of
    them forced to have a characteristic boundary (n0 >= 1); any eigenvalue
    near the imaginary axis raises instead of being miscounted."""
    rng = np.random.default_rng(20240817)
    t0 = time.perf_counter()
    n0_seen = 0
    for i in range(500):
        sys_obj = fixtures.random_system(
            rng, require_n0=1 if i % 3 == 0 else None
        )
        frame = build_kernel_frame(sys_obj)
        p = fixtures.random_frequency_point(rng, sys_obj.d)
        # raises SpectralCountMismatch / NearImaginaryEigenvalue on failure
        verify_stable_count(sys_obj, frame, p)
        if compute_indices(sys_obj).n0 >= 1:
            n0_seen += 1
    assert n0_seen >= 1
    assert time.perf_counter() - t0 < 30.0


def test_frame_independence_on_100_pairs():
    """M transforms by similarity and the Kreiss determinant is invariant
    across 100 random frame pairs."""
    rng = np.random.default_rng(20240817)
    for i in range(100):
        sys_obj = fixtures.random_system(
            rng, require_n0=1 if i % 2 == 0 else None
        )
        frame = build_kernel_frame(sys_obj)
        other = random_frame_pair(rng, frame)
        p = fixtures.random_frequency_point(rng, sys_obj.d)
        res = frame_independence_check(sys_obj, frame, other, p)
        assert res["similarity_residual"] <= 1e-9 * res["M_norm"]
        assert res["det_residual"] <= 1e-8 * max(res["det_value"], 1e-300)


def test_large_eta_remainder_law(random_bundles):
    """The remainder after the leading large-eta expansion decays like 1/eta:
    the log-log slope over eta in {10, 10^2, 10^3, 10^4} sits in
    [-1.3, -0.7] for at least 95% of fixtures (an identically vanishing
    remainder counts as satisfying the law), and the top-left block of the
    first-order term reproduces -(xi I + C(omega)) to 1e-10."""
    rng = np.random.default_rng(5)
    total, in_band = 0, 0
    for bundle in random_bundles:
        for _ in range(2):
            p = fixtures.random_frequency_point(rng, bundle.sys.d)
            res = large_eta_expansion_check(
                bundle.sys, bundle.frame, p, etas=(10.0, 1e2, 1e3, 1e4)
            )
            total += 1
            if res["exact"] or -1.3 <= res["slope"] <= -0.7:
                in_band += 1
            assert res["top_left_residual"] <= 1e-10
    assert in_band >= 0.95 * total


def test_limit_subspace_angle_on_well_conditioned_fixtures(random_bundles):
    """At eta = 10^4 the stable subspace of M lies within 1e-3 of its
    large-eta limit on well-conditioned fixtures (cond(A1_hat) < 1e3 and an
    O(1) fast damping gap).  M is homogeneous of degree one, so (xi, omega)
    is normalized to the unit hemisphere."""
    rng = np.random.default_rng(20240817)
    checked = 0
    for bundle in random_bundles:
        p = fixtures.random_frequency_point(rng, bundle.sys.d)
        if not fixtures.well_conditioned(bundle):
            continue
        scale = np.sqrt(abs(p.xi) ** 2 + np.dot(p.omega, p.omega))
        angle = limit_subspace_angle(
            bundle.sys, bundle.frame, bundle.eq, bundle.data,
            p.xi / scale, p.omega / scale, eta=1e4,
        )
        assert angle < 1e-3
        checked += 1
    assert checked >= 50


def test_reduced_bc_certificates_on_gkc_passing_fixtures(random_bundles):
    """On every fixture passing the sampled boundary stability check, the
    reduced condition annihilates the layer modes (B_o (Y2 Y3) = 0) and the
    zero-speed directions (B_o B_u P0 = 0) to 1e-10, with a uniform
    certificate margin above 1e-6."""
    spec = SamplingSpec(resolution=8, rim_points=0)
    checked = 0
    for bundle in random_bundles:
        report = check_gkc(bundle.sys, bundle.frame, spec)
        if not report.passed:
            continue
        assert bundle.rbc.annihilation_residual <= 1e-10
        assert bundle.rbc.p0_residual <= 1e-10
        assert bundle.rbc.ukc_min_ratio > 1e-6
        checked += 1
    assert checked >= 50


def test_convergence_slope_and_negative_control(pipe2x2):
    """Stiff runs of the 2x2 worked example with b = (sin t, cos t) approach
    the composite expansion at rate eps^(1/2); the naive closure
    ubar(0) = g stalls."""
    scen = fixtures.example_scenario(T=0.5, x_max=2.0)
    t0 = time.perf_counter()
    study = run_convergence_study(
        pipe2x2.sys, pipe2x2.frame, pipe2x2.eq, pipe2x2.data,
        pipe2x2.rbc, pipe2x2.closure, scen,
        eps_list=(1e-2, 3e-3, 1e-3, 3e-4),
    )
    elapsed = time.perf_counter() - t0
    assert elapsed < 300.0
    assert not study.degenerate
    assert 0.45 <= study.slope <= 0.65
    assert study.control_slope < 0.1


def test_characteristic_fixture_full_pipeline(sys3, tmp_path):
    """A constructed 3x3 system with a characteristic boundary (n0 = 1) and a
    zero-speed equilibrium mode (n10 = 1) passes the whole pipeline:
    validate, boundary stability sampling, reduction, and convergence at
    rate at least eps^0.45."""
    idx = compute_indices(sys3)
    assert idx.n0 >= 1
    assert idx.n10 >= 1

    from relaxbc.model import system_to_dict

    sys_file = str(tmp_path / "sys3.json")
    with open(sys_file, "w") as fh:
        json.dump(system_to_dict(sys3), fh)
    scen_doc = {
        "boundary": [{"kind": "sin"}] * sys3.B.shape[0],
        "u0": [
            {"kind": "bump", "amplitude": 0.5, "center": 0.6, "width": 0.05}
        ] * (sys3.n - sys3.r),
        "T": 0.5,
        "x_max": 2.0,
        "epsilons": [1e-2, 3e-3, 1e-3, 3e-4],
    }
    scen_file = tmp_path / "scen3.json"
    scen_file.write_text(json.dumps(scen_doc))

    out = tmp_path / "out"
    common = ["--out", str(out)]
    sampling = common + ["--resolution", "8", "--rim-points", "0"]
    assert cli.main(["validate", sys_file] + common) == 0
    assert cli.main(["gkc", sys_file] + sampling) == 0
    assert cli.main(["reduce", sys_file] + sampling) == 0
    assert cli.main(
        ["converge", sys_file, "--scenario", str(scen_file)] + sampling
    ) == 0
    report = _read(out / "converge.json")
    assert report["slope"] >= 0.45


def test_reports_are_byte_identical_across_runs(sys2x2_file, tmp_path):
    """With a fixed seed, every machine report the CLI writes is reproduced
    byte for byte on a second run."""
    scen_doc = {
        "boundary": [{"kind": "sin"}, {"kind": "cos"}],
        "u0": [{"kind": "gauss_ramp", "amplitude": 1.0 / 3.0, "width": 0.5}],
        "T": 0.5,
        "x_max": 2.0,
        "epsilons": [1e-2, 3e-3],
        "grid": {"dx_max": 2e-3, "equilibrium_dx": 1e-3},
    }
    scen_file = tmp_path / "scen.json"
    scen_file.write_text(json.dumps(scen_doc))

    def run_all(out):
        common = ["--out", str(out)]
        sampling = common + ["--seed", "20240817", "--resolution", "8", "--rim-points", "0"]
        assert cli.main(["validate", sys2x2_file] + common) == 0
        assert cli.main(["gkc", sys2x2_file] + sampling) == 0
        assert cli.main(["reduce", sys2x2_file] + sampling) == 0
        assert cli.main(
            ["simulate", sys2x2_file, "--scenario", str(scen_file),
             "--eps", "1e-2", "--dx-max", "2e-3"] + common
        ) == 0
        assert cli.main(
            ["converge", sys2x2_file, "--scenario", str(scen_file)] + sampling
        ) == 0
        return sorted(p.name for p in out.iterdir())

    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    names1 = run_all(out1)
    names2 = run_all(out2)
    assert names1 == names2
    for name in names1:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
