"""Command-line interface: exit codes, artifacts, and determinism."""

import csv
import io
import json
import logging
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from relaxbc import __version__, cli
from relaxbc import fixtures
from relaxbc.model import system_to_dict


def _run(argv):
    return cli.main(argv)


def _read(path):
    with open(path) as fh:
        return json.load(fh)


class TestValidate:
    def test_pass_and_report(self, sys2x2_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(["validate", sys2x2_file, "--out", str(out)]) == 0
        report = _read(out / "validate.json")
        assert report["passed"] is True
        assert all(report["checks"].values())
        assert report["indices"] == {
            "n0": 0, "n_plus": 2, "n10": 0, "n1_plus": 1
        }
        assert "config_hash" in report["provenance"]
        assert "pass" in capsys.readouterr().out

    def test_rank_deficient_boundary_fails(self, tmp_path):
        doc = system_to_dict(fixtures.example_system())
        doc["B"] = [[1.0, 0.0], [2.0, 0.0]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert _run(["validate", str(path), "--out", str(out)]) == 1
        report = _read(out / "validate.json")
        assert report["passed"] is False

    def test_splitting_matrix_is_used(self, tmp_path):
        # item (iii) holds with the given P = diag(1, 0.3) but not with P = I
        doc = {
            "d": 1, "n": 2, "r": 1, "A": [[[3.0, 1.0], [1.0, 1.0]]],
            "Q": [[0.0, 0.0], [0.0, -0.1]], "P": [[1.0, 0.0], [0.0, 0.3]],
            "B": [[1.0, 0.0], [0.0, 1.0]],
        }
        path = tmp_path / "system.json"
        path.write_text(json.dumps(doc))
        out = tmp_path / "out"
        assert _run(["validate", str(path), "--out", str(out)]) == 0
        report = _read(out / "validate.json")
        assert report["structural"]["passed"] is True
        assert report["structural"]["residuals"]["coupling_lambda_max"] <= 0.0

    def test_ragged_matrix_is_config_error(self, tmp_path):
        doc = system_to_dict(fixtures.example_system())
        doc["A"][0][0] = [3.0]  # ragged row
        path = tmp_path / "ragged.json"
        path.write_text(json.dumps(doc))
        assert _run(["validate", str(path), "--out", str(tmp_path)]) == 2

    def test_unreadable_file_is_config_error(self, tmp_path):
        assert _run(
            ["validate", str(tmp_path / "missing.json"),
             "--out", str(tmp_path)]
        ) == 2


class TestGkc:
    def test_artifacts_and_pass(self, sys2x2_file, tmp_path):
        out = tmp_path / "out"
        assert _run(
            ["gkc", sys2x2_file, "--out", str(out), "--resolution", "8",
             "--rim-points", "0"]
        ) == 0
        report = _read(out / "gkc.json")
        assert report["passed"] is True
        assert report["min_ratio"] > 1e-6
        assert (out / "gkc_samples.csv").exists()

    def test_bad_resolution_is_config_error(self, sys2x2_file, tmp_path):
        assert _run(
            ["gkc", sys2x2_file, "--out", str(tmp_path), "--resolution", "0"]
        ) == 2


    def test_rim_points_past_the_sobol_table(self, tmp_path, capsys):
        # d = 32 puts the rim points in 33 Sobol dimensions, one past the
        # table; without rim points the resolution-1 grid is one row
        sys_obj = fixtures.random_system(np.random.default_rng(3), n_max=3, d=32)
        path = tmp_path / "d32.json"
        path.write_text(json.dumps(system_to_dict(sys_obj)))
        args = ["gkc", str(path), "--out", str(tmp_path), "--resolution", "1"]
        assert _run(args) == 2
        assert "the table holds 32" in capsys.readouterr().err
        assert _run(args + ["--rim-points", "0"]) == 0
        assert _read(tmp_path / "gkc.json")["samples"] == 1


class TestGkcCsv:
    """``gkc_samples.csv`` is written from the report's arrays with the bytes
    ``csv.writer`` gives for the same rows."""

    @staticmethod
    def _csv_writer_bytes(header, points, values):
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(list(p) + [v] for p, v in zip(points.tolist(), values.tolist()))
        return buf.getvalue().encode()

    def test_bytes_equal_csv_writer(self, tmp_path, monkeypatch):
        # 0.0, -0.0, 1e-300, 1e300 and values whose shortest repr needs 17
        # digits, in blocks of 3 rows
        monkeypatch.setattr(cli, "CSV_BLOCK", 3)
        points = np.array([
            [1.0, 0.0, 0.0], [0.1, 0.2, 1e-300], [1e-3, -0.0, 0.7],
            [0.3, 2.0 / 3.0, 1e300], [np.pi, np.e, 0.1 + 0.2],
            [0.5, 0.25, 0.125], [1e-17, 1.0, 2.0],
        ])
        values = np.array([0.0, 1e-300, 1.5, 1.0 / 3.0, 7e22, 123456.789, 1e-7])
        report = SimpleNamespace(points=points, values=values)
        cli._emit_gkc_csv(SimpleNamespace(out=str(tmp_path)), report, 1)
        want = self._csv_writer_bytes(["re_xi", "im_xi", "eta", "ratio"], points, values)
        assert (tmp_path / "gkc_samples.csv").read_bytes() == want

    def test_cli_csv_is_the_report(self, sys2x2_file, tmp_path):
        from relaxbc.spectral import SamplingSpec, build_kernel_frame, check_gkc

        sys_obj = fixtures.example_system()
        report = check_gkc(sys_obj, build_kernel_frame(sys_obj),
                           SamplingSpec(resolution=8, rim_points=4))
        assert list(report.ratios) == list(zip(
            map(tuple, report.points.tolist()), report.values.tolist()))
        assert len(report.ratios) == report.samples == len(report.points)
        assert _run(["gkc", sys2x2_file, "--out", str(tmp_path),
                     "--resolution", "8", "--rim-points", "4"]) == 0
        want = self._csv_writer_bytes(
            ["re_xi", "im_xi", "eta", "ratio"], report.points, report.values)
        assert (tmp_path / "gkc_samples.csv").read_bytes() == want


@pytest.mark.parametrize("command", ["validate", "simulate"])
def test_seed_is_refused_where_nothing_samples(command, sys2x2_file, scen2x2_file, tmp_path):
    argv = [command, sys2x2_file, "--out", str(tmp_path)]
    if command == "simulate":
        argv += ["--scenario", scen2x2_file, "--eps", "1e-2"]
    with pytest.raises(SystemExit) as exc:
        _run(argv + ["--seed", "1"])
    assert exc.value.code == 2
    assert _run(argv) == 0
    report = _read(tmp_path / f"{command}.json")
    assert "seed" not in report["provenance"]


@pytest.mark.parametrize("command", ["gkc", "reduce"])
def test_negative_seed_is_config_error(command, sys2x2_file, tmp_path, capsys):
    assert _run(
        [command, sys2x2_file, "--out", str(tmp_path), "--resolution", "4",
         "--seed", "-1"]
    ) == 2
    assert "seed must be nonnegative" in capsys.readouterr().err


class TestReduce:
    def test_worked_coefficients(self, sys2x2_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(
            ["reduce", sys2x2_file, "--out", str(out), "--resolution", "8",
             "--rim-points", "0"]
        ) == 0
        report = _read(out / "reduce.json")
        coeff = np.asarray(report["reduced_bc"]["coefficient"])
        b_o = np.asarray(report["reduced_bc"]["B_o"])
        # row-equivalent to ubar(0) = g + h/3
        ratio = b_o.ravel()[1] / b_o.ravel()[0]
        assert abs(ratio - 1.0 / 3.0) < 1e-9
        assert coeff.shape == (1, 1)
        assert "0.948683" in capsys.readouterr().out

    def test_deterministic_reports(self, sys2x2_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        args = ["reduce", sys2x2_file, "--resolution", "8",
                "--rim-points", "0", "--seed", "42"]
        assert _run(args + ["--out", str(out1)]) == 0
        assert _run(args + ["--out", str(out2)]) == 0
        assert (out1 / "reduce.json").read_bytes() == (
            out2 / "reduce.json"
        ).read_bytes()


class TestFailedUkcCertificate:
    """A reduced condition whose UKC certificate fails (``GkcFailed`` from
    ``derive_all``) is a failed check, as a failed GKC sample is: exit 1,
    and ``reduce`` writes its report; here every certificate direction is
    skipped, as if an eigenvalue of M1 lay on the axis."""

    @pytest.fixture(autouse=True)
    def skip_every_direction(self, monkeypatch):
        from relaxbc import reduction

        monkeypatch.setattr(
            reduction, "ukc_ratios",
            lambda sys_obj, eq, coeff, units: np.full(len(units), np.nan),
        )

    def test_reduce_reports_both_verdicts(self, sys2x2_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(
            ["reduce", sys2x2_file, "--out", str(out), "--resolution", "8",
             "--rim-points", "0"]
        ) == 1
        report = _read(out / "reduce.json")
        assert report["gkc"]["passed"] is True
        assert report["ukc"]["passed"] is False
        assert "uniform Kreiss condition not certified" in report["ukc"]["error"]
        assert "reduced_bc" not in report and "closure" not in report
        assert report["provenance"]["forced"] is False
        assert "UKC certificate failed" in capsys.readouterr().out

    def test_converge_refuses(self, sys2x2_file, scen2x2_file, tmp_path, capsys):
        out = tmp_path / "out"
        assert _run(
            ["converge", sys2x2_file, "--scenario", scen2x2_file,
             "--out", str(out), "--resolution", "8", "--rim-points", "0",
             "--force"]
        ) == 1
        assert not (out / "converge.json").exists()
        assert "UKC certificate failed" in capsys.readouterr().out


class TestSimulate:
    def test_artifacts(self, sys2x2_file, scen2x2_file, tmp_path):
        out = tmp_path / "out"
        assert _run(
            ["simulate", sys2x2_file, "--scenario", scen2x2_file,
             "--eps", "1e-2", "--dx-max", "2e-3", "--out", str(out)]
        ) == 0
        report = _read(out / "simulate.json")
        assert report["eps"] == 1e-2
        assert (out / "simulate_snapshot.csv").exists()
        assert (out / "simulate_boundary.csv").exists()

    def test_nonpositive_eps_is_config_error(
        self, sys2x2_file, scen2x2_file, tmp_path
    ):
        assert _run(
            ["simulate", sys2x2_file, "--scenario", scen2x2_file,
             "--eps=-1e-3", "--out", str(tmp_path)]
        ) == 2

    @pytest.mark.parametrize("key, value", [
        ("x_max", 0.0), ("x_max", -1.0), ("x_max", "inf"),
        ("T", 0.0), ("T", -0.5), ("T", "nan"),
    ])
    def test_nonpositive_or_nonfinite_extent_is_config_error(
        self, sys2x2_file, scen2x2_file, tmp_path, capsys, key, value
    ):
        # x_max = 0 would grade the mesh into one zero-length cell
        with open(scen2x2_file) as fh:
            doc = json.load(fh)
        doc[key] = float(value)
        scen = tmp_path / "bad_scenario.json"
        scen.write_text(json.dumps(doc))
        assert _run(
            ["simulate", sys2x2_file, "--scenario", str(scen),
             "--eps", "1e-2", "--out", str(tmp_path / "out")]
        ) == 2
        assert f"'{key}' must be finite and positive" in capsys.readouterr().err


    @pytest.mark.parametrize("flag, value", [
        ("--eps", "inf"), ("--eps", "nan"),
        ("--dx-max", "nan"), ("--dx-max", "inf"), ("--dx-max", "0"),
    ])
    def test_nonfinite_or_nonpositive_flag_is_config_error(
        self, sys2x2_file, scen2x2_file, tmp_path, capsys, flag, value
    ):
        # eps = inf would run a two-node mesh, dx_max = nan uncap the grading
        argv = ["simulate", sys2x2_file, "--scenario", scen2x2_file,
                "--eps", "1e-2", "--dx-max", "2e-3", "--out", str(tmp_path)]
        argv[argv.index(flag) + 1] = value
        assert _run(argv) == 2
        assert f"'{flag}' must be finite and positive" in capsys.readouterr().err


class TestConverge:
    def _scenario(self, tmp_path, **overrides):
        doc = {
            "boundary": [{"kind": "sin"}, {"kind": "cos"}],
            "u0": [
                {"kind": "gauss_ramp", "amplitude": 1.0 / 3.0, "width": 0.5}
            ],
            "T": 0.5,
            "x_max": 2.0,
            "epsilons": [1e-2, 3e-3],
            "grid": {"dx_max": 2e-3, "equilibrium_dx": 1e-3},
        }
        doc.update(overrides)
        p = tmp_path / "scen.json"
        p.write_text(json.dumps(doc))
        return str(p)

    def test_pass_and_artifacts(self, sys2x2_file, tmp_path):
        scen = self._scenario(tmp_path)
        out = tmp_path / "out"
        assert _run(
            ["converge", sys2x2_file, "--scenario", scen, "--out", str(out),
             "--resolution", "8", "--rim-points", "0"]
        ) == 0
        report = _read(out / "converge.json")
        assert report["passed"] is True
        assert report["slope"] >= 0.45
        assert (out / "converge.csv").exists()
        # timings must not leak into the machine report
        assert all(
            "seconds" not in e for e in report["details"]["per_eps"]
        )

    def test_negative_control_fails_threshold(self, sys2x2_file, tmp_path):
        scen = self._scenario(tmp_path)
        out = tmp_path / "out"
        assert _run(
            ["converge", sys2x2_file, "--scenario", scen, "--out", str(out),
             "--resolution", "8", "--rim-points", "0", "--negative-control"]
        ) == 1
        report = _read(out / "converge.json")
        assert report["negative_control"] is True
        assert report["passed"] is False

    def test_vacuous_negative_control_is_refused(self, sys3, tmp_path, capsys):
        # n1_+ = 0: the naive closure equals the derived one, so the control
        # is neither computed nor judged
        sys_file = tmp_path / "sys3.json"
        sys_file.write_text(json.dumps(system_to_dict(sys3)))
        scen = self._scenario(
            tmp_path,
            boundary=[{"kind": "sin"}] * sys3.B.shape[0],
            u0=[{"kind": "bump", "amplitude": 0.5, "center": 0.6,
                 "width": 0.05}] * (sys3.n - sys3.r),
        )
        out = tmp_path / "out"
        argv = ["converge", str(sys_file), "--scenario", scen,
                "--out", str(out), "--resolution", "8", "--rim-points", "0"]
        assert _run(argv + ["--negative-control"]) == 1
        assert "not applicable" in capsys.readouterr().out
        report = _read(out / "converge.json")
        assert report["control_applicable"] is False
        assert report["control_errors"] is None
        assert report["control_slope"] is None
        assert report["passed"] is False
        assert _run(argv) == 0

    def test_debug_log_leaves_reports_unchanged(self, sys2x2_file, tmp_path, caplog):
        scen = self._scenario(tmp_path)
        argv = ["converge", sys2x2_file, "--scenario", scen,
                "--resolution", "8", "--rim-points", "0"]
        assert _run(argv + ["--out", str(tmp_path / "quiet")]) == 0
        caplog.set_level(logging.DEBUG, logger="relaxbc")
        assert _run(argv + ["--out", str(tmp_path / "debug")]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name.startswith("relaxbc")]
        for head in ("gkc: ", "gkc eta = inf: ", "ukc: ", "eps 0.01: ", "eps 0.003: "):
            assert any(line.startswith(head) for line in lines), head
        assert (tmp_path / "quiet" / "converge.json").read_bytes() == (
            tmp_path / "debug" / "converge.json"
        ).read_bytes()

    @pytest.mark.parametrize("key, overrides", [
        ("epsilons", {"epsilons": [1e-2, float("nan")]}),
        ("epsilons", {"epsilons": [float("inf"), 1e-2]}),
        ("grid.dx_max", {"grid": {"dx_max": float("nan")}}),
        ("grid.dx_max", {"grid": {"dx_max": 0.0}}),
        ("grid.dx_max", {"grid": {"dx_max": "fine"}}),
        ("grid.equilibrium_dx", {"grid": {"equilibrium_dx": float("inf")}}),
        ("grid.equilibrium_dx", {"grid": {"equilibrium_dx": -1e-3}}),
    ])
    def test_nonfinite_or_nonpositive_input_is_config_error(
        self, sys2x2_file, tmp_path, capsys, key, overrides
    ):
        # grid.dx_max = nan uncaps the grading (the 2x2 study then fails
        # with slope 0.27); a NaN epsilon fails inside LAPACK
        scen = self._scenario(tmp_path, **overrides)
        assert _run(
            ["converge", sys2x2_file, "--scenario", scen,
             "--out", str(tmp_path / "out")]
        ) == 2
        assert f"'{key}' must be finite and positive" in capsys.readouterr().err

    def test_empty_epsilons_is_config_error(self, sys2x2_file, tmp_path):
        scen = self._scenario(tmp_path, epsilons=[])
        assert _run(
            ["converge", sys2x2_file, "--scenario", scen,
             "--out", str(tmp_path)]
        ) == 2

    @pytest.mark.parametrize("epsilons", [[3e-3], [3e-3, 3e-3]])
    def test_fewer_than_two_distinct_epsilons_is_config_error(
        self, sys2x2_file, tmp_path, capsys, epsilons
    ):
        # a slope through one point is not determined: refused before the
        # GKC verdict and any stiff run
        scen = self._scenario(tmp_path, epsilons=epsilons)
        out = tmp_path / "out"
        assert _run(
            ["converge", sys2x2_file, "--scenario", scen, "--out", str(out),
             "--resolution", "8", "--rim-points", "0"]
        ) == 2
        assert "'epsilons' must hold at least two distinct values" in capsys.readouterr().err
        assert not any(out.iterdir())


def test_perfbench_wrapped_attributes_resolve():
    """perfbench/spans.py wraps package functions by (module, attribute)
    name; a missing one breaks benchmark runs with ``--trace 1``."""
    import importlib
    import importlib.util
    from pathlib import Path

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        (mod, attr) for mod, attr, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"relaxbc.{mod}"), attr, None))
    ]
    assert spans.WRAPPED and missing == []


@pytest.mark.parametrize("argv", [
    ["-c", "import relaxbc.cli, sys; sys.exit(any(m in sys.modules for m in "
           "('scipy.stats', 'scipy.linalg', 'scipy.special')))"],
    ["-m", "relaxbc.cli", "--version"],
])
def test_cold_start_leaves_scipy_stats_out(argv):
    """A fresh process that starts the CLI does not import scipy.stats, which
    took more than half of every command's start-up, nor scipy.linalg and
    scipy.special, which took 0.1 s and 12 MB of it."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if "--version" in argv:
        assert proc.stdout.strip() == __version__


_EVERY_COMMAND = """
import contextlib, io, json, sys
from relaxbc import cli
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    if rc != 0:
        sys.exit(f"{argv[0]} exited {rc}")
loaded = [m for m in ("scipy.linalg", "scipy.special") if m in sys.modules]
sys.exit(f"imported {loaded}" if loaded else 0)
"""


def test_every_command_leaves_scipy_linalg_and_special_out(sys2x2_file, scen2x2_file, tmp_path):
    """validate, gkc, reduce and converge, on the README 2x2 example and on
    the 3x3 double-characteristic fixture, run in one fresh process without
    importing scipy.linalg or scipy.special: the package needs scipy.sparse
    only."""
    from conftest import write_system_file

    sys3 = write_system_file(tmp_path / "double.json", fixtures.double_characteristic_system(7))
    bump = tmp_path / "bump.json"
    bump.write_text(json.dumps({
        "boundary": [{"kind": "sin"}],
        "u0": [{"kind": "bump", "amplitude": 0.5, "center": 0.6, "width": 0.05}],
        "T": 0.5, "x_max": 2.0, "epsilons": [1e-2, 3e-3, 1e-3, 3e-4],
    }))
    commands = []
    for name, system, scenario in (("ex", sys2x2_file, scen2x2_file),
                                   ("double", sys3, str(bump))):
        out = ["--out", str(tmp_path / name)]
        commands += [
            ["validate", system, *out],
            ["gkc", system, *out, "--resolution", "8"],
            ["reduce", system, *out, "--resolution", "8"],
            ["converge", system, "--scenario", scenario, *out],
        ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", _EVERY_COMMAND, json.dumps(commands)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "double" / "converge.json").exists()


# ---------------------------------------------------------------------------
# input errors that must exit 2, not die with a traceback


@pytest.mark.parametrize("overrides", [
    {"grid": [1]},
    {"grid": "fine"},
    {"boundary": [1, {"kind": "cos"}]},
    {"u0": [[0.5]]},
    {"epsilons": 5},
])
def test_malformed_scenario_is_config_error(
    overrides, sys2x2_file, scen2x2_file, tmp_path, capsys
):
    with open(scen2x2_file) as fh:
        doc = json.load(fh)
    doc.update(overrides)
    scen = tmp_path / "bad_scenario.json"
    scen.write_text(json.dumps(doc))
    assert _run(
        ["converge", sys2x2_file, "--scenario", str(scen),
         "--out", str(tmp_path / "out"), "--resolution", "4"]
    ) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, spec, key", [
    ("boundary", {"kind": "sin", "amplitude": "loud"}, "amplitude"),
    ("boundary", {"kind": "cos", "frequency": float("nan")}, "frequency"),
    ("boundary", {"kind": "sin", "phase": float("inf")}, "phase"),
    ("u0", {"kind": "gauss_ramp", "amplitude": float("-inf")}, "amplitude"),
    ("u0", {"kind": "gauss_ramp", "width": 0.0}, "width"),
    ("u0", {"kind": "bump", "center": "left"}, "center"),
    ("u0", {"kind": "bump", "width": float("nan")}, "width"),
])
@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_bad_waveform_or_profile_number_is_config_error(
    command, field, spec, key, sys2x2_file, scen2x2_file, tmp_path, capsys
):
    # a word died in float() with a traceback; NaN or inf ran on NaN data
    with open(scen2x2_file) as fh:
        doc = json.load(fh)
    doc[field][0] = spec
    scen = tmp_path / "bad_scenario.json"
    scen.write_text(json.dumps(doc))
    extra = ["--eps", "1e-2"] if command == "simulate" else []
    assert _run(
        [command, sys2x2_file, "--scenario", str(scen),
         "--out", str(tmp_path / "out")] + extra
    ) == 2
    assert f"error: {key!r} must be" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["validate", "gkc", "reduce", "simulate", "converge"])
def test_out_naming_a_file_is_config_error(
    command, sys2x2_file, scen2x2_file, tmp_path, capsys
):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    extra = {
        "simulate": ["--scenario", scen2x2_file, "--eps", "1e-2"],
        "converge": ["--scenario", scen2x2_file],
    }.get(command, [])
    assert _run([command, sys2x2_file, "--out", str(taken)] + extra) == 2
    assert "is not a usable directory" in capsys.readouterr().err
    assert taken.read_text() == "not a directory\n"


# ---------------------------------------------------------------------------
# reduce and converge reuse the verdict of a gkc run into the same --out

SAMPLING = ["--resolution", "8", "--rim-points", "4"]

#: speeds -0.5 and 1.5; B = (1, -1) annihilates the incoming eigenvector
#: (1, 1) / sqrt(2), so the GKC ratio vanishes at eta = 0
GKC_FAILING = {
    "d": 1, "n": 2, "r": 1, "A": [[[0.5, 1.0], [1.0, 0.5]]],
    "Q": [[0.0, 0.0], [0.0, -1.0]], "B": [[1.0, -1.0]],
}


@pytest.fixture
def gkc_calls(monkeypatch):
    """The specs of every check_gkc call the CLI makes."""
    calls = []
    sample = cli.check_gkc

    def counted(sys_obj, frame, spec=None):
        calls.append(spec)
        return sample(sys_obj, frame, spec=spec)

    monkeypatch.setattr(cli, "check_gkc", counted)
    return calls


def _gkc_then(command, system, out, *extra):
    assert _run(["gkc", system, "--out", str(out)] + SAMPLING) in (0, 1)
    return _run([command, system, "--out", str(out)] + SAMPLING + list(extra))


class TestGkcReuse:
    def test_gkc_then_reduce_samples_once(self, sys2x2_file, tmp_path, gkc_calls, capsys):
        out, fresh = tmp_path / "reports", tmp_path / "fresh"
        assert _gkc_then("reduce", sys2x2_file, out) == 0
        assert len(gkc_calls) == 1
        assert f"GKC verdict reused from {out / 'gkc.json'}" in capsys.readouterr().out
        assert _run(["reduce", sys2x2_file, "--out", str(fresh)] + SAMPLING) == 0
        assert len(gkc_calls) == 2
        assert "GKC verdict sampled" in capsys.readouterr().out
        assert (out / "reduce.json").read_bytes() == (fresh / "reduce.json").read_bytes()
        gkc_doc = _read(out / "gkc.json")
        assert gkc_doc["provenance"]["sampling"] == {
            "resolution": 8, "rim_points": 4, "delta": 1e-3,
        }
        assert gkc_doc["provenance"]["source"] == cli._source_digest()
        del gkc_doc["provenance"]
        assert _read(out / "reduce.json")["gkc"] == gkc_doc

    @pytest.mark.parametrize("change", [
        "--resolution", "--rim-points", "--seed", "system", "source",
        "truncated", "passed missing", "passed not a bool",
    ])
    def test_another_question_samples_afresh(
        self, change, sys2x2_file, tmp_path, gkc_calls, monkeypatch
    ):
        out = tmp_path / "reports"
        assert _run(["gkc", sys2x2_file, "--out", str(out)] + SAMPLING) == 0
        argv = ["reduce", sys2x2_file, "--out", str(out)] + SAMPLING
        path = out / "gkc.json"
        if change.startswith("--"):
            argv += [change, "5"]
        elif change == "system":
            doc = _read(sys2x2_file)
            doc["B"] = [[1.0, 0.0], [0.0, 2.0]]
            Path(sys2x2_file).write_text(json.dumps(doc))
        elif change == "source":
            monkeypatch.setattr(cli, "_source_digest", lambda: "0" * 64)
        elif change == "truncated":
            data = path.read_bytes()
            path.write_bytes(data[: len(data) // 2])
        else:
            doc = _read(path)
            if change == "passed missing":
                del doc["passed"]
            else:
                doc["passed"] = "true"
            path.write_text(json.dumps(doc))
        assert _run(argv) == 0
        assert len(gkc_calls) == 2

    def test_reused_failure_refuses_as_a_fresh_one(self, tmp_path, gkc_calls, capsys):
        system = tmp_path / "failing.json"
        system.write_text(json.dumps(GKC_FAILING))
        out, fresh = tmp_path / "reports", tmp_path / "fresh"
        assert _gkc_then("reduce", str(system), out) == 1
        assert _read(out / "gkc.json")["passed"] is False
        assert len(gkc_calls) == 1
        assert _run(["reduce", str(system), "--out", str(fresh)] + SAMPLING) == 1
        assert (out / "reduce.json").read_bytes() == (fresh / "reduce.json").read_bytes()
        capsys.readouterr()
        assert _run(["reduce", str(system), "--out", str(out), "--force"] + SAMPLING) == 0
        assert len(gkc_calls) == 2
        stdout = capsys.readouterr().out
        assert "GKC verdict reused" in stdout
        assert "reduction was forced" in stdout

    def test_converge_follows_the_same_rule(self, sys2x2_file, tmp_path, gkc_calls, capsys):
        scen = TestConverge()._scenario(tmp_path)
        out, fresh = tmp_path / "reports", tmp_path / "fresh"
        assert _gkc_then("converge", sys2x2_file, out, "--scenario", scen) == 0
        assert len(gkc_calls) == 1
        assert "GKC verdict reused" in capsys.readouterr().out
        argv = ["converge", sys2x2_file, "--scenario", scen] + SAMPLING
        assert _run(argv + ["--out", str(fresh)]) == 0
        assert len(gkc_calls) == 2
        assert (out / "converge.json").read_bytes() == (fresh / "converge.json").read_bytes()
        assert not (fresh / "gkc.json").exists()
        assert _run(argv + ["--out", str(out), "--seed", "5"]) == 0
        assert len(gkc_calls) == 3

    def test_debug_log_says_why_not_reused(self, sys2x2_file, tmp_path, caplog):
        caplog.set_level(logging.DEBUG, logger="relaxbc")
        out = tmp_path / "reports"
        argv = ["reduce", sys2x2_file, "--out", str(out)] + SAMPLING

        def reason():
            lines = [r.getMessage() for r in caplog.records
                     if r.getMessage().startswith("gkc verdict not reused")]
            caplog.clear()
            assert len(lines) == 1
            return lines[0]

        assert _run(argv) == 0
        assert reason().endswith("is missing")
        out.joinpath("gkc.json").write_text("{")
        assert _run(argv) == 0
        assert "is unreadable" in reason()
        assert _run(["gkc", sys2x2_file, "--out", str(out)] + SAMPLING) == 0
        caplog.clear()
        assert _run(argv[:-1] + ["5"]) == 0  # another --rim-points
        assert "provenance field 'sampling'" in reason()
        assert _run(argv) == 0
        assert not [r for r in caplog.records if "not reused" in r.getMessage()]


def test_gkc_report_survives_a_json_round_trip(monkeypatch):
    """A reused verdict is gkc.json read back, so it equals the fresh report
    only if to_dict() survives JSON unchanged: on the worked examples, a
    certify pool system, and a report with skipped points, subthreshold
    points and an eta = inf error."""
    import dataclasses

    from relaxbc import reduction
    from relaxbc.errors import AssumptionViolated
    from relaxbc.model import system_from_dict
    from relaxbc.spectral import SamplingSpec, build_kernel_frame, check_gkc

    spec = SamplingSpec(resolution=6, rim_points=8)

    def sample(sys_obj):
        return check_gkc(sys_obj, build_kernel_frame(sys_obj), spec)

    reports = {
        "example": sample(fixtures.example_system()),
        "double_characteristic_7": sample(fixtures.double_characteristic_system(7)),
        "certify_1234": sample(fixtures.random_admissible_bundle(
            np.random.default_rng(1234), d=3, require_n0=1
        ).sys),
    }

    def refuse(*args, **kwargs):
        raise AssumptionViolated("M2 has 0 stable eigenvalues, expected 1")

    monkeypatch.setattr(reduction, "build_reduction_data", refuse)
    gaps = sample(system_from_dict(GKC_FAILING))
    assert gaps.subthreshold_points and gaps.eta_inf_error
    reports["gaps"] = dataclasses.replace(
        gaps, failures=["(0.5, 0.5, 0.0): eigenvalue within the axis tolerance"]
    )
    for name, report in reports.items():
        doc = report.to_dict()
        back = json.loads(json.dumps(doc))
        assert back == doc, name
        assert json.dumps(back, sort_keys=True, indent=2) == json.dumps(
            doc, sort_keys=True, indent=2
        ), name


def test_readme_pipeline_across_processes(sys2x2_file, tmp_path):
    """validate -> gkc -> reduce into one --out as separate processes: the
    reduce reuses the gkc verdict and writes the report of a fresh reduce."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def relaxbc(*argv):
        proc = subprocess.run(
            [sys.executable, "-m", "relaxbc.cli", *argv], env=env,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    reports, fresh = tmp_path / "reports", tmp_path / "fresh"
    sampling = ["--resolution", "8"]
    relaxbc("validate", sys2x2_file, "--out", str(reports))
    relaxbc("gkc", sys2x2_file, "--out", str(reports), *sampling)
    assert "GKC verdict reused from" in relaxbc(
        "reduce", sys2x2_file, "--out", str(reports), *sampling)
    assert "GKC verdict sampled" in relaxbc(
        "reduce", sys2x2_file, "--out", str(fresh), *sampling)
    assert (reports / "reduce.json").read_bytes() == (fresh / "reduce.json").read_bytes()
