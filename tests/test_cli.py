"""Command-line interface: exit codes, artifacts, and determinism."""

import json
import logging
import os
import subprocess
import sys
from pathlib import Path

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
    ["-c", "import relaxbc.cli, sys; sys.exit('scipy.stats' in sys.modules)"],
    ["-m", "relaxbc.cli", "--version"],
])
def test_cold_start_leaves_scipy_stats_out(argv):
    """A fresh process that starts the CLI does not import scipy.stats, which
    took more than half of every command's start-up."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, *argv], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    if "--version" in argv:
        assert proc.stdout.strip() == __version__
