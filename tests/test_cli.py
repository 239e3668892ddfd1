"""Command-line interface: exit codes, artifacts, and determinism."""

import copy
import csv
import io
import json
import logging
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from relaxbc import __version__, cli, linalg, spectral
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
    """``gkc_samples.csv``, the simulate snapshot and boundary files and
    ``converge.csv`` are written from arrays with the bytes ``csv.writer``
    gives for the same rows."""

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
        cli._write_csv(str(tmp_path / "gkc_samples.csv"),
                       ["re_xi", "im_xi", "eta", "ratio"], [points, values])
        want = self._csv_writer_bytes(["re_xi", "im_xi", "eta", "ratio"], points, values)
        assert (tmp_path / "gkc_samples.csv").read_bytes() == want

    def test_signed_zeros_nonfinite_values_and_repeats_equal_csv_writer(
        self, tmp_path, monkeypatch
    ):
        # -0.0 beside 0.0 and -nan beside nan in one block, +-inf, values
        # repeated within a block of 3 rows and across its boundaries, and a
        # 1-D column between two 2-D ones
        monkeypatch.setattr(cli, "CSV_BLOCK", 3)
        x = np.array([0.0, -0.0, 0.1, 0.1, -0.0, 0.0, 0.1, np.nan])
        U = np.array([
            [0.0, -0.0], [-0.0, np.inf], [np.nan, -np.nan], [-np.inf, 0.1],
            [0.1, 0.1], [1.0 / 3.0, -0.0], [1.0 / 3.0, 1.0 / 3.0], [np.inf, np.inf],
        ])
        W = -U[::-1]
        header = ["U1", "x", "U2", "W1", "W2"]
        path = tmp_path / "block.csv"
        cli._write_csv(str(path), header, [U[:, :1], x, np.hstack([U[:, 1:], W])])
        rows = np.column_stack([U[:, :1], x, U[:, 1:], W]).tolist()
        buf = io.StringIO(newline="")
        w = csv.writer(buf)
        w.writerow(header)
        w.writerows(rows)
        assert path.read_bytes() == buf.getvalue().encode()
        assert b"-0.0" in path.read_bytes() and b"-inf" in path.read_bytes()

    def test_cli_csv_in_small_blocks_is_the_report(self, sys2x2_file, tmp_path, monkeypatch):
        from relaxbc.reduction import derive_all
        from relaxbc.spectral import SamplingSpec

        monkeypatch.setattr(cli, "CSV_BLOCK", 5)
        report = derive_all(fixtures.example_system(),
                            SamplingSpec(resolution=8, rim_points=4)).gkc
        assert _run(["gkc", sys2x2_file, "--out", str(tmp_path),
                     "--resolution", "8", "--rim-points", "4"]) == 0
        want = self._csv_writer_bytes(
            ["re_xi", "im_xi", "eta", "ratio"], report.points, report.values)
        assert (tmp_path / "gkc_samples.csv").read_bytes() == want

    def test_cli_csv_is_the_report(self, sys2x2_file, tmp_path):
        from relaxbc.reduction import derive_all
        from relaxbc.spectral import SamplingSpec

        report = derive_all(fixtures.example_system(),
                            SamplingSpec(resolution=8, rim_points=4)).gkc
        assert list(report.ratios) == list(zip(
            map(tuple, report.points.tolist()), report.values.tolist()))
        assert len(report.ratios) == report.samples == len(report.points)
        assert _run(["gkc", sys2x2_file, "--out", str(tmp_path),
                     "--resolution", "8", "--rim-points", "4"]) == 0
        want = self._csv_writer_bytes(
            ["re_xi", "im_xi", "eta", "ratio"], report.points, report.values)
        assert (tmp_path / "gkc_samples.csv").read_bytes() == want

    def test_simulate_and_converge_csv_equal_csv_writer(
        self, sys2x2_file, scen2x2_file, tmp_path, monkeypatch
    ):
        # repr round-trips a float, so csv.writer given the parsed rows
        # writes the bytes it would have written for the arrays
        monkeypatch.setattr(cli, "CSV_BLOCK", 3)
        out = str(tmp_path)
        assert _run(["simulate", sys2x2_file, "--scenario", scen2x2_file,
                     "--eps", "1e-2", "--out", out]) == 0
        assert _run(["converge", sys2x2_file, "--scenario", scen2x2_file,
                     "--resolution", "4", "--out", out]) == 0
        for name in ("simulate_snapshot.csv", "simulate_boundary.csv", "converge.csv"):
            with open(tmp_path / name, newline="") as fh:
                header, *rows = csv.reader(fh)
            assert len(rows) > 3
            buf = io.StringIO(newline="")
            w = csv.writer(buf)
            w.writerow(header)
            w.writerows([float(v) for v in row] for row in rows)
            assert (tmp_path / name).read_bytes() == buf.getvalue().encode()


def test_readme_library_session_prints_its_comment(capsys):
    # the python block of README.md shows what it prints as comment lines
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    shown = [line[2:] for line in block.splitlines() if line.startswith("# ")]
    assert shown
    exec(compile(block, "README.md", "exec"), {})
    printed = [line.strip() for line in capsys.readouterr().out.splitlines()]
    for line in shown:
        assert line in printed


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
        from relaxbc.errors import NearImaginaryEigenvalue
        from relaxbc.spectral import Sample

        def skip_ukc(units, *args, _sample=reduction.sample):
            reason = NearImaginaryEigenvalue(0j, 1.0)
            skipped = Sample(units, np.full(len(units), np.nan), [(u, reason) for u in units], 0)
            return {**_sample(units, *args), "ukc": skipped}

        monkeypatch.setattr(reduction, "sample", skip_ukc)

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
    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_nonfinite_stiff_state_exits_3_without_a_report(
        self, sys2x2_file, scen2x2_file, tmp_path, capsys, monkeypatch, command
    ):
        # v(x, 0) = inf leaves the stiff state at T non-finite: both commands
        # refuse it as one numerical failure, on stderr, with no report
        from conftest import with_infinite_v

        load = cli._load_scenario

        def nonfinite(path, sys_obj):
            scenario, doc = load(path, sys_obj)
            return with_infinite_v(scenario), doc

        monkeypatch.setattr(cli, "_load_scenario", nonfinite)
        out = tmp_path / "out"
        argv = [command, sys2x2_file, "--scenario", scen2x2_file, "--out", str(out)]
        if command == "simulate":
            argv += ["--eps", "1e-2", "--dx-max", "2e-3"]
        else:
            argv += ["--resolution", "8", "--rim-points", "0"]
        assert _run(argv) == 3
        err = capsys.readouterr().err
        assert "numerical failure: the stiff state at eps 0.01 is not finite at T = 0.5" in err
        assert not out.exists() or not any(out.iterdir())

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
            "grid": {"dx_max": 2e-3},
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
        for head in ("gkc: ", "gkc eta = inf, ukc: ", "eps 0.01: ", "eps 0.003: "):
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

    @pytest.mark.parametrize("overrides, message", [
        pytest.param({"grid": {"dx_mx": 1e-2}},
                     "'grid' key 'dx_mx' is not read by any command (known: dx_max;",
                     id="dx_mx"),
        pytest.param({"x_mx": 1.0}, "'scenario' key 'x_mx' is not read", id="x_mx"),
        pytest.param({"boundary": [{"kind": "sin"}, {"kind": "cos", "amplitud": 2.0}]},
                     "'boundary' key 'amplitud' is not read", id="amplitud"),
        pytest.param({"u0": [{"kind": "bump", "centre": 0.3}]},
                     "'u0' key 'centre' is not read", id="centre"),
        pytest.param({"grid": {"dx_max": 2e-3, "equilibrium_dx": 1e-3}},
                     "'grid' key 'equilibrium_dx' is not read by any command (known: "
                     "dx_max; the equilibrium solution is now exact, on no grid)",
                     id="equilibrium_dx"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_unread_scenario_key_is_config_error(
        self, sys2x2_file, tmp_path, capsys, overrides, message, command
    ):
        # such a key took its default silently: dx_mx ran converge on the
        # default dx_max
        scen = self._scenario(tmp_path, **overrides)
        out = tmp_path / "out"
        argv = [command, sys2x2_file, "--scenario", scen, "--out", str(out)]
        if command == "simulate":
            argv += ["--eps", "1e-2"]
        assert _run(argv) == 2
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

    def test_one_scenario_file_serves_both_commands(self, sys2x2_file, tmp_path):
        # every key of either command and of every kind is accepted by both
        scen = self._scenario(
            tmp_path,
            boundary=[{"kind": "sin", "amplitude": 1.0, "frequency": 1.0, "phase": 0.0},
                      {"kind": "cos"}],
            u0=[{"kind": "gauss_ramp", "amplitude": 1.0 / 3.0, "width": 0.5,
                 "center": 0.0}],
            v0=[{"kind": "zero"}],
        )
        out = str(tmp_path / "out")
        assert _run(["simulate", sys2x2_file, "--scenario", scen, "--eps", "1e-2",
                     "--dx-max", "2e-3", "--out", out]) == 0
        assert _run(["converge", sys2x2_file, "--scenario", scen, "--out", out,
                     "--resolution", "8", "--rim-points", "0"]) == 0

    @pytest.mark.parametrize("threshold", ["nan", "inf"])
    def test_nonfinite_threshold_is_config_error(
        self, sys2x2_file, tmp_path, capsys, threshold
    ):
        # a NaN threshold failed every study, exiting 1 as a failed study
        scen = self._scenario(tmp_path)
        out = tmp_path / "out"
        assert _run(
            ["converge", sys2x2_file, "--scenario", scen, "--out", str(out),
             "--threshold", threshold]
        ) == 2
        assert "'--threshold' must be a finite number" in capsys.readouterr().err
        assert not out.exists() or not any(out.iterdir())

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


def _perfbench_spans():
    """perfbench/spans.py, loaded from its file."""
    import importlib.util

    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_perfbench_wrapped_attributes_resolve():
    """perfbench/spans.py wraps package functions by (module, attribute)
    name; a missing one breaks benchmark runs with ``--trace 1``."""
    import importlib

    spans = _perfbench_spans()
    missing = [
        (mod, attr) for mod, attr, _ in spans.WRAPPED
        if not callable(getattr(importlib.import_module(f"relaxbc.{mod}"), attr, None))
    ]
    assert spans.WRAPPED and missing == []


def test_perfbench_observers_read_what_the_package_returns(pipe2x2, pipe3):
    """Each observer of perfbench/spans.py reads attributes of what its
    package function returns; run every one on a small fixture."""
    from collections import defaultdict

    from relaxbc import layers, reduction, sim, spectral

    spans = _perfbench_spans()
    scen = fixtures.example_scenario()
    spec = spectral.SamplingSpec(resolution=4)
    m1 = reduction.Pipeline(pipe2x2.sys, pipe2x2.frame, spec).m1
    returned = {
        "spectral.check_gkc": spectral.check_gkc(
            pipe2x2.sys, pipe2x2.frame, spec, spectral.gkc_directions(pipe2x2.sys.d, spec),
            m1["gkc eta = inf"],
        ),
        "sim.solve_relaxation": sim.solve_relaxation(pipe2x2.sys, scen, 1e-2),
        "sim.solve_equilibrium": sim.solve_equilibrium(
            pipe2x2.eq, sim.equilibrium_trace(pipe2x2.eq, pipe2x2.rbc, scen), scen,
            np.linspace(0.0, 2.0, 11),
        ),
        "layers.solve_sqrt_eps_layer": layers.solve_sqrt_eps_layer(
            pipe3.sys, pipe3.eq, lambda t: np.ones((np.size(t), pipe3.eq.n10)), 0.5
        ),
        "reduction.derive_reduced_bc": reduction.derive_reduced_bc(pipe2x2.algebra, m1["ukc"]),
    }
    assert set(returned) == set(spans.OBSERVERS)
    counts = defaultdict(int)
    for name, result in returned.items():
        spans.OBSERVERS[name](result, counts)
    assert counts["spectral.sample_rows"] > 0
    assert counts["sim.stiff_node_steps"] > 0
    # the closed-form equilibrium solution takes no time step
    assert counts["sim.equilibrium_node_steps"] == 0
    assert len(counts["layers.sqrt_layer_digests"]) == 1
    assert counts["reduction.ukc_samples"] > 0


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
loaded = [m for m in ("scipy.linalg", "scipy.special", "scipy.sparse") if m in sys.modules]
sys.exit(f"imported {loaded}" if loaded else 0)
"""


def test_every_command_leaves_scipy_linalg_and_special_out(sys2x2_file, scen2x2_file, tmp_path):
    """validate, gkc, reduce and converge, on the README 2x2 example and on
    the 3x3 double-characteristic fixture, run in one fresh process without
    importing scipy.linalg, scipy.special or the scipy.sparse package: the
    stiff loop loads only scipy's compiled sparse kernels."""
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
    {"boundary": [{"kind": ["sin"]}, {"kind": "cos"}]},
    {"u0": [{"kind": ["bump"]}]},
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


@pytest.mark.parametrize("field, value, message", [
    # OverflowError: cannot convert float infinity to integer
    pytest.param("x_max", 1e308, "x_max 1e+308, dx_max 0.0005 and eps 0.01", id="x_max-inf"),
    pytest.param("T", 1e308, "T 1e+308 and eps 0.01", id="T-inf"),
    pytest.param("epsilons", 1e-320, "and eps 9.99989e-321 (dx_min = eps / 4) ask for about inf", id="eps-inf"),
    # ValueError: Maximum allowed dimension exceeded
    pytest.param("x_max", 1e20, "x_max 1e+20, dx_max 0.0005", id="x_max-too-many-nodes"),
    # OverflowError: Python int too large to convert to C long
    pytest.param("T", 1e20, "T 1e+20 and eps 0.01", id="T-too-many-steps"),
])
@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_run_past_the_work_limits_is_config_error(
    command, field, value, message, sys2x2_file, scen2x2_file, tmp_path, capsys
):
    # these died with a traceback; the estimate now comes before anything
    # is allocated, so converge refuses them before its GKC sample
    with open(scen2x2_file) as fh:
        doc = json.load(fh)
    doc["epsilons"] = [1e-2, value] if field == "epsilons" else [1e-2, 3e-3]
    if field != "epsilons":
        doc[field] = value
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = [command, sys2x2_file, "--scenario", str(scen), "--out", str(out)]
    if command == "simulate":
        argv += ["--eps", str(value if field == "epsilons" else 1e-2), "--dx-max", "5e-4"]
    assert _run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "mesh nodes" in err if field in ("x_max", "epsilons") else "finest time steps" in err
    assert not out.exists() or not any(out.iterdir())


def _set(path, value):
    def edit(doc):
        *head, last = path
        for key in head:
            doc = doc[key]
        doc[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(_set(["d"], "x"), "field 'd' must be an integer", id="d-word"),
    pytest.param(_set(["n"], [2]), "field 'n' must be an integer", id="n-list"),
    pytest.param(_set(["r"], 1.7), "field 'r' must be an integer", id="r-fraction"),
    pytest.param(_set(["A", 0, 0, 0], float("nan")),
                 "field 'A[0]' has an entry that is not finite", id="A-nan"),
    pytest.param(_set(["Q", 1, 1], float("nan")),
                 "field 'Q' has an entry that is not finite", id="Q-nan"),
    pytest.param(_set(["B", 0, 0], float("inf")),
                 "field 'B' has an entry that is not finite", id="B-inf"),
    pytest.param(_set(["A", 0, 0, 0], "3.0"),
                 "field 'A[0]' has an entry that is not a number: '3.0'", id="A-string"),
    pytest.param(_set(["B", 0, 0], True),
                 "field 'B' has an entry that is not a number: True", id="B-bool"),
    pytest.param(_set(["labels"], "uv"), "field 'labels' must list", id="labels-string"),
    pytest.param(_set(["labels"], [1]), "field 'labels' must list", id="labels-number"),
])
@pytest.mark.parametrize("command", ["validate", "gkc"])
def test_malformed_system_is_parse_error(command, edit, message, tmp_path, capsys):
    # these died with a traceback, were truncated (r = 1.7 read as 1), or
    # read as a numerical failure or a failed check
    doc = system_to_dict(fixtures.example_system())
    edit(doc)
    path = tmp_path / "bad_system.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = ["--resolution", "4"] if command == "gkc" else []
    assert _run([command, str(path), "--out", str(out)] + extra) == 2
    assert f"error: {message}" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


def _dims(**fields):
    def edit(doc):
        doc.update(fields)
        if "S" in fields:
            del doc["Q"]
    return edit


@pytest.mark.parametrize("edit, rc, message", [
    pytest.param(_dims(d=0, A=[]), 2, "error: field 'd' breaks", id="d-zero"),
    pytest.param(_dims(n=-1, S=[[-1.0]]), 2, "error: field 'n' breaks", id="n-negative"),
    pytest.param(_dims(r=3, S=(-np.eye(3)).tolist()), 2, "error: field 'r' breaks", id="r-above-n"),
    pytest.param(_dims(r=0, Q=np.zeros((2, 2)).tolist()), 2, "error: field 'r' breaks",
                 id="r-zero"),
    pytest.param(_dims(P=[[1.0]]), 2, "error: field 'P' has shape (1, 1), expected (2, 2)",
                 id="P-shape"),
    pytest.param(_dims(A0=[[1.0]]), 2, "error: field 'A0' has shape (1, 1), expected (2, 2)",
                 id="A0-shape"),
    pytest.param(_dims(A=[[[1.0]]]), 2, "error: field 'A[0]' has shape (1, 1), expected (2, 2)",
                 id="A-shape"),
    pytest.param(_dims(Q=[[-1.0]]), 2, "error: field 'Q' has shape (1, 1), expected (2, 2)",
                 id="Q-shape"),
    pytest.param(_dims(B=[[1.0]]), 2, "error: field 'B' has shape (1, 1), expected 2 columns",
                 id="B-columns"),
    pytest.param(_dims(P=[[1.0, 0.0], [0.0, 0.0]]), 1,
                 "validation FAILED: the splitting matrix P is singular", id="P-singular"),
])
def test_malformed_dimensions_exit_without_traceback(edit, rc, message, tmp_path, capsys):
    # the first five died with a traceback (an empty max, a negative shape,
    # a broadcast, an empty reduction, a matmul), the shapes of A0, A, Q and
    # B read as a failed check or a numerical failure, and the singular P
    # exited 3 on a LinAlgError; a singular P is a failed structural check
    doc = system_to_dict(fixtures.example_system())
    edit(doc)
    path = tmp_path / "bad_system.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert _run(["validate", str(path), "--out", str(out)]) == rc
    captured = capsys.readouterr()
    assert message in captured.out + captured.err
    if rc == 1:
        report = _read(out / "validate.json")
        assert report["passed"] is False and report["error"] == "the splitting matrix P is singular"
    else:
        assert not out.exists() or not any(out.iterdir())
        assert _run(["gkc", str(path), "--out", str(out), "--resolution", "4"]) == 2
        assert message in capsys.readouterr().err


def _sk_violation(doc):
    # ker A1 = span(e1) lies in ker Q: the Shizuta-Kawashima-like condition
    # fails in the kernel frame, though the system loads
    doc.update(n=3, r=1, A=[np.diag([0.0, 1.0, -1.0]).tolist()],
               Q=np.diag([0.0, 0.0, -1.0]).tolist(), B=[[0.0, 1.0, 0.0]], labels=[])


_SK_SCENARIO = {
    "boundary": [{"kind": "sin"}],
    "u0": [{"kind": "bump"}, {"kind": "bump"}],
    "T": 0.5,
    "epsilons": [1e-2, 3e-3],
}


@pytest.mark.parametrize("edit, reason, commands", [
    pytest.param(_dims(r=2, Q=(-np.eye(2)).tolist()), "bad dimensions d=1, n=2, r=2",
                 ["gkc", "reduce", "simulate", "converge"], id="r-equals-n"),
    pytest.param(_dims(P=[[1.0, 0.0], [0.0, 0.0]]), "the splitting matrix P is singular",
                 ["gkc", "reduce", "simulate", "converge"], id="P-singular"),
    pytest.param(_sk_violation, "lower block R02 of the kernel basis is rank-deficient",
                 ["gkc", "reduce", "simulate", "converge"], id="sk-like"),
])
def test_failed_validation_exits_1_from_every_command(
    edit, reason, commands, scen2x2_file, tmp_path, capsys
):
    # each command but validate reported these as a numerical failure, exit 3
    doc = system_to_dict(fixtures.example_system())
    edit(doc)
    path = tmp_path / "bad_system.json"
    path.write_text(json.dumps(doc))
    scenario = scen2x2_file
    if edit is _sk_violation:
        scenario = tmp_path / "sk_scenario.json"
        scenario.write_text(json.dumps(_SK_SCENARIO))
    extra = {
        "gkc": ["--resolution", "4"],
        "reduce": ["--resolution", "4"],
        "simulate": ["--scenario", str(scenario), "--eps", "1e-2"],
        "converge": ["--scenario", str(scenario), "--resolution", "4"],
    }
    for command in commands:
        out = tmp_path / command
        assert _run([command, str(path), "--out", str(out)] + extra[command]) == 1, command
        captured = capsys.readouterr()
        assert f"validation FAILED: {reason}" in captured.err, command
        assert "numerical failure" not in captured.err
        assert not out.exists() or not any(out.iterdir()), command

    out = tmp_path / "validate"
    assert _run(["validate", str(path), "--out", str(out)]) == 1
    report = _read(out / "validate.json")
    assert report["passed"] is False
    if edit is _sk_violation:
        assert report["checks"] == {"sk_like": False}
    else:
        assert report["error"].startswith(reason)


def test_sk_verdict_is_one_rule_in_validate_and_gkc(tmp_path, capsys):
    # ker A1 = span(k), k = (1, 3e-5, 0) / |k|, S = -I: sigma(R02) = 3e-5 holds
    # the SK-like condition, while sigma(R0^T Q R0) = 9e-10 failed validate
    # alone under a rule of its own; the speeds 1 and -1 take eigenvectors
    # turned by 0.5 rad in the complement of k, where the GKC holds
    s, c, t = 3e-5, np.cos(0.5), np.sin(0.5)
    k, a = np.array([[1.0, s, 0.0], [-s, 1.0, 0.0]]) / np.hypot(1.0, s)
    e3 = np.eye(3)[2]
    V = np.column_stack([k, c * a + t * e3, c * e3 - t * a])
    doc = {"d": 1, "n": 3, "r": 2, "A": [(V @ np.diag([0.0, 1.0, -1.0]) @ V.T).tolist()],
           "S": (-np.eye(2)).tolist(), "B": [V[:, 1].tolist()]}
    path = tmp_path / "sk_edge.json"
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out")
    assert _run(["validate", str(path), "--out", out]) == 0
    assert _read(tmp_path / "out" / "validate.json")["checks"] == {"sk_like": True}
    assert _run(["gkc", str(path), "--out", out, "--resolution", "8"]) == 0
    assert "validation FAILED" not in capsys.readouterr().err


@pytest.mark.parametrize("field, spec, key", [
    ("boundary", {"kind": "sin", "amplitude": "loud"}, "amplitude"),
    ("boundary", {"kind": "cos", "frequency": float("nan")}, "frequency"),
    ("boundary", {"kind": "sin", "phase": float("inf")}, "phase"),
    ("u0", {"kind": "gauss_ramp", "amplitude": float("-inf")}, "amplitude"),
    ("u0", {"kind": "gauss_ramp", "width": 0.0}, "width"),
    ("u0", {"kind": "bump", "center": "left"}, "center"),
    ("u0", {"kind": "bump", "width": float("nan")}, "width"),
    ("boundary", {"kind": "sin", "amplitude": True}, "amplitude"),
    ("u0", {"kind": "bump", "width": True}, "width"),
])
@pytest.mark.parametrize("command", ["simulate", "converge"])
def test_bad_waveform_or_profile_number_is_config_error(
    command, field, spec, key, sys2x2_file, scen2x2_file, tmp_path, capsys
):
    # a word died in float() with a traceback; NaN or inf ran on NaN data; a
    # bool ran as 1.0
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


@pytest.mark.parametrize("command", ["validate", "gkc", "reduce", "simulate", "converge"])
def test_matrix_entry_past_the_input_range_is_parse_error(command, scen2x2_file, tmp_path, capsys):
    # Q = diag(1e308, -1) overflowed the structural checks
    doc = system_to_dict(fixtures.example_system())
    doc["Q"][0][0] = 1e308
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    extra = {
        "gkc": ["--resolution", "4"],
        "reduce": ["--resolution", "4"],
        "simulate": ["--scenario", scen2x2_file, "--eps", "1e-2"],
        "converge": ["--scenario", scen2x2_file, "--resolution", "4"],
    }.get(command, [])
    assert _run([command, str(path), "--out", str(out)] + extra) == 2
    err = capsys.readouterr().err
    assert "error: field 'Q' has an entry larger than 1e+100 in magnitude" in err
    assert not any(out.iterdir())


@pytest.mark.parametrize("edit, rc", [
    # an amplitude of 1e308 overflowed the squares of the L2 norm
    pytest.param(lambda doc: doc["u0"][0].update(amplitude=1e308), 2, id="amplitude"),
    pytest.param(lambda doc: doc["boundary"][0].update(frequency=-1e101), 2, id="frequency"),
    # the exponent of a bump of width 1e-320 overflows to -inf, and exp
    # gives 0 there exactly
    pytest.param(lambda doc: doc["u0"][0].update(kind="bump", width=1e-320), 1, id="width"),
    # the work estimate overflowed its cell bound at eps = 1e308
    pytest.param(lambda doc: doc.update(epsilons=[1e-2, 1e308]), 1, id="eps"),
])
def test_scenario_number_past_the_float_range_exits_without_overflow(
    edit, rc, sys2x2_file, scen2x2_file, tmp_path, capsys
):
    with open(scen2x2_file) as fh:
        doc = json.load(fh)
    doc.update(T=0.05, grid={"dx_max": 0.05})
    edit(doc)
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(doc))
    out = tmp_path / "out"
    argv = ["converge", sys2x2_file, "--scenario", str(scen), "--out", str(out),
            "--resolution", "4", "--rim-points", "0"]
    assert _run(argv) == rc
    if rc == 2:
        assert "must be a finite number of magnitude at most 1e+100" in capsys.readouterr().err
        assert not any(out.iterdir())
    else:
        assert (out / "converge.json").exists()


def test_unconverged_sign_split_names_its_direction(tmp_path, capsys, monkeypatch):
    # the double speed of repeated_speed_system sends rows to the sign split
    from conftest import write_system_file

    path = write_system_file(tmp_path / "repeated.json", fixtures.repeated_speed_system())
    monkeypatch.setattr(linalg, "SIGN_MAX_STEPS", 1)
    assert _run(["gkc", path, "--out", str(tmp_path / "out"), "--resolution", "8"]) == 3
    assert re.fullmatch(
        r"numerical failure: \((-?[0-9.e+-]+, )+-?[0-9.e+-]+\): "
        r"sign iteration still moving after 1 steps\n",
        capsys.readouterr().err,
    )


@pytest.mark.parametrize("flag, value", [("--resolution", "400"), ("--rim-points", "100000000")])
@pytest.mark.parametrize("command", ["gkc", "reduce", "converge"])
def test_sample_past_the_direction_limit_is_config_error(
    command, flag, value, sys2x2_file, scen2x2_file, tmp_path, capsys, monkeypatch
):
    # gkc and reduce on a d = 3 system, converge on the 2x2 example, whose
    # resolution-400 grid (160,000 directions) stays under the limit
    from conftest import write_system_file

    # without the limit these grids would be allocated: the setattr fails
    # at once where spectral has no SAMPLE_DIRECTIONS_MAX
    monkeypatch.setattr(spectral, "SAMPLE_DIRECTIONS_MAX", spectral.SAMPLE_DIRECTIONS_MAX)
    if command == "converge":
        if flag == "--resolution":
            value = "2001"  # 2001^2 = 4,004,001 tensor directions
        argv = [command, sys2x2_file, "--scenario", scen2x2_file]
    else:
        d3 = fixtures.random_admissible_bundle(np.random.default_rng(2691), d=3, require_n0=1).sys
        argv = [command, write_system_file(tmp_path / "d3.json", d3)]
    out = tmp_path / "out"
    assert _run(argv + ["--out", str(out), flag, value]) == 2
    assert "directions, past SAMPLE_DIRECTIONS_MAX = 4,000,000" in capsys.readouterr().err
    assert not any(out.iterdir())


def test_direction_limit_names_the_grid_it_refused(tmp_path, capsys, monkeypatch):
    # at d = 3 the (Re xi, Im xi, omega) grid of resolution 400 is refused
    # first; at resolution 100 it holds 1e6 directions and the gkc grid,
    # with its 64 rim points, is refused.  Both grids are built before
    # either is sampled, so neither run takes a sample
    from conftest import write_system_file
    from relaxbc import reduction

    def no_sample(*args, **kwargs):
        raise AssertionError("a frequency sample was taken")

    d3 = fixtures.random_admissible_bundle(np.random.default_rng(2691), d=3, require_n0=1).sys
    argv = ["gkc", write_system_file(tmp_path / "d3.json", d3), "--out", str(tmp_path / "out")]
    monkeypatch.setattr(spectral, "sample", no_sample)
    monkeypatch.setattr(reduction, "sample", no_sample)
    assert _run(argv + ["--resolution", "400"]) == 2
    err = capsys.readouterr().err
    assert "the (Re xi, Im xi, omega) grid of the eta = infinity and UKC samples: " \
           "resolution 400 in m = 4 coordinates asks for about 64,000,000 directions" in err
    assert "rim points" not in err
    assert _run(argv + ["--resolution", "100"]) == 2
    err = capsys.readouterr().err
    assert "the gkc grid: resolution 100 with 64 rim points in m = 5 coordinates " \
           "asks for about 100,000,128 directions" in err
    assert not any((tmp_path / "out").iterdir())


#: the README's system and scenario documents, the scenario with a short T
#: and a coarse mesh
README_SYSTEM = {
    "d": 1, "n": 2, "r": 1, "A": [[[3.0, 1.0], [1.0, 1.0]]],
    "Q": [[0.0, 0.0], [0.0, -1.0]], "B": [[1.0, 0.0], [0.0, 1.0]],
}
README_SCENARIO = {
    "boundary": [{"kind": "sin"}, {"kind": "cos"}],
    "u0": [{"kind": "gauss_ramp", "amplitude": 0.3333333, "width": 0.5}],
    "T": 0.05, "x_max": 2.0, "epsilons": [1e-2, 3e-3, 1e-3, 3e-4], "grid": {"dx_max": 0.05},
}
#: replacement values: out of range, past the float range, of another type
MUTANTS = [0, -1, 2, 0.5, 1e101, -1e308, 1e-320, float("nan"), float("inf"), True, None,
           "x", "1.0", [], {}, [1.0], {"kind": "sin"}]


def _paths(doc, prefix=()):
    """The path of every value inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


@st.composite
def _mutated_readme(draw):
    """The README documents with one value replaced, one key or item
    dropped, or one value's type changed."""
    docs = copy.deepcopy({"system": README_SYSTEM, "scenario": README_SCENARIO})
    paths = [(name, path) for name in docs for path in _paths(docs[name])]
    name, path = draw(st.sampled_from(paths))
    parent = docs[name]
    for key in path[:-1]:
        parent = parent[key]
    change = draw(st.sampled_from(["replace", "drop", "retype"]))
    if change == "replace":
        parent[path[-1]] = draw(st.sampled_from(MUTANTS))
    elif change == "drop":
        del parent[path[-1]]
    else:
        parent[path[-1]] = draw(st.sampled_from([str, lambda v: [v], lambda v: {"value": v}]))(
            parent[path[-1]]
        )
    return docs


@settings(max_examples=100, deadline=None, derandomize=True)
@given(docs=_mutated_readme())
def test_mutated_readme_documents_exit_with_a_code(docs):
    """Every command, run in process on a mutated README system or scenario,
    exits 0, 1, 2 or 3 with no traceback (and, under this suite's warning
    filter, no overflow), and an exit 2 writes no report."""
    with tempfile.TemporaryDirectory() as tmp:
        system, scenario = os.path.join(tmp, "system.json"), os.path.join(tmp, "scenario.json")
        for path, doc in ((system, docs["system"]), (scenario, docs["scenario"])):
            with open(path, "w") as fh:
                json.dump(doc, fh)
        fast = ["--resolution", "4", "--rim-points", "0"]
        for argv in (["validate", system], ["gkc", system, *fast], ["reduce", system, *fast],
                     ["simulate", system, "--scenario", scenario, "--eps", "1e-2",
                      "--dx-max", "0.05"],
                     ["converge", system, "--scenario", scenario, *fast]):
            out = os.path.join(tmp, argv[0])
            rc = cli.main([*argv, "--out", out])
            assert rc in (0, 1, 2, 3)
            assert rc != 2 or not os.listdir(out)


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
    from relaxbc import reduction

    calls = []
    sample = reduction.check_gkc

    def counted(sys_obj, frame, spec, hemisphere, eta_inf):
        calls.append(spec)
        return sample(sys_obj, frame, spec, hemisphere, eta_inf)

    monkeypatch.setattr(reduction, "check_gkc", counted)
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


#: the stage functions a command runs at most once, by defining module: those
#: of _PER_OBJECT once per object they take (a parsed file, a raw or a
#: canonical system), the rest once per command
_PER_OBJECT = ("raw_system_from_dict", "validate_structural_stability", "split_speeds")
_STAGES = {
    "model": _PER_OBJECT,
    "spectral": ("build_kernel_frame", "check_gkc"),
    "reduction": ("build_equilibrium_frame", "build_reduction_data",
                  "derive_reduced_bc", "build_closure"),
}


def _chain_runs(sys3, tmp_path) -> dict:
    """The argv of each command on the 3x3 fixture at resolution 8, by name
    and in order, with reduce both reusing gkc.json and sampling afresh."""
    system = tmp_path / "sys3.json"
    system.write_text(json.dumps(system_to_dict(sys3)))
    scenario = tmp_path / "scen.json"
    scenario.write_text(json.dumps({
        "boundary": [{"kind": "sin"}], "u0": [{"kind": "bump"}] * (sys3.n - sys3.r),
        "T": 0.5, "epsilons": [1e-2, 3e-3], "grid": {"dx_max": 2e-3},
    }))
    out, fresh = str(tmp_path / "out"), str(tmp_path / "fresh")
    sampling = ["--resolution", "8"]
    return {
        "validate": ["validate", str(system), "--out", out],
        "gkc": ["gkc", str(system), "--out", out] + sampling,
        "reduce reusing gkc.json": ["reduce", str(system), "--out", out] + sampling,
        "reduce sampling afresh": ["reduce", str(system), "--out", fresh] + sampling,
        "simulate": ["simulate", str(system), "--out", out, "--scenario", str(scenario),
                     "--eps", "1e-2", "--dx-max", "2e-3"],
        "converge": ["converge", str(system), "--out", fresh, "--scenario", str(scenario)]
                    + sampling,
    }


def _modules():
    import importlib

    return [importlib.import_module(f"relaxbc.{name}") for name in
            ("cli", "model", "spectral", "reduction", "layers", "sim")]


def test_each_command_runs_each_stage_once(sys3, tmp_path, monkeypatch):
    """Every command runs a prefix of one chain, each stage once: counted
    through the stage functions under every module name a caller looks
    them up by, on the 3x3 fixture at resolution 8, with reduce both
    reusing gkc.json and sampling afresh."""
    import importlib
    from collections import Counter

    modules = _modules()
    calls = {}
    for home, names in _STAGES.items():
        for name in names:
            fn = getattr(importlib.import_module(f"relaxbc.{home}"), name)

            def counted(first, *args, _fn=fn, _name=name, **kwargs):
                calls.setdefault(_name, []).append(first)
                return _fn(first, *args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is fn:
                    monkeypatch.setattr(module, name, counted)

    counts = {}
    for command, argv in _chain_runs(sys3, tmp_path).items():
        calls.clear()
        assert _run(argv) == 0, command
        for name, firsts in calls.items():
            per = Counter(map(id, firsts)) if name in _PER_OBJECT else {"": len(firsts)}
            counts[command, name] = max(per.values())
    assert {key: n for key, n in counts.items() if n > 1} == {}
    assert counts["reduce sampling afresh", "check_gkc"] == 1
    assert ("reduce reusing gkc.json", "check_gkc") not in counts


def test_each_command_counts_its_frequency_samples(sys3, tmp_path, monkeypatch):
    """The GKC grid is one ``spectral.sample`` call, and the eta = inf
    sample and the UKC certificate share another, the M1 split: counted by
    target names under every module name a caller looks ``sample`` up by,
    on the 3x3 fixture at resolution 8."""
    from relaxbc import spectral

    fn, labels = spectral.sample, []

    def counted(units, stack, n_s, targets):
        labels.append(", ".join(targets))
        return fn(units, stack, n_s, targets)

    for module in _modules():
        if getattr(module, "sample", None) is fn:
            monkeypatch.setattr(module, "sample", counted)
    sampled = {}
    for command, argv in _chain_runs(sys3, tmp_path).items():
        labels.clear()
        assert _run(argv) == 0, command
        sampled[command] = list(labels)
    everything = ["gkc eta = inf, ukc", "gkc"]
    assert sampled == {
        "validate": [],
        "gkc": everything,
        "reduce reusing gkc.json": ["gkc eta = inf, ukc"],
        "reduce sampling afresh": everything,
        "simulate": [],
        "converge": everything,
    }


def test_gkc_report_survives_a_json_round_trip(monkeypatch):
    """A reused verdict is gkc.json read back, so it equals the fresh report
    only if to_dict() survives JSON unchanged: on the worked examples, a
    certify pool system, and a report with skipped points, subthreshold
    points and an eta = inf error."""
    import dataclasses

    from relaxbc import reduction
    from relaxbc.errors import AssumptionViolated
    from relaxbc.model import system_from_dict
    from relaxbc.reduction import Pipeline
    from relaxbc.spectral import SamplingSpec, build_kernel_frame

    spec = SamplingSpec(resolution=6, rim_points=8)

    def sample(sys_obj):
        return Pipeline(sys_obj, build_kernel_frame(sys_obj), spec).gkc

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
