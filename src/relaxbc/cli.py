"""Command-line driver for the analysis pipeline.

Subcommands: ``validate | gkc | reduce | simulate | converge``, each reading a
system file (JSON) and emitting a machine report (JSON), CSV data files, and a
human-readable summary on stdout.

Exit codes: 0 pass, 1 check failed, 2 config/parse error, 3 numerical failure.
A failed GKC sample and a failed UKC certificate of the reduced condition
(``GkcFailed``) are failed checks: ``reduce`` reports them in ``reduce.json``.
The environment variable ``RELAXBC_LOG`` selects the logging verbosity.
Machine reports exclude wall-clock timings so that rerunning with an identical
configuration and seed reproduces them byte for byte.

``reduce`` and ``converge`` are gated on the GKC verdict.  They take it from
``<out>/gkc.json`` when that file's ``provenance`` equals the block ``gkc``
would write now (tool, version, seed, system-file hash, ``sampling`` and the
``source`` digest of the package code), and sample the hemisphere otherwise;
with ``RELAXBC_LOG=debug`` the reason a file was not reused is logged.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import logging
import os
import sys as _sys

import numpy as np

from . import __version__
from .errors import ConfigError, GkcFailed, ParseError, RelaxbcError
from .model import (
    check_sk_condition,
    compute_indices,
    load_system,
    raw_system_from_dict,
    validate_structural_stability,
)
from .reduction import derive_all, render_reduced_bc
from .spectral import SamplingSpec, build_kernel_frame, check_gkc
from .sim import Scenario, check_epsilons, run_convergence_study, solve_relaxation
from .tolerances import REPORT_IMAG_REL

EXIT_PASS = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

# named, not __name__: under ``python -m relaxbc.cli`` it stays a relaxbc logger
log = logging.getLogger("relaxbc.cli")


# ---------------------------------------------------------------------------
# artifacts


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(doc, sort_keys=True, indent=2))
        fh.write("\n")


def _write_csv(path: str, header: list, rows) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def _config_hash(doc: dict) -> str:
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


def _provenance(config_doc: dict, **extra) -> dict:
    p = {
        "tool": "relaxbc",
        "version": __version__,
        "config_hash": _config_hash(config_doc),
    }
    p.update(extra)
    return p


@functools.lru_cache(maxsize=None)
def _source_digest() -> str:
    """SHA-256 over the package's own ``*.py`` files, as bytes in name order,
    so that a ``gkc.json`` written by other code is never reused."""
    pkg = os.path.dirname(os.path.abspath(__file__))
    h = hashlib.sha256()
    for name in sorted(f for f in os.listdir(pkg) if f.endswith(".py")):
        with open(os.path.join(pkg, name), "rb") as fh:
            data = fh.read()
        h.update(f"{name}\0{len(data)}\0".encode())
        h.update(data)
    return h.hexdigest()


def _gkc_provenance(args, config_doc: dict, spec: SamplingSpec) -> dict:
    """The provenance of ``gkc.json``: the key under which its verdict is
    reused."""
    sampling = {
        "resolution": spec.resolution,
        "rim_points": spec.rim_points,
        "delta": spec.delta,
    }
    return _provenance(
        config_doc, seed=args.seed, sampling=sampling, source=_source_digest()
    )


def _output_dir(path: str) -> None:
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"--out {path!r} is not a usable directory: {exc.strerror}")


def _object(key: str, value) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key!r} must be a JSON object, got {value!r}")
    return value


def _read_json(path: str) -> dict:
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}")


# ---------------------------------------------------------------------------
# scenario files


_WAVEFORMS = {
    "zero": lambda a, f, ph: (lambda t: 0.0 * t),
    "const": lambda a, f, ph: (lambda t: a + 0.0 * t),
    "sin": lambda a, f, ph: (lambda t: a * np.sin(f * t + ph)),
    "cos": lambda a, f, ph: (lambda t: a * np.cos(f * t + ph)),
}


def _make_waveform(spec: dict):
    kind = spec.get("kind")
    if kind not in _WAVEFORMS:
        raise ConfigError(f"unknown waveform kind {kind!r}")
    return _WAVEFORMS[kind](
        _finite("amplitude", spec.get("amplitude", 1.0)),
        _finite("frequency", spec.get("frequency", 1.0)),
        _finite("phase", spec.get("phase", 0.0)),
    )


def _make_profile(spec: dict):
    """Named initial-data profile x -> scalar field."""
    kind = spec.get("kind")
    a = _finite("amplitude", spec.get("amplitude", 1.0))
    if kind == "zero":
        return lambda x: 0.0 * np.asarray(x)
    if kind == "bump":
        c = _finite("center", spec.get("center", 0.5))
        w = _finite_positive("width", spec.get("width", 0.05))
        return lambda x: a * np.exp(-((np.asarray(x) - c) ** 2) / w)
    if kind == "gauss_ramp":
        w = _finite_positive("width", spec.get("width", 0.5))
        return lambda x: a * (1.0 - np.asarray(x)) * np.exp(
            -np.asarray(x) ** 2 / w
        )
    raise ConfigError(f"unknown profile kind {kind!r}")


def _as_float(value) -> float:
    """``value`` as a float; NaN when it is not a number."""
    try:
        return float(value)
    except (TypeError, ValueError):
        return float("nan")


def _finite(key: str, value) -> float:
    """``value`` as a float; a ConfigError unless it is a finite number (a
    waveform or profile parameter that is not would feed NaN into a run)."""
    number = _as_float(value)
    if not np.isfinite(number):
        raise ConfigError(f"{key!r} must be a finite number, got {value!r}")
    return number


def _finite_positive(key: str, value) -> float:
    """``value`` as a float; a ConfigError unless it is a finite, positive
    number (a NaN or infinite length or epsilon would run a meaningless
    mesh)."""
    number = _as_float(value)
    if not (np.isfinite(number) and number > 0):
        raise ConfigError(f"{key!r} must be finite and positive, got {value!r}")
    return number


def _load_scenario(path: str, sys_obj) -> tuple[Scenario, dict]:
    doc = _object("scenario", _read_json(path))
    for key in ("boundary", "u0", "T"):
        if key not in doc:
            raise ConfigError(f"scenario file is missing field {key!r}")
    idx = compute_indices(sys_obj)
    b_specs = doc["boundary"]
    if not isinstance(b_specs, list) or len(b_specs) != idx.n_plus:
        raise ConfigError(
            f"'boundary' must list {idx.n_plus} waveform specs, one per row of B"
        )
    waves = [_make_waveform(_object("boundary", s)) for s in b_specs]

    n1 = sys_obj.n - sys_obj.r
    u_specs = doc["u0"]
    if not isinstance(u_specs, list) or len(u_specs) != n1:
        raise ConfigError(f"'u0' must list {n1} profile specs")
    profiles = [_make_profile(_object("u0", s)) for s in u_specs]

    v_profiles = None
    if "v0" in doc:
        v_specs = doc["v0"]
        if not isinstance(v_specs, list) or len(v_specs) != sys_obj.r:
            raise ConfigError(f"'v0' must list {sys_obj.r} profile specs")
        v_profiles = [_make_profile(_object("v0", s)) for s in v_specs]

    def b(t):
        return np.stack([w(t) for w in waves], axis=-1)

    def u0(x):
        x = np.asarray(x)
        return np.column_stack([p(x) for p in profiles])

    v0 = None
    if v_profiles is not None:
        def v0(x):
            x = np.asarray(x)
            return np.column_stack([p(x) for p in v_profiles])

    T = _finite_positive("T", doc["T"])
    x_max = _finite_positive("x_max", doc.get("x_max", 2.0))
    scenario = Scenario(b=b, u0=u0, v0=v0, T=T, x_max=x_max)
    return scenario, doc


# ---------------------------------------------------------------------------
# subcommands


def cmd_validate(args) -> int:
    doc = _read_json(args.system)
    try:
        sys_obj = load_system(args.system)
    except ParseError:
        raise
    except RelaxbcError as exc:
        report = {
            "passed": False,
            "error": str(exc),
            "provenance": _provenance(doc),
        }
        _write_json(os.path.join(args.out, "validate.json"), report)
        print(f"validation FAILED: {exc}")
        return EXIT_CHECK_FAILED

    # judge the system as given, with its symmetrizer A0 and splitting P
    structural = validate_structural_stability(raw_system_from_dict(doc))
    sk = check_sk_condition(sys_obj)
    idx = compute_indices(sys_obj)

    # structural stability and the Onsager relation are not listed: load_system
    # has already refused a system failing either
    checks = {"sk_like": sk}
    report = {
        "checks": checks,
        "structural": structural.to_dict(),
        "indices": {
            "n0": idx.n0, "n_plus": idx.n_plus,
            "n10": idx.n10, "n1_plus": idx.n1_plus,
        },
        "passed": all(checks.values()),
        "provenance": _provenance(doc),
    }
    _write_json(os.path.join(args.out, "validate.json"), report)

    for name, ok in checks.items():
        print(f"{name:24s} {'pass' if ok else 'FAIL'}")
    print(f"indices: n0={idx.n0} n+={idx.n_plus} n10={idx.n10} n1+={idx.n1_plus}")
    return EXIT_PASS if report["passed"] else EXIT_CHECK_FAILED


def _sampling_spec(args) -> SamplingSpec:
    if args.resolution <= 0:
        raise ConfigError("sampling resolution must be positive")
    if args.rim_points < 0:
        raise ConfigError("rim point count must be nonnegative")
    if args.seed < 0:
        raise ConfigError("seed must be nonnegative")
    return SamplingSpec(
        resolution=args.resolution,
        rim_points=args.rim_points,
        seed=args.seed,
    )


def _stored_gkc(path: str, want: dict) -> dict | None:
    """The report in ``path`` without its provenance, or None when the file
    is missing, unreadable, or was not written for provenance ``want``."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        log.debug("gkc verdict not reused: %s is missing", path)
        return None
    except (OSError, ValueError) as exc:
        log.debug("gkc verdict not reused: %s is unreadable: %s", path, exc)
        return None
    have = doc.pop("provenance", None) if isinstance(doc, dict) else None
    if not isinstance(have, dict):
        log.debug("gkc verdict not reused: %s has no provenance block", path)
        return None
    for key in (*want, *have):
        if key not in have or key not in want or have[key] != want[key]:
            log.debug("gkc verdict not reused: provenance field %r of %s is "
                      "%r, now %r", key, path, have.get(key), want.get(key))
            return None
    if not isinstance(doc.get("passed"), bool):
        log.debug("gkc verdict not reused: 'passed' of %s is not a bool", path)
        return None
    return doc


def _gkc_verdict(args, config_doc: dict, sys_obj, spec: SamplingSpec):
    """``(passed, gkc report dict)`` for the gate of ``reduce`` and
    ``converge``: read from ``<out>/gkc.json`` when ``gkc`` wrote it for the
    same question, sampled otherwise."""
    path = os.path.join(args.out, "gkc.json")
    stored = _stored_gkc(path, _gkc_provenance(args, config_doc, spec))
    if stored is not None:
        print(f"GKC verdict reused from {path}")
        return stored["passed"], stored
    report = check_gkc(sys_obj, build_kernel_frame(sys_obj), spec=spec)
    print(f"GKC verdict sampled (not reused from {path})")
    return report.passed, report.to_dict()


#: rows of ``gkc_samples.csv`` formatted per write: one string for the whole
#: default-resolution d = 3 sample (134,242 rows) raised the peak resident
#: memory of ``gkc`` from 100 to 144 MB
CSV_BLOCK = 4096


def _emit_gkc_csv(args, report, d: int) -> None:
    """``gkc_samples.csv`` from the arrays of ``report``: the bytes
    ``csv.writer`` writes for the same rows (``repr`` of each float, commas,
    CRLF line ends), formatted CSV_BLOCK rows at a time."""
    header = ["re_xi", "im_xi"] + [f"omega{j}" for j in range(1, d)] + [
        "eta", "ratio",
    ]
    row = ",".join(["%r"] * len(header)) + "\r\n"
    with open(os.path.join(args.out, "gkc_samples.csv"), "w", newline="") as fh:
        fh.write(",".join(header) + "\r\n")
        for start in range(0, len(report.values), CSV_BLOCK):
            block = np.column_stack([
                report.points[start : start + CSV_BLOCK],
                report.values[start : start + CSV_BLOCK],
            ])
            fh.write(row * len(block) % tuple(block.ravel().tolist()))


def cmd_gkc(args) -> int:
    doc = _read_json(args.system)
    sys_obj = load_system(args.system)
    spec = _sampling_spec(args)
    report = check_gkc(sys_obj, build_kernel_frame(sys_obj), spec=spec)

    out = report.to_dict()
    out["provenance"] = _gkc_provenance(args, doc, spec)
    _write_json(os.path.join(args.out, "gkc.json"), out)
    _emit_gkc_csv(args, report, sys_obj.d)

    print(f"GKC sampled minimum ratio: {report.min_ratio:.6g} "
          f"over {report.samples} points "
          f"(eta=inf minimum {report.eta_inf_min_ratio})")
    if report.argmin_point is not None:
        print(f"argmin point: {report.argmin_point.as_tuple()}")
    print(report.note)
    print("result:", "pass" if report.passed else "FAIL")
    return EXIT_PASS if report.passed else EXIT_CHECK_FAILED


def cmd_reduce(args) -> int:
    doc = _read_json(args.system)
    sys_obj = load_system(args.system)
    spec = _sampling_spec(args)
    gkc_passed, gkc_doc = _gkc_verdict(args, doc, sys_obj, spec)

    if not gkc_passed and not args.force:
        print("GKC sample check failed; refusing to reduce (use --force)")
        out = {
            "gkc": gkc_doc,
            "provenance": _provenance(doc, seed=args.seed, forced=False),
        }
        _write_json(os.path.join(args.out, "reduce.json"), out)
        return EXIT_CHECK_FAILED

    try:
        pipeline = derive_all(sys_obj, spec=spec)
    except GkcFailed as exc:
        print(f"UKC certificate failed: {exc}")
        out = {
            "gkc": gkc_doc,
            "ukc": {"passed": False, "error": str(exc)},
            "provenance": _provenance(doc, seed=args.seed, forced=bool(args.force)),
        }
        _write_json(os.path.join(args.out, "reduce.json"), out)
        return EXIT_CHECK_FAILED
    rbc, closure = pipeline.rbc, pipeline.closure

    out = {
        "reduced_bc": rbc.to_dict(),
        "closure": {
            "coefficient": _complex_to_lists(closure.coefficient),
            "condition_number": float(closure.condition_number),
        },
        "gkc": gkc_doc,
        "provenance": _provenance(doc, seed=args.seed, forced=bool(args.force)),
    }
    _write_json(os.path.join(args.out, "reduce.json"), out)

    print(render_reduced_bc(sys_obj, rbc))
    print(f"UKC certificate: min ratio {rbc.ukc_min_ratio:.6g} "
          f"over {rbc.ukc_samples} samples")
    print(f"annihilation residual {rbc.annihilation_residual:.3g}, "
          f"zero-speed residual {rbc.p0_residual:.3g}")
    if not gkc_passed:
        print("warning: GKC check failed, reduction was forced")
    return EXIT_PASS


def _complex_to_lists(a: np.ndarray):
    a = np.asarray(a)
    if np.iscomplexobj(a):
        if a.size and np.max(np.abs(a.imag)) > REPORT_IMAG_REL * max(np.max(np.abs(a)), 1.0):
            return {"real": a.real.tolist(), "imag": a.imag.tolist()}
        a = a.real
    return a.tolist()


def cmd_simulate(args) -> int:
    doc = _read_json(args.system)
    sys_obj = load_system(args.system)
    scenario, scen_doc = _load_scenario(args.scenario, sys_obj)
    eps = _finite_positive("--eps", args.eps)
    dx_max = _finite_positive("--dx-max", args.dx_max)

    result = solve_relaxation(sys_obj, scenario, eps, dx_max=dx_max)
    if not np.all(np.isfinite(result.U)):
        print("simulation produced non-finite values")
        return EXIT_NUMERICAL

    from .sim import l2_error

    norm = l2_error(result.x, result.U, np.zeros_like(result.U))
    report = {
        "eps": float(args.eps),
        "T": result.t_final,
        "steps": result.steps,
        "dt": result.dt,
        "nodes": int(result.x.size),
        "node_steps": result.node_steps,
        "l2_norm": norm,
        "boundary_cond": result.boundary_cond,
        "provenance": _provenance(
            {"system": doc, "scenario": scen_doc, "eps": args.eps}
        ),
    }
    _write_json(os.path.join(args.out, "simulate.json"), report)

    _write_csv(
        os.path.join(args.out, "simulate_snapshot.csv"),
        ["x"] + [f"U{k+1}" for k in range(sys_obj.n)],
        np.column_stack([result.x, result.U]).tolist(),
    )
    _write_csv(
        os.path.join(args.out, "simulate_boundary.csv"),
        ["t"] + [f"U{k+1}" for k in range(sys_obj.n)],
        np.column_stack(
            [result.boundary_times, result.boundary_values]
        ).tolist(),
    )
    print(f"eps={args.eps:g}: {result.steps} steps on {result.x.size} nodes, "
          f"final L2 norm {norm:.6g}")
    return EXIT_PASS


def cmd_converge(args) -> int:
    doc = _read_json(args.system)
    sys_obj = load_system(args.system)
    scenario, scen_doc = _load_scenario(args.scenario, sys_obj)
    eps_list = scen_doc.get("epsilons")
    if not isinstance(eps_list, list) or not eps_list:
        raise ConfigError("scenario file must list nonempty 'epsilons'")
    eps_list = [_finite_positive("epsilons", e) for e in eps_list]
    check_epsilons(eps_list)
    grid = _object("grid", scen_doc.get("grid", {}))
    dx_max = _finite_positive("grid.dx_max", grid.get("dx_max", 5e-4))
    equilibrium_dx = _finite_positive(
        "grid.equilibrium_dx", grid.get("equilibrium_dx", 1e-4)
    )

    spec = _sampling_spec(args)
    gkc_passed, _ = _gkc_verdict(args, doc, sys_obj, spec)
    if not gkc_passed and not args.force:
        print("GKC sample check failed; refusing to run (use --force)")
        return EXIT_CHECK_FAILED
    try:
        pipeline = derive_all(sys_obj, spec=spec)
    except GkcFailed as exc:
        print(f"UKC certificate failed: {exc}; refusing to run")
        return EXIT_CHECK_FAILED

    study = run_convergence_study(
        pipeline.sys, pipeline.frame, pipeline.eq, pipeline.data,
        pipeline.rbc, pipeline.closure, scenario,
        eps_list=eps_list,
        dx_max=dx_max,
        equilibrium_dx=equilibrium_dx,
    )

    threshold = args.threshold
    if args.negative_control and not study.control_applicable:
        # the naive closure equals the derived one: nothing to judge
        print("negative control not applicable: no row of B acts on v, or the "
              "reduced boundary condition has no rows (n1_+ = 0)")
        passed = False
    elif args.negative_control:
        slope = study.control_slope
        passed = slope is not None and slope >= threshold
    else:
        slope = study.slope
        passed = not study.degenerate and slope >= threshold

    out = study.to_dict()
    out["passed"] = bool(passed)
    out["threshold"] = threshold
    out["negative_control"] = bool(args.negative_control)
    out["provenance"] = _provenance(
        {"system": doc, "scenario": scen_doc}, seed=args.seed
    )
    _write_json(os.path.join(args.out, "converge.json"), out)

    header = ["eps", "error", "outer_error"]
    cols = [study.eps, study.errors, study.outer_errors]
    if study.control_errors is not None:
        header.append("control_error")
        cols.append(study.control_errors)
    _write_csv(
        os.path.join(args.out, "converge.csv"),
        header, np.column_stack(cols).tolist(),
    )

    if study.degenerate:
        print("all errors at round-off level; slope degenerate")
    else:
        print(f"fitted slope {study.slope:.4f} "
              f"(95% fit residual {study.fit_residual:.4f}), "
              f"outer-solution slope {study.outer_slope:.4f}")
        if study.control_slope is not None:
            print(f"negative-control slope {study.control_slope:.4f}")
    print("result:", "pass" if passed else "FAIL",
          f"(threshold {threshold})")
    return EXIT_PASS if passed else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relaxbc",
        description="Boundary-condition analysis pipeline for linear "
        "hyperbolic relaxation systems on a half-space.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("system", help="system file (JSON)")
        p.add_argument("--out", default=".", help="output directory")

    def sampling(p):
        p.add_argument("--seed", type=int, default=20240817,
                       help="seed for randomized sampling")
        p.add_argument("--resolution", type=int, default=24,
                       help="hemisphere grid resolution")
        p.add_argument("--rim-points", type=int, default=64,
                       help="low-discrepancy points near degenerate rims")

    p = sub.add_parser("validate", help="structural admissibility checks")
    common(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("gkc", help="sample the boundary stability condition")
    common(p)
    sampling(p)
    p.set_defaults(func=cmd_gkc)

    p = sub.add_parser("reduce", help="derive the reduced boundary condition")
    common(p)
    sampling(p)
    p.add_argument("--force", action="store_true",
                   help="reduce even if the GKC sample check fails")
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("simulate", help="single stiff half-line run")
    common(p)
    p.add_argument("--scenario", required=True, help="scenario file (JSON)")
    p.add_argument("--eps", type=float, required=True)
    p.add_argument("--dx-max", type=float, default=1e-3)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", help="error-vs-epsilon study")
    common(p)
    sampling(p)
    p.add_argument("--scenario", required=True, help="scenario file (JSON)")
    p.add_argument("--threshold", type=float, default=0.45,
                   help="pass/fail slope threshold")
    p.add_argument("--force", action="store_true",
                   help="run even if the GKC sample check fails")
    p.add_argument("--negative-control", action="store_true",
                   help="judge the naive-closure control instead "
                   "(expected to fail)")
    p.set_defaults(func=cmd_converge)
    return parser


def main(argv=None) -> int:
    level = os.environ.get("RELAXBC_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _output_dir(args.out)
        return args.func(args)
    except (ParseError, ConfigError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_CONFIG
    except (RelaxbcError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=_sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    raise SystemExit(main())
