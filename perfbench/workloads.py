"""Workload definitions: input generation, command sequences and output checks.

Every input file is derived from the benchmark seed.  The seed picks one
fixture from a small pool of vetted fixtures of the same shape, so that every
seed asks for the same amount of work; the converge workload also passes the
seed to the CLI, where it scrambles the rim points of the GKC sampling.

This module imports ``relaxbc``; the caller puts the checkout's ``src`` on
``sys.path`` first.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

from relaxbc import fixtures
from relaxbc.model import compute_indices, system_to_dict

WORKLOADS = ("certify-d3", "converge")

#: the CLI's default sampling seed; certify-d3 keeps it so min_ratio can be pinned
CLI_DEFAULT_SEED = 20240817

#: random_admissible_bundle(default_rng(s), d=3, require_n0=1) seeds whose
#: systems share one shape (n = 7, r = 4, n0 = 1, n_+ = 2), so the per-point
#: cost is the same for each; the value is the gkc min_ratio that the package
#: at its seed state reports at --resolution 12 --rim-points 64 and the
#: default CLI seed.
CERTIFY_POOL = {
    1234: 0.2335810029585322,
    2691: 0.9950299416926701,
    2523: 0.011544587146961454,
}

#: double_characteristic_system(s) seeds with spectral radius of A1 within 5%
#: of the tier-1 fixture (seed 7), hence within 5% of its stiff step count.
CONVERGE_3X3_POOL = (7, 22)

SAMPLING_D3 = ("--resolution", "12", "--rim-points", "64")

#: the convergence studies' epsilon list, the one of the README and tier-1
EPSILONS = [1e-2, 3e-3, 1e-3, 3e-4]

#: tolerances of the gates the repository already has
MIN_RATIO_REL = 1e-8
RESIDUAL_MAX = 1e-10
UKC_MARGIN = 1e-6
SLOPE_BAND = (0.45, 0.65)
CONTROL_MAX = 0.1
SLOPE_MIN_3X3 = 0.45


@dataclass
class Command:
    name: str
    argv: list
    out: str  # the directory the command writes its reports into
    expect_rc: int = 0


@dataclass
class Inputs:
    """Generated input files plus the command sequence that consumes them."""

    commands: list
    info: dict = field(default_factory=dict)


def _write(path: str, doc: dict) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
    return path


def _system_doc(sys_obj) -> dict:
    # random fixtures carry labels=None, which system_to_dict cannot serialize
    return system_to_dict(dataclasses.replace(sys_obj, labels=()))


def _shape(sys_obj) -> dict:
    idx = compute_indices(sys_obj)
    return {
        "n": sys_obj.n, "r": sys_obj.r, "d": sys_obj.d, "n0": idx.n0,
        "n_plus": idx.n_plus, "n10": idx.n10, "n1_plus": idx.n1_plus,
    }


def make_inputs(workload: str, seed: int, in_dir: str, out_dir: str) -> Inputs:
    """Write the workload's input files into ``in_dir`` and return the commands
    (CLI argument lists writing into ``out_dir``)."""
    if workload == "certify-d3":
        pool = sorted(CERTIFY_POOL)
        fixture_seed = pool[seed % len(pool)]
        bundle = fixtures.random_admissible_bundle(
            np.random.default_rng(fixture_seed), d=3, require_n0=1
        )
        system = _write(os.path.join(in_dir, "system.json"), _system_doc(bundle.sys))
        common = ["--out", out_dir]
        commands = [
            Command("validate", ["validate", system] + common, out_dir),
            Command("gkc", ["gkc", system] + common + list(SAMPLING_D3), out_dir),
            Command("reduce", ["reduce", system] + common + list(SAMPLING_D3), out_dir),
        ]
        info = {"fixture_seed": fixture_seed, "cli_seed": CLI_DEFAULT_SEED,
                **_shape(bundle.sys)}
        return Inputs(commands, info)

    if workload != "converge":
        raise ValueError(f"unknown workload {workload!r}")
    # both converge studies run in one repeat: the 2x2 one exercises the
    # equilibrium solver, the 3x3 one the sqrt(eps) layer and the closure
    cli_seed = seed % 2**32
    fixture_seed = CONVERGE_3X3_POOL[seed % len(CONVERGE_3X3_POOL)]
    sys_3x3 = fixtures.double_characteristic_system(fixture_seed)
    cases = {
        "converge-2x2": (fixtures.example_system(), {
            "boundary": [{"kind": "sin"}, {"kind": "cos"}],
            "u0": [{"kind": "gauss_ramp", "amplitude": 1.0 / 3.0, "width": 0.5}],
            "T": 0.5,
            "x_max": 2.0,
            "epsilons": EPSILONS,
        }),
        "converge-3x3": (sys_3x3, {
            "boundary": [{"kind": "sin"}] * sys_3x3.B.shape[0],
            "u0": [{"kind": "bump", "amplitude": 0.5, "center": 0.6,
                    "width": 0.05}] * (sys_3x3.n - sys_3x3.r),
            "T": 0.5,
            "x_max": 2.0,
            "epsilons": EPSILONS,
        }),
    }
    commands = []
    info = {"cli_seed": cli_seed, "fixture_seed_3x3": fixture_seed}
    for name, (sys_obj, scenario) in cases.items():
        case_in, case_out = os.path.join(in_dir, name), os.path.join(out_dir, name)
        os.makedirs(case_in, exist_ok=True)
        os.makedirs(case_out, exist_ok=True)
        system = _write(os.path.join(case_in, "system.json"), _system_doc(sys_obj))
        scen = _write(os.path.join(case_in, "scenario.json"), scenario)
        info[name] = _shape(sys_obj)
        commands.append(Command(name, ["converge", system, "--scenario", scen,
                                       "--out", case_out, "--seed", str(cli_seed)],
                                case_out))
    return Inputs(commands, info)


# ---------------------------------------------------------------------------
# output checks: each returns a list of (check name, passed, detail)


def _read(out_dir: str, name: str) -> dict:
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


def check_command(workload: str, cmd: Command, info: dict) -> list:
    """Checks of one command's reports, following the repository's gates."""
    try:
        return _CHECKS[(workload, cmd.name)](cmd.out, info)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [(f"{cmd.name}.report", False, f"unreadable report: {exc}")]


def _check_validate(out_dir, info):
    rep = _read(out_dir, "validate.json")
    return [("validate.passed", rep["passed"] is True, rep["checks"])]


def _check_gkc(out_dir, info):
    rep = _read(out_dir, "gkc.json")
    pin = CERTIFY_POOL[info["fixture_seed"]]
    got = float(rep["min_ratio"])
    return [
        ("gkc.passed", rep["passed"] is True, ""),
        ("gkc.min_ratio_pinned", _rel(got, pin) <= MIN_RATIO_REL,
         f"{got!r} vs pinned {pin!r}"),
    ]


def _check_reduce(out_dir, info):
    rbc = _read(out_dir, "reduce.json")["reduced_bc"]
    checks = [
        ("reduce.annihilation_residual",
         rbc["annihilation_residual"] <= RESIDUAL_MAX,
         f"{rbc['annihilation_residual']:.3g}"),
        ("reduce.zero_speed_residual", rbc["p0_residual"] <= RESIDUAL_MAX,
         f"{rbc['p0_residual']:.3g}"),
    ]
    if info["n1_plus"] > 0:
        checks.append(("reduce.ukc_margin", rbc["ukc_min_ratio"] > UKC_MARGIN,
                       f"{rbc['ukc_min_ratio']:.6g}"))
    return checks


def _slopes(out_dir):
    rep = _read(out_dir, "converge.json")
    slope, control = rep["slope"], rep["control_slope"]
    return rep, slope, control


def _check_converge_2x2(out_dir, info):
    rep, slope, control = _slopes(out_dir)
    lo, hi = SLOPE_BAND
    return [
        ("converge.passed", rep["passed"] is True, ""),
        ("converge.slope_band", slope is not None and lo <= slope <= hi,
         f"slope {slope}"),
        ("converge.control_stalls", control is not None and control < CONTROL_MAX,
         f"control slope {control}"),
    ]


def _check_converge_3x3(out_dir, info):
    rep, slope, _ = _slopes(out_dir)
    return [
        ("converge.passed", rep["passed"] is True, ""),
        ("converge.slope_min", slope is not None and slope >= SLOPE_MIN_3X3,
         f"slope {slope}"),
    ]


_CHECKS = {
    ("certify-d3", "validate"): _check_validate,
    ("certify-d3", "gkc"): _check_gkc,
    ("certify-d3", "reduce"): _check_reduce,
    ("converge", "converge-2x2"): _check_converge_2x2,
    ("converge", "converge-3x3"): _check_converge_3x3,
}


def observations(commands: list) -> dict:
    """Reported, never gated: facts a later change is expected to alter."""
    obs = {}
    for cmd in commands:
        if not cmd.name.startswith("converge"):
            continue
        _, slope, control = _slopes(cmd.out)
        # ROADMAP item 4: with n1_+ = 0 the naive closure changes nothing
        obs[f"{cmd.name}.control_slope"] = control
        obs[f"{cmd.name}.control_equals_slope"] = (
            control is not None and slope is not None
            and math.isclose(control, slope, rel_tol=0.0, abs_tol=0.0)
        )
    return obs
