import dataclasses
import json

import numpy as np
import pytest

from relaxbc import fixtures
from relaxbc.model import RelaxationSystem
from relaxbc.reduction import derive_all
from relaxbc.spectral import SamplingSpec


@pytest.fixture(scope="session")
def pipe2x2():
    """Fully derived pipeline for the 2x2 worked example."""
    return derive_all(fixtures.example_system())


@pytest.fixture(scope="session")
def sys3():
    """Deterministic 3x3 double-characteristic system (n0 = n10 = 1)."""
    return fixtures.double_characteristic_system(seed=7)


@pytest.fixture(scope="session")
def pipe3(sys3):
    return derive_all(sys3, spec=SamplingSpec(resolution=8, rim_points=0))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def random_bundles():
    """A shared pool of random admissible systems with their full derivations.

    Session-scoped because building each bundle runs the whole reduction
    chain; several property suites draw from the same pool.
    """
    gen = np.random.default_rng(1234)
    bundles = []
    while len(bundles) < 100:
        try:
            bundles.append(fixtures.random_admissible_bundle(gen))
        except Exception:
            continue
    return bundles


@pytest.fixture(scope="session")
def zero_speed_bundle():
    """d = 2 with A11 = diag(2, -1, 0): one incoming, one outgoing and one
    zero equilibrium speed (n10 = 1, n1_+ = 1), so M1 is 2 x 2, carries the
    coupling through X, and its stable vector, hence the UKC ratio, varies
    with (xi, omega).  No member of ``random_bundles`` has a zero
    equilibrium speed."""
    gen = np.random.default_rng(0)
    A1 = np.zeros((4, 4))
    A1[0, 0], A1[1, 1] = 2.0, -1.0
    A1[2, 3] = A1[3, 2] = 1.0
    W = gen.normal(size=(4, 4))
    sys_obj = RelaxationSystem(
        d=2, n=4, r=1, A=(A1, 0.5 * (W + W.T)), Q=np.diag([0.0, 0.0, 0.0, -1.0]),
        B=gen.normal(size=(2, 4)), labels=(), transform=np.eye(4),
    )
    return derive_all(sys_obj, spec=SamplingSpec(resolution=8, rim_points=0))


def write_system_file(path, sys_obj):
    from relaxbc.model import system_to_dict

    with open(path, "w") as fh:
        json.dump(system_to_dict(sys_obj), fh)
    return str(path)


def with_infinite_v(scenario):
    """``scenario`` with its last relaxed variable infinite at t = 0, so no
    stiff state that starts from it is finite."""
    def U0(x):
        U = np.array(scenario.U0(x), dtype=float)
        U[:, -1] = np.inf
        return U

    return dataclasses.replace(scenario, U0=U0)


@pytest.fixture
def sys2x2_file(tmp_path):
    return write_system_file(tmp_path / "system.json", fixtures.example_system())


@pytest.fixture
def scen2x2_file(tmp_path):
    doc = {
        "boundary": [{"kind": "sin"}, {"kind": "cos"}],
        "u0": [{"kind": "gauss_ramp", "amplitude": 1.0 / 3.0, "width": 0.5}],
        "T": 0.5,
        "x_max": 2.0,
        "epsilons": [1e-2, 3e-3, 1e-3, 3e-4],
    }
    p = tmp_path / "scenario.json"
    p.write_text(json.dumps(doc))
    return str(p)
