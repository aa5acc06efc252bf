from pathlib import Path

import numpy as np
import pytest

from stressdist.geometry import (Ball, Box, CylinderAnnulus, SphericalShell,
                                 equatorial_annulus_interface,
                                 plane_disk_interface, sphere_interface)


@pytest.fixture(scope="session")
def ball():
    return Ball(1.0)


@pytest.fixture(scope="session")
def big_ball():
    return Ball(2.0)


@pytest.fixture(scope="session")
def shell():
    return SphericalShell(1.0, 2.0)


@pytest.fixture(scope="session")
def box():
    return Box([1.0, 1.0, 1.0])


@pytest.fixture(scope="session")
def cylinder():
    return CylinderAnnulus(0.5, 1.5, 2.0)


@pytest.fixture(scope="session")
def sphere_half():
    return sphere_interface(0.5)


@pytest.fixture(scope="session")
def unit_sphere():
    return sphere_interface(1.0)


@pytest.fixture(scope="session")
def shell_sphere():
    return sphere_interface(1.45)


@pytest.fixture(scope="session")
def annulus(shell):
    return equatorial_annulus_interface(shell)


@pytest.fixture(scope="session")
def ball_disk(ball):
    return plane_disk_interface(ball, z=0.0)


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"


def _snapshot(directory):
    return {p.relative_to(directory).as_posix(): p.read_bytes()
            for p in sorted(directory.rglob("*")) if p.is_file()}


@pytest.fixture(scope="session", autouse=True)
def scenarios_untouched():
    """Fail the run if any test adds, removes or rewrites a file under
    scenarios/: tests write their reports into temporary directories."""
    before = _snapshot(SCENARIO_DIR) if SCENARIO_DIR.is_dir() else {}
    yield
    after = _snapshot(SCENARIO_DIR) if SCENARIO_DIR.is_dir() else {}
    changed = sorted(name for name in before.keys() | after.keys()
                     if before.get(name) != after.get(name))
    if changed:
        pytest.fail("tests changed files under scenarios/: "
                    + ", ".join(changed))
