from pathlib import Path

import numpy as np
import pytest

from stressdist.fields import dual_tangents, surface_trace, tangential_gradient
from stressdist.geometry import (Ball, Box, CylinderAnnulus, SphericalShell,
                                 equatorial_annulus_interface,
                                 make_surface_batch, plane_disk_interface,
                                 sphere_interface)


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


def _chart_difference(field, batch, axis, h=1e-3):
    """4th-order central difference of a surface field's values along one
    chart axis: a derivative oracle independent of ``dchart``.  Every
    catalog chart map is analytic past its range, so no point needs a
    one-sided stencil."""
    acc = 0.0
    for off, w in ((-2, 1.0), (-1, -8.0), (1, 8.0), (2, -1.0)):
        du, dv = (off * h, 0.0) if axis == 0 else (0.0, off * h)
        shifted = make_surface_batch(batch.patch, batch.U + du, batch.V + dv)
        acc = acc + w * np.asarray(field.value(shifted))
    return acc / (12.0 * h)


def _chart_difference_divergence(field, batch):
    """div_S of a rank-1 or rank-2 surface field from ``_chart_difference``."""
    fu, fv = (_chart_difference(field, batch, axis) for axis in (0, 1))
    return surface_trace(tangential_gradient(fu, fv, dual_tangents(batch)),
                         field.rank)


@pytest.fixture(scope="session")
def chart_difference():
    return _chart_difference


@pytest.fixture(scope="session")
def chart_difference_divergence():
    return _chart_difference_divergence


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
