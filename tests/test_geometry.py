"""Quadrature exactness, differential geometry, and boundary integrals."""

import math
import sys
import threading
import time

import numpy as np
import pytest
from scipy import integrate

from stressdist import distributions, geometry
from stressdist._memo import LruMemo
from stressdist.errors import ConfigError, EvaluationError, GeometryError
from stressdist.catalog import random_stress_function
from stressdist.fields import (KelvinStressField, PiecewiseField, PolyField,
                               surface_polynomial)
from stressdist.geometry import (BLOCK, TASK_BLOCKS, Ball, Box,
                                 CylinderAnnulus, Interface, SphericalShell,
                                 blocked_sum,
                                 boundary_force_moment,
                                 equatorial_annulus_interface, integrate_curve,
                                 integrate_surface, integrate_volume,
                                 mean_curvature, plane_disk_interface,
                                 shape_operator, sphere_interface,
                                 support_volume_quad,
                                 cylinder_patch_interface, VolumeQuad)
from stressdist.stressfn import extract_densities


def _double_factorial(n):
    out = 1
    while n > 1:
        out *= n
        n -= 2
    return out


def ball_monomial_integral(a, b, c, R):
    """Exact integral of x^a y^b z^c over a ball of radius R."""
    if a % 2 or b % 2 or c % 2:
        return 0.0
    n = a + b + c
    num = (4.0 * np.pi * R ** (n + 3) * _double_factorial(a - 1)
           * _double_factorial(b - 1) * _double_factorial(c - 1))
    return num / ((n + 3) * _double_factorial(n + 1))


class TestVolumes:
    def test_ball_volume(self, ball):
        v = integrate_volume(ball, None, lambda p: np.ones(len(p)), level=1)
        assert abs(v.value - 4 * np.pi / 3) < 1e-10 * (4 * np.pi / 3)

    def test_shell_volume(self, shell):
        v = integrate_volume(shell, None, lambda p: np.ones(len(p)), level=1)
        exact = 4 * np.pi / 3 * (8 - 1)
        assert abs(v.value - exact) < 1e-10 * exact

    def test_box_volume(self, box):
        v = integrate_volume(box, None, lambda p: np.ones(len(p)), level=0)
        assert abs(v.value - 8.0) < 1e-12 * 8.0

    def test_cylinder_annulus_volume(self, cylinder):
        v = integrate_volume(cylinder, None, lambda p: np.ones(len(p)), level=1)
        exact = np.pi * (1.5 ** 2 - 0.5 ** 2) * 2.0
        assert abs(v.value - exact) < 1e-10 * exact

    def test_monomials_over_ball(self, ball):
        for (a, b, c) in [(2, 0, 0), (0, 4, 0), (2, 2, 2), (6, 0, 0), (0, 2, 4)]:
            got = integrate_volume(
                ball, None,
                lambda p, ab=(a, b, c): p[:, 0] ** ab[0] * p[:, 1] ** ab[1]
                * p[:, 2] ** ab[2], level=2).value
            exact = ball_monomial_integral(a, b, c, 1.0)
            assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))

    def test_monomials_over_box(self, box, rng):
        # random polynomial integrates exactly (closed-form antiderivatives)
        exps = [(i, j, k) for i in range(6) for j in range(4) for k in range(4)]
        coefs = rng.uniform(-1, 1, len(exps))

        def poly(p):
            out = np.zeros(len(p))
            for (i, j, k), c in zip(exps, coefs):
                out += c * p[:, 0] ** i * p[:, 1] ** j * p[:, 2] ** k
            return out

        def mono_1d(n):
            return 0.0 if n % 2 else 2.0 / (n + 1)

        exact = sum(c * mono_1d(i) * mono_1d(j) * mono_1d(k)
                    for (i, j, k), c in zip(exps, coefs))
        got = integrate_volume(box, None, poly, level=0).value
        assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))

    def test_piecewise_split_exact(self, big_ball, unit_sphere):
        # constant 2 inside the interface sphere, 0 outside
        def f(p):
            return np.where(np.linalg.norm(p, axis=-1) < 1.0, 2.0, 0.0)

        got = integrate_volume(big_ball, unit_sphere, f, level=1).value
        exact = 2 * 4 * np.pi / 3
        assert abs(got - exact) < 1e-10 * exact

    def test_weights_positive_and_sum(self, ball, unit_sphere):
        rule = ball.volume_quadrature(None, 1)
        q = rule.nodes(0, len(rule))
        assert np.all(q.weights > 0)
        assert abs(q.weights.sum() - 4 * np.pi / 3) < 1e-10 * 4 * np.pi / 3
        s = unit_sphere.surface_quadrature(1)
        assert np.all(s.weights > 0)
        assert abs(s.weights.sum() - 4 * np.pi) < 1e-10 * 4 * np.pi

    def test_refinement_error_estimate(self, ball):
        def f(p):
            return np.exp(p[:, 0] - 0.3 * p[:, 1] ** 2)

        r1 = integrate_volume(ball, None, f, level=1)
        r2 = integrate_volume(ball, None, f, level=2)
        # the reported estimate at the finer level bounds the level change
        assert abs(r2.value - r1.value) <= max(r1.error, 1e-14)

    def test_nonfinite_integrand_raises(self, ball):
        from stressdist.errors import EvaluationError

        def f(p):
            out = np.ones(len(p))
            out[0] = np.inf
            return out

        with pytest.raises(EvaluationError):
            integrate_volume(ball, None, f, level=0)


class TestSurfaces:
    def test_sphere_area(self, unit_sphere):
        a = integrate_surface(unit_sphere, lambda b: np.ones(len(b)), level=1)
        assert abs(a.value - 4 * np.pi) < 1e-10 * 4 * np.pi

    def test_x1_squared(self, unit_sphere):
        # by symmetry: (1/3) of the integral of |x|^2 = R^2 over the sphere
        got = integrate_surface(unit_sphere, lambda b: b.points[:, 0] ** 2,
                                level=1).value
        exact = 4 * np.pi / 3
        assert abs(got - exact) < 1e-10 * exact

    def test_disk_area(self, ball_disk):
        a = integrate_surface(ball_disk, lambda b: np.ones(len(b)), level=1)
        assert abs(a.value - np.pi) < 1e-10 * np.pi

    def test_annulus_area(self, annulus):
        a = integrate_surface(annulus, lambda b: np.ones(len(b)), level=1)
        exact = np.pi * (4 - 1)
        assert abs(a.value - exact) < 1e-10 * exact

    def test_cylinder_patch_area(self, cylinder):
        itf = cylinder_patch_interface(cylinder, 1.0)
        a = integrate_surface(itf, lambda b: np.ones(len(b)), level=1)
        exact = 2 * np.pi * 1.0 * 2.0
        assert abs(a.value - exact) < 1e-10 * exact

    def test_surface_divergence_theorem_closed(self, unit_sphere):
        # constant field: both div_S c and the kappa term integrate to zero
        batch = unit_sphere.surface_quadrature(2)
        kn = batch.kappa[:, None] * batch.normals
        for c in np.eye(3):
            val = np.dot(batch.weights, kn @ c)
            assert abs(val) < 1e-10
        # nonconstant: int div_S w da = int kappa <w,n> da on a closed surface
        from stressdist.fields import SurfaceField, surface_divergence

        w = SurfaceField.from_world(lambda p: np.stack(
            [p[:, 0] ** 2, p[:, 1] * p[:, 2], p[:, 2]], axis=-1), 1, unit_sphere)
        div = surface_divergence(w, batch)
        lhs = np.dot(batch.weights, div)
        wn = np.einsum('ni,ni->n', w.value(batch), batch.normals)
        rhs = np.dot(batch.weights, batch.kappa * wn)
        assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


class TestShapeOperator:
    def test_unit_sphere(self, unit_sphere):
        p = np.array([0.0, 0.0, 1.0])
        S = shape_operator(unit_sphere, p)
        expected = np.eye(3) - np.outer(p, p)
        assert np.allclose(S, expected, atol=1e-12)

    def test_plane_zero(self, ball_disk):
        S = shape_operator(ball_disk, [0.3, 0.2, 0.0])
        assert np.allclose(S, 0.0, atol=1e-14)

    def test_cylinder_eigenvalues(self):
        dom = CylinderAnnulus(1.0, 3.0, 2.0)
        itf = cylinder_patch_interface(dom, 2.0)
        S = shape_operator(itf, [2.0, 0.0, 0.3])
        ev = np.sort(np.linalg.eigvalsh(S))
        assert np.allclose(ev, [0.0, 0.0, 0.5], atol=1e-12)

    def test_mean_curvature_examples(self, unit_sphere, ball_disk):
        assert abs(mean_curvature(unit_sphere, [1.0, 0, 0]) - 2.0) < 1e-12
        assert abs(mean_curvature(ball_disk, [0.1, 0.1, 0.0])) < 1e-14
        inward = sphere_interface(1.5, orientation=-1.0)
        assert abs(mean_curvature(inward, [1.5, 0, 0]) + 2.0 / 1.5) < 1e-12

    def test_properties_random_points(self, unit_sphere, annulus):
        for itf in (unit_sphere, annulus):
            batch = itf.samples(1000)
            S = batch.shape_ops
            asym = np.max(np.abs(S - np.swapaxes(S, -1, -2)))
            ann = np.max(np.abs(np.einsum('nij,nj->ni', S, batch.normals)))
            assert asym < 1e-8 and ann < 1e-8
            assert np.max(np.abs(np.linalg.norm(batch.normals, axis=-1) - 1)) < 1e-12

    def test_off_surface_point_rejected(self, unit_sphere):
        with pytest.raises(GeometryError):
            shape_operator(unit_sphere, [1.5, 0.0, 0.0])


class TestCurves:
    def test_circumference(self, annulus):
        for comp, radius in ((1, 1.0), (0, 2.0)):
            c = integrate_curve(annulus, comp, lambda cb: np.ones(len(cb)))
            assert abs(c.value - 2 * np.pi * radius) < 1e-10 * radius

    def test_position_integral_vanishes(self, annulus):
        got = integrate_curve(annulus, 0, lambda cb: cb.points[:, 0])
        assert abs(got.value) < 1e-12

    def test_conormal_orientation(self, annulus):
        outer = annulus.curve_quadrature(0)
        inner = annulus.curve_quadrature(1)
        rad_o = outer.points[:, :2] / np.linalg.norm(outer.points[:, :2],
                                                     axis=1, keepdims=True)
        rad_i = inner.points[:, :2] / np.linalg.norm(inner.points[:, :2],
                                                     axis=1, keepdims=True)
        assert np.allclose(outer.nu[:, :2], rad_o, atol=1e-12)
        assert np.allclose(inner.nu[:, :2], -rad_i, atol=1e-12)

    def test_curves_lie_on_boundary(self, shell, annulus):
        for comp, radius in ((0, shell.outer_radius), (1, shell.inner_radius)):
            curve = annulus.curve_quadrature(comp)
            r = np.linalg.norm(curve.points, axis=1)
            assert np.max(np.abs(r - radius)) < 1e-12

    def test_every_curve_of_a_component(self, cylinder):
        # the cylinder patch meets component 0 in two circles, top and
        # bottom: the curve rule walks both
        itf = cylinder_patch_interface(cylinder, 1.0)
        got = integrate_curve(itf, 0, lambda cb: np.ones(len(cb)))
        assert abs(got.value - 4 * np.pi) < 1e-12
        curve = itf.curve_quadrature(0)
        heights = np.unique(np.round(curve.points[:, 2], 12))
        assert np.allclose(heights, cylinder.z_range, atol=1e-12)
        assert np.allclose(curve.nu[:, 2], np.sign(curve.points[:, 2]),
                           atol=1e-12)

    @pytest.mark.parametrize("n", [8, 12])
    def test_error_compares_with_a_coarser_rule(self, annulus, n):
        # the coarse rule has n // 2 nodes, so the estimate sees the error
        # of a rule too small for exp(3x)
        def f(cb):
            return np.exp(3.0 * cb.points[:, 0])

        got = integrate_curve(annulus, 0, f, n=n)
        fine = integrate_curve(annulus, 0, f, n=64)
        assert fine.error < 1e-9 * fine.value
        assert got.error >= abs(got.value - fine.value) > 0.05

    @pytest.mark.parametrize("n", [0, 1])
    def test_too_few_nodes_rejected(self, annulus, n):
        with pytest.raises(ConfigError, match="at least 2 nodes"):
            integrate_curve(annulus, 0, lambda cb: np.ones(len(cb)), n=n)

    def test_closed_interface_has_no_curves(self, unit_sphere):
        assert unit_sphere.boundary_curves == []
        with pytest.raises(GeometryError):
            unit_sphere.curve_quadrature(0)


class TestBoundaryForceMoment:
    def test_identity_stress(self, shell):
        f, m = boundary_force_moment(shell, 0, lambda p: np.tile(np.eye(3),
                                                                 (len(p), 1, 1)))
        assert np.linalg.norm(f) < 1e-10 and np.linalg.norm(m) < 1e-10

    def test_zero_stress(self, shell):
        f, m = boundary_force_moment(shell, 1, lambda p: np.zeros((len(p), 3, 3)))
        assert np.linalg.norm(f) == 0.0 and np.linalg.norm(m) == 0.0

    def test_cylinder_annulus_boundary(self, cylinder):
        # four patches, the bottom cap with normal -e3
        f, m = boundary_force_moment(
            cylinder, 0, lambda p: np.tile(np.eye(3), (len(p), 1, 1)))
        assert np.linalg.norm(f) < 1e-12 and np.linalg.norm(m) < 1e-12

        # sigma = diag(0, 0, z) has div sigma = e3: the net traction is the
        # volume 4 pi along e3 (0 with a wrongly oriented cap)
        def sig(p):
            out = np.zeros((len(p), 3, 3))
            out[:, 2, 2] = p[:, 2]
            return out
        f, _ = boundary_force_moment(cylinder, 0, sig)
        assert np.linalg.norm(f - [0.0, 0.0, 4 * np.pi]) < 1e-12

    def test_box_boundary(self):
        # six patches, each with its outward normal
        box = Box([1.0, 0.5, 0.75])
        f, m = boundary_force_moment(
            box, 0, lambda p: np.tile(np.eye(3), (len(p), 1, 1)))
        assert np.linalg.norm(f) < 1e-12 and np.linalg.norm(m) < 1e-12

        # sigma = diag(0, 0, z): the net traction is the volume 3 along e3
        def sig(p):
            out = np.zeros((len(p), 3, 3))
            out[:, 2, 2] = p[:, 2]
            return out
        f, _ = boundary_force_moment(box, 0, sig)
        assert np.linalg.norm(f - [0.0, 0.0, 3.0]) < 1e-12

    def test_kelvin_net_force(self, shell):
        kel = KelvinStressField([0.0, 0.0, 1.0], nu=0.25)
        f, m = boundary_force_moment(shell, 1, kel)
        assert np.linalg.norm(f - [0, 0, -1.0]) < 1e-4
        assert np.linalg.norm(m) < 1e-8
        # catalog normalization: outward flux through enclosing spheres = F
        batch = sphere_interface(1.5).surface_quadrature(2)
        tr = np.einsum('nij,nj->ni', kel.value(batch.points), batch.normals)
        flux = np.einsum('n,ni->i', batch.weights, tr)
        assert np.linalg.norm(flux - [0, 0, 1.0]) < 1e-6


class TestSupportQuadrature:
    def test_fiber_bump_integral(self, ball, sphere_half):
        from stressdist.fields import make_bump
        c = np.array([0.45, 0.1, 0.2])
        r = 0.22
        psi = make_bump(ball, c, r)
        ref = 4 * np.pi * integrate.quad(
            lambda s: s ** 2 * np.exp(1 - 1 / (1 - (s / r) ** 2)) if s < r else 0.0,
            0, r, epsabs=1e-15, limit=200)[0]
        q = _whole(support_volume_quad(sphere_half, c, r, 1))
        got = float(np.dot(q.weights, psi.value(q.points)))
        assert abs(got - ref) < 1e-12

    def test_fiber_conforms_to_interface(self, sphere_half):
        q = _whole(support_volume_quad(sphere_half, np.array([0.5, 0.0, 0.0]),
                                       0.2, 1))
        s = sphere_half.signed_distance(q.points)
        # nodes are never placed on the interface itself
        assert np.min(np.abs(s)) > 1e-13

    def test_aligned_cap_area(self, unit_sphere):
        # the adapted cap batch integrates the cap area exactly
        center = np.array([0.0, 0.0, 1.0])
        radius = 0.4
        b = unit_sphere.surface_quadrature(1, support=(center, radius))
        got = b.weights.sum()
        cos_om = (1 + 1 - radius ** 2) / 2.0
        exact = 2 * np.pi * (1 - cos_om)
        assert abs(got - exact) < 1e-12

    def test_disjoint_support_empty(self, unit_sphere):
        b = unit_sphere.surface_quadrature(1, support=(np.zeros(3), 0.3))
        assert len(b) == 0

    @pytest.mark.parametrize("center", [(0.0, 0.0, 0.0), (0.1, -0.05, 0.2)])
    def test_support_holding_sphere_uses_full_rule(self, center):
        itf = sphere_interface(0.5)
        b = itf.surface_quadrature(1, support=(np.array(center), 0.8))
        full = itf.surface_quadrature(1)
        assert np.array_equal(b.points, full.points)
        assert np.array_equal(b.weights, full.weights)
        assert abs(b.weights.sum() - np.pi) < 1e-12

    @pytest.mark.parametrize("make, center, radius", [
        (lambda: plane_disk_interface(Ball(1.0), z=0.3),
         (0.2, -0.3, 0.42), 0.25),
        (lambda: Box([1.0, 0.8, 0.6]).plane_interface(0.1),
         (0.5, -0.4, 0.0), 0.3),
        (lambda: equatorial_annulus_interface(SphericalShell(1.0, 2.0)),
         (0.0, 1.5, -0.1), 0.3),
    ], ids=["plane-disk", "plane-rect", "annulus"])
    def test_support_disk_area(self, make, center, radius):
        # the recentered disk integrates the cut disk's area exactly
        itf = make()
        c = np.array(center)
        dz = c[2] - itf.value
        b = itf.surface_quadrature(1, support=(c, radius))
        assert np.allclose(b.points[:, 2], itf.value, atol=1e-15, rtol=0)
        assert abs(b.weights.sum() - np.pi * (radius ** 2 - dz ** 2)) < 1e-12

    @pytest.mark.parametrize("make, center", [
        (lambda: plane_disk_interface(Ball(1.0), z=0.0), (0.95, 0.0, 0.05)),
        (lambda: Box([1.0, 0.8, 0.6]).plane_interface(0.1),
         (0.0, 0.75, 0.0)),
        (lambda: equatorial_annulus_interface(SphericalShell(1.0, 2.0)),
         (0.0, 1.05, 0.0)),
    ], ids=["plane-disk", "plane-rect", "annulus"])
    def test_support_disk_leaving_plane_patch_raises(self, make, center):
        # a valid test support never cuts a disk reaching past the patch
        with pytest.raises(GeometryError, match="leaves the planar patch"):
            make().surface_quadrature(1, support=(np.array(center), 0.2))


def _fiber_oracle(center, dirs, w_ang, breaks):
    """The fiber rule as every (fiber, cell, node) broadcast, compacted to
    the nonzero weights: the reference for ``geometry._fiber_nodes``."""
    lo, hi = breaks[:, :-1], breaks[:, 1:]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    xg, wg = np.polynomial.legendre.leggauss(geometry.GAUSS_NODES_PER_CELL)
    s_nodes = mid[..., None] + half[..., None] * xg
    w_s = half[..., None] * wg * s_nodes ** 2
    pts = center + s_nodes[..., None] * dirs[:, None, None, :]
    weights = w_ang[:, None, None] * w_s
    pts = pts.reshape(-1, 3)
    weights = weights.reshape(-1)
    keep = weights != 0.0
    return pts[keep], weights[keep], len(keep)


def _whole(rule):
    """Every node of a fiber rule, built at once."""
    return rule.nodes(0, len(rule))


def _fill_oracle(origin, dirs, w_fiber, breaks, curvature=None, feet=None):
    """Every node of a fiber rule at once, written into whole arrays by the
    fill expressions: the reference for ``FiberRule.nodes``."""
    live = breaks[:, 1:] > breaks[:, :-1]
    fiber = np.nonzero(live)[0]
    lo, hi = breaks[:, :-1][live], breaks[:, 1:][live]
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    xg, wg = geometry.GAUSS_RULE
    pts = np.empty((len(mid), len(xg), 3))
    weights = np.empty((len(mid), len(xg)))
    offset = None if curvature is None else np.empty((len(mid), len(xg)))
    c, f = slice(None), fiber
    s_nodes = mid[c, None] + half[c, None] * xg
    if curvature is None:
        jac = s_nodes ** 2
    else:
        jac = 1.0 + s_nodes * (curvature[0][f, None]
                               + curvature[1][f, None] * s_nodes)
        offset[c] = s_nodes
    weights[c] = w_fiber[f, None] * (half[c, None] * wg * jac)
    for a in range(3):
        o = origin[a] if origin.ndim == 1 else origin[f, a][:, None]
        pts[c, :, a] = o + s_nodes * dirs[f, a][:, None]
    quad = VolumeQuad(points=pts.reshape(-1, 3), weights=weights.reshape(-1))
    if curvature is not None:
        quad.foot = np.repeat(fiber, len(xg))
        quad.offset = offset.reshape(-1)
    return quad


def _recorded_tasks(rule):
    """The nodes ``blocked_sum`` takes from ``rule``, one ``(lo, hi,
    nodes)`` per task in node order."""
    tasks = {}
    build = rule.nodes

    def nodes(lo, hi):
        tasks[lo] = (lo, hi, build(lo, hi))
        return tasks[lo][2]

    rule.nodes = nodes
    try:
        blocked_sum(rule, lambda q: q.weights)
    finally:
        del rule.nodes
    return [tasks[lo] for lo in sorted(tasks)]


_CELL_RULE_CASES = {
    "sphere": lambda: (sphere_interface(0.5), (0.45, 0.0, 0.1), 0.25, None),
    "plane-disk": lambda: (plane_disk_interface(Ball(1.0), z=0.0),
                           (0.1, 0.2, 0.1), 0.3, None),
    "none": lambda: (None, (0.1, 0.0, 0.2), 0.3, None),
    "cylinder": lambda: (_CYLINDER, (0.1, 1.05, 0.3), 0.3, None),
    "layer": lambda: (sphere_interface(0.5), (0.42, 0.1, 0.15), 0.2, 0.01),
}


class TestCellRules:
    """A fiber rule keeps its cells; each sum task builds its own nodes,
    byte-equal to the whole rule's fill."""

    @pytest.mark.parametrize("width", ["1", "2"])
    @pytest.mark.parametrize("task_blocks", [1, 2, 3])
    @pytest.mark.parametrize("case", list(_CELL_RULE_CASES))
    def test_tasks_equal_the_fill(self, monkeypatch, case, task_blocks,
                                  width):
        monkeypatch.setenv("STRESSDIST_THREADS", width)
        monkeypatch.setattr(geometry, "TASK_BLOCKS", task_blocks)
        monkeypatch.setattr(geometry, "_FIBER_CACHE",
                            LruMemo(geometry.FIBER_MEMO_SIZE))
        itf, center, radius, layer = _CELL_RULE_CASES[case]()
        calls = []
        build = geometry._fiber_rule

        def spy(*args):
            calls.append(args)
            return build(*args)

        monkeypatch.setattr(geometry, "_fiber_rule", spy)
        rule = support_volume_quad(itf, center, radius, 3, layer=layer)
        want = _fill_oracle(*calls[0])
        tasks = _recorded_tasks(rule)
        size = geometry._task_size(len(rule))
        assert len(rule) == len(want) > 3 * size
        assert [lo for lo, _, _ in tasks] == list(range(0, len(rule), size))
        normal = case in ("cylinder", "layer")
        for lo, hi, q in tasks:
            for name in ("points", "weights", "foot", "offset"):
                got, ref = getattr(q, name), getattr(want, name)
                if not normal and name in ("foot", "offset"):
                    assert got is None and ref is None
                    continue
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref[lo:hi].tobytes(), name
            assert q.points.flags.c_contiguous

    @pytest.mark.parametrize("curvature", [False, True])
    def test_an_empty_rule_never_calls_its_integrand(self, curvature):
        # every fiber repeats one break: no live cell
        origin = np.zeros((4, 3)) if curvature else np.zeros(3)
        rule = geometry._fiber_rule(
            origin, np.eye(3)[[0, 1, 2, 0]], np.ones(4), np.full((4, 3), 0.2),
            (np.zeros(4), np.zeros(4)) if curvature else None)

        def never(nodes):
            raise AssertionError("the integrand was called")

        assert len(rule) == 0
        assert blocked_sum(rule, never) == 0.0


def _grid_oracle(domain, interface, level, extra_breaks=None):
    """The whole grid as one meshgrid, ``to_xyz`` and ``_tensor_weights``
    build it: the reference for ``GridRule.nodes``."""
    axes, to_xyz, jac = domain._conforming_cells(interface)
    if extra_breaks:
        axes = [geometry._merge_breaks(b, e, b[0], b[-1])
                for b, e in zip(axes, extra_breaks)]
    nodes, weights = zip(*(geometry._gauss_cells(b, level) for b in axes))
    A, B, C = (g.ravel() for g in np.meshgrid(*nodes, indexing='ij'))
    return to_xyz(A, B, C), geometry._tensor_weights(*weights) * jac(A, B, C)


def _cylinder_grid(radius=None):
    domain = CylinderAnnulus(0.5, 1.5, 2.0)
    itf = None if radius is None else cylinder_patch_interface(domain, radius)
    return domain, itf, None


_SHELL_BREAKS = ((1.2, 1.3, 1.7), (), ())
_GRID_CASES = {
    "ball": lambda: (Ball(1.0), None, None),
    "ball-sphere": lambda: (Ball(1.0), sphere_interface(0.6), None),
    "shell-breaks": lambda: (SphericalShell(1.0, 2.0), None, _SHELL_BREAKS),
    "shell-sphere-breaks": lambda: (SphericalShell(1.0, 2.0),
                                    sphere_interface(1.45), _SHELL_BREAKS),
    "box": lambda: (Box([1.0, 0.8, 0.6]), None, None),
    "box-plane": lambda: (Box([1.0, 0.8, 0.6]),
                          Box([1.0, 0.8, 0.6]).plane_interface(0.3), None),
    "cylinder": _cylinder_grid,
    "cylinder-patch": lambda: _cylinder_grid(1.2),
    # three cells on every axis: 13.5 blocks, so the last task is short
    "short-last": lambda: (Ball(1.0), sphere_interface(0.6),
                           ((), (1.0,), (2.0,))),
}


class TestGridRules:
    """A full-domain grid keeps its axes; each sum task builds its own
    nodes, byte-equal to the whole grid's arrays."""

    @pytest.mark.parametrize("width", ["1", "2"])
    @pytest.mark.parametrize("task_blocks", [1, 2, 3])
    @pytest.mark.parametrize("case", list(_GRID_CASES))
    def test_tasks_equal_the_whole_grid(self, monkeypatch, case, task_blocks,
                                        width):
        monkeypatch.setenv("STRESSDIST_THREADS", width)
        monkeypatch.setattr(geometry, "TASK_BLOCKS", task_blocks)
        domain, itf, extra = _GRID_CASES[case]()
        rule = domain.volume_quadrature(itf, 1, extra)
        pts, weights = _grid_oracle(domain, itf, 1, extra)
        tasks = _recorded_tasks(rule)
        size = geometry._task_size(len(rule))
        assert len(rule) == len(weights) > 3 * size
        assert [lo for lo, _, _ in tasks] == list(range(0, len(rule), size))
        assert (len(tasks[-1][2]) < size) == (case == "short-last")
        for lo, hi, q in tasks:
            assert q.foot is None and q.offset is None
            for got, ref in ((q.points, pts), (q.weights, weights)):
                assert got.dtype == ref.dtype
                assert got.tobytes() == ref[lo:hi].tobytes()
            assert q.points.flags.c_contiguous


def _node_arrays(nodes):
    """Every per-node array of a rule's nodes by name, a curve's surface
    batch flattened in; absent optional arrays (None) are left out."""
    out = {}
    for name, value in vars(nodes).items():
        if isinstance(value, geometry.SurfaceBatch):
            out.update({f"{name}.{k}": v
                        for k, v in _node_arrays(value).items()})
        elif isinstance(value, np.ndarray):
            out[name] = value
    return out


# one case per rule kind, each built as the pairings build it
_PROTOCOL_CASES = {
    "grid-ball": lambda: Ball(1.0).volume_quadrature(sphere_interface(0.5), 0),
    "grid-shell-breaks": lambda: SphericalShell(1.0, 2.0).volume_quadrature(
        sphere_interface(1.45), 0, _SHELL_BREAKS),
    "fiber-center": lambda: support_volume_quad(
        sphere_interface(0.5), (0.45, 0.0, 0.1), 0.25, 0),
    "fiber-normal": lambda: support_volume_quad(
        _CYLINDER, (0.1, 1.05, 0.3), 0.3, 0),
    "fiber-layer": lambda: support_volume_quad(
        sphere_interface(0.5), (0.42, 0.1, 0.15), 0.2, 0, layer=0.01),
    "given-nodes": lambda: VolumeQuad(
        points=np.random.default_rng(3).uniform(-1.0, 1.0, (3 * BLOCK + 5, 3)),
        weights=np.random.default_rng(4).uniform(0.0, 1.0, 3 * BLOCK + 5)),
    "surface-full": lambda: sphere_interface(0.5).surface_quadrature(2),
    "surface-cap": lambda: sphere_interface(0.5).surface_quadrature(
        2, support=((0.45, 0.0, 0.1), 0.25)),
    "surface-disk": lambda: plane_disk_interface(Ball(1.0)).surface_quadrature(
        2, support=((0.1, 0.2, 0.05), 0.3)),
    "surface-cylinder-rect": lambda: _CYLINDER.surface_quadrature(
        2, support=((0.1, 1.05, 0.3), 0.3)),
    "surface-empty": lambda: sphere_interface(0.5).surface_quadrature(
        2, support=((0.0, 0.0, 0.0), 0.2)),
    "curve-circle": lambda: equatorial_annulus_interface(
        SphericalShell(1.0, 2.0)).curve_quadrature(0),
    "curve-cylinder": lambda: _CYLINDER.curve_quadrature(0),
}


class TestRuleProtocol:
    """Every rule kind serves ``len`` and ``nodes(lo, hi)``: the task
    slices ``blocked_sum`` takes cover the rule in order and equal
    ``nodes(0, len(rule))``."""

    @pytest.mark.parametrize("width", ["1", "2"])
    @pytest.mark.parametrize("block", ["default", "small"])
    @pytest.mark.parametrize("case", list(_PROTOCOL_CASES))
    def test_tasks_cover_the_rule(self, monkeypatch, case, block, width):
        monkeypatch.setenv("STRESSDIST_THREADS", width)
        monkeypatch.setattr(geometry, "_FIBER_CACHE",
                            LruMemo(geometry.FIBER_MEMO_SIZE))
        rule = _PROTOCOL_CASES[case]()
        if block == "small":
            # about ten blocks per rule, each of whole fiber cells
            monkeypatch.setattr(geometry, "BLOCK",
                                geometry.GAUSS_NODES_PER_CELL
                                * max(1, len(rule) // 80))
        assert (len(rule) == 0) == (case == "surface-empty")
        whole = _node_arrays(rule.nodes(0, len(rule)))
        tasks = _recorded_tasks(rule)
        size = geometry._task_size(len(rule))
        assert [(lo, hi) for lo, hi, _ in tasks] == [
            (lo, lo + size) for lo in range(0, len(rule), size)]
        assert [len(q) for *_, q in tasks] == [
            min(size, len(rule) - lo) for lo, _, _ in tasks]
        for name, ref in whole.items():
            assert len(ref) == len(rule)
            parts = [_node_arrays(q)[name] for *_, q in tasks]
            got = np.concatenate(parts) if parts else ref[:0]
            assert got.dtype == ref.dtype
            assert got.tobytes() == ref.tobytes(), name
        for *_, q in tasks:
            assert _node_arrays(q).keys() == whole.keys()


class TestFiberAssembly:
    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    @pytest.mark.parametrize("make, center, radius", [
        (lambda: sphere_interface(0.5), (0.2, 0.1, 0.0), 0.4),
        (lambda: sphere_interface(0.5), (0.6, 0.1, 0.2), 0.3),
        (lambda: sphere_interface(0.5), (0.8, 0.0, 0.0), 0.3),
        (lambda: sphere_interface(0.5), (0.1, 0.0, 0.0), 0.4),
        (lambda: plane_disk_interface(Ball(1.0), z=0.0), (0.1, 0.2, 0.1), 0.3),
        (lambda: None, (0.1, 0.0, 0.2), 0.3),
    ], ids=["sphere-centre-inside", "sphere-centre-outside",
            "sphere-tangent-outside", "sphere-tangent-inside", "z-plane",
            "no-interface"])
    def test_equals_broadcast_and_compact(self, make, center, radius, level):
        itf, c = make(), np.array(center)
        rule = _whole(support_volume_quad(itf, c, radius, level))
        pts, weights, broadcast = _fiber_oracle(
            c, *geometry._fiber_layout(itf, c, radius, level))
        assert np.array_equal(rule.points, pts)
        assert np.array_equal(rule.weights, weights)
        assert rule.points.flags.c_contiguous
        assert len(rule.weights) == len(weights) < broadcast
        assert np.all(rule.weights != 0.0)


def _radial_bump(q):
    out = np.zeros_like(q)
    inside = q < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - q[inside]))
    return out


_CYLINDER = cylinder_patch_interface(CylinderAnnulus(0.5, 1.5, 2.0), 1.0)

# (interface, support center, support radius): supports crossing a sphere
# at ball and shell radii (both orientations), a plane and a cylinder patch,
# one of them across the cylinder's chart seam phi = 0
_NORMAL_FIBER_CASES = {
    "sphere-ball": (sphere_interface(0.5), (0.42, 0.1, 0.15), 0.2),
    "sphere-ball-inward": (sphere_interface(0.5, orientation=-1.0),
                           (0.42, 0.1, 0.15), 0.2),
    "sphere-shell": (sphere_interface(1.45), (1.3, 0.4, -0.2), 0.25),
    "plane": (Box([1.0, 0.8, 0.6]).plane_interface(0.1), (0.3, -0.2, 0.15),
              0.3),
    "cylinder": (_CYLINDER, (0.1, 1.05, 0.3), 0.3),
    "cylinder-seam": (_CYLINDER, (1.05, -0.01, -0.2), 0.3),
}


class TestNormalFibers:
    @pytest.mark.parametrize("case", list(_NORMAL_FIBER_CASES))
    def test_radial_bump_moments(self, case):
        # int beta(|x - c|^2 / r^2) dx = 4 pi r^3 int_0^1 beta(t^2) t^2 dt
        # over B(c, r), and the first moment is c times it
        itf, c, r = _NORMAL_FIBER_CASES[case]
        c = np.array(c)
        ref = 4 * np.pi * r ** 3 * integrate.quad(
            lambda t: t * t * _radial_bump(np.array([t * t]))[0], 0.0, 1.0,
            epsabs=1e-15, limit=200)[0]
        rule = _whole(geometry._normal_fiber_quad(itf, c, r, 2))
        beta = _radial_bump(np.sum((rule.points - c) ** 2, axis=1) / r ** 2)
        assert abs(rule.weights @ beta - ref) <= 1e-8 * ref
        first = (rule.weights * beta) @ rule.points
        assert (np.linalg.norm(first - ref * c)
                <= 1e-8 * ref * np.linalg.norm(c))

    @pytest.mark.parametrize("case", list(_NORMAL_FIBER_CASES))
    def test_layer_nodes_stay_within_six_widths(self, case):
        itf, c, r = _NORMAL_FIBER_CASES[case]
        rho = 0.01
        rule = _whole(support_volume_quad(itf, c, r, 1, layer=rho))
        s = itf.signed_distance(rule.points)
        assert len(rule) > 0
        assert np.all(np.abs(s) <= 6.0 * rho * (1 + 1e-12))
        assert np.allclose(s, rule.offset, rtol=0, atol=1e-14)
        assert np.all(np.linalg.norm(rule.points - c, axis=1) < r)
        # each width's rule serves once: it is not kept
        assert support_volume_quad(itf, c, r, 1, layer=rho) is not rule

    def test_rho_pairings_take_normal_fibers(self):
        itf, c, r = _NORMAL_FIBER_CASES["cylinder"]
        rule = support_volume_quad(itf, c, r, 2)
        got = _whole(rule)
        want = _whole(geometry._normal_fiber_quad(itf, np.array(c), r, 2))
        assert np.array_equal(got.points, want.points)
        assert np.array_equal(got.weights, want.weights)
        assert support_volume_quad(itf, c, r, 2) is rule

    def test_cylinder_support_is_the_cut_rectangle(self):
        # the (phi, z) rectangle of the cut, unwrapped across the seam: its
        # edge midpoints lie on the support sphere, and the bump over the
        # cut matches an adaptive reference
        itf, c, r = _NORMAL_FIBER_CASES["cylinder-seam"]
        c = np.array(c)
        phi_c, rho_c = np.arctan2(c[1], c[0]), np.hypot(c[0], c[1])
        half = np.arccos((1.0 + rho_c ** 2 - r ** 2) / (2.0 * rho_c))
        height = np.sqrt(r ** 2 - (rho_c - 1.0) ** 2)
        for u, z in ((phi_c - half, c[2]), (phi_c + half, c[2]),
                     (phi_c, c[2] - height), (phi_c, c[2] + height)):
            assert abs(np.linalg.norm(itf.patch.point(u, z) - c) - r) < 1e-12
        b = itf.surface_quadrature(1, support=(c, r))
        assert np.all(np.abs(b.U - phi_c) < half)
        assert np.all(np.abs(b.V - c[2]) < height)
        ref = integrate.dblquad(
            lambda z, u: _radial_bump(np.array([(
                (np.cos(u) - c[0]) ** 2 + (np.sin(u) - c[1]) ** 2
                + (z - c[2]) ** 2) / r ** 2]))[0],
            phi_c - half, phi_c + half, c[2] - height, c[2] + height,
            epsabs=1e-14, epsrel=1e-12)[0]
        got = b.weights @ _radial_bump(
            np.sum((b.points - c) ** 2, axis=1) / r ** 2)
        assert abs(got - ref) <= 2e-8 * ref


def _gauss_cells_oracle(breaks, level, small_cell=None):
    """The per-cell loop that ``geometry._gauss_cells`` replaced: the
    reference it must equal bit for bit."""
    base_x, base_w = np.polynomial.legendre.leggauss(
        geometry.GAUSS_NODES_PER_CELL)
    few_x, few_w = np.polynomial.legendre.leggauss(4)
    xs, ws = [], []
    for a, b in zip(breaks[:-1], breaks[1:]):
        edges = np.linspace(a, b, 2 ** level + 1)
        for lo, hi in zip(edges[:-1], edges[1:]):
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            if small_cell is not None and (hi - lo) < small_cell:
                xs.append(mid + half * few_x)
                ws.append(half * few_w)
            else:
                xs.append(mid + half * base_x)
                ws.append(half * base_w)
    if not xs:
        return np.zeros(0), np.zeros(0)
    return np.concatenate(xs), np.concatenate(ws)


class TestGaussCells:
    BREAKS = {
        "graded": geometry._graded_breaks(0.1, 0.9, 7),
        "uniform": np.linspace(0.0, 2 * np.pi, 6),
        "ladder": sorted({0.0, np.pi, 1.2} | {1.2 + 0.5 ** k for k in
                                               range(1, 9)}),
        "random": np.sort(np.random.default_rng(3).uniform(-2.0, 3.0, 12)),
        "one-cell": [-0.3, 0.7],
        "no-cell": [0.4],
    }

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_equals_per_cell_loop(self, level):
        for name, breaks in self.BREAKS.items():
            for small_cell in (None, 0.06):
                case = (name, small_cell)
                x, w = geometry._gauss_cells(breaks, level, small_cell)
                want_x, want_w = _gauss_cells_oracle(breaks, level,
                                                     small_cell)
                assert x.shape == want_x.shape, case
                assert x.tobytes() == want_x.tobytes(), case
                assert w.tobytes() == want_w.tobytes(), case

    @pytest.mark.parametrize("depth", range(1, 13))
    def test_grade_fractions_equal_unique(self, depth):
        k = np.arange(1, depth)
        want = np.unique(np.concatenate([[0.5], 0.5 ** k, 1.0 - 0.5 ** k]))
        got = geometry._grade_fractions(depth)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_rules_are_built_once(self, monkeypatch):
        # the Gauss-Legendre rules are read-only constants: building volume,
        # fiber and surface rules after import never calls leggauss
        for rule in (geometry.GAUSS_RULE, geometry.SMALL_CELL_RULE):
            assert all(not a.flags.writeable for a in rule)

        def fail(n):
            raise AssertionError(f"leggauss({n}) called after import")

        monkeypatch.setattr(np.polynomial.legendre, "leggauss", fail)
        ball, shell = Ball(1.1), SphericalShell(1.0, 2.0)
        sphere = sphere_interface(0.55)
        assert len(ball.volume_quadrature(sphere, 1)) > 0
        assert len(shell.volume_quadrature(None, 0)) > 0
        c = np.array([0.3, 0.1, -0.2])
        for level in (0, 2):
            assert len(support_volume_quad(sphere, c, 0.41, level)) > 0
        assert len(sphere.surface_quadrature(1)) > 0
        assert len(sphere.surface_quadrature(1, support=(c, 0.41))) > 0
        disk = plane_disk_interface(ball, z=0.05)
        assert len(disk.surface_quadrature(1, support=(c, 0.41))) > 0
        cyl = cylinder_patch_interface(CylinderAnnulus(0.5, 1.5, 2.0), 1.0)
        assert len(cyl.surface_quadrature(1, support=(
            np.array([1.0, 0.0, 0.1]), 0.3))) > 0


class TestQuadratureMemos:
    def test_lru_memo_evicts_least_recently_used(self):
        memo = LruMemo(2)
        calls = []

        def make(v):
            def compute():
                calls.append(v)
                return v
            return compute

        assert memo.get('a', make(1)) == 1
        assert memo.get('b', make(2)) == 2
        assert memo.get('a', make(-1)) == 1      # hit; 'a' becomes recent
        memo.get('c', make(3))
        assert 'a' in memo and 'c' in memo and 'b' not in memo
        assert memo.get('x', lambda: None) is None and 'x' not in memo
        assert calls == [1, 2, 3] and len(memo) == 2

    def test_lru_memo_node_budget(self):
        memo = LruMemo(5, budget=10)
        memo.get('a', lambda: [0] * 4)
        memo.get('b', lambda: [0] * 4)
        memo.get('c', lambda: [0] * 4)            # 12 > 10: drops 'a'
        assert 'a' not in memo and len(memo) == 2
        memo.get('d', lambda: [0] * 20)           # the two newest stay
        assert len(memo) == 2 and 'c' in memo and 'd' in memo
        memo.get('e', lambda: [0])
        assert len(memo) == 2 and 'c' not in memo

    def test_lru_memo_concurrent_gets(self):
        memo = LruMemo(3, budget=7)
        wrong = []

        def work(seed):
            r = np.random.default_rng(seed)
            for _ in range(3000):
                k = int(r.integers(8))
                v = memo.get(k, lambda: [k] * (k % 3 + 1))
                if v[0] != k:
                    wrong.append((k, v))

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(s,))
                       for s in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        kept = [memo.get(k, lambda: None) for k in range(8) if k in memo]
        assert 1 <= len(kept) <= 3 and sum(map(len, kept)) <= 7

    def test_fiber_rules_keyed_by_interface_value(self):
        center = np.array([0.45, 0.1, 0.0])
        q = support_volume_quad(sphere_interface(0.5), center, 0.2, 0)
        assert support_volume_quad(sphere_interface(0.5), center.copy(),
                                   0.2, 0) is q
        flipped = support_volume_quad(sphere_interface(0.5, orientation=-1.0),
                                      center, 0.2, 0)
        assert flipped is not q

    def test_support_batches_equal_by_value(self):
        itf = sphere_interface(0.5)
        center = np.array([0.45, 0.1, 0.0])
        b = itf.surface_quadrature(1, support=(center, 0.2))
        c = itf.surface_quadrature(1, support=(list(center), 0.2))
        assert np.array_equal(b.points, c.points)
        assert np.array_equal(b.weights, c.weights)

    @pytest.mark.parametrize("make_domain, make_interface", [
        (lambda: Ball(2.0), lambda d: sphere_interface(1.0)),
        (lambda: SphericalShell(1.0, 2.0), equatorial_annulus_interface),
        (lambda: CylinderAnnulus(0.5, 1.5, 2.0),
         lambda d: cylinder_patch_interface(d, 1.0)),
    ], ids=["sphere", "annulus", "cylinder"])
    def test_geometry_keeps_no_rules(self, make_domain, make_interface):
        # interfaces, boundary components and domains are immutable after
        # construction: a quadrature call adds no attribute and fills none
        def state(obj):
            return {k: (id(v), len(v) if isinstance(v, (dict, list, LruMemo))
                        else None) for k, v in vars(obj).items()}

        domain = make_domain()
        itf = make_interface(domain)
        objects = [domain, itf] + list(domain.boundary_components)
        before = [state(o) for o in objects]
        center = itf.patch.point(*itf.chart_coords(
            np.array([[1.5, 0.2, 0.1]])))[0]
        for _ in range(2):
            itf.surface_quadrature(1)
            itf.surface_quadrature(1, support=(center, 0.3))
            itf.samples(50)
            for comp in domain.boundary_components:
                comp.quadrature(1)
            domain.volume_quadrature(itf, 1)
            domain.volume_quadrature(None, 0, extra_breaks=((), (), ()))
        assert [state(o) for o in objects] == before


class TestDomainValidation:
    def test_invalid_domains(self):
        with pytest.raises(GeometryError):
            Ball(-1.0)
        with pytest.raises(GeometryError):
            SphericalShell(2.0, 1.0)
        with pytest.raises(GeometryError):
            Box([1.0, -1.0, 1.0])
        with pytest.raises(GeometryError):
            CylinderAnnulus(1.0, 0.5, 1.0)

    def test_contains_ball(self, shell):
        assert shell.contains_ball(np.array([1.5, 0, 0]), 0.3)
        assert not shell.contains_ball(np.array([1.5, 0, 0]), 0.6)

    def test_interior_samples_avoid_interface(self, big_ball, unit_sphere):
        pts = big_ball.interior_samples(500, unit_sphere, min_dist=0.01)
        assert len(pts) == 500
        assert np.all(big_ball.contains(pts))
        assert np.min(np.abs(unit_sphere.signed_distance(pts))) > 0.01


def _level_set_cases():
    """(label, domain, interface, hand-written clearance, sample center)."""
    ball, box = Ball(1.0), Box([1.0, 1.0, 1.0])
    shell, cyl = SphericalShell(1.0, 2.0), CylinderAnnulus(0.5, 1.5, 2.0)
    return [
        ("sphere+", ball, sphere_interface(0.6), min(0.6, 1.0 - 0.6),
         [0.3, 0.4, 0.2]),
        ("sphere-", shell, sphere_interface(1.45, orientation=-1.0),
         min(1.45 - 1.0, 2.0 - 1.45), [1.0, -0.8, 0.5]),
        ("plane-disk", ball, plane_disk_interface(ball, 0.3),
         min(1.0 - 0.3, 0.3 + 1.0), [0.2, -0.1, 0.25]),
        ("plane-rect", box, box.plane_interface(-0.2),
         min(1.0 + 0.2, -0.2 + 1.0), [0.4, 0.3, -0.1]),
        ("annulus", shell, equatorial_annulus_interface(shell),
         min(2.0 - 0.0, 0.0 + 2.0), [1.2, 0.5, 0.1]),
        ("cylinder", cyl, cylinder_patch_interface(cyl, 1.0),
         min(1.0 - 0.5, 1.5 - 1.0), [0.7, 0.6, 0.3]),
    ]


class TestLevelSetInterfaces:
    @pytest.mark.parametrize("case", _level_set_cases(), ids=lambda c: c[0])
    def test_distance_jet_matches_fd(self, case, rng):
        _, _, itf, _, center = case
        pts = np.asarray(center) + 0.1 * rng.uniform(-1, 1, (20, 3))
        s, grad, hess = itf.distance_jet(pts, 2)
        assert np.array_equal(s, itf.signed_distance(pts))
        h = 1e-4
        for ax in range(3):
            e = np.zeros(3)
            e[ax] = h
            fd = (itf.signed_distance(pts + e)
                  - itf.signed_distance(pts - e)) / (2 * h)
            assert np.allclose(grad[:, ax], fd, atol=1e-8)
            fd2 = (itf.distance_jet(pts + e, 1)[1]
                   - itf.distance_jet(pts - e, 1)[1]) / (2 * h)
            assert np.allclose(hess[:, :, ax], fd2, atol=1e-7)

    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    @pytest.mark.parametrize("coordinate,value", [("r", 0.8), ("z", 0.3),
                                                  ("rho", 1.1)])
    def test_distance_jet_matches_sympy(self, coordinate, value, orientation,
                                        rng):
        import sympy as sp
        x = sp.symbols('x0:3')
        q = {"r": sp.sqrt(x[0] ** 2 + x[1] ** 2 + x[2] ** 2), "z": x[2],
             "rho": sp.sqrt(x[0] ** 2 + x[1] ** 2)}[coordinate]
        s = orientation * (q - value)
        itf = Interface("level-set", None, True, coordinate, value, None,
                        orientation=orientation)
        pts = rng.uniform(-1.5, 1.5, (25, 3))
        jet = itf.distance_jet(pts, 3)
        assert len(jet) == 4
        for i, j, k in np.ndindex(3, 3, 3):
            want = sp.lambdify(x, sp.diff(s, x[i], x[j], x[k]), 'numpy')
            got = jet[3][:, i, j, k]
            assert np.allclose(got, np.broadcast_to(want(*pts.T), got.shape),
                               rtol=1e-12, atol=1e-12), (i, j, k)
        for i, j in np.ndindex(3, 3):
            want = sp.lambdify(x, sp.diff(s, x[i], x[j]), 'numpy')
            assert np.allclose(jet[2][:, i, j], want(*pts.T), rtol=1e-12,
                               atol=1e-12)
        lower = itf.distance_jet(pts, 2)
        for a, b in zip(lower, jet):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("orientation", [1.0, -1.0])
    @pytest.mark.parametrize("coordinate,value", [("r", 0.8), ("z", 0.3),
                                                  ("rho", 1.1)])
    def test_lower_orders_are_prefixes(self, coordinate, value, orientation,
                                       rng):
        itf = Interface("level-set", None, True, coordinate, value, None,
                        orientation=orientation)
        pts = rng.uniform(-1.5, 1.5, (25, 3))
        full = itf.distance_jet(pts, 3)
        for order in range(4):
            jet = itf.distance_jet(pts, order)
            assert len(jet) == order + 1
            for a, b in zip(jet, full):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("case", _level_set_cases(), ids=lambda c: c[0])
    def test_clearance_matches_hand_formula(self, case):
        _, domain, itf, expected, _ = case
        assert domain.clearance(itf) == expected

    def test_interface_off_the_cell_axes_raises(self, ball, box):
        with pytest.raises(GeometryError):
            box.volume_quadrature(sphere_interface(0.5), level=0)
        with pytest.raises(GeometryError):
            ball.volume_quadrature(plane_disk_interface(ball, 0.3), level=0)
        # a box has no 'r' cells, but a sphere's room is to its nearest face
        assert box.clearance(sphere_interface(0.5)) == 0.5

    def test_equatorial_plane_in_spherical_cells(self, ball, ball_disk):
        plain, split = (r.nodes(0, len(r)) for r in (
            ball.volume_quadrature(None, level=0),
            ball.volume_quadrature(ball_disk, level=0)))
        assert np.array_equal(plain.points, split.points)
        assert np.array_equal(plain.weights, split.weights)

    def test_cells_break_at_the_interface_value(self, box, cylinder):
        for domain, itf, ax in ((box, box.plane_interface(0.3), 2),
                                (cylinder,
                                 cylinder_patch_interface(cylinder, 1.2), 0)):
            axes, _, _ = domain._conforming_cells(itf)
            assert itf.value in axes[ax]


class TestShellExactness:
    def test_monomials_over_shell(self, shell):
        # exact value = ball(R=2) minus ball(R=1)
        for (a, b, c) in [(2, 0, 0), (0, 0, 4), (2, 2, 0)]:
            got = integrate_volume(
                shell, None,
                lambda p, ab=(a, b, c): p[:, 0] ** ab[0] * p[:, 1] ** ab[1]
                * p[:, 2] ** ab[2], level=2).value
            exact = (ball_monomial_integral(a, b, c, 2.0)
                     - ball_monomial_integral(a, b, c, 1.0))
            assert abs(got - exact) < 1e-12 * max(1.0, abs(exact))


class TestBlockedSum:
    # the level a sphere-crossing bump's fiber rule gets at refine=2
    LEVEL = 3

    def test_streams_a_refined_fiber_rule(self, sphere_half):
        q = support_volume_quad(sphere_half, [0.45, 0.0, 0.1], 0.25,
                                self.LEVEL)
        sizes = []

        def f(x):
            sizes.append(len(x))
            return 1.0 + np.einsum('ni,ni->n', x, x)

        got = blocked_sum(q, lambda nodes: f(nodes.points))
        assert len(q) > 10 * BLOCK
        # whole blocks per call, at most TASK_BLOCKS of them, except the
        # last call
        assert max(sizes) <= TASK_BLOCKS * BLOCK and sum(sizes) == len(q)
        tail = len(q) % BLOCK
        assert [s % BLOCK for s in sizes if s % BLOCK] == ([tail] if tail
                                                           else [])
        q = _whole(q)
        ref = math.fsum(q.weights * f(q.points))
        assert abs(got - ref) <= 1e-14 * abs(ref)

    def test_values_and_extra_arrays_share_the_blocks(self, rng):
        n = 2 * BLOCK + 17
        w = rng.uniform(0.0, 1.0, n)
        f = rng.uniform(-1.0, 1.0, n)
        g = rng.uniform(-1.0, 1.0, (n, 3))
        # given values are the points of a rule of given nodes; values that
        # carry extra columns are cut into the same blocks
        direct = blocked_sum(VolumeQuad(points=f, weights=w),
                             lambda q: q.points)
        wide = VolumeQuad(points=np.column_stack([f, g]), weights=w)
        paired = blocked_sum(wide, lambda q: q.points[:, 0] * q.points[:, 1])
        assert direct == blocked_sum(wide, lambda q: q.points[:, 0])
        assert abs(direct - math.fsum(w * f)) <= 1e-13 * math.fsum(np.abs(w * f))
        assert abs(paired - math.fsum(w * f * g[:, 0])) <= 1e-13 * n
        assert blocked_sum(VolumeQuad(points=np.zeros(0), weights=np.zeros(0)),
                           lambda q: q.points) == 0.0


def _surface_pairing_bits():
    """Value and estimate bits of a C, an F and an extracted-density (C of
    sigma1) pairing with a global rank-2 test: each walks the full level-4
    sphere rule of 8 blocks, and 2 blocks at the coarse level."""
    rng = np.random.default_rng(5)
    itf = sphere_interface(0.5)
    triple = extract_densities(random_stress_function(
        rng, itf, None, degree=3, scale=0.3), itf)
    test = PolyField.random_symmetric(rng, 2)
    dists = (distributions.CDist(itf, surface_polynomial(rng, 2, itf)),
             distributions.FDist(itf, surface_polynomial(rng, 2, itf)),
             distributions.CDist(itf, triple.sigma1))
    assert len(itf.surface_quadrature(4)) == 8 * BLOCK
    return [(v.value.hex(), v.error.hex())
            for v in (d.pair(test, level=4) for d in dists)]


class TestBlockPool:
    """``blocked_sum`` on the bounded thread pool: the width changes who
    evaluates a block, never the sum or the error raised."""

    N_BLOCKS = 12

    def _rule(self, rng):
        n = self.N_BLOCKS * BLOCK - 5
        return VolumeQuad(points=rng.uniform(-1.0, 1.0, (n, 3)),
                          weights=rng.uniform(0.0, 1.0, n))

    def _indexed_rule(self, rng):
        """``_rule`` with each node's block number as its z coordinate."""
        rule = self._rule(rng)
        rule.points[:, 2] = np.arange(len(rule)) // BLOCK
        return rule

    def test_sum_bits_do_not_depend_on_width(self, rng, monkeypatch):
        rule = self._rule(rng)
        sums, threads = {}, {}
        for width in ("1", "2", "3"):
            monkeypatch.setenv("STRESSDIST_THREADS", width)
            seen = set()

            def f(p):
                seen.add(threading.get_ident())
                time.sleep(0.002)           # lets helpers claim blocks
                return np.exp(p[:, 0]) * np.sin(p[:, 1]) + p[:, 2] ** 3

            sums[width] = (blocked_sum(rule, lambda q: f(q.points)),
                           blocked_sum(rule, lambda q: (f(q.points),
                                                        q.points)),
                           _surface_pairing_bits())
            threads[width] = len(seen)
        assert threads["1"] == 1 and threads["3"] > 1
        for width in ("2", "3"):
            scalar, (col, vec), surface = sums[width]
            assert scalar.hex() == sums["1"][0].hex()
            assert col.hex() == scalar.hex()
            assert vec.tobytes() == sums["1"][1][1].tobytes()
            assert surface == sums["1"][2]

    def test_each_block_once_under_contention(self, rng, monkeypatch):
        # more helpers than cores and a short switch interval: a lost
        # update of the shared block counter would skip or repeat a block
        n = 40 * BLOCK
        x = rng.uniform(-1.0, 1.0, n)
        rule = VolumeQuad(points=x, weights=rng.uniform(0.0, 1.0, n))
        monkeypatch.setenv("STRESSDIST_THREADS", "1")
        want = blocked_sum(rule, lambda q: np.sin(q.points))
        monkeypatch.setenv("STRESSDIST_THREADS", "4")
        calls, got = [], []

        def f(q):
            calls.append(float(q.points[0]))
            return np.sin(q.points)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                t = threading.Thread(target=lambda: got.append(
                    blocked_sum(rule, f)))
                t.start()
                t.join(timeout=60)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(old)
        assert [g.hex() for g in got] == [want.hex()] * 5
        # each task runs once
        size = geometry._task_size(n)
        assert size > BLOCK
        assert sorted(calls) == sorted(list(x[::size]) * 5)

    def test_lowest_failing_block_raises(self, rng, monkeypatch):
        monkeypatch.setenv("STRESSDIST_THREADS", "3")
        rule = self._indexed_rule(rng)

        def f(q):
            # a task raises for the lowest failing block it holds
            p, k = q.points, q.points[:, 2]
            held = np.unique(k)
            if 3 in held:
                time.sleep(0.05)        # later blocks fail first
            for b in held:
                if b in (3, 4, 7):
                    raise EvaluationError(f"block {b}")
            return p[:, 0]

        for _ in range(3):
            with pytest.raises(EvaluationError, match="block 3"):
                blocked_sum(rule, f)

    def test_nested_sum_in_an_integrand_completes(self, rng, monkeypatch):
        rule = self._indexed_rule(rng)
        x = rule.points

        def inner(k):
            return blocked_sum(VolumeQuad(
                points=np.full(2 * BLOCK + 1, x[int(k) * BLOCK, 0]),
                weights=np.ones(2 * BLOCK + 1)), lambda q: q.points)

        def outer(q):
            # one nested sum per block the call holds: the integrand stays
            # pointwise in (p, k), whatever the task size
            p, k = q.points, q.points[:, 2]
            held = np.unique(k)
            inners = np.array([inner(b) for b in held])
            return p[:, 0] * inners[np.searchsorted(held, k)]

        monkeypatch.setenv("STRESSDIST_THREADS", "1")
        want = blocked_sum(rule, outer)
        monkeypatch.setenv("STRESSDIST_THREADS", "3")
        got = []
        t = threading.Thread(target=lambda: got.append(
            blocked_sum(rule, outer)))
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert got == [want]

    def test_helpers_see_the_callers_refinement(self, rng, monkeypatch):
        monkeypatch.setenv("STRESSDIST_THREADS", "2")
        rule = self._rule(rng)
        levels = {}

        def f(q):
            time.sleep(0.005)
            levels[threading.get_ident()] = distributions._lv(None, False)
            return q.points[:, 0]

        with distributions.refinement(3):
            blocked_sum(rule, f)
        assert len(levels) == 2
        assert set(levels.values()) == {distributions._lv(None, False) + 3}


class TestTaskSize:
    """A pool task evaluates up to ``TASK_BLOCKS`` whole blocks in one call;
    the blocks stay the unit of summation, so no bit depends on the task
    size."""

    @pytest.mark.parametrize("width, blocks, calls",
                             [("2", 12, 6), ("2", 3, 3), ("1", 12, 12)])
    def test_integrand_calls_per_rule(self, rng, monkeypatch, width, blocks,
                                      calls):
        # every lane keeps two tasks: a large rule is cut into tasks of
        # TASK_BLOCKS blocks, a small one keeps one block per task, and so
        # does a pool of one lane
        monkeypatch.setenv("STRESSDIST_THREADS", width)
        n = blocks * BLOCK - 5
        sizes = []

        def f(q):
            sizes.append(len(q))
            return q.points

        blocked_sum(VolumeQuad(points=rng.uniform(-1.0, 1.0, n),
                               weights=np.ones(n)), f)
        assert len(sizes) == calls

    @pytest.mark.parametrize("task_blocks", [1, 3])
    def test_sums_do_not_depend_on_task_size(self, rng, monkeypatch,
                                             task_blocks):
        monkeypatch.setenv("STRESSDIST_THREADS", "2")
        n = 12 * BLOCK - 5
        rule = VolumeQuad(points=rng.uniform(-1.0, 1.0, (n, 3)),
                          weights=rng.uniform(0.0, 1.0, n))

        def sums():
            scalar = blocked_sum(
                rule, lambda q: np.exp(q.points[:, 0]) * q.points[:, 1])
            col, vec = blocked_sum(rule, lambda q: (q.points[:, 2] ** 3,
                                                    q.points))
            tensor = blocked_sum(rule, lambda q: q.points[:, :, None]
                                 * q.points[:, None, :])
            return (scalar.hex(), col.hex(), vec.tobytes(), tensor.tobytes(),
                    _surface_pairing_bits())

        want = sums()
        monkeypatch.setattr(geometry, "TASK_BLOCKS", task_blocks)
        assert geometry._task_size(n) == task_blocks * BLOCK
        # the 8-block surface rules take 1-block tasks at TASK_BLOCKS 1
        assert geometry._task_size(8 * BLOCK) == min(task_blocks, 2) * BLOCK
        assert sums() == want

    @pytest.mark.parametrize("task_blocks", [1, 3])
    def test_fiber_nodes_do_not_depend_on_task_size(
            self, sphere_half, monkeypatch, task_blocks):
        monkeypatch.setenv("STRESSDIST_THREADS", "2")
        center = np.array([0.45, 0.0, 0.1])
        rule = geometry._fiber_rule(center, *geometry._fiber_layout(
            sphere_half, center, 0.25, TestBlockedSum.LEVEL))
        want = _recorded_tasks(rule)
        monkeypatch.setattr(geometry, "TASK_BLOCKS", task_blocks)
        assert geometry._task_size(len(rule)) == task_blocks * BLOCK
        got = _recorded_tasks(rule)
        for name in ("points", "weights"):
            assert (np.concatenate([getattr(q, name) for *_, q in got])
                    .tobytes() == np.concatenate([getattr(q, name)
                                                  for *_, q in want])
                    .tobytes())