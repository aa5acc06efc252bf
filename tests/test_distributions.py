"""Pairings, the dual-path divergence identities, mollification, Cauchy flux."""

import tracemalloc

import numpy as np
import pytest

from stressdist import distributions
from stressdist.distributions import (ADAPTED_LEVEL, BDist, CDist,
                                      CompositeDist, FDist, GradTest,
                                      PairingValue, cauchy_flux, close,
                                      distributional_curl, distributional_div,
                                      identity1_rhs, identity2_rhs,
                                      identity_sides, mollified_pair,
                                      mollify_convergence, refinement)
from stressdist.errors import ConfigError, RankMismatchError, StressDistError
from stressdist.fields import (BumpScalar, BumpVector, ConstantField,
                               ModulatedTest, PiecewiseField, Poly3, PolyField,
                               SquaredDistanceFactor, SurfaceField,
                               chart_tangent, make_bump,
                               make_gradient_test_field, normal_dyad,
                               surface_polynomial)
from stressdist import geometry
from stressdist._memo import LruMemo
from stressdist.geometry import BLOCK, TASK_BLOCKS, Ball, SphericalShell, \
    SurfaceBatch, VolumeQuad, integrate_surface, integrate_volume, \
    plane_disk_interface, sphere_interface, support_volume_quad


class TestPairingBasics:
    def test_pairing_value_arithmetic(self):
        a = PairingValue(1.0, 0.1)
        b = PairingValue(2.0, 0.2)
        s = a + b
        assert s.value == 3.0 and abs(s.error - 0.3) < 1e-15
        assert (-a).value == -1.0
        assert (2.0 * a).value == 2.0 and (2.0 * a).error == 0.2

    def test_linearity(self, ball, sphere_half, rng):
        c = surface_polynomial(rng, 1, sphere_half, degree=2)
        cd = CDist(sphere_half, c)
        p1 = make_bump(ball, [0.45, 0.0, 0.1], 0.22, rank=1, rng=rng)
        p2 = make_bump(ball, [0.4, 0.1, -0.1], 0.2, rank=1, rng=rng)

        class Lin:
            # support ball enclosing both members keeps the same quadrature
            rank = 1

            def __init__(self, a, b):
                self.a, self.b = a, b
                mid = 0.5 * (a.center + b.center)
                self.center = mid
                self.radius = max(np.linalg.norm(a.center - mid) + a.radius,
                                  np.linalg.norm(b.center - mid) + b.radius)

            def value(self, pts):
                return 2.0 * self.a.value(pts) - 0.5 * self.b.value(pts)

            def gradient(self, pts):
                return 2.0 * self.a.gradient(pts) - 0.5 * self.b.gradient(pts)

        combo = cd.pair(Lin(p1, p2), level=2)
        target = (2.0 * cd.pair(p1, level=2).value
                  - 0.5 * cd.pair(p2, level=2).value)
        assert abs(combo.value - target) < 1e-7 * max(1.0, abs(target))

    def test_support_locality(self, big_ball, unit_sphere, rng):
        c = surface_polynomial(rng, 1, unit_sphere, degree=2)
        cd = CDist(unit_sphere, c)
        # support disjoint from the sphere
        psi = make_bump(big_ball, [0.0, 0.0, 0.0], 0.4, rank=1, rng=rng)
        assert abs(cd.pair(psi).value) < 1e-14

    def test_constant_density_factors(self, ball, rng):
        cvec = np.array([0.3, -1.2, 0.7])
        b = PiecewiseField.smooth(ConstantField(cvec, 1), 1)
        bd = BDist(ball, None, b)
        psi = make_bump(ball, [0.1, 0.0, 0.2], 0.4, rank=1, rng=rng)
        got = bd.pair(psi).value
        comp = [integrate_volume(ball, None,
                                 lambda p, i=i: psi.value(p)[:, i], level=2).value
                for i in range(3)]
        assert abs(got - float(cvec @ comp)) < 1e-7 * max(1.0, abs(got))

    def test_fdist_plane_against_2d_oracle(self, box, rng):
        pl = box.plane_interface(0.0)
        sig0 = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, 0.3]])
        f = SurfaceField.constant(sig0, 2, pl)
        fd = FDist(pl, f)
        psi = make_bump(box, [0.1, -0.2, 0.1], 0.5, rank=2, rng=rng)
        got = fd.pair(psi).value
        # independent 2-D composite Gauss grid, cells graded into the
        # support edge where the integrand has its steep layers
        rp = np.sqrt(0.5 ** 2 - 0.1 ** 2)

        def graded_axis(c):
            edges = sorted({-1.0, 1.0, c}
                           | {c - rp * (1 - 0.5 ** k) for k in range(9)}
                           | {c + rp * (1 - 0.5 ** k) for k in range(9)}
                           | {c - rp, c + rp})
            xg, wg = np.polynomial.legendre.leggauss(10)
            xs, ws = [], []
            for a, b in zip(edges[:-1], edges[1:]):
                xs.append(0.5 * (a + b) + 0.5 * (b - a) * xg)
                ws.append(0.5 * (b - a) * wg)
            return np.concatenate(xs), np.concatenate(ws)

        xn, xw = graded_axis(0.1)
        yn, yw = graded_axis(-0.2)
        X, Y = np.meshgrid(xn, yn, indexing='ij')
        W = np.outer(xw, yw)
        pts = np.stack([X.ravel(), Y.ravel(), np.zeros(X.size)], axis=-1)
        dpsi_dz = psi.gradient(pts)[:, :, :, 2]
        ref = float(np.dot(W.ravel(), np.einsum('ij,nij->n', sig0, dpsi_dz)))
        assert abs(got - ref) < 1e-7 * max(1.0, abs(ref))

    def test_fdist_depends_on_normal_derivative_only(self, big_ball,
                                                     unit_sphere, rng):
        f = surface_polynomial(rng, 1, unit_sphere, degree=1)
        fd = FDist(unit_sphere, f)
        base = make_bump(big_ball, [0.9, 0.1, 0.2], 0.35, rank=1, rng=rng)
        v1 = fd.pair(base).value

        class Shifted:
            # base + s^2-modulated perturbation: equal to first order on S
            rank = 1

            def __init__(self, a, b):
                self.a, self.b = a, b
                self.center, self.radius = a.center, a.radius

            def value(self, pts):
                return self.a.value(pts) + self.b.value(pts)

            def gradient(self, pts):
                return self.a.gradient(pts) + self.b.gradient(pts)

        pert = ModulatedTest(make_bump(big_ball, [0.9, 0.1, 0.2], 0.3,
                                       rank=1, rng=rng),
                             SquaredDistanceFactor(unit_sphere))
        v2 = fd.pair(Shifted(base, pert)).value
        assert abs(v1 - v2) < 1e-9 * max(1.0, abs(v1))

    def test_rank_mismatch(self, ball, rng):
        b = PiecewiseField.smooth(ConstantField(np.zeros(3), 1), 1)
        bd = BDist(ball, None, b)
        psi = make_bump(ball, [0.0, 0.0, 0.0], 0.4, rank=2, rng=rng)
        with pytest.raises(RankMismatchError):
            bd.pair(psi)


class TestDensityMemo:
    """A surface pairing whose density is wrapped in a plain callable (as a
    counting one) equals the pairing of the density itself."""

    @pytest.mark.parametrize("family", [CDist, FDist])
    def test_supported_tests_share_batches(self, family, ball, sphere_half,
                                           rng):
        field = surface_polynomial(rng, 2, sphere_half, degree=2)
        batches = []

        def counted(batch):
            batches.append(batch)
            return field.value(batch)

        dist = family(sphere_half, SurfaceField(counted, 2, sphere_half))
        plain = family(sphere_half, field)
        center, radius = np.array([0.45, 0.05, 0.1]), 0.2
        tests = [make_bump(ball, center, radius, rank=2, rng=rng)
                 for _ in range(3)]
        for t in tests:
            assert dist.pair(t) == plain.pair(t)
        other = make_bump(ball, [0.1, 0.45, -0.1], radius, rank=2, rng=rng)
        assert dist.pair(other) == plain.pair(other)
        again = make_bump(ball, list(center), radius, rank=2, rng=rng)
        assert dist.pair(again) == plain.pair(again)
        assert batches


class TestDivergenceIdentity1:
    def test_identity_field_divergence(self, ball, rng):
        # density b = x: -B(grad psi) equals 3 * integral of psi
        comp = np.array([Poly3([[1, 0, 0]], [1.0]), Poly3([[0, 1, 0]], [1.0]),
                         Poly3([[0, 0, 1]], [1.0])], dtype=object)
        b = PiecewiseField.smooth(PolyField(comp, rank=1), 1)
        bd = BDist(ball, None, b)
        psi = make_bump(ball, [0.2, -0.1, 0.0], 0.4, rank=0, rng=rng)
        got = distributional_div(bd, psi).value
        ref = 3.0 * integrate_volume(ball, None, psi.value, level=2).value
        assert abs(got - ref) < 1e-6 * max(1.0, abs(ref))

    def test_smooth_density_no_interface_term(self, ball, rng):
        f = PolyField.random_vector(rng, 3)
        bd = BDist(ball, None, PiecewiseField.smooth(f, 1))
        psi = make_bump(ball, [0.0, 0.25, 0.0], 0.4, rank=0, rng=rng)
        lhs = distributional_div(bd, psi).value
        ref = integrate_volume(ball, None,
                               lambda p: f.divergence(p) * psi.value(p),
                               level=2).value
        assert abs(lhs - ref) < 1e-6 * max(1.0, abs(ref))

    def test_pure_jump_three_ways(self, ball, sphere_half, rng):
        cp = np.array([0.8, -0.3, 0.5])
        cm = np.array([-0.2, 0.4, 1.0])
        b = PiecewiseField(1, ConstantField(cp, 1), ConstantField(cm, 1),
                           sphere_half)
        bd = BDist(ball, sphere_half, b)
        psi = make_bump(ball, [0.48, 0.05, -0.1], 0.2, rank=0, rng=rng)
        lhs = distributional_div(bd, psi).value
        rhs = identity1_rhs(bd, psi).value
        # independent surface quadrature of the jump term
        jump = cp - cm
        oracle = integrate_surface(
            sphere_half,
            lambda bt: (bt.normals @ jump) * psi.value(bt.points), level=4).value
        assert close(lhs, rhs)
        assert abs(lhs - oracle) < 1e-6 * max(1.0, abs(oracle))

    def test_dual_path_all_families(self, ball, sphere_half, rng):
        psi = make_bump(ball, [0.42, 0.12, 0.15], 0.22, rank=0, rng=rng,
                        degree=3)
        b = PiecewiseField(1, PolyField.random_vector(rng, 3),
                           PolyField.random_vector(rng, 3), sphere_half)
        dists = [BDist(ball, sphere_half, b),
                 CDist(sphere_half, surface_polynomial(rng, 1, sphere_half, 2)),
                 FDist(sphere_half, surface_polynomial(rng, 1, sphere_half, 2))]
        for d in dists:
            lhs = distributional_div(d, psi)
            rhs = identity1_rhs(d, psi)
            assert close(lhs.value, rhs.value), type(d).__name__
        comp = CompositeDist(*dists)
        lhs = distributional_div(comp, psi)
        rhs = identity1_rhs(comp, psi)
        assert close(lhs.value, rhs.value)

    def test_normal_density_on_sphere(self, big_ball, unit_sphere):
        # density = the normal itself; for a radial test the surface term
        # cancels and only the normal-derivative term survives
        n_field = SurfaceField(lambda b: b.normals.copy(), 1, unit_sphere,
                               dchart=lambda b, axis: chart_tangent(b, axis)[1])
        cd = CDist(unit_sphere, n_field)
        bump = BumpScalar(np.zeros(3), 1.8)
        lhs = distributional_div(cd, bump).value
        rhs = identity1_rhs(cd, bump).value
        # analytic: -4 pi * d/dr psi at r=1 for the plain radial bump
        r = 1.8
        q = (1.0 / r) ** 2
        dpsi = np.exp(1 - 1 / (1 - q)) * (-1.0 / (1 - q) ** 2) * 2.0 * 1.0 / r ** 2
        exact = -4 * np.pi * dpsi
        assert abs(lhs - exact) < 1e-8 * abs(exact)
        assert abs(rhs - exact) < 1e-8 * abs(exact)

    def test_flat_interface_degeneracy(self, box, rng):
        # tangential density on a plane: shape-operator and normal terms die
        pl = box.plane_interface(0.0)
        tang = SurfaceField.from_world(
            lambda p: np.stack([p[:, 1], -p[:, 0], np.zeros(len(p))], axis=-1), 1)
        tang.interface = pl
        fd = FDist(pl, tang)
        psi = make_bump(box, [0.0, 0.1, 0.05], 0.4, rank=0, rng=rng)
        lhs = distributional_div(fd, psi)
        rhs = identity1_rhs(fd, psi)
        assert close(lhs.value, rhs.value)
        batch = pl.samples(50)
        f_vals = tang.value(batch)
        fn = np.einsum('ni,ni->n', f_vals, batch.normals)
        assert np.max(np.abs(fn)) < 1e-14
        assert np.max(np.abs(batch.shape_ops)) == 0.0


class TestCylinderInterface:
    def test_dual_path_on_cylinder_patch(self):
        from stressdist.geometry import (CylinderAnnulus,
                                         cylinder_patch_interface)
        from stressdist.equilibrium import _crossing_bump_geometry
        dom = CylinderAnnulus(0.5, 1.5, 2.0)
        itf = cylinder_patch_interface(dom, 1.0)
        rng = np.random.default_rng(9)
        c, r = _crossing_bump_geometry(dom, itf, rng)
        psi = make_bump(dom, c, r, rank=0, rng=rng, degree=2)
        for d in (CDist(itf, surface_polynomial(rng, 1, itf, degree=1)),
                  FDist(itf, surface_polynomial(rng, 1, itf, degree=1))):
            lhs = distributional_div(d, psi)
            rhs = identity1_rhs(d, psi)
            assert close(lhs.value, rhs.value), type(d).__name__

    @pytest.mark.parametrize("seed", range(10))
    def test_bulk_dual_path_on_cylinder_patch(self, seed):
        # no center fiber follows a 'rho' interface: the volume pairings run
        # on normal fibers from the cylinder's shadow of the support
        from stressdist.geometry import (CylinderAnnulus,
                                         cylinder_patch_interface)
        from stressdist.equilibrium import _crossing_bump_geometry
        dom = CylinderAnnulus(0.5, 1.5, 2.0)
        itf = cylinder_patch_interface(dom, 1.0)
        rng = np.random.default_rng(seed)
        dist = BDist(dom, itf, PiecewiseField(
            1, PolyField.random_vector(rng, 3), PolyField.random_vector(rng, 3),
            itf))
        c, r = _crossing_bump_geometry(dom, itf, rng)
        psi = make_bump(dom, c, r, rank=0, rng=rng, degree=3)
        rule = support_volume_quad(itf, c, r, 1)
        feet, q = rule.feet, rule.nodes(0, len(rule))
        assert np.array_equal(q.points, feet.points[q.foot] + q.offset[:, None]
                              * feet.normals[q.foot])
        assert np.allclose(itf.signed_distance(q.points), q.offset,
                           rtol=0, atol=1e-14)
        assert np.min(np.abs(q.offset)) > 0.0
        assert np.all(np.linalg.norm(q.points - c, axis=1) < r)
        lhs = distributional_div(dist, psi)
        rhs = identity1_rhs(dist, psi)
        assert close(lhs.value, rhs.value)


class TestIdentity2:
    def test_ball_reduces_to_interior(self, ball, sphere_half, rng):
        b = PiecewiseField(2, PolyField.random_symmetric(rng, 2),
                           PolyField.random_symmetric(rng, 2), sphere_half)
        bd = BDist(ball, sphere_half, b)
        g = make_gradient_test_field(ball, [np.zeros(3)], rng=rng,
                                     center=np.zeros(3), radius=0.8,
                                     direction=np.array([1.0, 0, 0]))
        lhs = bd.pair(g)
        rhs = identity2_rhs(bd, g)
        assert close(lhs.value, rhs.value)

    def test_hessian_harmonic_boundary_term_vanishes(self, shell):
        from stressdist.fields import HessianInverseR
        field = HessianInverseR(1.0)
        batches = shell.boundary_components[1].quadrature(2)
        total = np.zeros(3)
        for bt in batches:
            tr = np.einsum('nij,nj->ni', field.value(bt.points), bt.normals)
            total += np.einsum('n,ni->i', bt.weights, tr)
        assert np.linalg.norm(total) < 1e-10

    def test_dual_path_shell_families(self, shell, shell_sphere, annulus, rng):
        g = make_gradient_test_field(shell,
                                     [np.zeros(3), rng.uniform(-1, 1, 3)])
        configs = [
            BDist(shell, shell_sphere,
                  PiecewiseField(2, PolyField.random_symmetric(rng, 2),
                                 PolyField.random_symmetric(rng, 2),
                                 shell_sphere)),
            CDist(annulus, surface_polynomial(rng, 2, annulus, 2,
                                              symmetric=False)),
            FDist(annulus, surface_polynomial(rng, 2, annulus, 2,
                                              symmetric=False)),
        ]
        for d in configs:
            lhs = d.pair(g)
            rhs = identity2_rhs(d, g)
            assert close(lhs.value, rhs.value), type(d).__name__


class TestCurl:
    def test_gradient_field_is_curl_free(self, ball, rng):
        pot = Poly3.random(rng, 4)
        comp = np.array(pot.gradient_polys(), dtype=object)
        bd = BDist(ball, None,
                   PiecewiseField.smooth(PolyField(comp, rank=1), 1))
        for k in range(20):
            c = _random_interior_center(ball, rng)
            psi = make_bump(ball, c, 0.25, rank=1, rng=rng)
            v = distributional_curl(bd, psi)
            assert abs(v.value) < max(1e-8, 10 * v.error)

    def test_rotation_field_curl(self, ball, rng):
        comp = np.array([Poly3([[0, 1, 0]], [-1.0]), Poly3([[1, 0, 0]], [1.0]),
                         Poly3.constant(0.0)], dtype=object)
        bd = BDist(ball, None,
                   PiecewiseField.smooth(PolyField(comp, rank=1), 1))
        psi = make_bump(ball, [0.1, 0.1, 0.0], 0.5, rank=1, rng=rng)
        got = distributional_curl(bd, psi).value
        # smooth-field identity: pairs like curl b = (0, 0, 2) against psi
        ref = 2.0 * integrate_volume(ball, None,
                                     lambda p: psi.value(p)[:, 2], level=2).value
        assert abs(got - ref) < 1e-7 * max(1.0, abs(ref))

    def test_tensor_curl_of_column_gradients(self, ball, rng):
        # tensor Curl pairs through the transposed test curl, so densities
        # whose columns are gradients are annihilated
        pots = [Poly3.random(rng, 3) for _ in range(3)]
        comp = np.empty((3, 3), dtype=object)
        for j in range(3):
            g = pots[j].gradient_polys()
            for i in range(3):
                comp[i, j] = g[i]
        bd = BDist(ball, None, PiecewiseField.smooth(PolyField(comp, 2), 2))
        psi = make_bump(ball, [0.0, 0.2, 0.1], 0.4, rank=2, rng=rng)
        v = distributional_curl(bd, psi)
        assert abs(v.value) < max(1e-7, 10 * v.error)


def _random_interior_center(ball, rng):
    while True:
        c = rng.uniform(-0.6, 0.6, 3)
        if ball.contains_ball(c, 0.25):
            return c


class TestMollification:
    def test_bulk_part_unchanged(self, ball, sphere_half, rng):
        b = PiecewiseField(1, PolyField.random_vector(rng, 2),
                           PolyField.random_vector(rng, 2), sphere_half)
        bd = BDist(ball, sphere_half, b)
        psi = make_bump(ball, [0.45, 0.0, 0.1], 0.2, rank=1, rng=rng)
        exact = bd.pair(psi).value
        for rho in (0.05, 0.01):
            assert mollified_pair(bd, psi, rho, domain=ball).value == exact

    def test_plane_constant_second_order(self, box, rng):
        pl = box.plane_interface(0.0)
        cd = CDist(pl, SurfaceField.constant(np.array([0.5, 0.2, -1.0]), 1, pl))
        psi = make_bump(box, [0.1, 0.0, 0.05], 0.5, rank=1, rng=rng)
        tab = mollify_convergence(cd, psi, [0.08, 0.04, 0.02, 0.01], domain=box)
        assert tab.errors[-1] < tab.errors[0]
        assert tab.order > 1.9

    @pytest.mark.parametrize("z, center, radius",
                             [(0.0, [0.1, 0.0, 0.05], 0.4),
                              (0.3, [0.1, 0.0, 0.35], 0.3)])
    def test_plane_in_a_ball_second_order(self, ball, rng, z, center,
                                          radius):
        # normal fibers from the disk the support casts on the plane, as on
        # the box's plane
        itf = plane_disk_interface(ball, z)
        cd = CDist(itf, SurfaceField.constant(np.array([0.5, 0.2, -1.0]),
                                              1, itf))
        psi = make_bump(ball, center, radius, rank=1, rng=rng)
        tab = mollify_convergence(cd, psi, [0.08, 0.04, 0.02, 0.01],
                                  domain=ball)
        assert all(b < a for a, b in zip(tab.errors, tab.errors[1:]))
        assert tab.order > 1.9

    def test_unsupported_test_rejected_before_any_rule(self, ball,
                                                       sphere_half, rng,
                                                       monkeypatch):
        class Everywhere:
            rank = 1

            def value(self, pts):
                return np.ones((len(pts), 3))

        def no_rule(*args, **kwargs):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(distributions, "support_volume_quad", no_rule)
        monkeypatch.setattr(Ball, "volume_quadrature", no_rule)
        dist = CompositeDist(
            b=BDist(ball, sphere_half, PiecewiseField(
                1, PolyField.random_vector(rng, 2),
                PolyField.random_vector(rng, 2), sphere_half)),
            c=CDist(sphere_half, surface_polynomial(rng, 1, sphere_half, 1)))
        with pytest.raises(ConfigError, match="compactly supported"):
            mollified_pair(dist, Everywhere(), 0.02, domain=ball)
        with pytest.raises(ConfigError, match="compactly supported"):
            mollify_convergence(dist, Everywhere(), [0.04, 0.02],
                                domain=ball)

    def test_tangential_plateau_is_exact(self, box):
        from stressdist.fields import PlateauFactor
        pl = box.plane_interface(0.0)
        tang = SurfaceField.constant(np.array([1.0, -0.5, 0.0]), 1, pl)
        cd = CDist(pl, tang)
        plateau = PlateauFactor(0.0, 0.25, 0.6)

        class DrumTest:
            # in-plane bump times a z-plateau: constant along the normal
            # near the interface
            rank = 1
            center = np.zeros(3)
            radius = 0.85

            def value(self, pts):
                q = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 0.55 ** 2
                val = np.zeros(len(pts))
                m = q < 1 - 1e-9
                val[m] = np.exp(1 - 1 / (1 - q[m]))
                out = val * plateau.value(pts)
                return np.stack([out, 0.5 * out, -0.2 * out], axis=-1)

        psi = DrumTest()
        exact = cd.pair(psi).value
        got1 = mollified_pair(cd, psi, 0.03, domain=box).value
        got2 = mollified_pair(cd, psi, 0.06, domain=box).value
        # the profile integrates out for a normal-constant test: the value is
        # independent of the width at machine level
        assert abs(got1 - got2) < 1e-8 * max(1.0, abs(exact))
        assert abs(got1 - exact) < 5e-5 * max(1.0, abs(exact))

    def test_sphere_constant_second_order(self, ball, sphere_half, rng):
        # normal fibers from the cap a support in a ball subtends
        cd = CDist(sphere_half, SurfaceField.constant(
            np.array([0.5, 0.2, -1.0]), 1, sphere_half))
        psi = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=1, rng=rng)
        tab = mollify_convergence(cd, psi, [0.06, 0.03, 0.015], domain=ball)
        assert all(b < a for a, b in zip(tab.errors, tab.errors[1:]))
        assert tab.order > 1.8

    def test_shell_sphere_constant_second_order(self, shell, shell_sphere,
                                                rng):
        # normal fibers from the cap a support in a shell subtends
        cd = CDist(shell_sphere, SurfaceField.constant(
            np.array([0.5, 0.2, -1.0]), 1, shell_sphere))
        psi = make_bump(shell, [1.4, 0.1, -0.15], 0.25, rank=1, rng=rng)
        tab = mollify_convergence(cd, psi, [0.06, 0.03, 0.015], domain=shell)
        assert all(b < a for a, b in zip(tab.errors, tab.errors[1:]))
        assert tab.order > 1.8

    def _parts(self, ball, sphere_half, rng):
        c = CDist(sphere_half, surface_polynomial(rng, 2, sphere_half, 1))
        f = FDist(sphere_half, surface_polynomial(rng, 2, sphere_half, 1))
        b = BDist(ball, sphere_half, PiecewiseField(
            2, PolyField.random_symmetric(rng, 2),
            PolyField.random_symmetric(rng, 2),
            sphere_half))
        return {"C": c, "F": f, "B+C+F": CompositeDist(b=b, c=c, f=f)}

    @pytest.mark.parametrize("part", ["C", "F", "B+C+F"])
    def test_table_values_equal_mollified_pairings(self, ball, sphere_half,
                                                   rng, part):
        dist = self._parts(ball, sphere_half, rng)[part]
        psi = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=2, rng=rng,
                        degree=2)
        rhos = [0.04, 0.02, 0.01]
        tab = mollify_convergence(dist, psi, rhos, domain=ball)
        want = [mollified_pair(dist, psi, rho, domain=ball).value
                for rho in rhos]
        assert np.array_equal(np.array(tab.values).view(np.uint64),
                              np.array(want).view(np.uint64))

    @pytest.mark.parametrize("part", ["C", "F"])
    def test_table_builds_one_rule_per_width(self, ball, sphere_half, rng,
                                             part, monkeypatch):
        # the two-level estimate of a width is never read, so its coarse
        # rule is never built
        dist = self._parts(ball, sphere_half, rng)[part]
        psi = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=2, rng=rng,
                        degree=2)
        real, levels = support_volume_quad, []

        def counting(*args, **kwargs):
            if kwargs.get('layer') is not None:
                levels.append(args[3])
            return real(*args, **kwargs)

        monkeypatch.setattr(distributions, 'support_volume_quad', counting)
        mollify_convergence(dist, psi, [0.04, 0.02, 0.01], domain=ball)
        assert levels == [ADAPTED_LEVEL] * 3

    def test_rho_too_large(self, ball, sphere_half, rng):
        cd = CDist(sphere_half, surface_polynomial(rng, 1, sphere_half, 1))
        psi = make_bump(ball, [0.45, 0.0, 0.1], 0.2, rank=1, rng=rng)
        with pytest.raises(StressDistError):
            mollified_pair(cd, psi, 0.2, domain=ball)


class _CountingTest:
    """A supported test that records the size of every point set it sees."""

    def __init__(self, base):
        self.base = base
        self.rank = base.rank
        self.center, self.radius = base.center, base.radius
        self.sizes = []

    def value(self, pts):
        self.sizes.append(len(pts))
        return self.base.value(pts)


def test_negative_refinement_rejected():
    with pytest.raises(ConfigError, match="non-negative"):
        with refinement(-1):
            pass


class TestStreamedPairings:
    def test_refined_fiber_pairing_streams_and_repeats(self, ball,
                                                       sphere_half, rng):
        field = PiecewiseField(2, PolyField.random_symmetric(rng, 2),
                               PolyField.random_symmetric(rng, 2),
                               sphere_half)
        bd = BDist(ball, sphere_half, field)
        psi = _CountingTest(make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=2,
                                      rng=rng))
        with refinement(2):
            first = bd.pair(psi)
            fine = ADAPTED_LEVEL + 2
            rules = [len(support_volume_quad(sphere_half, psi.center,
                                             psi.radius, lv))
                     for lv in (fine, fine - 1)]
            # whole blocks per call, at most TASK_BLOCKS of them, except
            # the last call of each rule
            assert max(psi.sizes) <= TASK_BLOCKS * BLOCK
            assert sum(psi.sizes) == sum(rules)
            assert (sorted(s % BLOCK for s in psi.sizes if s % BLOCK)
                    == sorted(n % BLOCK for n in rules if n % BLOCK))
            again = bd.pair(psi)
        assert (again.value, again.error) == (first.value, first.error)

    def test_a_refined_pairing_never_holds_its_nodes(self, ball, sphere_half,
                                                     rng, monkeypatch):
        # fiber rules keep their cells and each task builds its own nodes,
        # so a refine-2 pairing's traced peak stays far below the 32 bytes
        # per node (points and weights) of the two rules it sums
        monkeypatch.setenv("STRESSDIST_THREADS", "1")
        monkeypatch.setattr(geometry, "_FIBER_CACHE",
                            LruMemo(geometry.FIBER_MEMO_SIZE))
        field = PiecewiseField(2, PolyField.random_symmetric(rng, 3),
                               PolyField.random_symmetric(rng, 3),
                               sphere_half)
        psi = make_bump(ball, [0.5, 0.0, 0.1], 0.4, rank=2, rng=rng)
        with refinement(2):
            tracemalloc.start()
            try:
                BDist(ball, sphere_half, field).pair(psi)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            nodes = sum(len(support_volume_quad(sphere_half, psi.center,
                                                psi.radius, lv))
                        for lv in (ADAPTED_LEVEL + 2, ADAPTED_LEVEL + 1))
        assert nodes > 10 ** 6
        assert peak < nodes * 32 / 4

    def test_a_grid_pairing_never_holds_its_nodes(self, rng, monkeypatch):
        # full-domain grids keep their axes and each task builds its own
        # nodes, so a shell pairing with a global gradient test stays far
        # below the 32 bytes per node (points and weights) of its two grids;
        # a fresh domain, since a domain keeps its grid rules
        monkeypatch.setenv("STRESSDIST_THREADS", "1")
        shell = SphericalShell(1.0, 2.0)
        itf = sphere_interface(1.45)
        field = PiecewiseField(2, PolyField.random_symmetric(rng, 2),
                               PolyField.random_symmetric(rng, 2), itf)
        psi = make_gradient_test_field(shell, [np.zeros(3), [0.3, -0.2, 1.0]])
        tracemalloc.start()
        try:
            BDist(shell, itf, field).pair(psi)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        breaks = (tuple(psi.volume_breaks), (), ())
        nodes = sum(len(shell.volume_quadrature(itf, lv, breaks))
                    for lv in (1, 0))
        assert nodes > 3 * 10 ** 5
        assert peak < nodes * 32 / 4

    @pytest.mark.parametrize("task_blocks", [1, 3])
    def test_pairing_does_not_depend_on_task_size(self, ball, sphere_half,
                                                  monkeypatch, task_blocks):
        # a vector bump modulated to vanish on the sphere it straddles, on
        # fiber rules rebuilt under each task size
        monkeypatch.setenv("STRESSDIST_THREADS", "2")

        def pairing():
            rng = np.random.default_rng(5)
            field = PiecewiseField(1, PolyField.random_vector(rng, 3),
                                   PolyField.random_vector(rng, 3),
                                   sphere_half)
            psi = ModulatedTest(make_bump(ball, [0.45, 0.0, 0.1], 0.25,
                                          rank=1, rng=rng),
                                SquaredDistanceFactor(sphere_half))
            monkeypatch.setattr(geometry, "_FIBER_CACHE",
                                LruMemo(geometry.FIBER_MEMO_SIZE))
            with refinement(2):
                p = BDist(ball, sphere_half, field).pair(psi)
            return p.value.hex(), p.error.hex()

        want = pairing()
        monkeypatch.setattr(geometry, "TASK_BLOCKS", task_blocks)
        assert pairing() == want


class TestStreamedBulkSums:
    """A bulk pairing evaluates the field and the test one pool task at a
    time; its sum equals the block sum of the whole rule's contraction
    bit for bit."""

    def _two_sided(self, rng):
        itf = sphere_interface(0.5)
        return itf, BDist(Ball(1.0), itf, PiecewiseField(
            2, PolyField.random_symmetric(rng, 3),
            PolyField.random_symmetric(rng, 3), itf))

    def _rule_points(self, itf, lone):
        """A full-domain rule's nodes, rolled so that block 1 holds exactly
        ``lone`` plus-side nodes (the others minus-side)."""
        rule = Ball(1.0).volume_quadrature(itf, 1)
        q = rule.nodes(0, len(rule))
        s = itf.signed_distance(q.points)
        pts = q.points[np.argsort(s, kind="stable")]
        first_plus = int(np.count_nonzero(s < 0.0))
        pts = np.roll(pts, 2 * BLOCK - lone - first_plus, axis=0)
        assert len(pts) > 3 * BLOCK
        plus = itf.signed_distance(pts[BLOCK:2 * BLOCK]) >= 0.0
        assert np.count_nonzero(plus) == lone
        return pts

    @staticmethod
    def _sums(bd, pts, rng, sizes=None):
        """(streamed, whole) sums of the field's value and divergence with
        a test of matching rank, as hex strings."""
        rule = VolumeQuad(points=pts,
                          weights=rng.uniform(0.5, 1.0, len(pts)))
        out = []
        for method, test in (
                ('value', PolyField.random_symmetric(rng, 2).value),
                ('divergence', PolyField.random_vector(rng, 2).value)):
            def counted(x, test=test):
                if sizes is not None:
                    sizes.append(len(x))
                return test(x)

            got = bd._pair_sum(rule, method, counted)
            # _contract needs a node to infer the component count
            whole = (distributions._contract(getattr(bd.field, method)(pts),
                                             test(pts))
                     if len(pts) else np.zeros(0))
            want = geometry.blocked_sum(
                VolumeQuad(points=whole, weights=rule.weights),
                lambda q: q.points)
            out.append((got.hex(), want.hex()))
        return out

    @pytest.mark.parametrize("width", ["1", "2"])
    @pytest.mark.parametrize("lone", [1, 2])
    def test_equals_whole_evaluation(self, rng, monkeypatch, width, lone):
        # a lone plus-side node ends the second block
        monkeypatch.setenv("STRESSDIST_THREADS", width)
        itf, bd = self._two_sided(rng)
        pts = self._rule_points(itf, lone)
        sizes = []
        for got, want in self._sums(bd, pts, rng, sizes):
            assert got == want
        size = geometry._task_size(len(pts))
        assert max(sizes) == size and sum(sizes) == 2 * len(pts)
        assert len(sizes) == 2 * -(-len(pts) // size)

    def test_empty_rule(self, rng):
        _, bd = self._two_sided(rng)
        sizes = []
        for got, want in self._sums(bd, np.zeros((0, 3)), rng, sizes):
            assert got == want == (0.0).hex()
        assert sizes == []

    @pytest.mark.parametrize("task_blocks", [1, 3])
    def test_does_not_depend_on_task_size(self, rng, monkeypatch,
                                          task_blocks):
        # the rule is repeated to 13 blocks so 3-block tasks occur
        monkeypatch.setenv("STRESSDIST_THREADS", "2")
        itf, bd = self._two_sided(rng)
        pts = self._rule_points(itf, 1)
        pts = np.concatenate([pts, pts, pts, pts[:17]])
        seed = int(rng.integers(2 ** 31))
        want = self._sums(bd, pts, np.random.default_rng(seed))
        monkeypatch.setattr(geometry, "TASK_BLOCKS", task_blocks)
        assert geometry._task_size(len(pts)) == task_blocks * BLOCK
        got = self._sums(bd, pts, np.random.default_rng(seed))
        assert got == want
        for streamed, whole in got:
            assert streamed == whole


class TestCauchyFlux:
    def test_disjoint_probe_converges_to_bulk_flux(self, big_ball,
                                                   unit_sphere, rng):
        bulk = PiecewiseField(2, PolyField.random_symmetric(rng, 2, 0.5),
                              PolyField.random_symmetric(rng, 2, 0.5),
                              unit_sphere)
        comp = CompositeDist(b=BDist(big_ball, unit_sphere, bulk),
                             c=CDist(unit_sphere,
                                     normal_dyad([0, 0, 1.0], unit_sphere)))
        probe = sphere_interface(1.5)
        rep = cauchy_flux(comp, probe, [0.05, 0.025, 0.0125], domain=big_ball)
        assert rep.converged
        batch = probe.surface_quadrature(2)
        tr = np.einsum('nij,nj->ni', bulk.value(batch.points), batch.normals)
        ref = np.einsum('n,ni->i', batch.weights, tr)
        assert np.linalg.norm(rep.limit - ref) < 1e-8 * max(
            1.0, np.linalg.norm(ref))

    def test_coincident_probe_diverges(self, big_ball, unit_sphere):
        comp = CompositeDist(c=CDist(unit_sphere,
                                     normal_dyad([0, 0, 1.0], unit_sphere)))
        rep = cauchy_flux(comp, unit_sphere,
                          [0.05, 0.025, 0.0125, 0.00625], domain=big_ball)
        assert not rep.converged
        assert abs(rep.divergence_slope + 1.0) < 0.1


class TestExports:
    def test_fdist_mollification_order(self, box, rng):
        pl = box.plane_interface(0.0)
        fd = FDist(pl, SurfaceField.constant(np.diag([1.0, -0.5, 0.2]), 2, pl))
        psi = make_bump(box, [0.1, 0.0, 0.05], 0.5, rank=2, rng=rng, degree=1)
        tab = mollify_convergence(fd, psi, [0.08, 0.04, 0.02], domain=box)
        assert tab.errors[-1] < tab.errors[0]
        assert tab.order >= 1.0


class TestTrivialCurlPairings:
    def test_curl_pairs_to_zero_against_gradient_tests(self, ball, rng):
        # curl of a gradient-type vector test vanishes identically, so the
        # curl pairing is exactly zero before any quadrature
        from stressdist.distributions import CurlTest
        b = PiecewiseField.smooth(
            PolyField.random_vector(np.random.default_rng(2), 2), 1)
        bd = BDist(ball, None, b)
        base = make_bump(ball, [0.2, 0.0, 0.1], 0.4, rank=0, rng=rng)

        class GradOfScalar:
            rank = 1
            center, radius = base.center, base.radius

            def value(self, pts):
                return base.gradient(pts)

            def gradient(self, pts):
                return base.hessian(pts)

        v = distributional_curl(bd, GradOfScalar())
        assert abs(v.value) < 1e-12


class _WithoutHook:
    """A user test class: value, gradient and Hessian of a base, and no
    ``contract_gradient`` hook."""

    def __init__(self, base):
        self.base = base
        self.rank = base.rank

    def value(self, pts):
        return self.base.value(pts)

    def gradient(self, pts):
        return self.base.gradient(pts)

    def hessian(self, pts):
        return self.base.hessian(pts)


def _count_calls(monkeypatch, owner, name):
    """Count the calls of ``owner.name`` (still running it)."""
    real = getattr(owner, name)
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


_SUPPORTS = {
    'sphere-crossing': ('sphere', [0.45, 0.0, 0.1], 0.25),
    'plane-crossing': ('plane', [0.1, 0.2, 0.05], 0.25),
    'plus-side': ('sphere', [0.8, 0.0, 0.0], 0.15),
    'minus-side': ('sphere', [0.1, 0.1, 0.0], 0.2),
}


class TestConstantSides:
    """Constant bulk sides paired with gradient tests through the tests'
    ``contract_gradient`` hook, against the generic path."""

    @staticmethod
    def _test(kind, ball, interface, center, radius, rng):
        if kind == 'shared':
            p, q = Poly3.random(rng, 2), Poly3.random(rng, 2)
            return BumpVector(center, radius, [p, q, p])
        bump = make_bump(ball, center, radius, rank=1, rng=rng)
        if kind == 'modulated':
            return ModulatedTest(bump, SquaredDistanceFactor(interface))
        return bump

    @staticmethod
    def _field(sides, interface, rng):
        C = rng.normal(size=(3, 3))
        if sides == 'pressure':
            return PiecewiseField(2, ConstantField(-1.7 * np.eye(3), 2),
                                  ConstantField(np.zeros((3, 3)), 2),
                                  interface)
        if sides == 'non-symmetric':
            return PiecewiseField(2, ConstantField(C, 2),
                                  ConstantField(rng.normal(size=(3, 3)), 2),
                                  interface)
        return PiecewiseField.smooth(ConstantField(C, 2), 2)

    @pytest.mark.parametrize("sides", ['pressure', 'non-symmetric', 'smooth'])
    @pytest.mark.parametrize("kind", ['bump', 'modulated', 'shared'])
    @pytest.mark.parametrize("where", sorted(_SUPPORTS))
    def test_hook_agrees_with_the_generic_path(self, ball, sphere_half,
                                                 ball_disk, monkeypatch,
                                                 sides, kind, where):
        rng = np.random.default_rng(7)
        surface, center, radius = _SUPPORTS[where]
        interface = sphere_half if surface == 'sphere' else ball_disk
        psi = self._test(kind, ball, interface, center, radius, rng)
        bd = BDist(ball, interface, self._field(sides, interface, rng))
        hooks = _count_calls(monkeypatch, BumpVector, 'contract_gradient')
        got = bd.pair(GradTest(psi))
        evaluated = len(hooks)
        want = bd.pair(GradTest(_WithoutHook(psi)))
        assert len(hooks) == evaluated
        # only a support wholly on the zero side of the pressure skips it
        assert (evaluated == 0) == (sides == 'pressure'
                                    and where == 'minus-side')
        tol = 1e-13 * max(1.0, abs(want.value))
        assert abs(got.value - want.value) <= tol
        assert abs(got.error - want.error) <= tol

    @pytest.mark.parametrize("smooth", [False, True])
    def test_zero_sides_build_no_rule(self, ball, sphere_half, monkeypatch,
                                      rng, smooth):
        def no_rule(*args, **kwargs):
            raise AssertionError("a rule was built")

        monkeypatch.setattr(distributions, "support_volume_quad", no_rule)
        monkeypatch.setattr(Ball, "volume_quadrature", no_rule)
        zero = ConstantField(np.zeros((3, 3)), 2)
        field = (PiecewiseField.smooth(zero, 2) if smooth else
                 PiecewiseField(2, zero, ConstantField(np.zeros((3, 3)), 2),
                                sphere_half))
        psi = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=1, rng=rng)
        for t in (psi, ModulatedTest(psi, SquaredDistanceFactor(sphere_half))):
            v = BDist(ball, sphere_half, field).pair(GradTest(t))
            assert v == PairingValue(0.0, 0.0)
            assert np.copysign(1.0, v.value) == 1.0

    def test_interface_nodes_take_the_plus_side(self, ball, ball_disk, rng,
                                                monkeypatch):
        # a rule whose nodes lie on the plane z = 0: PiecewiseField puts
        # them on the plus side, and so must the pairing
        psi = make_bump(ball, [0.1, 0.0, 0.0], 0.3, rank=1, rng=rng)
        xy = rng.uniform(-0.15, 0.15, (40, 2))
        pts = np.column_stack([0.1 + xy[:, 0], xy[:, 1], np.zeros(40)])
        weights = rng.uniform(0.5, 1.0, 40)
        rule = VolumeQuad(points=pts, weights=weights)
        monkeypatch.setattr(distributions, "_volume_quad",
                            lambda *args: rule)
        C = rng.normal(size=(3, 3))
        field = PiecewiseField(2, ConstantField(C, 2),
                               ConstantField(np.zeros((3, 3)), 2), ball_disk)
        got = BDist(ball, ball_disk, field).pair(GradTest(psi))
        want = weights @ np.einsum('nij,ij->n', psi.gradient(pts), C)
        assert abs(want) > 1e-3
        assert abs(got.value - want) <= 1e-13 * abs(want)
        assert got.error == 0.0

    @staticmethod
    def _assert_generic(monkeypatch, bd, test):
        """``bd`` pairs ``GradTest(test)`` without the constant-side path,
        bit for bit as a test without the hook."""
        def no_hook(*args, **kwargs):
            raise AssertionError("constant-side path taken")

        with monkeypatch.context() as m:
            m.setattr(BDist, "_pair_constant_sides", no_hook)
            got = bd.pair(GradTest(test))
        want = bd.pair(GradTest(_WithoutHook(test)))
        assert (got.value.hex(), got.error.hex()) == \
            (want.value.hex(), want.error.hex())

    def test_other_tests_and_fields_take_the_generic_path(
            self, ball, sphere_half, rng, monkeypatch):
        vector = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=1, rng=rng)
        pressure = PiecewiseField(2, ConstantField(-np.eye(3), 2),
                                  ConstantField(np.zeros((3, 3)), 2),
                                  sphere_half)
        # a user test class without the hook, also under a modulation
        bd = BDist(ball, sphere_half, pressure)
        self._assert_generic(monkeypatch, bd, _WithoutHook(vector))
        self._assert_generic(
            monkeypatch, bd,
            ModulatedTest(_WithoutHook(vector),
                          SquaredDistanceFactor(sphere_half)))
        # a scalar bump under a rank-1 constant side
        scalar = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=0, rng=rng)
        force = PiecewiseField(1, ConstantField([1.0, -2.0, 0.5], 1),
                               ConstantField([0.0, 0.3, 0.0], 1), sphere_half)
        self._assert_generic(monkeypatch, BDist(ball, sphere_half, force),
                             scalar)
        # a non-constant side
        mixed = PiecewiseField(2, ConstantField(-np.eye(3), 2),
                               PolyField.random_symmetric(rng, 2), sphere_half)
        self._assert_generic(monkeypatch, BDist(ball, sphere_half, mixed),
                             vector)

    def test_rank_mismatch_raises_even_on_zero_sides(self, ball,
                                                     sphere_half, rng):
        zero = PiecewiseField(2, ConstantField(np.zeros((3, 3)), 2),
                              ConstantField(np.zeros((3, 3)), 2), sphere_half)
        bd = BDist(ball, sphere_half, zero)
        for rank in (0, 2):
            psi = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=rank, rng=rng)
            with pytest.raises(RankMismatchError):
                bd.pair(GradTest(psi))

    def test_hook_path_evaluates_neither_gradient_nor_field(
            self, ball, sphere_half, rng, monkeypatch):
        field = PiecewiseField(2, ConstantField(-np.eye(3), 2),
                               ConstantField(rng.normal(size=(3, 3)), 2),
                               sphere_half)
        psi = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=1, rng=rng)
        tests = (psi, ModulatedTest(psi, SquaredDistanceFactor(sphere_half)))
        counted = [_count_calls(monkeypatch, owner, name)
                   for owner, name in ((BumpVector, '_orders'),
                                       (ModulatedTest, 'jet'),
                                       (PiecewiseField, '_per_side'),
                                       (PiecewiseField, 'value'),
                                       (ConstantField, 'value'))]
        hooks = _count_calls(monkeypatch, BumpVector, 'contract_gradient')
        for t in tests:
            v = BDist(ball, sphere_half, field).pair(GradTest(t))
            assert v.value != 0.0
        assert hooks and not any(counted)


def _hex(pairing):
    return pairing.value.hex(), pairing.error.hex()


class TestIdentitySides:
    """``identity_sides`` walks the rule of a bulk part once per level and
    returns what the single-sided functions return, bit for bit."""

    @staticmethod
    def _identity1_cases(ball, sphere_half):
        rng = np.random.default_rng(11)
        psi = make_bump(ball, [0.42, 0.12, 0.15], 0.22, rank=0, rng=rng)
        vec = make_bump(ball, [0.45, 0.0, 0.1], 0.25, rank=1, rng=rng)
        vector = PolyField.random_vector
        b = BDist(ball, sphere_half, PiecewiseField(
            1, vector(rng, 3), vector(rng, 3), sphere_half))
        b2 = BDist(ball, sphere_half, PiecewiseField(
            2, PolyField.random_symmetric(rng, 3),
            PolyField.random_symmetric(rng, 3), sphere_half))
        pressure = BDist(ball, sphere_half, PiecewiseField(
            2, ConstantField(-1.7 * np.eye(3), 2),
            ConstantField(np.zeros((3, 3)), 2), sphere_half))
        c = CDist(sphere_half, surface_polynomial(rng, 1, sphere_half, 2))
        f = FDist(sphere_half, surface_polynomial(rng, 1, sphere_half, 2))
        return [("B", b, psi), ("C", c, psi), ("F", f, psi),
                ("composite", CompositeDist(b, c, f), psi),
                ("B-vector", b2, vec),
                ("B-modulated", b2, ModulatedTest(
                    vec, SquaredDistanceFactor(sphere_half))),
                ("B-constant", pressure, vec)]

    @staticmethod
    def _identity2_cases(ball, shell, shell_sphere, annulus, sphere_half):
        rng = np.random.default_rng(12)
        g = make_gradient_test_field(shell,
                                     [np.zeros(3), rng.uniform(-1, 1, 3)])
        b = BDist(shell, shell_sphere, PiecewiseField(
            2, PolyField.random_symmetric(rng, 2),
            PolyField.random_symmetric(rng, 2), shell_sphere))
        c = CDist(annulus, surface_polynomial(rng, 2, annulus, 2,
                                              symmetric=False))
        f = FDist(annulus, surface_polynomial(rng, 2, annulus, 2,
                                              symmetric=False))
        # a supported test pairs on its support rule, but the right side
        # integrates over the whole domain: the sides share no rule
        supported = make_gradient_test_field(
            ball, [np.zeros(3)], rng=rng, center=np.zeros(3), radius=0.8,
            direction=np.array([1.0, 0, 0]))
        ball_b = BDist(ball, sphere_half, PiecewiseField(
            2, PolyField.random_symmetric(rng, 2),
            PolyField.random_symmetric(rng, 2), sphere_half))
        return [("B", b, g), ("C", c, g), ("F", f, g),
                ("composite", CompositeDist(b=b, c=c), g),
                ("B-supported", ball_b, supported)]

    @pytest.mark.parametrize("task_blocks", [1, 3])
    @pytest.mark.parametrize("width", ["1", "2"])
    def test_equals_the_single_sided_functions(
            self, ball, shell, sphere_half, shell_sphere, annulus,
            monkeypatch, width, task_blocks):
        monkeypatch.setenv("STRESSDIST_THREADS", width)
        monkeypatch.setattr(geometry, "TASK_BLOCKS", task_blocks)
        for name, d, psi in self._identity1_cases(ball, sphere_half):
            lhs, rhs = identity_sides(d, psi, 1)
            assert _hex(lhs) == _hex(distributional_div(d, psi)), name
            assert _hex(rhs) == _hex(identity1_rhs(d, psi)), name
        for name, d, g in self._identity2_cases(ball, shell, shell_sphere,
                                                annulus, sphere_half):
            lhs, rhs = identity_sides(d, g, 2)
            assert _hex(lhs) == _hex(d.pair(g)), name
            assert _hex(rhs) == _hex(identity2_rhs(d, g)), name

    def test_rejects_other_identities_and_ranks(self, ball, sphere_half):
        _, b, psi = self._identity1_cases(ball, sphere_half)[0]
        with pytest.raises(ConfigError):
            identity_sides(b, psi, 3)
        g = make_gradient_test_field(ball, [np.zeros(3)], center=np.zeros(3),
                                     radius=0.5)
        with pytest.raises(RankMismatchError):
            identity_sides(b, g, 2)

    def test_a_bulk_check_builds_half_the_tables(self, monkeypatch):
        # identity1-B-ball's first check, as the CLI draws it; the
        # single-sided functions build the tables the separate walks built
        # before: sigma value, grad psi, div sigma and psi per node batch
        import json
        import os
        from stressdist import cli, catalog
        monkeypatch.setenv("STRESSDIST_THREADS", "1")
        path = os.path.join(os.path.dirname(__file__), os.pardir,
                            "scenarios", "identity1-B-ball.json")
        with open(path, encoding="utf-8") as fh:
            cfg = catalog.ConfigBlock(json.load(fh))
        domain, interface = cli._build_geometry(cfg)
        rng = np.random.default_rng(cfg["seed"])
        dist = cli._random_dist("B", domain, interface, rng, rank=1)
        psi = cli._random_scalar_bump(domain, interface, rng)
        walking, tables = [0], [0]
        real_sum, real_table = distributions.blocked_sum, Poly3.monomials

        def counted_sum(rule, integrand):
            # volume-rule walks only: surface terms build their own tables
            if isinstance(rule, SurfaceBatch):
                return real_sum(rule, integrand)

            def counted(nodes):
                walking[0] += 1
                try:
                    return integrand(nodes)
                finally:
                    walking[0] -= 1
            return real_sum(rule, counted)

        def counted_table(self, pts):
            tables[0] += walking[0] > 0
            return real_table(self, pts)

        monkeypatch.setattr(distributions, "blocked_sum", counted_sum)
        monkeypatch.setattr(Poly3, "monomials", counted_table)
        identity_sides(dist, psi, 1)
        dual, tables[0] = tables[0], 0
        distributional_div(dist, psi)
        identity1_rhs(dist, psi)
        assert dual > 0 and tables[0] == 2 * dual
