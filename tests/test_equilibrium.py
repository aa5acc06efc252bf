"""Local residuals, weak/local equivalence, and the stress-dipole limit."""

import numpy as np
import pytest
import sympy as sp

from stressdist._tensor import loglog_slope
from stressdist.catalog import (dilatational_dipole, flat_tension,
                                kelvin_scenario, soap_film)
from stressdist.equilibrium import (DilatationalData, EquilibriumScenario,
                                    Tolerances, bulk_residual,
                                    dilatational_residuals, dipole_limit,
                                    interface_residuals, local_report,
                                    make_test_suite, weak_equals_local,
                                    weak_residuals)
from stressdist.errors import FieldError, GeometryError
from stressdist.fields import (CallableField, ConstantField, PiecewiseField,
                               PolyField, SurfaceField, chart_tangent,
                               normal_dyad, make_bump)


@pytest.fixture(scope="module")
def film(big_ball, unit_sphere):
    return soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)


class TestLocalResiduals:
    def test_soap_film_equilibrated(self, film):
        rb, rc, rd = interface_residuals(film, n=600)
        bk, _ = bulk_residual(film, n=600)
        assert bk < 1e-12 and rb < 1e-8 and rc < 1e-12 and rd < 1e-12

    def test_all_zero(self, big_ball, unit_sphere):
        scn = EquilibriumScenario(domain=big_ball, interface=unit_sphere)
        assert interface_residuals(scn, n=100) == (0.0, 0.0, 0.0)
        bk, _ = bulk_residual(scn, n=100)
        assert bk == 0.0

    def test_unbalanced_surface_traction(self, big_ball, unit_sphere):
        # sigma1 with a nonzero normal traction and no dipole force shows up
        # exactly in the dipole condition residual
        a = np.array([0.0, 0.0, 1.0])
        scn = EquilibriumScenario(domain=big_ball, interface=unit_sphere,
                                  sigma1=normal_dyad(a, unit_sphere))
        batch = unit_sphere.samples(400)
        s1n = np.einsum('nij,nj->ni', scn.sigma1.value(batch), batch.normals)
        expected = float(np.max(np.linalg.norm(s1n, axis=-1)))
        _, rc, _ = interface_residuals(scn, batch=batch)
        assert abs(rc - expected) < 1e-8 * expected

    def test_dipole_coefficient_carries_curvature(self, big_ball,
                                                  unit_sphere):
        # sigma2 = n (x) n on the unit sphere: div_S sigma2 = kappa n, so the
        # full d_n psi coefficient div_S sigma2 - kappa sigma2 n vanishes
        # while the closure residual |sigma2 n| is 1
        def dchart(batch, axis):
            _, dn = chart_tangent(batch, axis)
            return (np.einsum('ni,nj->nij', dn, batch.normals)
                    + np.einsum('ni,nj->nij', batch.normals, dn))

        scn = EquilibriumScenario(
            domain=big_ball, interface=unit_sphere,
            sigma2=SurfaceField(
                lambda b: np.einsum('ni,nj->nij', b.normals, b.normals), 2,
                unit_sphere, dchart=dchart))
        rb, rc, rd = interface_residuals(scn, n=300)
        assert rb < 1e-12 and rc < 1e-12
        assert abs(rd - 1.0) < 1e-12

    def test_bulk_piecewise_constant_pressure(self, big_ball, unit_sphere):
        scn = soap_film(big_ball, unit_sphere, gamma=0.0, pressure_jump=2.0)
        bk, _ = bulk_residual(scn, n=300)
        assert bk < 1e-12

    def test_kelvin_bulk_residual_fd(self, shell):
        scn = kelvin_scenario(shell, force=[0, 0, 1.0])
        bk, _ = bulk_residual(scn, n=400)
        assert bk < 1e-6

    def test_polynomial_manufactured_force(self, big_ball, unit_sphere):
        # b = -div sigma computed by an independent symbolic oracle
        rng = np.random.default_rng(8)
        sig = PolyField.random_symmetric(rng, 3)
        x, y, z = sp.symbols('x y z')

        def poly_expr(p):
            return sum(c * x ** int(i) * y ** int(j) * z ** int(k)
                       for (i, j, k), c in zip(p.exps, p.coefs))

        rows = []
        for i in range(3):
            div_i = sum(sp.diff(poly_expr(sig.components[i, j]), v)
                        for j, v in enumerate((x, y, z)))
            rows.append(sp.lambdify((x, y, z), -div_i, 'numpy'))

        def b_val(pts):
            return np.stack([np.broadcast_to(r(*pts.T), (len(pts),))
                             for r in rows], axis=-1)

        scn = EquilibriumScenario(
            domain=big_ball, interface=unit_sphere,
            sigma=PiecewiseField(2, sig, sig, unit_sphere),
            b=PiecewiseField.smooth(CallableField(b_val, 1), 1))
        bk, _ = bulk_residual(scn, n=400)
        assert bk < 1e-10

    def test_user_points_near_interface_resampled(self, film, unit_sphere):
        pts = np.concatenate([
            np.array([[1.0001, 0.0, 0.0], [0.0, 0.99995, 0.0]]),
            np.array([[1.5, 0.0, 0.0]])])
        _, resampled = bulk_residual(film, points=pts)
        assert resampled == 2


class TestDilatational:
    def test_young_laplace_pass_and_fail(self, big_ball, unit_sphere):
        good = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
        rep = dilatational_residuals(good, n=400)
        assert rep.passed
        eps = 1e-3
        bad = soap_film(big_ball, unit_sphere, gamma=0.7,
                        pressure_jump=1.4 + eps)
        rep2 = dilatational_residuals(bad, n=400)
        failing = rep2.failing()
        assert "12b-normal" in failing
        got = [c.residual for c in rep2.conditions if c.cond == "12b-normal"][0]
        assert abs(got - eps) < 1e-9

    def test_flat_interface_constant_p2(self, box):
        pl = box.plane_interface(0.0)
        scn = flat_tension(box, pl, gamma=0.3)
        scn.dilatational = DilatationalData(p=scn.dilatational.p, p1=0.3,
                                            p2=0.8)
        scn.sigma2 = None  # densities enter the pressure form directly
        rep = dilatational_residuals(scn, n=300)
        # flat surface, constant p2: every pressure-form condition vanishes
        assert rep.passed

    def test_sphere_dipole_needs_matched_normal_force(self, big_ball,
                                                      unit_sphere):
        scn = dilatational_dipole(big_ball, unit_sphere, gamma=0.5, p2=0.3)
        rep = dilatational_residuals(scn, n=400)
        assert rep.passed
        batch = unit_sphere.samples(50)
        b2n = np.einsum('ni,ni->n', scn.b2.value(batch), batch.normals)
        # matched dipole force satisfies <b2, n> = kappa p2 = 2 p2 / R
        assert np.max(np.abs(b2n - 2.0 * 0.3)) < 1e-12

    def test_requires_dilatational_data(self, big_ball, unit_sphere):
        scn = EquilibriumScenario(domain=big_ball, interface=unit_sphere)
        with pytest.raises(FieldError):
            dilatational_residuals(scn)


class TestWeakEqualsLocal:
    def test_equilibrated_scenarios(self, film, big_ball, unit_sphere):
        rep = weak_equals_local(film, n_suite=6, seed=3)
        assert rep.consistent
        assert all(abs(v) <= t for _, v, t in rep.weak)
        dip = dilatational_dipole(big_ball, unit_sphere, gamma=0.4, p2=0.25)
        rep2 = weak_equals_local(dip, n_suite=6, seed=4)
        assert rep2.consistent
        assert all(abs(v) <= t for _, v, t in rep2.weak)

    def test_zero_scenario(self, big_ball, unit_sphere):
        scn = EquilibriumScenario(domain=big_ball, interface=unit_sphere)
        rep = weak_equals_local(scn, n_suite=3, seed=5)
        assert rep.consistent
        assert all(v == 0.0 for _, v, _ in rep.weak)

    def test_perturbation_scales_linearly(self, big_ball, unit_sphere):
        rng = np.random.default_rng(7)
        tests = make_test_suite(big_ball, unit_sphere, 6, rng)
        epss = [1e-1, 1e-2, 1e-3]
        maxima = []
        for eps in epss:
            scn = soap_film(big_ball, unit_sphere, gamma=0.7,
                            pressure_jump=1.4 + eps)
            w = weak_residuals(scn, tests)
            maxima.append(max(abs(v) for _, v, _ in w))
        slope = loglog_slope(epss, maxima)
        assert abs(slope - 1.0) < 0.05

    def test_detection_of_injected_perturbations(self, big_ball, unit_sphere):
        rng = np.random.default_rng(11)
        tests = make_test_suite(big_ball, unit_sphere, 9, rng)
        eps = 1e-2
        base = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)

        def calibrated_norm(make_pert):
            unit = make_pert(1.0)
            w = weak_residuals(unit, tests)
            return max(abs(v) for _, v, _ in w)

        def perturb_b1(e):
            scn = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
            scn.b1 = SurfaceField(lambda b: e * b.normals.copy(), 1,
                                  unit_sphere)
            scn.dilatational = None
            return scn

        def perturb_sigma2(e):
            scn = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
            scn.sigma2 = normal_dyad([0, 0, e], unit_sphere)
            scn.dilatational = None
            return scn

        for make in (perturb_b1, perturb_sigma2):
            norm = calibrated_norm(lambda e=1.0: make(1.0))
            w = weak_residuals(make(eps), tests)
            assert max(abs(v) for _, v, _ in w) > 0.5 * eps * norm

    def test_sigma2_normal_violation_detected(self, big_ball, unit_sphere):
        # a dipole density with nonzero normal action fails the closure
        # condition and some dipole-sensitive weak residual
        scn = EquilibriumScenario(
            domain=big_ball, interface=unit_sphere,
            sigma2=SurfaceField(
                lambda b: np.einsum('ni,nj->nij', b.normals, b.normals), 2,
                unit_sphere))
        _, _, rd = interface_residuals(scn, n=200)
        assert rd > 0.99
        rep = weak_equals_local(scn, n_suite=9, seed=13)
        assert any(abs(v) > t for _, v, t in rep.weak)
        assert rep.consistent


class TestDipoleLimit:
    def test_first_order_fraction(self, big_ball):
        sigma0 = np.diag([1.0, -0.5, 0.0])
        rep = dipole_limit(big_ball, sigma0, [0.2, 0.1, 0.05, 0.025, 0.0125],
                           n_tests=10, seed=0)
        assert rep.fraction_first_order >= 0.9

    def test_normal_constant_test_gives_zero(self, big_ball):
        from stressdist.fields import PlateauFactor
        plateau = PlateauFactor(0.05, 0.3, 0.6)

        class Drum:
            rank = 2
            center = np.array([0.0, 0.0, 0.05])
            radius = 1.1

            def value(self, pts):
                q = (pts[:, 0] ** 2 + pts[:, 1] ** 2) / 0.8 ** 2
                v = np.zeros(len(pts))
                m = q < 1 - 1e-9
                v[m] = np.exp(1 - 1 / (1 - q[m]))
                v = v * plateau.value(pts)
                out = np.zeros((len(pts), 3, 3))
                out[:, 0, 0] = v
                out[:, 1, 1] = -0.5 * v
                return out

            def gradient(self, pts):
                from stressdist._tensor import fd_gradient
                return fd_gradient(self.value, pts, 1e-6, (3, 3))

        drum = Drum()
        sigma0 = np.diag([1.0, -0.5, 0.0])
        # the two plane integrals coincide, so the difference quotient and
        # the dipole pairing both vanish (up to quadrature noise over 1/h)
        from stressdist.geometry import integrate_surface, plane_disk_interface
        vals = []
        for z in (0.05, 0.25):
            itf = plane_disk_interface(big_ball, z=z)
            vals.append(integrate_surface(
                itf, lambda b: np.einsum('ij,nij->n', sigma0,
                                         drum.value(b.points)), level=3).value)
        assert abs(vals[1] - vals[0]) < 1e-6 * max(1.0, abs(vals[0]))
        rep = dipole_limit(big_ball, sigma0, [0.2, 0.1, 0.05], tests=[drum],
                           z0=0.05)
        assert max(rep.errors[0]) < 1e-3

    def test_zero_strength(self, big_ball):
        rep = dipole_limit(big_ball, np.zeros((3, 3)), [0.2, 0.1],
                           n_tests=2, seed=1)
        assert max(max(e) for e in rep.errors) == 0.0

    def test_separation_exceeding_clearance(self, big_ball):
        with pytest.raises(GeometryError):
            dipole_limit(big_ball, np.eye(3), [2.5], n_tests=1, seed=0)

    def test_asymmetric_strength_rejected(self, big_ball):
        with pytest.raises(FieldError):
            dipole_limit(big_ball, np.array([[0, 1.0, 0], [0, 0, 0], [0, 0, 0]]),
                         [0.1], n_tests=1, seed=0)


class TestReports:
    def test_report_serializes_to_json(self, big_ball, unit_sphere):
        import json
        scn = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
        rep = dilatational_residuals(scn, n=200)
        text = json.dumps(rep.to_dict(), sort_keys=True)
        back = json.loads(text)
        assert back["pass"] is True
        assert {c["id"] for c in back["conditions"]} >= {"12a", "12b", "12c",
                                                         "12d", "12b-normal"}

    def test_asymmetric_density_rejected(self, big_ball, unit_sphere):
        scn = EquilibriumScenario(
            domain=big_ball, interface=unit_sphere,
            sigma1=SurfaceField(lambda b: np.einsum(
                'ni,j->nij', b.normals, np.array([1.0, 0, 0])), 2, unit_sphere))
        with pytest.raises(FieldError):
            scn.check_symmetry()
