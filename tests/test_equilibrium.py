"""Local residuals, weak/local equivalence, and the stress-dipole limit."""

import numpy as np
import pytest
import sympy as sp

from stressdist._tensor import loglog_slope
from stressdist.catalog import (dilatational_dipole, flat_tension,
                                kelvin_scenario, soap_film)
from stressdist.equilibrium import (EquilibriumScenario, _interface_sums,
                                    _crossing_bump_geometry, bulk_residual,
                                    dipole_limit,
                                    interface_residuals, local_report,
                                    make_test_suite, weak_equals_local,
                                    weak_residuals)
from stressdist.errors import FieldError, GeometryError
from stressdist.fields import (CallableField, PiecewiseField, PolyField,
                               SurfaceField, chart_tangent,
                               dilatational_surface, normal_dyad)
from stressdist.geometry import plane_disk_interface


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


def _by_id(checks):
    return {c.id: c for c in checks}


PROJECTED_IDS = ["12a", "12b", "12b-normal", "12b-tangential", "12c",
                 "12c-normal", "12c-tangential", "12d"]


def _pressure_form(itf, batch, jump, p1, p2, b2=None):
    """Oracle for sigma = p I, sigma1 = p1 (I - n n), sigma2 = p2 (I - n n)
    with constant p1, p2 on a sphere centered at the origin or on a plane
    z = const, in closed form:

    r_b = [p] n + grad_S p1 - kappa p1 n - p2 div_S(grad_S n)
          - S grad_S p2  (the gradients vanish; div_S(grad_S n) is
          -tr(S^2) n = -(2/R^2) n on the sphere, 0 on the plane),
    r_c = grad_S p2 - kappa p2 n + b2.
    """
    x = batch.points
    if itf.kind == "sphere":
        radius = itf.params["radius"]
        n = x / radius
        kappa, trace_s2 = 2.0 / radius, 2.0 / radius ** 2
    else:
        n = np.tile([0.0, 0.0, 1.0], (len(x), 1))
        kappa = trace_s2 = 0.0
    r_b = (jump - kappa * p1 + p2 * trace_s2) * n
    r_c = -kappa * p2 * n
    if b2 is not None:
        r_c = r_c + b2.value(batch)
    return r_b, r_c


class TestDilatational:
    def test_young_laplace_pass_and_fail(self, big_ball, unit_sphere):
        good = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
        assert all(c.passed for c in local_report(good, n_surface=400))
        eps = 1e-3
        bad = soap_film(big_ball, unit_sphere, gamma=0.7,
                        pressure_jump=1.4 + eps)
        checks = _by_id(local_report(bad, n_surface=400))
        assert not checks["12b-normal"].passed
        assert abs(checks["12b-normal"].residual - eps) < 1e-9
        assert checks["12b-tangential"].passed

    def test_flat_interface_constant_p2(self, box):
        pl = box.plane_interface(0.0)
        scn = flat_tension(box, pl, gamma=0.3)
        scn.sigma2 = dilatational_surface(0.8, pl)
        checks = local_report(scn, n_surface=300)
        # flat surface, constant p2: every pressure-form condition vanishes
        assert [c.id for c in checks] == PROJECTED_IDS
        assert all(c.passed for c in checks)

    def test_sphere_dipole_needs_matched_normal_force(self, big_ball,
                                                      unit_sphere):
        scn = dilatational_dipole(big_ball, unit_sphere, gamma=0.5, p2=0.3)
        assert all(c.passed for c in local_report(scn, n_surface=400))
        batch = unit_sphere.samples(50)
        b2n = np.einsum('ni,ni->n', scn.b2.value(batch), batch.normals)
        # matched dipole force satisfies <b2, n> = kappa p2 = 2 p2 / R
        assert np.max(np.abs(b2n - 2.0 * 0.3)) < 1e-12
        scn.b2 = None
        checks = _by_id(local_report(scn, n_surface=400))
        assert abs(checks["12c-normal"].residual - 2.0 * 0.3) < 1e-12
        assert checks["12c-tangential"].residual < 1e-12

    def test_requires_dilatational_data(self, big_ball, unit_sphere):
        # the projections are reported only for a declared pressure form
        scn = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
        assert [c.id for c in local_report(scn, n_surface=100)] == \
            PROJECTED_IDS
        scn.dilatational = False
        assert [c.id for c in local_report(scn, n_surface=100)] == \
            ["12a", "12b", "12c", "12d"]

    @pytest.mark.parametrize("case", ["soap-film", "soap-film-jump-error",
                                      "dilatational-dipole", "flat-tension",
                                      "flat-tension-p2"])
    def test_kernel_sums_match_pressure_form(self, big_ball, unit_sphere,
                                             box, case):
        if case.startswith("flat"):
            itf = box.plane_interface(0.0)
            scn = flat_tension(box, itf, gamma=0.3)
            p2 = 0.8 if case.endswith("p2") else 0.0
            if p2:
                scn.sigma2 = dilatational_surface(p2, itf)
            jump, p1 = 0.0, 0.3
        elif case == "dilatational-dipole":
            itf = unit_sphere
            scn = dilatational_dipole(big_ball, itf, gamma=0.5, p2=0.3)
            jump, p1, p2 = 2.0 * 0.5 - 2.0 * 0.3, 0.5, 0.3
        else:
            itf = unit_sphere
            jump = 1.4 + (1e-3 if case.endswith("error") else 0.0)
            scn = soap_film(big_ball, itf, gamma=0.7, pressure_jump=jump)
            p1, p2 = 0.7, 0.0
        batch = itf.samples(500)
        sums = _interface_sums(scn, batch)
        r_b, r_c = _pressure_form(itf, batch, jump, p1, p2, scn.b2)
        assert np.max(np.abs(sums[0] - r_b)) <= 1e-12
        assert np.max(np.abs(sums[1] - r_c)) <= 1e-12
        assert np.max(np.abs(sums[2])) <= 1e-12


class TestWeakEqualsLocal:
    def test_equilibrated_scenarios(self, film, big_ball, unit_sphere):
        rep = weak_equals_local(film, n_suite=6, seed=3)
        assert rep.consistent
        assert all(c.passed for c in rep.weak)
        dip = dilatational_dipole(big_ball, unit_sphere, gamma=0.4, p2=0.25)
        rep2 = weak_equals_local(dip, n_suite=6, seed=4)
        assert rep2.consistent
        assert all(c.passed for c in rep2.weak)

    def test_zero_scenario(self, big_ball, unit_sphere):
        scn = EquilibriumScenario(domain=big_ball, interface=unit_sphere)
        rep = weak_equals_local(scn, n_suite=3, seed=5)
        assert rep.consistent
        assert all(c.residual == 0.0 for c in rep.weak)

    def test_perturbation_scales_linearly(self, big_ball, unit_sphere):
        rng = np.random.default_rng(7)
        tests = make_test_suite(big_ball, unit_sphere, 6, rng)
        epss = [1e-1, 1e-2, 1e-3]
        maxima = []
        for eps in epss:
            scn = soap_film(big_ball, unit_sphere, gamma=0.7,
                            pressure_jump=1.4 + eps)
            w = weak_residuals(scn, tests)
            maxima.append(max(abs(c.residual) for c in w))
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
            return max(abs(c.residual) for c in w)

        def perturb_b1(e):
            scn = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
            scn.b1 = SurfaceField(lambda b: e * b.normals.copy(), 1,
                                  unit_sphere)
            return scn

        def perturb_sigma2(e):
            scn = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
            scn.sigma2 = normal_dyad([0, 0, e], unit_sphere)
            return scn

        for make in (perturb_b1, perturb_sigma2):
            norm = calibrated_norm(lambda e=1.0: make(1.0))
            w = weak_residuals(make(eps), tests)
            assert max(abs(c.residual) for c in w) > 0.5 * eps * norm

    def test_sigma2_normal_violation_detected(self, big_ball, unit_sphere):
        # a dipole density with nonzero normal action fails the closure
        # condition and some dipole-sensitive weak residual
        def dchart(batch, axis):
            dnn = np.einsum('ni,nj->nij', chart_tangent(batch, axis)[1],
                            batch.normals)
            return dnn + np.swapaxes(dnn, 1, 2)

        scn = EquilibriumScenario(
            domain=big_ball, interface=unit_sphere,
            sigma2=SurfaceField(
                lambda b: np.einsum('ni,nj->nij', b.normals, b.normals), 2,
                unit_sphere, dchart=dchart))
        _, _, rd = interface_residuals(scn, n=200)
        assert rd > 0.99
        rep = weak_equals_local(scn, n_suite=9, seed=13)
        assert any(not c.passed for c in rep.weak)
        assert rep.consistent


class TestBumpPlacement:
    @pytest.mark.parametrize("z", [0.0, 0.5, 0.7])
    def test_plane_crossing_supports_inside_domain(self, ball, z):
        itf = plane_disk_interface(ball, z=z)
        rng = np.random.default_rng(0)
        for _ in range(40):
            c, r = _crossing_bump_geometry(ball, itf, rng)
            assert ball.contains_ball(c, r)
            assert abs(c[2] - z) < r


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

    def test_supports_off_the_mid_plane_stay_inside(self, big_ball,
                                                    monkeypatch):
        # carrier planes at z0 = 1.2: each support is placed at the planes'
        # height, so it lies inside the ball and cuts a disk from each plane
        from stressdist import equilibrium
        made = []

        class Recording(equilibrium.BumpSymTensor):
            def __init__(self, center, radius, polys):
                super().__init__(center, radius, polys)
                made.append((np.array(center), radius))

        monkeypatch.setattr(equilibrium, "BumpSymTensor", Recording)
        rep = dipole_limit(big_ball, np.diag([1.0, -0.5, 0.0]),
                           [0.2, 0.1, 0.05], z0=1.2, n_tests=10, seed=0)
        assert len(made) == 10 and len(rep.orders) == 10
        assert all(big_ball.contains_ball(c, r) for c, r in made)

    def test_lower_plane_paired_once_per_test(self, big_ball, monkeypatch):
        # the z0 pairings do not depend on h: each test's value and gradient
        # are evaluated once on the z0 plane, its value once per upper
        # plane, and each plane's support rule is built once per test; the
        # report equals re-pairing z0 for every h
        from stressdist import equilibrium
        from stressdist.geometry import Interface, VolumeQuad, blocked_sum
        made, calls, rules = [], [], []
        build = Interface.surface_quadrature

        def counted(itf, *args, **kwargs):
            rules.append(itf.value)
            return build(itf, *args, **kwargs)

        monkeypatch.setattr(Interface, "surface_quadrature", counted)

        class Counting(equilibrium.BumpSymTensor):
            def __init__(self, center, radius, polys):
                super().__init__(center, radius, polys)
                made.append(self)

            def value(self, pts):
                calls.append((self, 'value', float(pts[0, 2])))
                return super().value(pts)

            def gradient(self, pts):
                calls.append((self, 'gradient', float(pts[0, 2])))
                return super().gradient(pts)

        monkeypatch.setattr(equilibrium, "BumpSymTensor", Counting)
        sigma0 = np.diag([1.0, -0.5, 0.0])
        hs = [0.2, 0.1, 0.05]
        rep = dipole_limit(big_ball, sigma0, hs, n_tests=4, seed=3)
        assert len(made) == 4
        assert sorted(rules) == sorted([0.0] * 4 + hs * 4)
        for t in made:
            mine = sorted((m, z) for u, m, z in calls if u is t)
            assert mine == sorted([('gradient', 0.0), ('value', 0.0)]
                                  + [('value', h) for h in hs])

        def plane(z, fn, t):
            b = plane_disk_interface(big_ball, z=z).surface_quadrature(
                2, support=(t.center, t.radius))
            # fn on the whole batch, summed as given values
            return blocked_sum(VolumeQuad(points=fn(b), weights=b.weights),
                               lambda q: q.points) if len(b) else 0.0

        for j, t in enumerate(made):
            exact = plane(0.0, lambda b: np.einsum(
                'ij,nij->n', sigma0,
                np.einsum('nijk,nk->nij', t.gradient(b.points), b.normals)), t)
            conc = lambda b: np.einsum('ij,nij->n', sigma0, t.value(b.points))
            want = [abs((plane(h, conc, t) - plane(0.0, conc, t)) / h - exact)
                    for h in hs]
            assert rep.errors[j] == want

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
        checks = local_report(scn, n_surface=200)
        text = json.dumps([c.to_dict() for c in checks], sort_keys=True)
        back = json.loads(text)
        assert all(c["pass"] is True for c in back)
        assert [c["id"] for c in back] == PROJECTED_IDS

    def test_asymmetric_density_rejected(self, big_ball, unit_sphere):
        scn = EquilibriumScenario(
            domain=big_ball, interface=unit_sphere,
            sigma1=SurfaceField(lambda b: np.einsum(
                'ni,j->nij', b.normals, np.array([1.0, 0, 0])), 2, unit_sphere))
        with pytest.raises(FieldError):
            scn.check_symmetry()
