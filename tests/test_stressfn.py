"""Double-curl stresses, density extraction, and the existence conditions."""

import gc
import json
import os
import sys
import threading

import numpy as np
import pytest
import sympy as sp

from stressdist import _tensor as T
from stressdist.catalog import kelvin_scenario, random_stress_function
from stressdist.cli import run_scenario
from stressdist.distributions import BDist, CDist, CompositeDist, FDist
from stressdist.equilibrium import bulk_residual, interface_residuals, \
    make_test_suite
from stressdist.errors import FieldError, StressDistError
from stressdist.fields import (BumpScalar, CallableField, GradientTestField,
                               PiecewiseField, Poly3, PolyField,
                               PotentialStack, RadialProfile, SurfaceField,
                               chart_derivatives, chart_tangent, make_bump,
                               make_gradient_test_field, surface_polynomial)
from stressdist.geometry import (Ball, Box, CylinderAnnulus, SphericalShell,
                                 cylinder_patch_interface,
                                 equatorial_annulus_interface,
                                 make_surface_batch, plane_disk_interface,
                                 sphere_interface)
from stressdist.stressfn import (DENSITY_SLICE, DensityTriple,
                                 ForceMomentTest, StressFunction,
                                 _axis_column, _axis_eps_x,
                                 _axis_moment_gradient,
                                 check_lemma2_conditions,
                                 curl_curl, default_lemma2_suite,
                                 extract_densities,
                                 global_conditions, lemma2_algebraic_identity,
                                 surface_curl, trace_curl_check)


def _sympy_inc(phi_exprs, x, y, z):
    eps = [[[int((i - j) * (j - k) * (k - i) / 2) for k in range(3)]
            for j in range(3)] for i in range(3)]
    syms = (x, y, z)
    out = sp.zeros(3, 3)
    for i in range(3):
        for j in range(3):
            acc = 0
            for k in range(3):
                for l in range(3):
                    for m in range(3):
                        for n in range(3):
                            e = eps[i][k][l] * eps[j][m][n]
                            if e:
                                acc += e * sp.diff(phi_exprs[l][n], syms[k],
                                                   syms[m])
            out[i, j] = acc
    return out


class TestCurlCurl:
    def test_airy_reduction(self, rng):
        f = Poly3([[2, 2, 0]], [1.0])
        comp = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                comp[i, j] = f if (i == 2 and j == 2) else Poly3.constant(0.0)
        phi = PolyField(comp, rank=2)
        pts = rng.uniform(-1, 1, (20, 3))
        sig = curl_curl(phi, pts)
        x1, x2 = pts[:, 0], pts[:, 1]
        assert np.allclose(sig[:, 0, 0], 2 * x1 ** 2, atol=1e-12)
        assert np.allclose(sig[:, 1, 1], 2 * x2 ** 2, atol=1e-12)
        assert np.allclose(sig[:, 0, 1], -4 * x1 * x2, atol=1e-12)
        assert np.allclose(sig[:, 2, 2], 0.0, atol=1e-12)
        assert np.allclose(sig[:, 0, 2], 0.0, atol=1e-12)

    def test_constant_potential(self, rng):
        comp = np.empty((3, 3), dtype=object)
        vals = rng.uniform(-1, 1, (3, 3))
        vals = 0.5 * (vals + vals.T)
        for i in range(3):
            for j in range(3):
                comp[i, j] = Poly3.constant(vals[i, j])
        sig = curl_curl(PolyField(comp, 2), rng.uniform(-1, 1, (10, 3)))
        assert np.max(np.abs(sig)) < 1e-13

    def test_against_sympy_inc(self, rng):
        phi = PolyField.random_symmetric(rng, 3)
        x, y, z = sp.symbols('x y z')

        def expr(p):
            return sum(c * x ** int(i) * y ** int(j) * z ** int(k)
                       for (i, j, k), c in zip(p.exps, p.coefs))

        exprs = [[expr(phi.components[i, j]) for j in range(3)]
                 for i in range(3)]
        inc = _sympy_inc(exprs, x, y, z)
        f = sp.lambdify((x, y, z), inc, 'numpy')
        pts = rng.uniform(-0.8, 0.8, (15, 3))
        got = curl_curl(phi, pts)
        for m, p in enumerate(pts):
            assert np.allclose(got[m], np.array(f(*p), dtype=float), atol=1e-10)

    def test_radial_potential_divergence_free(self, rng):
        # |x|^2 I as polynomials: exact double curl, exactly solenoidal
        r2 = Poly3([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [1.0, 1.0, 1.0])
        comp = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                comp[i, j] = r2 if i == j else Poly3.constant(0.0)
        phi = PolyField(comp, 2)
        sig_field = phi.inc_field()
        pts = rng.uniform(-1, 1, (50, 3))
        assert np.max(np.abs(sig_field.divergence(pts))) < 1e-12
        # finite-difference fallback agrees with the exact path
        fd_phi = CallableField(phi.value, 2)
        got_fd = curl_curl(fd_phi, pts[:5])
        assert np.max(np.abs(got_fd - sig_field.value(pts[:5]))) < 1e-4

    def test_asymmetric_potential_flagged(self, rng):
        comp = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                comp[i, j] = Poly3.constant(0.0)
        comp[0, 1] = Poly3([[0, 0, 2]], [1.0])      # asymmetric entry
        phi = PolyField(comp, 2)
        with pytest.raises(StressDistError):
            curl_curl(phi, np.array([[0.1, 0.2, 0.3]]))


class TestSurfaceCurl:
    def test_constant_on_plane(self, ball_disk):
        a = SurfaceField.constant(np.array([[1.0, 0.2, 0], [0.2, -1, 0.3],
                                            [0, 0.3, 0.5]]), 2, ball_disk)
        batch = ball_disk.samples(50)
        got = surface_curl(a, batch)
        assert np.max(np.abs(got)) < 1e-10

    def test_defining_relation(self, unit_sphere, rng):
        a = surface_polynomial(rng, 2, unit_sphere, degree=2, symmetric=False)
        batch = unit_sphere.samples(60)
        curl_a = surface_curl(a, batch)
        from stressdist.fields import surface_divergence
        from stressdist import _tensor as T
        for _ in range(10):
            d = rng.normal(size=3)
            # crossing with a fixed vector commutes with the chart
            # derivative
            crossed = SurfaceField(
                lambda b, dd=d: T.row_cross(a.value(b), dd), 2, unit_sphere,
                dchart=lambda b, axis, dd=d: T.row_cross(a.dchart(b, axis),
                                                         dd))
            rhs = surface_divergence(crossed, batch)
            lhs = np.einsum('nji,j->ni', curl_a, d)
            assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_projector_field_against_chart_fd(self, unit_sphere):
        def dchart(b, axis):
            dnn = np.einsum('ni,nj->nij', chart_tangent(b, axis)[1], b.normals)
            return -(dnn + np.swapaxes(dnn, 1, 2))

        a = SurfaceField(
            lambda b: np.eye(3) - np.einsum('ni,nj->nij', b.normals, b.normals),
            2, unit_sphere, dchart=dchart)
        batch = unit_sphere.samples(40)
        got = surface_curl(a, batch)
        # crude independent chart finite differences of div_S(a x d)
        from stressdist import _tensor as T
        patch = batch.patch
        h = 1e-5
        for i in range(3):
            d = np.zeros(3)
            d[i] = 1.0

            def f(U, V):
                b = make_surface_batch(patch, U, V)
                return T.row_cross(a.value(b), d)

            xu, xv = patch.tangents(batch.U, batch.V)
            fu = (f(batch.U + h, batch.V) - f(batch.U - h, batch.V)) / (2 * h)
            fv = (f(batch.U, batch.V + h) - f(batch.U, batch.V - h)) / (2 * h)
            from stressdist.fields import dual_tangents
            gu, gv = dual_tangents(batch)
            div = (np.einsum('nij,nj->ni', fu, gu)
                   + np.einsum('nij,nj->ni', fv, gv))
            assert np.max(np.abs(got[:, i, :] - div)) < 1e-6

    def test_chart_derivatives_taken_once(self, unit_sphere, rng):
        a = surface_polynomial(rng, 2, unit_sphere, degree=2, symmetric=False)
        axes = []

        def dchart(batch, axis):
            axes.append(axis)
            return chart_derivatives(a, batch)[axis]

        counted = SurfaceField(a.evaluator, 2, unit_sphere, dchart=dchart)
        batch = unit_sphere.samples(30)
        got = surface_curl(counted, batch)
        assert sorted(axes) == [0, 1]
        assert np.array_equal(got, surface_curl(a, batch))


class TestExtraction:
    def test_smooth_potential_no_surface_densities(self, ball, sphere_half,
                                                   rng):
        f = PolyField.random_symmetric(rng, 3)
        phi = StressFunction(f, f, sphere_half)
        triple = extract_densities(phi, sphere_half)
        batch = sphere_half.samples(80)
        assert np.max(np.abs(triple.sigma1.value(batch))) < 1e-10
        assert np.max(np.abs(triple.sigma2.value(batch))) < 1e-12

    def test_plane_tangential_jump(self, box):
        # potential jumping by c (I - n@n) across a plane: the dipole density
        # is the negative tangential projector times c, the surface density 0
        pl = box.plane_interface(0.0)
        c = 0.7
        proj = np.diag([1.0, 1.0, 0.0])
        plus = _const_polyfield(c * proj)
        minus = _const_polyfield(np.zeros((3, 3)))
        phi = StressFunction(plus, minus, pl)
        triple = extract_densities(phi, pl)
        batch = pl.samples(60)
        s2 = triple.sigma2.value(batch)
        assert np.max(np.abs(s2 - (-c) * proj)) < 1e-12
        assert np.max(np.abs(triple.sigma1.value(batch))) < 1e-9

    def test_weak_form_oracle(self, ball, sphere_half, rng):
        phi = random_stress_function(rng, sphere_half, ball, degree=3,
                                     scale=0.3)
        triple = extract_densities(phi, sphere_half)
        comp = triple.composite(ball)
        phib = BDist(ball, sphere_half, phi.pw)
        suite = make_test_suite(ball, sphere_half, 3,
                                np.random.default_rng(2), rank=2)

        class IncOfTest:
            rank = 2

            def __init__(self, base):
                self.base = base

            def value(self, pts):
                from stressdist import _tensor as T
                h = self.base.hessian(pts)
                return np.einsum('akl,bmc,qlckm->qab', T.EPS, T.EPS, h)

        for t in suite:
            lhs = comp.pair(t)
            rhs = phib.pair(IncOfTest(t))
            scale = max(1.0, abs(lhs.value))
            assert abs(lhs.value - rhs.value) < 1e-6 * scale

    def test_extracted_triple_is_equilibrated(self, ball, sphere_half, rng):
        phi = random_stress_function(rng, sphere_half, ball, degree=4,
                                     scale=0.2)
        triple = extract_densities(phi, sphere_half)
        scn = triple.scenario(ball)
        rb, rc, rd = interface_residuals(scn, n=400)
        bk, _ = bulk_residual(scn, n=300)
        assert bk < 1e-10
        assert rb < 1e-6 and rc < 1e-7 and rd < 1e-10

    def test_one_potential_jet_per_batch(self, ball, sphere_half, rng):
        phi = random_stress_function(rng, sphere_half, ball, degree=3,
                                     scale=0.2)
        calls = []
        for side in (phi.pw.plus, phi.pw.minus):
            for name in ('value', 'gradient', 'hessian'):
                def counted(pts, f=getattr(side, name), name=name):
                    calls.append((name, len(pts)))
                    return f(pts)
                setattr(side, name, counted)
        triple = extract_densities(phi, sphere_half)
        fine = sphere_half.surface_quadrature(1)
        n = len(fine)
        assert n > DENSITY_SLICE            # the Hessian runs in slices
        for field in (triple.sigma1, triple.sigma2):
            field.value(fine)
            chart_derivatives(field, fine)
        assert sorted(c for c in calls if c[0] != 'hessian') == \
            [('gradient', n)] * 2 + [('value', n)] * 2
        hessian = [m for name, m in calls if name == 'hessian']
        assert sum(hessian) == 2 * n and max(hessian) <= DENSITY_SLICE
        # values alone never evaluate the Hessian
        calls.clear()
        coarse = sphere_half.surface_quadrature(0)
        triple.sigma1.value(coarse)
        triple.sigma2.value(coarse)
        assert sorted(calls) == [('gradient', len(coarse))] * 2 + \
            [('value', len(coarse))] * 2

    def test_concurrent_batches_keep_their_own_values(self, ball, sphere_half,
                                                      rng):
        phi = random_stress_function(rng, sphere_half, ball, degree=3,
                                     scale=0.2)
        batches = [sphere_half.surface_quadrature(0),
                   sphere_half.surface_quadrature(1),
                   sphere_half.samples(50), sphere_half.samples(70)]

        def read(triple, b):
            return triple.sigma1.value(b), triple.sigma2.dchart(b, 0)

        serial = extract_densities(phi, sphere_half)
        want = [read(serial, b) for b in batches]
        shared = extract_densities(phi, sphere_half)
        wrong = []

        def work(i):
            for r in range(40):
                k = (i + r) % len(batches)
                try:
                    got = read(shared, batches[k])
                except Exception as exc:    # a torn memo mixes shapes
                    wrong.append((k, exc))
                    continue
                if not all(np.array_equal(a, b) for a, b in zip(got, want[k])):
                    wrong.append(k)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(i,))
                       for i in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not wrong

    def test_sides_without_hessian_rejected(self, sphere_half, rng):
        f = PolyField.random_symmetric(rng, 2)
        for plus, minus in ((CallableField(f.value, 2), f),
                            (f, CallableField(f.value, 2))):
            phi = StressFunction(plus, minus, sphere_half)
            with pytest.raises(FieldError, match="hessian"):
                extract_densities(phi, sphere_half)

    def test_sigma2_kills_normal(self, ball, sphere_half, rng):
        phi = random_stress_function(rng, sphere_half, ball, degree=4)
        triple = extract_densities(phi, sphere_half)
        batch = sphere_half.samples(300)
        s2n = np.einsum('nij,nj->ni', triple.sigma2.value(batch),
                        batch.normals)
        assert np.max(np.abs(s2n)) < 1e-10


def _const_polyfield(mat):
    comp = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            comp[i, j] = Poly3.constant(float(mat[i, j]))
    return PolyField(comp, 2)


class TestLemma2AndGlobal:
    def test_sufficiency(self, ball, shell, sphere_half, shell_sphere, rng):
        for dom, itf in ((ball, sphere_half), (shell, shell_sphere)):
            phi = random_stress_function(rng, itf, dom, degree=3, scale=0.2)
            triple = extract_densities(phi, itf)
            checks = check_lemma2_conditions(triple.composite(dom), dom)
            assert all(c.passed for c in checks)
            assert max(abs(c.residual) for c in checks) < 1e-6
            gc = global_conditions(triple, dom)
            assert gc.passed

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_annulus_triple_global_conditions(self, shell, annulus, seed):
        # open interface: the curve terms of sigma1 and sigma2, with the
        # dipole couple n x (sigma2 nu), close both components
        phi = random_stress_function(np.random.default_rng(seed), annulus,
                                     shell, degree=3, scale=0.2)
        gc = global_conditions(extract_densities(phi, annulus), shell,
                               tol=1e-6)
        assert max(np.linalg.norm(v) for v in gc.forces + gc.moments) <= 1e-6

    def test_kelvin_necessity_witness(self, shell):
        scn = kelvin_scenario(shell, force=[0, 0, 1.0], nu=0.25)
        dist = CompositeDist(b=BDist(shell, None, scn.sigma))
        checks = check_lemma2_conditions(dist, shell)
        assert not all(c.passed for c in checks)
        vals = {c.id: c.residual for c in checks}
        assert abs(vals["force:component1-e2"] + 1.0) < 1e-3
        gc = global_conditions(scn.sigma, shell)
        assert not gc.passed
        assert np.linalg.norm(gc.forces[1] - [0, 0, -1.0]) < 1e-4
        assert np.linalg.norm(gc.moments[1]) < 1e-8
        # the two failure magnitudes agree: both are the net force component
        assert abs(abs(vals["force:component1-e2"])
                   - np.linalg.norm(gc.forces[1])) < 1e-4

    def test_ball_interior_suite(self, ball, rng):
        # divergence-free smooth stress on a single-component domain passes
        phi = PolyField.random_symmetric(rng, 3, scale=0.3)
        sig = PiecewiseField.smooth(phi.inc_field(), 2)
        dist = CompositeDist(b=BDist(ball, None, sig))
        checks = check_lemma2_conditions(dist, ball)
        assert all(c.passed for c in checks)
        assert any("interior" in c.id for c in checks)
        assert all("estimate" in c.to_dict() for c in checks)

    def test_non_curl_free_suite_rejected(self, ball, rng):
        sig = PiecewiseField.smooth(
            PolyField.random_symmetric(rng, 2).inc_field(), 2)
        dist = CompositeDist(b=BDist(ball, None, sig))

        class Crooked:
            rank = 2
            constants = [np.zeros(3)]

            def u(self, pts):
                return np.zeros((len(pts), 3))

            def value(self, pts):
                out = np.zeros((len(pts), 3, 3))
                out[:, 0, 1] = pts[:, 2]
                return out

            def gradient(self, pts):
                from stressdist._tensor import fd_gradient
                return fd_gradient(self.value, pts, 1e-5, (3, 3))

            def curl_residual(self, pts):
                return 1.0

        with pytest.raises(FieldError):
            check_lemma2_conditions(dist, ball, suite=[("bad", Crooked())])

    def test_non_gradient_members_rejected(self, ball, rng):
        # the conditions pair curl-free tests c (x) grad phi: a tensor bump
        # is no such member, and a potential with a skew Hessian gives a
        # member that is not curl-free
        dist = CompositeDist(b=BDist(ball, None, PiecewiseField.smooth(
            PolyField.random_symmetric(rng, 2).inc_field(), 2)))
        bump = make_bump(ball, [0.0, 0.0, 0.2], 0.4, rank=2, rng=rng)
        with pytest.raises(FieldError, match="gradient test field"):
            check_lemma2_conditions(dist, ball, suite=[("bump", bump)])

        class Skew:
            def gradient(self, pts):
                return np.zeros((len(pts), 3))

            def hessian(self, pts):
                out = np.zeros((len(pts), 3, 3))
                out[:, 0, 1] = 1.0
                return out

        skew = GradientTestField([1.0, 0.0, 0.0], Skew(), [np.zeros(3)])
        with pytest.raises(FieldError, match="not curl-free"):
            check_lemma2_conditions(dist, ball, suite=[("skew", skew)])

    def test_zero_stress_global(self, shell):
        zero = PiecewiseField.smooth(_const_polyfield(np.zeros((3, 3))), 2)
        gc = global_conditions(zero, shell)
        assert gc.passed
        for force in gc.forces:
            assert np.linalg.norm(force) == 0.0

    def test_moment_translation_covariance(self, shell):
        scn = kelvin_scenario(shell, force=[0, 0, 1.0])
        a = np.array([0.3, -0.2, 0.5])
        g0 = global_conditions(scn.sigma, shell)
        ga = global_conditions(scn.sigma, shell, origin=a)
        for f0, m0, ma in zip(g0.forces, g0.moments, ga.moments):
            # moment about the shifted origin loses a x force
            expected = m0 - np.cross(a, f0)
            assert np.linalg.norm(ma - expected) < 1e-9
        assert g0.passed == ga.passed

    def test_moment_pair_matches_global_moment(self, shell):
        # the x-weighted pairing of the Kelvin field reproduces the moment
        scn = kelvin_scenario(shell, force=[0.3, 0, 1.0])
        dist = CompositeDist(b=BDist(shell, None, scn.sigma))
        gm = {c.id: c.residual for c in check_lemma2_conditions(dist, shell)}
        gc = global_conditions(scn.sigma, shell)
        inner_moment = gc.moments[1]
        got = np.array([gm[f"moment:component1-e{d}"] for d in range(3)])
        assert np.linalg.norm(got - inner_moment) < 1e-6


def _signed_zeros(rng, *arrays):
    for a in arrays:                  # exact zeros of both signs
        a[rng.random(a.shape) < 0.1] = 0.0
        a[rng.random(a.shape) < 0.1] = -0.0


def _eps_einsum(x, psi, dpsi=None):
    """The moment column eps_ipq x_p psi_ij of a test (oracle), or with
    its gradient dpsi the column's gradient
    eps_ikq psi_ij + eps_ipq x_p d_k psi_ij."""
    if dpsi is None:
        return np.einsum('ipq,np,nij->njq', T.EPS, x, psi)
    out = np.einsum('ikq,nij->njqk', T.EPS, psi)
    out += np.einsum('ipq,np,nijk->njqk', T.EPS, x, dpsi)
    return out


class TestMomentTest:
    @pytest.mark.parametrize("n", [1, 2000])
    def test_axis_columns_match_eps_einsum_bit_for_bit(self, rng, n):
        # e_d (x) w: the rank-one columns equal the epsilon einsum on the
        # dense test, zero signs and memory layout included (so reductions
        # over trailing axes sum alike)
        x = rng.normal(size=(n, 3))
        stack = rng.normal(size=(n, 3, 3))
        hstack = rng.normal(size=(n, 3, 3, 3))
        _signed_zeros(rng, x, stack, hstack)
        for d in range(3):
            e = np.eye(3)[d]
            w, h = stack[:, d], hstack[:, d]     # strided, as from a stack
            psi = np.einsum('i,nj->nij', e, w)
            dpsi = np.einsum('i,njk->nijk', e, h)
            for got, want in (
                    (_axis_column(d, w), psi), (_axis_column(d, h), dpsi),
                    (_axis_eps_x(x, d, w), _eps_einsum(x, psi)),
                    (_axis_moment_gradient(x, d, w, h),
                     _eps_einsum(x, psi, dpsi))):
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()
                assert got.strides == want.strides


class _Moment:
    """Moment partner of a test: eps_ipq x_p psi_ij (oracle)."""

    def __init__(self, base):
        self.base = base

    def value(self, pts):
        return _eps_einsum(pts, np.asarray(self.base.value(pts)))

    def gradient(self, pts):
        return _eps_einsum(pts, np.asarray(self.base.value(pts)),
                           np.asarray(self.base.gradient(pts)))


def _pairs(dist, test):
    """(value, error) of each column of a pairing (one for a plain test)."""
    values = dist.pair(test)
    if not isinstance(values, tuple):
        values = (values,)
    return [(v.value, v.error) for v in values]


class TestForceMomentTest:
    @pytest.fixture(scope="class")
    def ball_comp(self, ball, sphere_half):
        phi = random_stress_function(np.random.default_rng(3), sphere_half,
                                     ball, degree=3, scale=0.3)
        return extract_densities(phi, sphere_half).composite(ball)

    @pytest.fixture(scope="class")
    def shell_comp(self, shell, shell_sphere):
        phi = random_stress_function(np.random.default_rng(5), shell_sphere,
                                     shell, degree=3, scale=0.2)
        return extract_densities(phi, shell_sphere).composite(shell)

    def test_columns_equal_separate_pairings_bit_for_bit(self, ball_comp,
                                                          ball, rng):
        (_, g), = default_lemma2_suite(ball, np.random.default_rng(4))[:1]
        # a support that misses the interface: empty surface rules
        away = make_gradient_test_field(ball, [np.zeros(3)], rng=rng,
                                        center=[0.0, 0.0, 0.75], radius=0.15,
                                        direction=[0.0, 1.0, 0.0])
        for test in (g, away):
            force, moment = ball_comp.pair(ForceMomentTest(test))
            for got, want in ((force, ball_comp.pair(test)),
                              (moment, ball_comp.pair(_Moment(test)))):
                assert (got.value, got.error) == (want.value, want.error)
        assert ball_comp.c.pair(ForceMomentTest(away)) == (
            ball_comp.c.pair(away), ball_comp.c.pair(_Moment(away)))

    @pytest.mark.parametrize("geometry", ["ball", "shell"])
    def test_suite_columns_equal_member_pairings(self, request, geometry):
        # the ball's interior suite runs as one joint bump, the shell's
        # boundary-constant suite on one shared profile; each column equals
        # the member's own pairing, on B (values) and on C and F (the F part
        # pairs the gradient columns)
        domain = request.getfixturevalue(geometry)
        comp = request.getfixturevalue(geometry + "_comp")
        members = [g for _, g in default_lemma2_suite(
            domain, np.random.default_rng(4))]
        suite = ForceMomentTest(*members)
        assert len(suite._stack.potentials) == (3 if geometry == "ball"
                                                else 1)
        want = []
        for g in members:
            one = _pairs(comp, ForceMomentTest(g))
            assert one == _pairs(comp, g) + _pairs(comp, _Moment(g))
            want += one
        assert _pairs(comp, suite) == want

    @pytest.mark.parametrize("c, r", [([0.0, 0.0, 0.0], 0.55),
                                      ([0.0, 0.0, 0.75], 0.15)])
    def test_off_axis_members_share_the_walk(self, ball_comp, ball, rng,
                                             c, r):
        # members off the axes sum the axis columns in the same walk as two
        # axis members, on one joint bump; the second support misses the
        # interface, so its surface rules are empty.  Axis members keep
        # their bits; off the axes the force columns keep theirs and the
        # moment columns agree with the epsilon einsum to rounding
        c = np.array(c)

        def member(direction):
            g = GradientTestField(direction,
                                  BumpScalar(c, r, Poly3.random(rng, 2)),
                                  [np.zeros(3)])
            g.center, g.radius = c, r
            return g

        members = [member([0.0, 1.0, 0.0]), member([0.6, -0.8, 0.0]),
                   member([0.3, 0.2, -0.9]), member([0.0, 0.0, 1.0])]
        suite = ForceMomentTest(*members)
        assert suite._stack._joint is not None
        got = _pairs(ball_comp, suite)
        x = c + rng.uniform(-r, r, (4000, 3))
        values, gradients = suite.value(x), suite.gradient(x)
        for i, g in enumerate(members):
            force, moment = got[2 * i:2 * i + 2]
            assert [force] == _pairs(ball_comp, g)
            v, dv = g.value(x), g.gradient(x)
            assert values[2 * i].tobytes() == v.tobytes()
            assert gradients[2 * i].tobytes() == dv.tobytes()
            (want,) = _pairs(ball_comp, _Moment(g))
            if i in (0, 3):
                assert moment == want
                continue
            for col, oracle in ((values[2 * i + 1], _eps_einsum(x, v)),
                                (gradients[2 * i + 1],
                                 _eps_einsum(x, v, dv))):
                assert np.max(np.abs(col - oracle)) <= 1e-15 * np.max(
                    np.abs(oracle))
            assert abs(moment[0] - want[0]) <= 1e-14 * max(1.0, abs(want[0]))
            assert abs(moment[1] - want[1]) <= 1e-14 * max(1.0, abs(want[1]))

    def test_stacked_potentials_bit_for_bit(self, rng):
        # each row of a stack has the bits of its potential's own call
        c, r = np.array([0.1, 0.0, -0.05]), 0.6
        bumps = [BumpScalar(c, r, Poly3.random(rng, 2)) for _ in range(3)]
        profile = RadialProfile(1.12, 1.88)
        assert PotentialStack(bumps)._joint is not None
        assert profile == RadialProfile(1.12, 1.88)
        for n in (1, 7, 9000):
            pts = rng.uniform(-1.0, 1.0, (n, 3))
            pts[:, 0] += 1.5       # through the profile's transition layer
            for potentials in (bumps, [profile], [bumps[0], profile]):
                grads, hessians = PotentialStack(potentials).orders(pts,
                                                                    (1, 2))
                for t, phi in enumerate(potentials):
                    for got, want in ((grads[:, t], phi.gradient(pts)),
                                      (hessians[:, t], phi.hessian(pts))):
                        assert got.tobytes() == np.ascontiguousarray(
                            want).tobytes()

    def test_one_pair_call_per_part_for_a_suite(self, ball_comp, ball,
                                                monkeypatch):
        # a 3-member suite on one layout is one walk: one pairing per part,
        # and the curl-free probe is drawn once
        calls = {}

        def counted(cls, name):
            orig = getattr(cls, name)

            def wrapper(*args, **kwargs):
                calls[cls.__name__ + "." + name] = calls.get(
                    cls.__name__ + "." + name, 0) + 1
                return orig(*args, **kwargs)
            monkeypatch.setattr(cls, name, wrapper)

        for cls in (BDist, CDist, FDist):
            counted(cls, "pair")
        counted(type(ball), "interior_samples")
        checks = check_lemma2_conditions(ball_comp, ball)
        assert len(checks) == 6
        assert calls == {"BDist.pair": 1, "CDist.pair": 1, "FDist.pair": 1,
                         type(ball).__name__ + ".interior_samples": 1}


def test_stress_function_run_leaves_no_reference_cycles():
    path = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios",
                        "stress-function-ball.json")
    with open(path, encoding="utf-8") as fh:
        cfg = json.load(fh)
    gc.collect()
    gc.disable()
    try:
        run_scenario(cfg)
        assert gc.collect() == 0
    finally:
        gc.enable()


class TestAlgebraicIdentities:
    def test_trace_of_curl_vanishes(self, rng):
        phis = [PolyField.random_symmetric(rng, 3) for _ in range(3)]
        pts = rng.uniform(-1, 1, (60, 3))
        assert trace_curl_check(phis, pts) < 1e-10

    def test_trace_curl_identity_potential(self, rng):
        pts = rng.uniform(-1, 1, (20, 3))
        assert trace_curl_check([_const_polyfield(np.eye(3))], pts) == 0.0

    def test_lemma2_identity_polynomial(self, rng):
        Ks = [PolyField(np.array([[Poly3.random(rng, 2) for _ in range(3)]
                                  for _ in range(3)], dtype=object), 2)
              for _ in range(3)]
        pts = rng.uniform(-1, 1, (40, 3))
        assert lemma2_algebraic_identity(Ks, pts) < 1e-11

    def test_lemma2_identity_fd_path(self, rng):
        K = PolyField(np.array([[Poly3.random(rng, 2) for _ in range(3)]
                                for _ in range(3)], dtype=object), 2)
        wrapped = CallableField(K.value, 2)
        pts = rng.uniform(-0.8, 0.8, (20, 3))
        assert lemma2_algebraic_identity([wrapped], pts) < 1e-8

    def test_identity_potential_residual_zero(self, rng):
        K = _const_polyfield(np.eye(3))
        pts = rng.uniform(-1, 1, (10, 3))
        assert lemma2_algebraic_identity([K], pts) < 1e-13


class TestStressFunctionValidation:
    def test_asymmetric_sides_rejected(self, sphere_half, rng):
        comp = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(3):
                comp[i, j] = Poly3.constant(0.0)
        comp[0, 1] = Poly3.constant(1.0)
        bad = PolyField(comp, 2)
        with pytest.raises(FieldError):
            StressFunction(bad, bad, sphere_half)


# ---------------------------------------------------------------------------
# extracted densities against their batch formulas


def _catalog_interfaces():
    """(label, domain, interface) for every catalog patch kind, both sphere
    orientations."""
    ball, shell = Ball(1.0), SphericalShell(1.0, 2.0)
    cyl, box = CylinderAnnulus(0.5, 1.5, 2.0), Box([1.0, 0.8, 1.0])
    return [("sphere+", ball, sphere_interface(0.7)),
            ("sphere-", ball, sphere_interface(0.7, orientation=-1.0)),
            ("disk", ball, plane_disk_interface(ball, z=0.2)),
            ("annulus", shell, equatorial_annulus_interface(shell)),
            ("cylinder", cyl, cylinder_patch_interface(cyl, 1.0)),
            ("rect", box, box.plane_interface(-0.1))]


CATALOG_INTERFACES = _catalog_interfaces()


def _batch_formula_densities(phi, interface):
    """(sigma1, sigma2) from the surface batch: jump and jump gradient of
    the sides, the batch normals and curvature, and ``surface_curl`` of
    (J x n)^T with its closed-form chart derivative.  The oracle for the
    world-field densities of ``extract_densities``."""
    pw = phi.pw

    def jump_gradient(b):
        return (np.asarray(pw.plus.gradient(b.points))
                - np.asarray(pw.minus.gradient(b.points)))

    def sigma2(b):
        N = T.cross_matrix(b.normals)
        return -np.einsum('nla,nlm,nmd->nad', N, pw.jump(b), N)

    def jump_cross_dchart(b, axis):
        t, dn = chart_tangent(b, axis)
        dj = np.einsum('nijk,nk->nij', jump_gradient(b), t)
        return np.swapaxes(T.row_cross(dj, b.normals)
                           + T.row_cross(pw.jump(b), dn), -1, -2)

    jump_cross = SurfaceField(
        lambda b: np.swapaxes(T.row_cross(pw.jump(b), b.normals), -1, -2),
        2, interface, dchart=jump_cross_dchart)

    def sigma1(b):
        curl = T.tensor_curl_rows_from_gradient(jump_gradient(b))
        term_a = -T.row_cross(np.swapaxes(curl, -1, -2), b.normals)
        term_c = -np.swapaxes(surface_curl(jump_cross, b), -1, -2)
        return T.sym(term_a + b.kappa[:, None, None] * sigma2(b) + term_c)

    return SurfaceField(sigma1, 2, interface), SurfaceField(sigma2, 2, interface)


@pytest.mark.parametrize("label,domain,itf", CATALOG_INTERFACES,
                         ids=[c[0] for c in CATALOG_INTERFACES])
class TestExtractedDensities:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_interface_conditions_hold_to_rounding(self, label, domain, itf,
                                                   seed):
        phi = random_stress_function(np.random.default_rng(seed), itf, domain,
                                     degree=4, scale=0.2)
        triple = extract_densities(phi, itf)
        rb, rc, rd = interface_residuals(triple.scenario(domain), n=400)
        assert rb <= 1e-12 and rc <= 1e-12 and rd <= 1e-12, (rb, rc, rd)

    def test_values_match_batch_formulas(self, label, domain, itf):
        phi = random_stress_function(np.random.default_rng(5), itf, domain,
                                     degree=4, scale=0.2)
        triple = extract_densities(phi, itf)
        batch = itf.samples(300)
        for got, want in zip((triple.sigma1, triple.sigma2),
                             _batch_formula_densities(phi, itf)):
            w = want.value(batch)
            scale = np.max(np.abs(w))
            assert scale > 1e-3
            assert np.max(np.abs(got.value(batch) - w)) <= 1e-13 * scale

    def test_dchart_matches_richardson_chart_difference(
            self, label, domain, itf, chart_difference):
        phi = random_stress_function(np.random.default_rng(6), itf, domain,
                                     degree=4, scale=0.2)
        triple = extract_densities(phi, itf)
        batch = itf.samples(60)
        h = 2e-3
        for got, oracle in zip((triple.sigma1, triple.sigma2),
                               _batch_formula_densities(phi, itf)):
            for axis in (0, 1):
                coarse = chart_difference(oracle, batch, axis, h)
                fine = chart_difference(oracle, batch, axis, h / 2)
                want = (16.0 * fine - coarse) / 15.0
                assert np.max(np.abs(got.dchart(batch, axis) - want)) <= 1e-9
