"""Field evaluators, analytic derivatives, jumps, and surface operators."""

import inspect
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp
from scipy import integrate

from stressdist import _tensor as T
from stressdist import fields
from stressdist._tensor import fd_gradient
from stressdist.catalog import (_poly_times, _radial_pressure_field,
                                build_surface_tensor, build_surface_vector,
                                random_stress_function)
from stressdist.errors import FieldError, RankMismatchError
from stressdist.fields import (BumpScalar, BumpSymTensor, BumpVector,
                               CallableField, ConstantField, HessianInverseR,
                               KelvinStressField, ModulatedTest,
                               PiecewiseField, PlateauFactor, Poly3, PolyField,
                               SmoothStepProfile, SquaredDistanceFactor,
                               SurfaceField, chart_derivatives, chart_tangent,
                               dilatational_surface, dual_tangents, jump,
                               make_bump, make_gradient_test_field,
                               normal_dyad, shaped_divergence,
                               surface_divergence, surface_gradient,
                               surface_polynomial, surface_trace,
                               tangential_gradient, uniform_tension)
from stressdist.geometry import (Ball, Box, CylinderAnnulus, Interface,
                                 SphericalShell, cylinder_patch_interface,
                                 equatorial_annulus_interface,
                                 integrate_volume, plane_disk_interface,
                                 sphere_interface)
from stressdist.stressfn import extract_densities


def _rand_points(rng, n, scale=0.4, center=(0, 0, 0)):
    return np.asarray(center) + rng.uniform(-scale, scale, (n, 3))


class TestPoly3:
    def test_against_sympy(self, rng):
        x, y, z = sp.symbols('x y z')
        p = Poly3.random(rng, 3)
        expr = sum(c * x ** int(i) * y ** int(j) * z ** int(k)
                   for (i, j, k), c in zip(p.exps, p.coefs))
        f = sp.lambdify((x, y, z), expr, 'numpy')
        dfx = sp.lambdify((x, y, z), sp.diff(expr, x), 'numpy')
        pts = _rand_points(rng, 40)
        assert np.allclose(p.value(pts), f(*pts.T), atol=1e-13)
        assert np.allclose(p.derivative(0).value(pts), dfx(*pts.T), atol=1e-12)

    @pytest.mark.parametrize("rows", [3, 9])
    def test_one_point_batch_keeps_its_bits(self, rng, rows):
        # a one-point batch is evaluated as a pair: numpy would otherwise
        # run a matrix-vector product, whose sums differ in the last bits
        poly = Poly3.random(rng, 3).with_coefs(
            rng.uniform(-1, 1, (rows, 20)))
        pts = _rand_points(rng, 64, scale=1.3)
        whole = poly.value(pts)
        for i in range(len(pts)):
            one = poly.value(pts[i:i + 1])
            assert one.shape == (1, rows)
            assert one[0].tobytes() == whole[i].tobytes(), i


def _per_term(exps, coefs, pts):
    """Reference evaluator: powers per axis, one gathered monomial per term,
    then coefs @ mono.  Returns the values and sum_m |c_m mono_m|, both
    shaped (N,) + coefs.shape[:-1]."""
    exps = np.asarray(exps, dtype=int).reshape(-1, 3)
    mono = np.ones((len(exps), len(pts)))
    for ax in range(3):
        dmax = int(exps[:, ax].max(initial=0))
        pows = np.empty((dmax + 1, len(pts)))
        pows[0] = 1.0
        for k in range(1, dmax + 1):
            pows[k] = pows[k - 1] * pts[:, ax]
        mono *= pows[exps[:, ax]]
    coefs = np.asarray(coefs, dtype=float)
    return (np.moveaxis(coefs @ mono, -1, 0),
            np.moveaxis(np.abs(coefs) @ np.abs(mono), -1, 0))


def _assert_matches_per_term(p, pts):
    want, scale = _per_term(p.exps, p.coefs, pts)
    got = p.value(pts)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


class TestPolyKernel:
    """Poly3.value against the per-term loop, |delta| <= 1e-13 sum|c mono|."""

    def test_duplicate_exponents(self, rng):
        pts = _rand_points(rng, 300, scale=1.5)
        prod = _poly_times(Poly3.random(rng, 3), Poly3.random(rng, 2))
        assert len(np.unique(prod.exps, axis=0)) < len(prod.exps)
        _assert_matches_per_term(prod, pts)
        pressure = _radial_pressure_field([1.0, -0.5, 0.25, 0.125])
        p00 = pressure.components[0, 0]
        assert len(np.unique(p00.exps, axis=0)) < len(p00.exps)
        _assert_matches_per_term(p00, pts)
        want, scale = _per_term(p00.exps, p00.coefs, pts)
        got = pressure.value(pts)
        assert np.all(np.abs(got[:, 1, 1] - want) <= 1e-13 * scale)
        assert np.all(got[:, 0, 1] == 0.0)

    def test_constant_and_zero(self, rng):
        pts = _rand_points(rng, 50)
        for p in (Poly3.constant(2.5), Poly3.constant(0.0),
                  Poly3(np.zeros((0, 3), dtype=int), np.zeros(0)),
                  Poly3([[2, 0, 1], [0, 3, 0]], [0.0, 0.0])):
            _assert_matches_per_term(p, pts)
        assert np.all(Poly3.constant(2.5).value(pts) == 2.5)
        assert np.all(Poly3.constant(0.0).derivative(1).value(pts) == 0.0)

    def test_degree_six_and_sparse_terms(self, rng):
        pts = _rand_points(rng, 400, scale=1.3)
        _assert_matches_per_term(Poly3.random(rng, 6), pts)
        _assert_matches_per_term(
            Poly3([[0, 0, 6], [6, 0, 0], [2, 2, 2], [0, 5, 1]],
                  rng.uniform(-1, 1, 4)), pts)

    def test_stacked_rows(self, rng):
        pts = _rand_points(rng, 200, scale=1.2)
        base = Poly3.random(rng, 4)
        coefs = rng.uniform(-1, 1, (2, 3, len(base.exps)))
        stacked = base.with_coefs(coefs)
        assert stacked.value(pts).shape == (200, 2, 3)
        _assert_matches_per_term(stacked, pts)
        dup = Poly3([[1, 0, 0], [1, 0, 0], [0, 2, 1]],
                    rng.uniform(-1, 1, (4, 3)))
        _assert_matches_per_term(dup, pts)

    def test_negative_exponent_rejected(self):
        with pytest.raises(FieldError):
            Poly3([[0, -1, 0]], [1.0])


class TestPolyFieldKernel:
    def test_divergence_is_trace_of_gradient(self, rng):
        pts = _rand_points(rng, 200, scale=1.2)
        vec = PolyField.random_vector(rng, 4)
        ten = PolyField(np.array([[Poly3.random(rng, 3) for _ in range(3)]
                                  for _ in range(3)], dtype=object), rank=2)
        for f, sub in ((vec, 'nii->n'), (ten, 'nijj->ni')):
            want = np.einsum(sub, f.gradient(pts))
            scale = np.max(np.abs(f.gradient(pts)))
            assert np.max(np.abs(f.divergence(pts) - want)) <= 1e-13 * scale

    def test_gradient_matches_component_derivatives(self, rng):
        pts = _rand_points(rng, 150, scale=1.2)
        f = PolyField.random_symmetric(rng, 4)
        g = f.gradient(pts)
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    d = f.components[i, j].derivative(k)
                    want, scale = _per_term(d.exps, d.coefs, pts)
                    assert np.all(np.abs(g[:, i, j, k] - want) <= 1e-13 * scale)

    def test_derived_fields_are_kept(self, rng):
        f = PolyField.random_symmetric(rng, 3)
        assert f.curl_rows_field() is f.curl_rows_field()
        assert f.transpose() is f.transpose()
        assert f.inc_field() is f.inc_field()

    def test_concurrent_first_use_keeps_one_derived_field(self, rng):
        # more threads than cores race on the first inc_field(): every
        # caller must get the one field that is kept
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                f = PolyField.random_symmetric(rng, 4)
                with ThreadPoolExecutor(max_workers=8) as pool:
                    got = list(pool.map(lambda _: f.inc_field(), range(16),
                                        timeout=60))
                assert all(g is f.inc_field() for g in got)
        finally:
            sys.setswitchinterval(old)


def _radial_parts(center, radius, pts):
    d = pts - center
    q = np.einsum('ni,ni->n', d, d) / radius ** 2
    om = np.where(q < 1.0, 1.0 - q, 1.0)
    beta = np.where(q < 1.0, np.exp(1.0 - 1.0 / om), 0.0)
    b1 = -beta / om ** 2
    b2 = beta * (1.0 / om ** 4 - 2.0 / om ** 3)
    return beta, b1, b2, 2.0 * d / radius ** 2, 2.0 / radius ** 2


def _product_rule(poly, center, radius, pts):
    """psi = P beta(q): value, gradient and Hessian of one component."""
    beta, b1, b2, dq, hq = _radial_parts(center, radius, pts)
    P = poly.value(pts)
    gP = np.stack([poly.derivative(a).value(pts) for a in range(3)], axis=-1)
    hP = np.stack([np.stack([poly.derivative(a).derivative(b).value(pts)
                             for b in range(3)], axis=-1)
                   for a in range(3)], axis=-2)
    val = P * beta
    grad = beta[:, None] * gP + (P * b1)[:, None] * dq
    hess = (beta[:, None, None] * hP
            + b1[:, None, None] * (gP[:, :, None] * dq[:, None, :]
                                   + dq[:, :, None] * gP[:, None, :])
            + (P * b2)[:, None, None] * dq[:, :, None] * dq[:, None, :]
            + (P * b1)[:, None, None] * hq * np.eye(3))
    return val, grad, hess


class TestBumpKernel:
    def test_components_follow_the_product_rule(self, rng):
        c, r = np.array([0.1, -0.05, 0.2]), 0.6
        pts = _rand_points(rng, 300, scale=0.55, center=c)
        polys = [Poly3.random(rng, 3) for _ in range(6)]
        sym = np.empty((3, 3), dtype=object)
        for (i, j), p in zip(zip(*np.triu_indices(3)), polys):
            sym[i, j] = sym[j, i] = p
        cases = [(BumpScalar(c, r, polys[0]), [polys[0]], ()),
                 (BumpVector(c, r, polys[:3]), polys[:3], (3,)),
                 (BumpSymTensor(c, r, polys), list(sym.ravel()), (3, 3))]
        for bump, comps, shape in cases:
            got = (bump.value(pts), bump.gradient(pts), bump.hessian(pts))
            parts = [_product_rule(p, c, r, pts) for p in comps]
            for k, tail in enumerate(((), (3,), (3, 3))):
                want = np.stack([pt[k] for pt in parts], axis=1).reshape(
                    (len(pts),) + shape + tail)
                assert got[k].shape == want.shape
                tol = 1e-12 * (np.max(np.abs(want)) + 1.0)
                assert np.max(np.abs(got[k] - want)) <= tol

    @pytest.mark.parametrize("where", ["straddling", "one-inside",
                                       "outside", "empty"])
    def test_support_mask_matches_unmasked_formula(self, rng, where):
        # outside the support only exact zeros are written; inside, every
        # entry has the bits of the formula evaluated at all points, and
        # _components sees the same C-contiguous layout
        c, r = np.array([0.1, -0.05, 0.2]), 0.5
        pts = {"straddling": _rand_points(rng, 400, scale=0.6, center=c),
               "one-inside": np.vstack([c + 0.1, c + 1.1 * r * np.eye(3)[0],
                                        c + 2 * r, c - 2 * r]),
               "outside": c + r * (1.0 + rng.random((50, 3))),
               "empty": np.zeros((0, 3))}[where]
        polys = [Poly3.random(rng, 3) for _ in range(6)]
        d = pts - c
        q = np.einsum('ni,ni->n', d, d) / r ** 2
        inside = fields._in_support(q)
        if where == "one-inside":
            assert np.count_nonzero(inside) == 1
        for bump in (BumpScalar(c, r, polys[0]), BumpVector(c, r, polys[:3]),
                     BumpSymTensor(c, r, polys)):
            for orders in ((0,), (1,), (2,), (0, 1), (0, 1, 2)):
                want = [bump._components(a) for a in bump._inside_orders(
                    bump._value.monomials(pts), d,
                    fields._bump_radial(q, orders[-1]), orders)]
                got = bump._orders(pts, orders)
                for g, w in zip(got, want):
                    assert g.shape == w.shape and g.strides == w.strides
                    assert g.flags.c_contiguous == w.flags.c_contiguous
                    # + 0.0 equates the signed zeros of P * 0 outside
                    assert np.array_equal((g + 0.0).view(np.uint64),
                                          (w + 0.0).view(np.uint64))
                    assert not np.any(g[~inside])

    def test_polynomial_rows_run_inside_the_support_only(self, rng,
                                                         monkeypatch):
        c, r = np.array([0.1, -0.05, 0.2]), 0.5
        pts = _rand_points(rng, 400, scale=0.6, center=c)
        inside = np.count_nonzero(
            fields._in_support(np.sum((pts - c) ** 2, axis=1) / r ** 2))
        assert 1 < inside < len(pts)
        real, sizes = Poly3.monomials, []

        def counting(self, x):
            sizes.append(len(x))
            return real(self, x)

        monkeypatch.setattr(Poly3, 'monomials', counting)
        bump = BumpSymTensor(c, r, [Poly3.random(rng, 3) for _ in range(6)])
        bump.value(pts)
        bump.jet(pts, 2)
        bump.value(c + 2 * r + pts[:5])
        assert sizes == [inside, inside]

    def test_shared_polynomials_compile_once(self, ball, rng):
        t = make_bump(ball, [0.0, 0.0, 0.0], 0.5, rank=2, rng=rng)
        assert t._value.coefs.shape[0] == 6      # one row per distinct poly
        tv = t.value(_rand_points(rng, 40, scale=0.45))
        assert np.array_equal(tv, np.swapaxes(tv, -1, -2))


def _same_array(got, want):
    """Equal shape, strides and bytes."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape and got.strides == want.strides
    assert got.tobytes() == want.tobytes()


class TestSharedTables:
    """One monomial table per node batch, to which each polynomial applies
    its own rows: every result has the bits and strides of its own call."""

    @pytest.mark.parametrize("rows", [(), (4,), (3, 3)])
    def test_a_subset_of_the_table_gives_the_subset_values(self, rng, rows):
        p = Poly3.random(rng, 3)
        poly = p.with_coefs(rng.normal(size=rows + (len(p.exps),)))
        other = poly.with_coefs(rng.normal(size=(2, len(p.exps))))
        x = _rand_points(rng, 300)
        table = poly.monomials(x)
        for idx in (np.arange(300), np.flatnonzero(x[:, 0] > 0.1),
                    np.array([17]), np.array([], dtype=int)):
            sub = np.take(table, idx, axis=1)
            _same_array(poly.apply(sub), poly.value(x[idx]))
            _same_array(other.apply(sub), other.value(x[idx]))

    @pytest.mark.parametrize("rank", [1, 2])
    def test_polyfield_value_and_divergence(self, rng, rank):
        f = (PolyField.random_vector(rng, 3) if rank == 1
             else PolyField.random_symmetric(rng, 3))
        for n in (200, 1):
            x = _rand_points(rng, n)
            value, div = f.value_and_divergence(x)
            _same_array(value, f.value(x))
            _same_array(div, f.divergence(x))

    def test_piecewise_value_and_divergence(self, rng):
        # a lone plus-side node among minus-side ones, and a side without
        # value_and_divergence (a constant)
        itf = sphere_interface(0.5)
        inner = _rand_points(rng, 60, scale=0.25)
        lone = np.vstack([inner[:30], [[0.0, 0.7, 0.1]], inner[30:]])
        assert np.count_nonzero(itf.signed_distance(lone) >= 0.0) == 1
        sym = PolyField.random_symmetric
        for f in (PiecewiseField(2, sym(rng, 3), sym(rng, 3), itf),
                  PiecewiseField(2, ConstantField(rng.normal(size=(3, 3)), 2),
                                 sym(rng, 3), itf),
                  PiecewiseField(1, PolyField.random_vector(rng, 3),
                                 PolyField.random_vector(rng, 3), itf),
                  PiecewiseField.smooth(sym(rng, 3), 2)):
            for x in (lone, inner, lone[30:31], _rand_points(rng, 200, 0.8)):
                value, div = f.value_and_divergence(x)
                _same_array(value, f.value(x))
                _same_array(div, f.divergence(x))

    @pytest.mark.parametrize("kind", ["scalar", "vector", "tensor", "shared"])
    @pytest.mark.parametrize("where", ["all", "some", "one", "none",
                                       "single"])
    def test_bump_value_and_gradient(self, rng, kind, where):
        c, r = np.array([0.1, -0.05, 0.2]), 0.5
        pts = {"all": _rand_points(rng, 200, scale=0.25, center=c),
               "some": _rand_points(rng, 400, scale=0.6, center=c),
               "one": np.vstack([c + 0.1, c + 2 * r, c - 2 * r,
                                 c + 1.1 * r * np.eye(3)[0]]),
               "none": c + r * (1.0 + rng.random((50, 3))),
               "single": (c + 0.1)[None]}[where]
        inside = np.count_nonzero(
            fields._in_support(np.sum((pts - c) ** 2, axis=1) / r ** 2))
        assert inside == {"all": len(pts), "one": 1, "none": 0,
                          "single": 1}.get(where, inside)
        assert where != "some" or 1 < inside < len(pts)
        polys = [Poly3.random(rng, 3) for _ in range(6)]
        bump = {"scalar": BumpScalar(c, r, polys[0]),
                "vector": BumpVector(c, r, polys[:3]),
                "tensor": BumpSymTensor(c, r, polys),
                "shared": BumpVector(c, r, [polys[0], polys[1], polys[0]])
                }[kind]
        assert (bump._pick is not None) == (kind in ("tensor", "shared"))
        value, grad = bump.value_and_gradient(pts)
        _same_array(value, bump.value(pts))
        _same_array(grad, bump.gradient(pts))


def _modulated_product_rule(base, factor, pts):
    """Value, gradient and Hessian of factor * base from separately evaluated
    parts."""
    m, gm, hm = factor.value(pts), factor.gradient(pts), factor.hessian(pts)
    v, gv, hv = base.value(pts), base.gradient(pts), base.hessian(pts)
    pad = (1,) * (v.ndim - 1)
    val = m.reshape((-1,) + pad) * v
    grad = (m.reshape((-1,) + pad + (1,)) * gv
            + v[..., None] * gm.reshape((-1,) + pad + (3,)))
    hess = (m.reshape((-1,) + pad + (1, 1)) * hv
            + gv[..., :, None] * gm.reshape((-1,) + pad + (1, 3))
            + gv[..., None, :] * gm.reshape((-1,) + pad + (3, 1))
            + v[..., None, None] * hm.reshape((-1,) + pad + (3, 3)))
    return val, grad, hess


class TestJets:
    def test_radial_factor_has_only_the_orders_used(self, ball, rng,
                                                    monkeypatch):
        real = fields._bump_radial
        orders = []

        def counting(q, order):
            out = real(q, order)
            orders.append(len(out) - 1)
            return out

        monkeypatch.setattr(fields, '_bump_radial', counting)
        t = make_bump(ball, [0.1, 0.0, 0.0], 0.5, rank=2, rng=rng)
        pts = _rand_points(rng, 50, scale=0.45, center=[0.1, 0.0, 0.0])
        t.value(pts)
        t.gradient(pts)
        t.hessian(pts)
        assert orders == [0, 1, 2]
        q = np.linspace(0.0, 1.2, 25)
        full = real(q, 2)
        for k in range(3):
            assert all(np.array_equal(a, b)
                       for a, b in zip(real(q, k), full[:k + 1]))

    def test_modulated_test_evaluates_base_and_factor_once(
            self, big_ball, unit_sphere, rng, monkeypatch):
        m = ModulatedTest(make_bump(big_ball, [1.0, 0.0, 0.2], 0.4, rank=2,
                                    rng=rng),
                          SquaredDistanceFactor(unit_sphere))
        pts = _rand_points(rng, 80, scale=0.3, center=[1.0, 0.0, 0.2])
        counts = {'poly': 0, 'distance': 0}
        poly_table = Poly3.monomials
        distance = Interface.distance_jet

        def counting_poly(self, p):
            counts['poly'] += 1
            return poly_table(self, p)

        def counting_distance(*args, **kwargs):
            counts['distance'] += 1
            return distance(*args, **kwargs)

        monkeypatch.setattr(Poly3, 'monomials', counting_poly)
        monkeypatch.setattr(Interface, 'distance_jet', counting_distance)
        for meth in ('value', 'gradient', 'hessian'):
            counts.update(poly=0, distance=0)
            getattr(m, meth)(pts)
            assert counts == {'poly': 1, 'distance': 1}, meth

    def test_modulated_test_matches_the_product_rule(self, big_ball, rng):
        from stressdist.geometry import plane_disk_interface
        c = [1.0, 0.0, 0.2]
        pts = _rand_points(rng, 200, scale=0.35, center=c)
        for itf in (sphere_interface(1.0), plane_disk_interface(big_ball, 0.1)):
            for rank in (0, 1, 2):
                base = make_bump(big_ball, c, 0.4, rank=rank, rng=rng)
                factor = SquaredDistanceFactor(itf)
                m = ModulatedTest(base, factor)
                got = (m.value(pts), m.gradient(pts), m.hessian(pts))
                for g, w in zip(got, _modulated_product_rule(base, factor,
                                                             pts)):
                    assert g.shape == w.shape
                    assert np.max(np.abs(g - w)) <= 1e-14 * np.max(np.abs(w))


class TestBumps:
    def test_normalization(self, ball):
        psi = make_bump(ball, [0.0, 0.0, 0.0], 0.9)
        assert abs(psi.value(np.zeros((1, 3)))[0] - 1.0) < 1e-14
        far = np.array([[0.95, 0.0, 0.0], [0.0, -0.93, 0.1]])
        assert np.all(psi.value(far) == 0.0)

    def test_gradient_zero_at_center(self, ball):
        psi = make_bump(ball, [0.1, 0.0, 0.0], 0.5)
        g = psi.gradient(np.array([[0.1, 0.0, 0.0]]))
        assert np.linalg.norm(g) < 1e-14

    def test_integral_against_adaptive_oracle(self, ball):
        psi = make_bump(ball, [0.0, 0.0, 0.0], 0.8)
        r = 0.8
        ref = 4 * np.pi * integrate.quad(
            lambda s: s ** 2 * np.exp(1 - 1 / (1 - (s / r) ** 2)) if s < r else 0.0,
            0, r, epsabs=1e-14, limit=200)[0]
        # refinement converges toward the oracle, and the error estimate is
        # honest at both levels
        errs = []
        for level in (2, 3):
            got = integrate_volume(ball, None, psi.value, level=level)
            errs.append(abs(got.value - ref))
            assert errs[-1] <= 10 * max(got.error, 1e-12)
        assert errs[1] < errs[0] < 1e-6 * ref
        # support-edge breaks make the same integral exact
        br = sorted({r * (1 - 0.5 ** k) for k in range(7)} | {r})
        exact = integrate_volume(ball, None, psi.value, level=1,
                                 extra_breaks=(br, (), ())).value
        assert abs(exact - ref) < 1e-12 * ref

    def test_support_validation(self, ball):
        with pytest.raises(FieldError):
            make_bump(ball, [0.6, 0.0, 0.0], 0.5)

    def test_derivatives_match_fd(self, ball, rng):
        psi = make_bump(ball, [0.1, -0.05, 0.2], 0.5, rank=0, rng=rng, degree=3)
        pts = _rand_points(rng, 500, scale=0.45, center=[0.1, -0.05, 0.2])
        g = psi.gradient(pts)
        g_fd = fd_gradient(psi.value, pts, 1e-5)
        scale = np.abs(g_fd) + 1e-9
        assert np.max(np.abs(g - g_fd) / scale) < 1e-6
        h = psi.hessian(pts)
        h_fd = fd_gradient(psi.gradient, pts, 1e-5, (3,))
        scale = np.abs(h_fd) + 1e-9
        assert np.max(np.abs(h - h_fd) / scale) < 1e-5

    def test_vector_and_tensor_bumps(self, ball, rng):
        v = make_bump(ball, [0.0, 0.1, 0.0], 0.5, rank=1, rng=rng)
        t = make_bump(ball, [0.0, 0.1, 0.0], 0.5, rank=2, rng=rng)
        pts = _rand_points(rng, 200, scale=0.4, center=[0, 0.1, 0])
        gv = v.gradient(pts)
        gv_fd = fd_gradient(v.value, pts, 1e-5, (3,))
        assert np.max(np.abs(gv - gv_fd)) < 1e-6 * (np.max(np.abs(gv_fd)) + 1)
        tv = t.value(pts)
        assert np.max(np.abs(tv - np.swapaxes(tv, -1, -2))) < 1e-14
        c = v.curl(pts)
        c_fd = np.einsum('ijk,nkj->ni', _eps(), gv_fd)
        assert np.max(np.abs(c - c_fd)) < 1e-6 * (np.max(np.abs(c_fd)) + 1)

    def test_modulated_test_derivatives(self, ball, unit_sphere, rng):
        # s^2-weighted bump inside a bigger ball: still analytic derivatives
        from stressdist.geometry import Ball
        big = Ball(2.0)
        base = make_bump(big, [1.0, 0.0, 0.2], 0.4, rank=1, rng=rng)
        m = ModulatedTest(base, SquaredDistanceFactor(unit_sphere))
        pts = _rand_points(rng, 150, scale=0.3, center=[1.0, 0, 0.2])
        g = m.gradient(pts)
        g_fd = fd_gradient(m.value, pts, 1e-5, (3,))
        assert np.max(np.abs(g - g_fd)) < 1e-5 * (np.max(np.abs(g_fd)) + 1)
        h = m.hessian(pts)
        h_fd = fd_gradient(m.gradient, pts, 1e-5, (3, 3))
        assert np.max(np.abs(h - h_fd)) < 1e-4 * (np.max(np.abs(h_fd)) + 1)


class TestContractGradient:
    """``contract_gradient(C, pts)`` -> (C : grad psi, psi) against the
    gradient and the value of the same test."""

    @staticmethod
    def _check(test, C, pts):
        got, psi = test.contract_gradient(C, pts)
        g = test.gradient(pts)
        want = g.reshape(len(pts), -1) @ np.ravel(C)
        assert got.shape == (len(pts),)
        assert np.max(np.abs(got - want)) <= 1e-13 * (np.max(np.abs(want)) + 1)
        assert psi.shape == g.shape[:-1]
        assert np.max(np.abs(psi - test.value(pts))) <= 1e-14

    def test_bumps_of_every_rank(self, rng):
        # points inside and outside the support (exact zeros there)
        c, r = np.array([0.1, -0.05, 0.2]), 0.6
        pts = _rand_points(rng, 300, scale=0.55, center=c)
        polys = [Poly3.random(rng, 3) for _ in range(6)]
        for bump in (BumpScalar(c, r, polys[0]), BumpVector(c, r, polys[:3]),
                     BumpSymTensor(c, r, polys)):
            C = rng.normal(size=bump.shape + (3,))
            self._check(bump, C, pts)
            outside = np.linalg.norm(pts - c, axis=1) >= r
            assert np.any(outside)
            assert np.all(bump.contract_gradient(C, pts)[0][outside] == 0.0)

    def test_shared_polynomials(self, rng):
        # components sharing a polynomial compile it once (``_pick``); a
        # non-symmetric C must still reach each component with its own row
        c, r = np.array([0.0, 0.1, 0.0]), 0.5
        p, q = Poly3.random(rng, 2), Poly3.random(rng, 2)
        bump = BumpVector(c, r, [p, q, p])
        assert bump._pick is not None
        pts = _rand_points(rng, 200, scale=0.45, center=c)
        self._check(bump, rng.normal(size=(3, 3)), pts)

    def test_all_points_inside_and_none_inside(self, rng):
        c, r = np.zeros(3), 0.5
        bump = BumpVector(c, r, [Poly3.random(rng, 2) for _ in range(3)])
        C = rng.normal(size=(3, 3))
        self._check(bump, C, _rand_points(rng, 50, scale=0.25, center=c))
        far = _rand_points(rng, 20, scale=0.1, center=[2.0, 0.0, 0.0])
        got, psi = bump.contract_gradient(C, far)
        assert np.all(got == 0.0) and np.all(psi == 0.0)
        self._check(bump, C, np.array([[0.1, 0.0, 0.05]]))

    def test_kept_per_value_of_the_constant(self, rng):
        bump = BumpVector(np.zeros(3), 0.5,
                          [Poly3.random(rng, 2) for _ in range(3)])
        pts = _rand_points(rng, 40, scale=0.3)
        first = rng.normal(size=(3, 3))
        a = bump.contract_gradient(first, pts)[0]
        self._check(bump, first.T, pts)
        assert np.array_equal(bump.contract_gradient(first.copy(), pts)[0], a)
        assert len(bump._contractions) == 2

    def test_shape_mismatch(self, rng):
        bump = BumpVector(np.zeros(3), 0.5,
                          [Poly3.random(rng, 2) for _ in range(3)])
        with pytest.raises(RankMismatchError):
            bump.contract_gradient(np.eye(3)[0], np.zeros((2, 3)))

    def test_modulated(self, rng, unit_sphere):
        big = Ball(2.0)
        c = np.array([1.0, 0.0, 0.2])
        base = make_bump(big, c, 0.4, rank=1, rng=rng)
        pts = _rand_points(rng, 150, scale=0.3, center=c)
        C = rng.normal(size=(3, 3))
        for factor in (SquaredDistanceFactor(unit_sphere),
                       PlateauFactor(0.2, 0.1, 0.3)):
            self._check(ModulatedTest(base, factor), C, pts)

    def test_modulated_without_a_base_hook_has_none(self, rng, unit_sphere):
        base = BumpVector(np.zeros(3), 0.5,
                          [Poly3.random(rng, 2) for _ in range(3)])
        m = ModulatedTest(SimpleNamespace(rank=1, value=base.value,
                                          gradient=base.gradient),
                          SquaredDistanceFactor(unit_sphere))
        assert m.contract_gradient is None
        assert ModulatedTest(base, SquaredDistanceFactor(unit_sphere)) \
            .contract_gradient is not None


def _eps():
    e = np.zeros((3, 3, 3))
    e[0, 1, 2] = e[1, 2, 0] = e[2, 0, 1] = 1
    e[0, 2, 1] = e[2, 1, 0] = e[1, 0, 2] = -1
    return e


class TestProfiles:
    def test_smooth_step_endpoints(self):
        s = SmoothStepProfile()
        t = np.array([-0.2, 0.0, 1.0, 1.3])
        assert np.allclose(s.value(t), [0, 0, 1, 1])
        assert np.allclose(s.d1(t), 0.0)

    def test_smooth_step_derivatives_fd(self):
        s = SmoothStepProfile()
        t = np.linspace(0.05, 0.95, 41)
        h = 1e-6
        d1_fd = (s.value(t + h) - s.value(t - h)) / (2 * h)
        assert np.max(np.abs(s.d1(t) - d1_fd)) < 1e-7
        d2_fd = (s.d1(t + h) - s.d1(t - h)) / (2 * h)
        assert np.max(np.abs(s.d2(t) - d2_fd)) < 1e-6

    def test_plateau_factor(self, rng):
        m = PlateauFactor(0.0, 0.2, 0.5)
        pts = _rand_points(rng, 300, scale=0.8)
        inner = np.abs(pts[:, 2]) <= 0.2
        outer = np.abs(pts[:, 2]) >= 0.5
        vals = m.value(pts)
        assert np.allclose(vals[inner], 1.0)
        assert np.allclose(vals[outer], 0.0)
        g_fd = fd_gradient(m.value, pts, 1e-6)
        assert np.max(np.abs(m.gradient(pts) - g_fd)) < 1e-6


class TestGradientTestField:
    def test_shell_field(self, shell):
        g = make_gradient_test_field(shell, [np.zeros(3), np.array([1.0, 0, 0])])
        pts_in = np.array([[1.02, 0.0, 0.0], [0.0, 1.05, 0.0]])
        pts_out = np.array([[1.95, 0.0, 0.0], [0.0, 0.0, 1.97]])
        assert np.allclose(g.u(pts_in), [1.0, 0, 0], atol=1e-12)
        assert np.allclose(g.u(pts_out), 0.0, atol=1e-12)
        assert np.allclose(g.value(pts_in), 0.0, atol=1e-12)
        assert np.allclose(g.value(pts_out), 0.0, atol=1e-12)
        mid = np.array([[1.5, 0.0, 0.0], [0.9, 0.9, 0.3]])
        assert g.curl_residual(mid) < 1e-12

    def test_gradient_matches_fd(self, shell, rng):
        g = make_gradient_test_field(shell, [np.zeros(3), np.array([0.5, -1, 2])])
        pts = np.array([1.5, 0, 0]) + rng.uniform(-0.2, 0.2, (100, 3))
        grad_fd = fd_gradient(g.value, pts, 1e-5, (3, 3))
        assert np.max(np.abs(g.gradient(pts) - grad_fd)) < 1e-5

    def test_line_integral_gives_constant_difference(self, shell):
        c1 = np.array([1.0, 0.0, 0.0])
        g = make_gradient_test_field(shell, [np.zeros(3), c1])
        # numeric path integral of grad u along a radial ray, inner to outer
        t = np.linspace(1.01, 1.99, 4000)
        d = np.array([0.3, -0.5, 0.8])
        d /= np.linalg.norm(d)
        pts = t[:, None] * d
        integrand = np.einsum('nij,j->ni', g.value(pts), d)
        path = np.trapezoid(integrand, t, axis=0)
        assert np.allclose(path, -c1, atol=1e-6)

    def test_ball_interior_variant(self, ball, rng):
        g = make_gradient_test_field(ball, [np.zeros(3)], rng=rng,
                                     center=np.zeros(3), radius=0.5,
                                     direction=np.array([0, 0, 1.0]))
        pts = _rand_points(rng, 50, scale=0.4)
        assert g.curl_residual(pts) < 1e-12

    def test_nonzero_constant_on_single_component_rejected(self, ball):
        with pytest.raises(FieldError):
            make_gradient_test_field(ball, [np.array([1.0, 0, 0])])


class TestPiecewiseField:
    def test_jump_sphere(self, big_ball, unit_sphere):
        # 2 inside, 0 outside, outward normal: the plus side is the outside
        p = PiecewiseField(0, ConstantField(0.0, 0), ConstantField(2.0, 0),
                           unit_sphere)
        assert abs(jump(p, [1.0, 0.0, 0.0]) + 2.0) < 1e-14

    def test_jump_continuous(self, big_ball, unit_sphere):
        f = PolyField.random_vector(np.random.default_rng(0), 2)
        p = PiecewiseField(1, f, f, unit_sphere)
        assert np.linalg.norm(jump(p, [0.0, 1.0, 0.0])) < 1e-14

    def test_jump_plane(self, box):
        pl = box.plane_interface(0.0)
        above = ConstantField(np.array([0, 0, 1.0]), 1)
        below = ConstantField(np.array([0, 0, -1.0]), 1)
        b = PiecewiseField(1, above, below, pl)
        assert np.allclose(jump(b, [0.1, 0.2, 0.0]), [0, 0, 2.0], atol=1e-14)

    def test_interface_points_take_the_plus_side(self, box):
        pl = box.plane_interface(0.0)
        b = PiecewiseField(1, ConstantField(np.array([0, 0, 1.0]), 1),
                           ConstantField(np.array([0, 0, -1.0]), 1), pl)
        pts = np.array([[0.1, 0.2, 0.0], [0.3, -0.2, 1e-300],
                        [0.0, 0.0, -1e-300]])
        assert list(b.plus_side(pts)) == [True, True, False]
        assert np.array_equal(b.value(pts)[:, 2], [1.0, 1.0, -1.0])

    def test_guarded_fd_never_crosses(self, big_ball, unit_sphere):
        # sides with different polynomials behind FD-only evaluators:
        # gradients near the interface must match the one-sided analytic
        # values, since each side's stencil only ever sees its own field
        rng = np.random.default_rng(5)
        plus = PolyField.random_vector(rng, 2)
        minus = PolyField.random_vector(rng, 2)
        pw = PiecewiseField(1, CallableField(plus.value, 1),
                            CallableField(minus.value, 1), unit_sphere)
        h = pw.plus.fd_step
        pts = np.array([[1.0 + 0.5 * h, 0.0, 0.0],
                        [0.0, 1.0 - 0.5 * h, 0.0],
                        [0.0, 0.0, 1.0 + 2.1 * h]])
        got = pw.divergence(pts)
        sides = unit_sphere.side(pts)
        expect = np.where(sides >= 0, plus.divergence(pts),
                          minus.divergence(pts))
        assert np.max(np.abs(got - expect)) < 1e-8

        class ValueOnly:
            rank = 1

            def value(self, pts):
                return plus.value(pts)

        with pytest.raises(FieldError):
            PiecewiseField(1, ValueOnly(), minus, unit_sphere)


class TestSurfaceOperators:
    def test_div_constant(self, ball_disk):
        batch = ball_disk.samples(100)
        c = SurfaceField.constant(np.array([0.3, -1.0, 2.0]), 1, ball_disk)
        assert np.max(np.abs(surface_divergence(c, batch))) < 1e-10

    def test_div_normal_is_curvature(self, unit_sphere):
        batch = unit_sphere.samples(200)
        n = SurfaceField(lambda b: b.normals.copy(), 1, unit_sphere,
                         dchart=lambda b, axis: chart_tangent(b, axis)[1])
        div = surface_divergence(n, batch)
        assert np.max(np.abs(div - 2.0)) < 1e-8

    def test_div_position(self, unit_sphere, ball_disk):
        x = SurfaceField.from_world(lambda p: p.copy(), 1)
        for itf in (unit_sphere, ball_disk):
            batch = itf.samples(150)
            div = surface_divergence(x, batch)
            assert np.max(np.abs(div - 2.0)) < 1e-8

    def test_div_position_cylinder(self):
        from stressdist.geometry import CylinderAnnulus
        dom = CylinderAnnulus(0.5, 1.5, 2.0)
        itf = cylinder_patch_interface(dom, 1.0)
        batch = itf.samples(150)
        x = SurfaceField.from_world(lambda p: p.copy(), 1)
        assert np.max(np.abs(surface_divergence(x, batch) - 2.0)) < 1e-8

    def test_surface_gradient_tangential(self, unit_sphere):
        batch = unit_sphere.samples(100)
        f = SurfaceField.from_world(lambda p: p[:, 0] * p[:, 2], 0)
        g = surface_gradient(f, batch)
        normal_part = np.einsum('ni,ni->n', g, batch.normals)
        assert np.max(np.abs(normal_part)) < 1e-8

    def test_analytic_dchart_matches_fd(self, unit_sphere, rng,
                                        chart_difference_divergence):
        pf = PolyField.random_vector(rng, 3)
        with_grad = SurfaceField.from_world(pf, 1, unit_sphere)
        plain = SurfaceField(lambda b: pf.value(b.points), 1, unit_sphere)
        batch = unit_sphere.samples(120)
        d1 = surface_divergence(with_grad, batch)
        d2 = chart_difference_divergence(plain, batch)
        assert np.max(np.abs(d1 - d2)) < 1e-7

    def test_field_without_dchart_is_not_differentiated(self, unit_sphere):
        plain = SurfaceField(lambda b: b.points.copy(), 1, unit_sphere)
        batch = unit_sphere.samples(20)
        assert plain.value(batch).shape == (20, 3)
        for op in (chart_derivatives, surface_gradient, surface_divergence):
            with pytest.raises(FieldError, match="SurfaceField.from_world"):
                op(plain, batch)

    def test_from_world_evaluates_the_gradient_once_per_batch(
            self, unit_sphere, rng, monkeypatch):
        real, calls = PolyField.gradient, []

        def counting(self, pts):
            calls.append(len(pts))
            return real(self, pts)

        monkeypatch.setattr(PolyField, 'gradient', counting)
        field = surface_polynomial(np.random.default_rng(7), 2, unit_sphere,
                                   degree=2)
        batch, other = unit_sphere.samples(80), unit_sphere.samples(30)
        got = surface_divergence(field, batch)
        assert calls == [80]
        surface_divergence(field, other)
        assert calls == [80, 30]
        # both chart axes from one gradient, each axis as the chain rule
        pf = PolyField.random_symmetric(np.random.default_rng(7), 2)
        g = real(pf, batch.points)
        xu, xv = batch.patch.tangents(batch.U, batch.V)
        fu, fv = (np.einsum('n...k,nk->n...', g, t) for t in (xu, xv))
        want = surface_trace(tangential_gradient(fu, fv, dual_tangents(batch)),
                             2)
        assert got.tobytes() == want.tobytes()

    def test_from_world_gives_a_plain_evaluator_a_dchart(self, unit_sphere):
        f = SurfaceField.from_world(lambda p: p[:, 0] * p[:, 1], 0,
                                    unit_sphere)
        batch = unit_sphere.samples(50)
        xu, _ = batch.patch.tangents(batch.U, batch.V)
        want = xu[:, 0] * batch.points[:, 1] + batch.points[:, 0] * xu[:, 1]
        assert np.max(np.abs(f.dchart(batch, 0) - want)) < 1e-9


# ---------------------------------------------------------------------------
# closed-form derivatives of the catalog fields


def _sympy_gradient(exprs, x):
    """Callable pts -> (N, 3, 3, 3) gradient of a 3x3 sympy field."""
    grads = [[[sp.lambdify(x, sp.diff(exprs[i][j], x[k]), 'numpy')
               for k in range(3)] for j in range(3)] for i in range(3)]

    def ev(pts):
        out = np.empty((len(pts), 3, 3, 3))
        for i, j, k in np.ndindex(3, 3, 3):
            out[:, i, j, k] = grads[i][j][k](*pts.T)
        return out

    return ev


class TestCatalogBulkGradients:
    def _points(self, rng):
        # off the origin, where both fields are singular
        d = rng.normal(size=(40, 3))
        d /= np.linalg.norm(d, axis=1, keepdims=True)
        return d * rng.uniform(0.4, 2.0, (40, 1))

    def test_kelvin_against_sympy(self, rng):
        force, nu = np.array([0.3, -1.2, 0.7]), 0.3
        x = sp.symbols('x0:3')
        P = [-sp.Float(f) for f in force]
        r = sp.sqrt(sum(xi ** 2 for xi in x))
        Px = sum(p * xi for p, xi in zip(P, x))
        A = -1 / (8 * sp.pi * (1 - sp.Float(nu)))
        c = 1 - 2 * sp.Float(nu)
        exprs = [[A * (3 * x[i] * x[j] * Px / r ** 5
                       + c * (P[i] * x[j] + P[j] * x[i] - int(i == j) * Px)
                       / r ** 3)
                  for j in range(3)] for i in range(3)]
        field = KelvinStressField(force, nu)
        pts = self._points(rng)
        got = field.gradient(pts)
        want = _sympy_gradient(exprs, x)(pts)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale
        assert np.max(np.abs(field.divergence(pts))) < 1e-12 * scale

    def test_hessian_inverse_r_against_sympy(self, rng):
        x = sp.symbols('x0:3')
        r = sp.sqrt(sum(xi ** 2 for xi in x))
        exprs = [[1.7 * sp.diff(1 / r, x[i], x[j]) for j in range(3)]
                 for i in range(3)]
        field = HessianInverseR(1.7)
        pts = self._points(rng)
        got = field.gradient(pts)
        want = _sympy_gradient(exprs, x)(pts)
        scale = np.max(np.abs(want))
        assert np.max(np.abs(got - want)) < 1e-12 * scale
        assert np.max(np.abs(field.divergence(pts))) < 1e-12 * scale


def _catalog_patches():
    """(label, interface) for every catalog patch kind, both sphere
    orientations."""
    ball, shell = Ball(1.0), SphericalShell(1.0, 2.0)
    return [("sphere+", sphere_interface(0.7)),
            ("sphere-", sphere_interface(0.7, orientation=-1.0)),
            ("disk", plane_disk_interface(ball, z=0.2)),
            ("annulus", equatorial_annulus_interface(shell)),
            ("cylinder", cylinder_patch_interface(
                CylinderAnnulus(0.5, 1.5, 2.0), 1.0)),
            ("rect", Box([1.0, 0.8, 1.0]).plane_interface(-0.1))]


CATALOG_PATCHES = _catalog_patches()


@pytest.mark.parametrize("label,itf", CATALOG_PATCHES,
                         ids=[lab for lab, _ in CATALOG_PATCHES])
class TestCatalogSurfaceDerivatives:
    def _fields(self, itf):
        rng = np.random.default_rng(11)
        triple = extract_densities(
            random_stress_function(rng, itf, None, degree=3, scale=0.3), itf)
        return [uniform_tension(0.7, itf), dilatational_surface(-1.3, itf),
                normal_dyad([0.2, -0.5, 0.9], itf),
                SurfaceField.constant(np.array([[1.0, 0.2, 0.0],
                                                [0.2, -1.0, 0.3],
                                                [0.0, 0.3, 0.5]]), 2, itf),
                SurfaceField.constant(0.4, 0, itf),
                surface_polynomial(rng, 1, itf),
                surface_polynomial(rng, 2, itf, symmetric=False),
                build_surface_vector({"kind": "matched-dipole", "p2": 0.6},
                                     itf),
                triple.sigma1, triple.sigma2]

    def test_dchart_matches_chart_fd(self, label, itf, chart_difference):
        batch = itf.samples(90)
        for field in self._fields(itf):
            assert field.dchart is not None
            for axis in (0, 1):
                got = field.dchart(batch, axis)
                want = chart_difference(field, batch, axis)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) < 1e-8 * scale, \
                    (label, axis)

    def test_shaped_divergence_matches_fd_product(
            self, label, itf, chart_difference_divergence):
        # div_S(f grad_S n) by the product rule against the chart FD of the
        # field f grad_S n itself
        batch = itf.samples(90)
        rng = np.random.default_rng(12)
        for f in (surface_polynomial(rng, 1, itf),
                  surface_polynomial(rng, 2, itf, symmetric=False)):
            fS = SurfaceField(lambda b, f=f: np.einsum(
                'n...j,njk->n...k', f.value(b), b.shape_ops), f.rank, itf)
            got = shaped_divergence(f.value(batch), surface_gradient(f, batch),
                                    batch)
            want = chart_difference_divergence(fS, batch)
            scale = max(1.0, np.max(np.abs(want)))
            assert np.max(np.abs(got - want)) < 1e-7 * scale, label


# Every field kind the catalog builds, by builder; a new kind must be added
# here, so that no catalog path can reach the missing-dchart error.
SURFACE_KINDS = {
    build_surface_tensor: [
        {"kind": "uniform-tension", "gamma": 0.7},
        {"kind": "dilatational", "p": -1.3},
        {"kind": "normal-dyad", "a": [0.2, -0.5, 0.9]},
        {"kind": "constant", "value": [[1.0, 0.2, 0.0], [0.2, -1.0, 0.3],
                                       [0.0, 0.3, 0.5]]},
        {"kind": "polynomial", "seed": 3}],
    build_surface_vector: [
        {"kind": "constant-vector", "value": [0.3, -1.0, 2.0]},
        {"kind": "matched-dipole", "p2": 0.6},
        {"kind": "polynomial", "seed": 3}],
}


@pytest.mark.parametrize("label,itf", CATALOG_PATCHES,
                         ids=[lab for lab, _ in CATALOG_PATCHES])
def test_every_catalog_surface_field_has_a_dchart(label, itf):
    batch = itf.samples(12)
    for build, configs in SURFACE_KINDS.items():
        kinds = set(re.findall(r'kind == "([\w-]+)"', inspect.getsource(build)))
        assert kinds - {"zero"} == {c["kind"] for c in configs}, build
        assert build({"kind": "zero"}, itf) is None
        for cfg in configs:
            field = build(cfg, itf)
            assert field.dchart is not None, (label, cfg["kind"])
            chart_derivatives(field, batch)
    triple = extract_densities(
        random_stress_function(np.random.default_rng(0), itf, None), itf)
    for field in (triple.sigma1, triple.sigma2):
        assert field.dchart is not None
        chart_derivatives(field, batch)
