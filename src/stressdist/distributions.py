"""Bulk, surface, and surface-dipole distributions with their pairings.

Three families: volume densities over the domain (possibly jumping across
the interface), surface densities pairing with test values on the
interface, and dipole densities pairing with normal derivatives of tests.
Divergence and curl are defined through the pairings; the closed-form
right-hand sides (identity1_rhs / identity2_rhs) provide the independent
second evaluation path used by the verification suites.

Every pairing returns a value together with a two-level quadrature error
estimate.  Comparisons downstream use max(abs_tol, rel_tol * scale).
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import _tensor as T
from ._memo import LruMemo
from .errors import ConfigError, RankMismatchError, StressDistError
from .fields import (shaped_divergence, surface_divergence, surface_gradient,
                     surface_trace)
from .geometry import (DEFAULT_SURFACE_LEVEL, DEFAULT_VOLUME_LEVEL,
                       PairingValue, blocked_sum, boundary_force_moment,
                       curve_force_moment, support_key, support_volume_quad,
                       two_level)

ABS_TOL = 1e-7
REL_TOL = 1e-5

# extra refinement on top of the per-path defaults (CLI --refine); each
# thread or context sees only the value its own refinement() block set
_LEVEL_BOOST = contextvars.ContextVar("stressdist_level_boost", default=0)
ADAPTED_LEVEL = 1          # support-clipped quadratures resolve locally
VALUE_MEMO_SIZE = 8        # density values kept per distribution


@contextlib.contextmanager
def refinement(boost):
    """Raise every default quadrature level by ``boost`` inside the block,
    for the calling thread only."""
    token = _LEVEL_BOOST.set(int(boost))
    try:
        yield
    finally:
        _LEVEL_BOOST.reset(token)


def _lv(level, adapted):
    if level is not None:
        return level
    return (ADAPTED_LEVEL if adapted else DEFAULT_VOLUME_LEVEL) + _LEVEL_BOOST.get()


def _test_support(test):
    """(center, radius) of a compactly supported test, if it exposes one."""
    t = test
    for _ in range(6):
        if hasattr(t, 'center') and hasattr(t, 'radius'):
            return np.asarray(t.center, dtype=float), float(t.radius)
        t = getattr(t, 'base', None)
        if t is None:
            return None
    return None


def _test_breaks(test):
    """Radial structure advertised by a (wrapped) global test field."""
    t = test
    for _ in range(6):
        vb = getattr(t, 'volume_breaks', None)
        if vb is not None:
            return tuple(vb)
        t = getattr(t, 'base', None)
        if t is None:
            return None
    return None


def _volume_quad(dist, lv, support, test=None):
    """Support-adapted volume quadrature, falling back to the cached grid.

    Returns the rule and the value key of a full-domain grid, or None for
    support-clipped rules, whose bulk values are not kept (they are large
    and rarely reused).
    """
    if support is not None:
        q = support_volume_quad(dist.interface, support[0], support[1], lv)
        if q is not None:
            return q, None
        return (dist.domain.volume_quadrature(dist.interface, lv,
                                              support=support), None)
    breaks = _test_breaks(test) if test is not None else None
    if breaks:
        # the graded radial breaks already resolve the profile layers, so a
        # coarser tensor level suffices
        return dist.domain.volume_quadrature(
            dist.interface, max(lv - 1, 0),
            extra_breaks=(breaks, (), ())), (lv, breaks)
    return dist.domain.volume_quadrature(dist.interface, lv), (lv, None)


def close(lhs, rhs, abs_tol=ABS_TOL, rel_tol=REL_TOL):
    """Tolerance rule for dual-path comparisons."""
    scale = max(abs(float(lhs)), abs(float(rhs)))
    return abs(float(lhs) - float(rhs)) <= max(abs_tol, rel_tol * scale)


def _contract(a, b):
    """Full contraction of equally-shaped (N, ...) arrays -> (N,)."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise RankMismatchError(
            f"pairing shape mismatch: {a.shape} vs {b.shape}")
    if a.ndim == 1:
        return a * b
    n = a.shape[0]
    return np.einsum('nk,nk->n', a.reshape(n, -1), b.reshape(n, -1))


# ---------------------------------------------------------------------------
# the three families


class BDist:
    """Volume-density distribution over the domain."""

    family = 'B'

    def __init__(self, domain, interface, field):
        self.domain = domain
        self.interface = interface
        self.field = field
        self.rank = field.rank
        self._memo = LruMemo(VALUE_MEMO_SIZE)

    def _pair_sum(self, quad, key, method, test_value):
        """Streamed quadrature of ``field.<method> : test_value`` over a rule
        from ``_volume_quad``.

        Field values are kept whole per value key when the rule has one and
        sliced per block; on other rules both sides are evaluated one block
        at a time.
        """
        evaluate = getattr(self.field, method)
        if key is None:
            return blocked_sum(quad.weights,
                               lambda x: _contract(evaluate(x), test_value(x)),
                               quad.points)
        vals = self._memo.get((method,) + key,
                              lambda: np.asarray(evaluate(quad.points)))
        return blocked_sum(quad.weights,
                           lambda x, v: _contract(v, test_value(x)),
                           quad.points, vals)

    def pair(self, test, level=None):
        support = _test_support(test)

        def run(lv):
            q, key = _volume_quad(self, lv, support, test)
            return self._pair_sum(q, key, 'value', test.value)
        return two_level(run, _lv(level, support is not None))


class _SurfaceDist:
    """Density on the interface, evaluated once per quadrature batch."""

    def __init__(self, interface, surface_field):
        self.interface = interface
        self.density = surface_field
        self.rank = surface_field.rank
        self._memo = LruMemo(VALUE_MEMO_SIZE)

    def _values(self, batch, level, support=None):
        """Density values on ``interface.surface_quadrature(level, support)``.

        Kept per (level, support) value key, so pairings that revisit a
        batch (both levels of several tests sharing one support) evaluate
        the density once.
        """
        return self._memo.get((level, support_key(support)),
                              lambda: np.asarray(self.density.value(batch)))


class CDist(_SurfaceDist):
    """Surface-concentrated distribution on the interface."""

    family = 'C'

    def pair(self, test, level=None):
        support = _test_support(test)

        def run(lv):
            b = self.interface.surface_quadrature(lv, support=support)
            if len(b) == 0:
                return 0.0
            return blocked_sum(b.weights, None,
                               _contract(self._values(b, lv, support),
                                         test.value(b.points)))
        return two_level(run, _lv(level, support is not None))


class FDist(_SurfaceDist):
    """Surface dipole distribution: pairs with normal derivatives of tests."""

    family = 'F'

    def pair(self, test, level=None):
        support = _test_support(test)

        def run(lv):
            b = self.interface.surface_quadrature(lv, support=support)
            if len(b) == 0:
                return 0.0
            dpsi_dn = np.einsum('n...j,nj->n...', test.gradient(b.points),
                                b.normals)
            return blocked_sum(b.weights, None,
                               _contract(self._values(b, lv, support),
                                         dpsi_dn))
        return two_level(run, _lv(level, support is not None))


class CompositeDist:
    """Sum of optional bulk, surface, and dipole parts of one rank."""

    def __init__(self, b=None, c=None, f=None):
        parts = [p for p in (b, c, f) if p is not None]
        if not parts:
            raise StressDistError("composite distribution needs at least one part")
        ranks = {p.rank for p in parts}
        if len(ranks) != 1:
            raise RankMismatchError("composite parts must share one rank")
        self.b, self.c, self.f = b, c, f
        self.rank = ranks.pop()

    @property
    def parts(self):
        return [p for p in (self.b, self.c, self.f) if p is not None]

    @property
    def interface(self):
        for p in (self.c, self.f):
            if p is not None:
                return p.interface
        return self.b.interface

    @property
    def domain(self):
        return self.b.domain if self.b is not None else None

    def pair(self, test, level=None):
        out = PairingValue(0.0, 0.0)
        for p in self.parts:
            out = out + p.pair(test, **({} if level is None else {'level': level}))
        return out


def pair(dist, test, level=None):
    """Action of the distribution on a test function, with error estimate."""
    if isinstance(dist, CompositeDist):
        return dist.pair(test, level)
    if level is None:
        return dist.pair(test)
    return dist.pair(test, level=level)


# ---------------------------------------------------------------------------
# derivative wrappers for test functions


class GradTest:
    """The gradient of a test function viewed as a one-rank-higher test."""

    def __init__(self, base):
        self.base = base
        self.rank = base.rank + 1

    def value(self, pts):
        return self.base.gradient(pts)

    def gradient(self, pts):
        return self.base.hessian(pts)


class CurlTest:
    """curl of a vector test function (vector-valued)."""

    def __init__(self, base):
        if base.rank != 1:
            raise RankMismatchError("curl test needs a vector test function")
        self.base = base
        self.rank = 1

    def value(self, pts):
        return T.curl_from_gradient(self.base.gradient(pts))

    def gradient(self, pts):
        return np.einsum('ijk,nkjm->nim', T.EPS, self.base.hessian(pts))


class ColsCurlTest:
    """(curl(psi^T))^T of a tensor test: the pairing partner of tensor Curl."""

    def __init__(self, base):
        if base.rank != 2:
            raise RankMismatchError("tensor curl test needs a rank-2 test")
        self.base = base
        self.rank = 2

    def value(self, pts):
        return np.einsum('ikl,nljk->nij', T.EPS, self.base.gradient(pts))

    def gradient(self, pts):
        return np.einsum('ikl,nljkm->nijm', T.EPS, self.base.hessian(pts))


def distributional_div(dist, test, level=None):
    """Div T acting on a one-rank-lower test: -T(grad test)."""
    return -pair(dist, GradTest(test), level)


def distributional_curl(dist, test, level=None):
    """Curl T acting on a test of equal rank via the defining pairing."""
    rank = dist.rank
    if rank == 1:
        return pair(dist, CurlTest(test), level)
    if rank == 2:
        return pair(dist, ColsCurlTest(test), level)
    raise RankMismatchError("curl defined for vector and tensor distributions")


# ---------------------------------------------------------------------------
# closed-form divergence identities (dual path)


def identity1_rhs(dist, test, level=None):
    """Closed-form value of Div T(test) for each family, summed for composites.

    Requires differentiable densities; the interface term uses the jump of
    the bulk density, the surface terms use in-chart derivatives, curvature,
    and the shape operator.
    """
    if isinstance(dist, CompositeDist):
        out = PairingValue(0.0, 0.0)
        for p in dist.parts:
            out = out + identity1_rhs(p, test, level)
        return out

    support = _test_support(test)
    slevel = _lv(level, support is not None)

    if isinstance(dist, BDist):
        def run_vol(lv):
            q, key = _volume_quad(dist, lv, support, test)
            return dist._pair_sum(q, key, 'divergence', test.value)

        out = two_level(run_vol, slevel)
        if dist.interface is not None:
            def run_surf(lv):
                b = dist.interface.surface_quadrature(lv, support=support)
                if len(b) == 0:
                    return 0.0
                jn = np.einsum('n...j,nj->n...', dist.field.jump(b), b.normals)
                return blocked_sum(b.weights, None,
                                   _contract(jn, test.value(b.points)))

            out = out + two_level(run_surf, slevel)
        return out

    if isinstance(dist, CDist):
        def run(lv):
            b = dist.interface.surface_quadrature(lv, support=support)
            if len(b) == 0:
                return 0.0
            cn = np.einsum('n...j,nj->n...', dist._values(b, lv, support),
                           b.normals)
            coeff = (surface_divergence(dist.density, b)
                     - np.einsum('n...,n->n...', cn, b.kappa))
            dpsi_dn = np.einsum('n...j,nj->n...', test.gradient(b.points),
                                b.normals)
            integrand = (_contract(coeff, test.value(b.points))
                         - _contract(cn, dpsi_dn))
            return blocked_sum(b.weights, None, integrand)

        return two_level(run, slevel)

    if isinstance(dist, FDist):
        def run(lv):
            b = dist.interface.surface_quadrature(lv, support=support)
            if len(b) == 0:
                return 0.0
            f = dist._values(b, lv, support)
            grad = surface_gradient(dist.density, b)
            fn = np.einsum('n...j,nj->n...', f, b.normals)
            coeff = (surface_trace(grad, dist.rank)
                     - np.einsum('n...,n->n...', fn, b.kappa))
            dpsi_dn = np.einsum('n...j,nj->n...', test.gradient(b.points),
                                b.normals)
            hnn = np.einsum('n...jk,nj,nk->n...', test.hessian(b.points),
                            b.normals, b.normals)
            integrand = (-_contract(shaped_divergence(f, grad, b),
                                    test.value(b.points))
                         + _contract(coeff, dpsi_dn)
                         - _contract(fn, hnn))
            return blocked_sum(b.weights, None, integrand)

        return two_level(run, slevel)

    raise StressDistError(f"unknown distribution type {type(dist)!r}")


def identity2_rhs(dist, gfield, level=None):
    """Closed-form value of T(grad u) for tensor distributions.

    Includes the boundary sums weighted by the constants of the gradient
    test field: bulk flux through each boundary component, and line
    integrals along the interface boundary curves with the in-plane
    conormal.
    """
    if isinstance(dist, CompositeDist):
        out = PairingValue(0.0, 0.0)
        for p in dist.parts:
            out = out + identity2_rhs(p, gfield, level)
        return out

    if dist.rank != 2:
        raise RankMismatchError("identity 2 applies to tensor distributions")
    constants = gfield.constants
    full_level = _lv(level, False)

    if isinstance(dist, BDist):
        def run_vol(lv):
            q, key = _volume_quad(dist, lv, None, gfield)
            return -dist._pair_sum(q, key, 'divergence', gfield.u)

        out = two_level(run_vol, full_level)
        if dist.interface is not None:
            def run_surf(lv):
                b = dist.interface.surface_quadrature(lv)
                jn = np.einsum('nij,nj->ni', dist.field.jump(b), b.normals)
                return -blocked_sum(b.weights, None,
                                    _contract(jn, gfield.u(b.points)))

            out = out + two_level(run_surf, full_level)
        bsum = 0.0
        for i, ci in enumerate(constants):
            if np.linalg.norm(ci) > 0.0:
                force, _ = boundary_force_moment(dist.domain, i, dist.field,
                                                 full_level)
                bsum += float(ci @ force)
        return out + PairingValue(bsum, 0.0)

    interface = dist.interface
    _check_curve_data(interface, constants)

    if isinstance(dist, CDist):
        def run(lv):
            b = interface.surface_quadrature(lv)
            cn = np.einsum('nij,nj->ni', dist._values(b, lv), b.normals)
            coeff = surface_divergence(dist.density, b) - b.kappa[:, None] * cn
            du_dn = np.einsum('nij,nj->ni', gfield.value(b.points), b.normals)
            integrand = (-_contract(coeff, gfield.u(b.points))
                         + _contract(cn, du_dn))
            return blocked_sum(b.weights, None, integrand)

        sigma1, sigma2 = dist.density, None
    elif isinstance(dist, FDist):
        def run(lv):
            b = interface.surface_quadrature(lv)
            f = dist._values(b, lv)
            grad = surface_gradient(dist.density, b)
            fn = np.einsum('nij,nj->ni', f, b.normals)
            coeff = surface_trace(grad, 2) - b.kappa[:, None] * fn
            du_dn = np.einsum('nij,nj->ni', gfield.value(b.points), b.normals)
            hnn = np.einsum('nijk,nj,nk->ni', gfield.gradient(b.points),
                            b.normals, b.normals)
            integrand = (_contract(shaped_divergence(f, grad, b),
                                   gfield.u(b.points))
                         - _contract(coeff, du_dn)
                         + _contract(fn, hnn))
            return blocked_sum(b.weights, None, integrand)

        sigma1, sigma2 = None, dist.density
    else:
        raise StressDistError(f"unknown distribution type {type(dist)!r}")

    csum = 0.0
    for i, ci in enumerate(constants):
        if np.linalg.norm(ci) > 0.0:
            force, _ = curve_force_moment(interface, i, sigma1, sigma2)
            csum += float(ci @ force)
    return two_level(run, full_level) + PairingValue(csum, 0.0)


def _check_curve_data(interface, constants):
    """A non-closed interface pairing against nonzero boundary constants
    must carry its boundary-curve data."""
    if interface.closed or interface.boundary_curves:
        return
    for i, ci in enumerate(constants):
        if i > 0 and np.linalg.norm(ci) > 0:
            raise ConfigError(
                f"interface carries no curve data for boundary component {i}")


# ---------------------------------------------------------------------------
# mollification and the Cauchy flux map


def _gauss_profile(s, rho):
    core = np.exp(-0.5 * (s / rho) ** 2) / (rho * np.sqrt(2.0 * np.pi))
    return np.where(np.abs(s) <= 6.0 * rho, core, 0.0)


def _gauss_profile_dneg(s, rho):
    """-d/ds of the Gaussian profile (dipole mollifier)."""
    return _gauss_profile(s, rho) * s / rho ** 2


def mollified_pair(dist, test, rho, domain=None, level=None):
    """Pairing with surface parts replaced by Gaussian layers of width rho.

    Bulk parts are already functions and pair exactly.  The surface part
    becomes a volume density c(project(x)) g_rho(s(x)); the dipole part
    uses the negative derivative of the profile.  Errors if the truncated
    layer (6 rho) does not fit inside the domain.
    """
    if isinstance(dist, CompositeDist):
        out = PairingValue(0.0, 0.0)
        for p in dist.parts:
            out = out + mollified_pair(p, test, rho, domain, level)
        return out

    if isinstance(dist, BDist):
        return dist.pair(test) if level is None else dist.pair(test, level=level)

    if domain is None:
        raise ConfigError("mollified surface pairings need the domain")
    interface = dist.interface
    if 6.0 * rho >= domain.clearance(interface):
        raise StressDistError(
            f"mollifier width {rho} too large: truncated layer leaves the domain")

    profile = _gauss_profile if isinstance(dist, CDist) else _gauss_profile_dneg
    support = _test_support(test)
    vlevel = _lv(level, support is not None)
    breaks = domain.level_breaks(
        interface, np.array([-6.0, -2.0, 0.0, 2.0, 6.0]) * rho)

    def layer(x):
        """Mollified density paired with the test, zero off the 6 rho layer."""
        s = interface.signed_distance(x)
        active = np.abs(s) <= 6.0 * rho
        out = np.zeros(len(x))
        if np.any(active):
            pts = x[active]
            dens = dist.density.value(interface.project_batch(pts))
            out[active] = profile(s[active], rho) * _contract(
                dens, np.asarray(test.value(pts)))
        return out

    def run(lv):
        q = domain.volume_quadrature(interface, lv, extra_breaks=breaks,
                                     support=support)
        return blocked_sum(q.weights, layer, q.points)

    return two_level(run, vlevel)


@dataclass
class ConvergenceTable:
    """Mollification error against the exact pairing, by width."""

    rhos: list
    values: list
    errors: list
    exact: float
    order: float

    def rows(self):
        return list(zip(self.rhos, self.values, self.errors))


def mollify_convergence(dist, test, rhos, domain=None, level=None):
    exact = pair(dist, test, level)
    values, errors = [], []
    for rho in sorted(rhos, reverse=True):
        v = mollified_pair(dist, test, rho, domain, level)
        values.append(v.value)
        errors.append(abs(v.value - exact.value))
    rr = sorted(rhos, reverse=True)
    floor = 10.0 * max(exact.error, 1e-14 * max(1.0, abs(exact.value)))
    order = T.loglog_slope(rr, errors, floor=floor)
    return ConvergenceTable(rr, values, errors, exact.value, order)


@dataclass
class FluxReport:
    """Cauchy flux over a probe surface for a shrinking mollifier width."""

    rhos: list
    fluxes: list              # list of 3-vectors
    limit: Optional[np.ndarray]
    errors: list
    converged: bool
    order: float
    divergence_slope: float

    def rows(self):
        return [(r, f.tolist(), e) for r, f, e in
                zip(self.rhos, self.fluxes, self.errors)]


def cauchy_flux(dist, probe, rhos, domain=None, level=DEFAULT_SURFACE_LEVEL):
    """Mollified traction flux through a probe surface, tabulated in rho.

    Away from the singular support the flux converges to the bulk flux; a
    probe touching the support of a surface part inherits the mollifier
    peak and grows like 1/rho -- reported as non-convergent, never raised.
    Bulk values exactly on the probe use the two-sided average.
    """
    if not isinstance(dist, CompositeDist):
        dist = CompositeDist(**{dist.family.lower(): dist})
    batch = probe.surface_quadrature(level)

    limit = np.zeros(3)
    if dist.b is not None:
        f = dist.b.field
        s = (f.interface.signed_distance(batch.points)
             if f.interface is not None else np.ones(len(batch)))
        on = np.abs(s) < 1e-12
        vals = np.asarray(f.value(batch.points))
        if np.any(on):
            avg = 0.5 * (np.asarray(f.side_value(batch.points[on], 1))
                         + np.asarray(f.side_value(batch.points[on], -1)))
            vals[on] = avg
        tr = np.einsum('nij,nj->ni', vals, batch.normals)
        limit = blocked_sum(batch.weights, None, tr)

    rr = sorted(rhos, reverse=True)
    fluxes = []
    for rho in rr:
        total = limit.copy()
        for part, prof in ((dist.c, _gauss_profile), (dist.f, _gauss_profile_dneg)):
            if part is None:
                continue
            s = part.interface.signed_distance(batch.points)
            w = prof(s, rho)
            active = w != 0.0
            if not np.any(active):
                continue
            proj = part.interface.project_batch(batch.points[active])
            dens = part.density.value(proj)
            tr = np.einsum('nij,nj->ni', dens, batch.normals[active])
            total = total + blocked_sum(batch.weights[active] * w[active],
                                        None, tr)
        fluxes.append(total)

    scale = max(1.0, float(np.linalg.norm(limit)))
    errors = [float(np.linalg.norm(f - limit)) for f in fluxes]
    mags = [float(np.linalg.norm(f)) for f in fluxes]
    err_slope = T.loglog_slope(rr, errors, floor=1e-13 * scale)
    mag_slope = T.loglog_slope(rr, mags, floor=1e-13 * scale)
    tiny = errors[-1] <= 1e-8 * scale
    decreasing = errors[-1] <= errors[0] + 1e-13 * scale
    converged = tiny or (decreasing and (np.isnan(err_slope) or err_slope >= 0.9))
    return FluxReport(rhos=rr, fluxes=fluxes,
                      limit=limit if converged else None,
                      errors=errors, converged=bool(converged),
                      order=err_slope, divergence_slope=mag_slope)


def pairing_table(dist, tests, level=None):
    """Rows (test id, value, error) for CSV export of a pairing batch."""
    rows = []
    for j, t in enumerate(tests):
        v = pair(dist, t, level)
        rows.append((j, v.value, v.error))
    return rows
