"""Bulk, surface, and surface-dipole distributions with their pairings.

Three families: volume densities over the domain (possibly jumping across
the interface), surface densities pairing with test values on the
interface, and dipole densities pairing with normal derivatives of tests.
Divergence and curl are defined through the pairings; the closed-form
right-hand sides (identity1_rhs / identity2_rhs) provide the independent
second evaluation path used by the verification suites.

Every pairing returns a value together with a two-level quadrature error
estimate.  Comparisons downstream use max(abs_tol, rel_tol * scale).  A
column test (``columns = k``; its value and gradient are k-tuples of
arrays) pairs as k tests in one walk and returns one value per column, each
summed exactly as its own pairing would be.
"""

from __future__ import annotations

import contextlib
import contextvars
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Optional

import numpy as np

from . import _tensor as T
from ._memo import LruMemo
from .errors import ConfigError, RankMismatchError, StressDistError
from .fields import (ConstantField, PiecewiseField, shaped_divergence,
                     surface_divergence, surface_gradient, surface_trace)
from .geometry import (DEFAULT_SURFACE_LEVEL, DEFAULT_VOLUME_LEVEL,
                       PairingValue, blocked_sum, boundary_force_moment,
                       curve_force_moment, support_key, support_volume_quad,
                       two_level)

ABS_TOL = 1e-7
REL_TOL = 1e-5

# extra refinement on top of every quadrature level (CLI --refine); each
# thread or context sees only the value its own refinement() block set
_LEVEL_BOOST = contextvars.ContextVar("stressdist_level_boost", default=0)
ADAPTED_LEVEL = 1          # support-clipped quadratures resolve locally
VALUE_MEMO_SIZE = 8        # density values kept per surface distribution


@contextlib.contextmanager
def refinement(boost):
    """Raise every quadrature level by ``boost`` inside the block, for the
    calling thread only; a negative boost raises ``ConfigError``."""
    if int(boost) < 0:
        raise ConfigError(f"refinement must be non-negative, got {boost!r}")
    token = _LEVEL_BOOST.set(int(boost))
    try:
        yield
    finally:
        _LEVEL_BOOST.reset(token)


def refined(level):
    """``level`` raised by the boost of the enclosing ``refinement`` block."""
    return level + _LEVEL_BOOST.get()


def _lv(level, adapted):
    """``level``, or the path default when None (``ADAPTED_LEVEL`` for
    support-clipped rules), raised by the refinement boost."""
    if level is None:
        level = ADAPTED_LEVEL if adapted else DEFAULT_VOLUME_LEVEL
    return refined(level)


def _test_layout(test):
    """(support, breaks) of a test, read along its ``base`` chain: the
    (center, radius) of a compactly supported test and the radial breaks
    advertised by a global one, each None when absent."""
    support = breaks = None
    for _ in range(6):
        if test is None:
            break
        if support is None and hasattr(test, 'center') and hasattr(test, 'radius'):
            support = (np.asarray(test.center, dtype=float), float(test.radius))
        if breaks is None and getattr(test, 'volume_breaks', None) is not None:
            breaks = tuple(test.volume_breaks)
        test = getattr(test, 'base', None)
    return support, breaks


def _volume_quad(dist, lv, support, breaks):
    """The fiber rule of a supported test, or the cached full-domain grid
    (broken at the radial ``breaks`` a global test advertises)."""
    if support is not None:
        return support_volume_quad(dist.interface, support[0], support[1], lv)
    if breaks:
        # the graded radial breaks already resolve the profile layers, so a
        # coarser tensor level suffices
        return dist.domain.volume_quadrature(
            dist.interface, max(lv - 1, 0), extra_breaks=(breaks, (), ()))
    return dist.domain.volume_quadrature(dist.interface, lv)


def close(lhs, rhs, abs_tol=ABS_TOL, rel_tol=REL_TOL):
    """Tolerance rule for dual-path comparisons."""
    scale = max(abs(float(lhs)), abs(float(rhs)))
    return abs(float(lhs) - float(rhs)) <= max(abs_tol, rel_tol * scale)


def _empty_pairing(test):
    """A pairing over a rule without nodes: one zero per test column."""
    columns = getattr(test, 'columns', None)
    return (0.0,) * columns if columns else 0.0


def _contract(a, b):
    """Full contraction of equally-shaped (N, ...) arrays -> (N,); a tuple
    ``b`` (the columns of a column test) gives one contraction each."""
    if isinstance(b, tuple):
        return tuple(_contract(a, c) for c in b)
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

    def _pair_sum(self, quad, method, test_value):
        """Streamed quadrature of ``field.<method> : test_value`` over a rule
        from ``_volume_quad``: both sides are evaluated one pool task at a
        time, and nothing is kept."""
        evaluate = getattr(self.field, method)
        return blocked_sum(quad, lambda q: _contract(evaluate(q.points),
                                                     test_value(q.points)))

    def pair(self, test, level=None):
        support, breaks = _test_layout(test)
        sides = _constant_sides(self.field, test)
        if sides is not None:
            return self._pair_constant_sides(test.base.contract_gradient,
                                             sides, support, breaks, level)

        def run(lv):
            return self._pair_sum(_volume_quad(self, lv, support, breaks),
                                  'value', test.value)
        return two_level(run, _lv(level, support is not None))

    def _pair_constant_sides(self, hook, sides, support, breaks, level):
        """``pair`` of constant sides with a gradient test: sum_side
        C_side : grad psi by the base's ``contract_gradient`` hook, on the
        rules, sum blocks and estimate of the generic path.

        Each node takes the side ``PiecewiseField.plus_side`` assigns it; a
        zero side gets exact zeros without evaluating the test, and when
        every side is zero no rule is built.
        """
        if not any(np.any(C) for C in sides):
            return PairingValue(0.0, 0.0)
        field = self.field

        def integrand(nodes):
            x = nodes.points
            if len(sides) == 1:
                return hook(sides[0], x)[0]
            plus = field.plus_side(x)
            out = np.zeros(len(x))
            for C, mask in zip(sides, (plus, ~plus)):
                if not np.any(C):
                    continue
                idx = np.flatnonzero(mask)
                if len(idx) == len(x):
                    return hook(C, x)[0]
                if len(idx):
                    out[idx] = hook(C, np.take(x, idx, axis=0))[0]
            return out

        def run(lv):
            return blocked_sum(_volume_quad(self, lv, support, breaks),
                               integrand)
        return two_level(run, _lv(level, support is not None))


def _constant_sides(field, test):
    """The constants (plus, minus) of a rank-2 ``PiecewiseField`` with
    ``ConstantField`` sides, or (value,) of one that is smooth, when
    ``test`` is the ``GradTest`` of a vector test with a
    ``contract_gradient`` hook; None for any other field or test."""
    if not (isinstance(field, PiecewiseField) and isinstance(test, GradTest)
            and test.base.rank == 1
            and getattr(test.base, 'contract_gradient', None) is not None):
        return None
    ends = ((field.plus,) if field.interface is None
            or field.minus is field.plus else (field.plus, field.minus))
    if not all(isinstance(f, ConstantField) and f.constant.shape == (3, 3)
               for f in ends):
        return None
    return tuple(f.constant for f in ends)


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

    def _pair_surface(self, test, level, partner):
        """Two-level surface quadrature of ``density : partner(batch)`` on
        the part of the interface the test can see."""
        support, _ = _test_layout(test)

        def run(lv):
            b = self.interface.surface_quadrature(lv, support=support)
            if len(b) == 0:
                return _empty_pairing(test)
            vals = _contract(self._values(b, lv, support), partner(b))
            if isinstance(vals, tuple):
                return blocked_sum(b.weights, lambda *cols: cols, *vals)
            return blocked_sum(b.weights, None, vals)
        return two_level(run, _lv(level, support is not None))


class CDist(_SurfaceDist):
    """Surface-concentrated distribution on the interface."""

    family = 'C'

    def pair(self, test, level=None):
        return self._pair_surface(test, level, lambda b: test.value(b.points))


class FDist(_SurfaceDist):
    """Surface dipole distribution: pairs with normal derivatives of tests."""

    family = 'F'

    def pair(self, test, level=None):
        return self._pair_surface(test, level,
                                  lambda b: _normal_derivative(test, b))


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

    def pair(self, test, level=None):
        return _over_parts(self, lambda p: p.pair(test, level))


def _over_parts(dist, one):
    """``one(dist)``, or its sum over the parts of a composite (per column
    for a column test)."""
    if not isinstance(dist, CompositeDist):
        return one(dist)
    values = [one(p) for p in dist.parts]
    if isinstance(values[0], tuple):
        return tuple(_sum_parts(col) for col in zip(*values))
    return _sum_parts(values)


def _sum_parts(values):
    out = PairingValue(0.0, 0.0)
    for v in values:
        out = out + v
    return out


def _normal_derivative(test, batch):
    """d_n psi of a test on a surface batch (one per column of a column
    test)."""
    grad = test.gradient(batch.points)
    if isinstance(grad, tuple):
        return tuple(np.einsum('n...j,nj->n...', g, batch.normals)
                     for g in grad)
    return np.einsum('n...j,nj->n...', grad, batch.normals)


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
    return -dist.pair(GradTest(test), level)


def distributional_curl(dist, test, level=None):
    """Curl T acting on a test of equal rank via the defining pairing."""
    rank = dist.rank
    if rank == 1:
        return dist.pair(CurlTest(test), level)
    if rank == 2:
        return dist.pair(ColsCurlTest(test), level)
    raise RankMismatchError("curl defined for vector and tensor distributions")


# ---------------------------------------------------------------------------
# closed-form divergence identities (dual path)


def interface_terms(dist, batch, values=None):
    """Coefficients (a0, a1, a2) of psi, d_n psi and d_nn psi in the
    interface part of Div T(psi) for one family, on a surface batch.

    * B: a0 = [sigma] n;
    * C (density c): a0 = div_S c - kappa c n, a1 = -c n;
    * F (density f): a0 = -div_S(f grad_S n), a1 = div_S f - kappa f n,
      a2 = -f n.

    A term the family does not have is None.  ``values`` are the density
    values on the batch (evaluated here when None); B reads the jump of
    its bulk field.
    """
    if isinstance(dist, BDist):
        return (np.einsum('n...j,nj->n...', dist.field.jump(batch),
                          batch.normals), None, None)
    if not isinstance(dist, _SurfaceDist):
        raise StressDistError(f"unknown distribution type {type(dist)!r}")
    f = np.asarray(dist.density.value(batch)) if values is None else values
    fn = np.einsum('n...j,nj->n...', f, batch.normals)
    kappa_fn = np.einsum('n...,n->n...', fn, batch.kappa)
    if isinstance(dist, CDist):
        return surface_divergence(dist.density, batch) - kappa_fn, -fn, None
    grad = surface_gradient(dist.density, batch)
    return (-shaped_divergence(f, grad, batch),
            surface_trace(grad, dist.rank) - kappa_fn, -fn)


def _divergence_terms(dist, test, support, level, bulk=None):
    """Closed-form Div T(test) of one family: the bulk divergence volume
    term (``bulk`` when the caller has summed it) plus the interface
    integral of a0 psi + a1 d_n psi + a2 d_nn psi.

    ``support`` clips the rules to a compactly supported test; None uses
    full-domain rules (with the radial breaks the test advertises).
    """
    out = bulk
    if isinstance(dist, BDist):
        _, breaks = _test_layout(test)

        def run_vol(lv):
            return dist._pair_sum(_volume_quad(dist, lv, support, breaks),
                                  'divergence', test.value)

        out = two_level(run_vol, level) if out is None else out
        if dist.interface is None:
            return out

    def run_surf(lv):
        b = dist.interface.surface_quadrature(lv, support=support)
        if len(b) == 0:
            return 0.0
        values = (None if isinstance(dist, BDist)
                  else dist._values(b, lv, support))
        a0, a1, a2 = interface_terms(dist, b, values)
        integrand = _contract(a0, test.value(b.points))
        if a1 is not None:
            integrand = integrand + _contract(a1, _normal_derivative(test, b))
        if a2 is not None:
            hnn = np.einsum('n...jk,nj,nk->n...', test.hessian(b.points),
                            b.normals, b.normals)
            integrand = integrand + _contract(a2, hnn)
        return blocked_sum(b.weights, None, integrand)

    surface = two_level(run_surf, level)
    return surface if out is None else out + surface


def identity1_rhs(dist, test, level=None):
    """Closed-form value of Div T(test) for each family, summed for composites.

    Requires differentiable densities; the interface term uses the jump of
    the bulk density, the surface terms use in-chart derivatives, curvature,
    and the shape operator (``interface_terms``).
    """
    support, _ = _test_layout(test)
    slevel = _lv(level, support is not None)
    return _over_parts(
        dist, lambda d: _divergence_terms(d, test, support, slevel))


def identity2_rhs(dist, gfield, level=None):
    """Closed-form value of T(grad u) = -Div T(u) + boundary sums, for
    tensor distributions.

    The boundary sums weight the net force on each boundary component by
    the constant of the gradient test field there: the bulk flux through
    the component for B, and the line integrals along the interface
    boundary curves (in-plane conormal) for C and F.
    """
    lv, u = _lv(level, False), _potential(gfield)
    return _over_parts(dist, lambda d: _identity2_terms(d, gfield, u, lv))


def _potential(gfield):
    """u as a test function; it has no center or radius, so even the
    interior (compactly supported) member integrates over full-domain rules."""
    return SimpleNamespace(value=gfield.u, gradient=gfield.value,
                           hessian=gfield.gradient,
                           volume_breaks=gfield.volume_breaks)


def _identity2_terms(d, gfield, u, level, bulk=None):
    if d.rank != 2:
        raise RankMismatchError("identity 2 applies to tensor distributions")
    bsum = _boundary_sum(d, gfield.constants, level)
    return (-_divergence_terms(d, u, None, level, bulk)
            + PairingValue(bsum, 0.0))


def identity_sides(dist, test, which, level=None):
    """(lhs, rhs) of identity ``which``, bit for bit: (distributional_div,
    identity1_rhs) for 1, (dist.pair, identity2_rhs) for 2.  A bulk part
    sums sigma : grad psi and div sigma . psi as two columns of one walk
    per rule (``_bulk_sides``), unless the ``contract_gradient`` hook pairs
    it or a supported identity-2 test puts its sides on different rules."""
    if which not in (1, 2):
        raise ConfigError(f"identity must be 1 or 2, got {which!r}")
    support, breaks = _test_layout(test)
    paired = GradTest(test) if which == 1 else test
    walk = test if which == 1 else _potential(test)
    lv = _lv(level, which == 1 and support is not None)

    def one(d):
        shared = (isinstance(d, BDist) and (which == 1 or support is None)
                  and _constant_sides(d.field, paired) is None)
        pair, bulk = (_bulk_sides(d, walk, support, breaks, lv) if shared
                      else (d.pair(paired, level), None))
        if which == 1:
            return pair, _divergence_terms(d, test, support, lv, bulk)
        return pair, _identity2_terms(d, test, walk, lv, bulk)

    pair, total = _over_parts(dist, one)
    return (-pair if which == 1 else pair), total


def _bulk_sides(dist, test, support, breaks, level):
    """(sigma : grad test, div sigma . test) over one rule per level, from
    ``value_and_divergence`` and ``value_and_gradient`` where they exist."""
    def both(f, first, second, x):
        pair = getattr(f, f'{first}_and_{second}', None)
        return (pair(x) if pair is not None
                else (getattr(f, first)(x), getattr(f, second)(x)))

    def integrand(nodes):
        x = nodes.points
        value, div = both(dist.field, 'value', 'divergence', x)
        psi, grad = both(test, 'value', 'gradient', x)
        return _contract(value, grad), _contract(div, psi)

    def run(lv):
        return blocked_sum(_volume_quad(dist, lv, support, breaks), integrand)
    return two_level(run, level)


def _boundary_sum(dist, constants, level):
    """sum_i c_i . (net force of one family on boundary component i).

    A non-closed interface paired against nonzero boundary constants must
    carry its boundary-curve data.
    """
    itf = dist.interface
    if not (isinstance(dist, BDist) or itf.closed or itf.boundary_curves):
        for i, ci in enumerate(constants):
            if i > 0 and np.linalg.norm(ci) > 0:
                raise ConfigError(f"interface carries no curve data for "
                                  f"boundary component {i}")
    total = 0.0
    for i, ci in enumerate(constants):
        if np.linalg.norm(ci) > 0.0:
            if isinstance(dist, BDist):
                force, _ = boundary_force_moment(dist.domain, i, dist.field,
                                                 level)
            else:
                sigma1, sigma2 = ((dist.density, None) if dist.family == 'C'
                                  else (None, dist.density))
                force, _ = curve_force_moment(itf, i, sigma1, sigma2)
            total += float(ci @ force)
    return total


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
    uses the negative derivative of the profile.  The test must be
    compactly supported.  Errors if the truncated layer (6 rho) does not
    fit inside the domain.
    """
    _layer_support(test)
    return _over_parts(
        dist, lambda d: _mollified_part(d, test, rho, domain, level))


def _layer_support(test):
    """(center, radius) of a compactly supported test; mollified pairings
    take no other."""
    support, _ = _test_layout(test)
    if support is None:
        raise ConfigError("mollified pairings need a compactly supported test")
    return support


def _mollified_part(dist, test, rho, domain, level, estimate=True):
    """``mollified_pair`` of one family; without ``estimate`` a mollified
    layer is summed once, at the fine level, and reports error 0."""
    if isinstance(dist, BDist):
        return dist.pair(test, level)
    run, vlevel = _mollified_sum(dist, test, rho, domain, level)
    return two_level(run, vlevel) if estimate else PairingValue(run(vlevel))


def _mollified_sum(dist, test, rho, domain, level):
    """(run, level): ``run(lv)`` sums the Gaussian layer of width rho of a
    surface or dipole part over the level-lv normal-fiber layer rule of the
    test's support, with the density read once per fiber at its foot."""
    if domain is None:
        raise ConfigError("mollified surface pairings need the domain")
    interface = dist.interface
    if 6.0 * rho >= domain.clearance(interface):
        raise StressDistError(
            f"mollifier width {rho} too large: truncated layer leaves the domain")

    profile = _gauss_profile if isinstance(dist, CDist) else _gauss_profile_dneg
    center, radius = _layer_support(test)

    def run(lv):
        q = support_volume_quad(interface, center, radius, lv, layer=rho)
        dens = np.asarray(dist.density.value(q.feet))
        return blocked_sum(q, lambda n: profile(n.offset, rho) * _contract(
            dens[n.foot], np.asarray(test.value(n.points))))

    return run, _lv(level, True)


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
    """|mollified_pair - exact pairing| for each width, widest first, and
    the observed order of convergence; the test must be compactly
    supported.

    Each width's value equals ``mollified_pair(...).value`` but is summed
    once, without the two-level estimate nothing here reads; the exact
    pairing keeps its estimate, which sets the floor of the order fit.
    """
    _layer_support(test)
    exact = dist.pair(test, level)
    values, errors = [], []
    for rho in sorted(rhos, reverse=True):
        v = _over_parts(dist, lambda d: _mollified_part(
            d, test, rho, domain, level, estimate=False)).value
        values.append(v)
        errors.append(abs(v - exact.value))
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


def cauchy_flux(dist, probe, rhos, domain=None, level=DEFAULT_SURFACE_LEVEL):
    """Mollified traction flux through a probe surface, tabulated in rho.

    Away from the singular support the flux converges to the bulk flux; a
    probe touching the support of a surface part inherits the mollifier
    peak and grows like 1/rho -- reported as non-convergent, never raised.
    Bulk values exactly on the probe use the two-sided average.
    """
    if not isinstance(dist, CompositeDist):
        dist = CompositeDist(**{dist.family.lower(): dist})
    batch = probe.surface_quadrature(refined(level))

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

