"""Stress functions: double-curl stresses, density extraction, and the
necessary/sufficient conditions for their existence.

A piecewise-smooth symmetric tensor potential generates a bulk stress
(double curl, side by side) plus surface and dipole concentrations driven
by the jumps of the potential and of its curl.  The extracted triple is
equilibrated with zero body force by construction; the converse direction
is tested through pairings with curl-free tensor test fields and through
the per-component global force and moment integrals.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from . import _tensor as T
from .distributions import (BDist, CDist, CompositeDist, FDist, _test_layout,
                            refined)
from .equilibrium import Check, EquilibriumScenario, Tolerances
from .errors import ConfigError, FieldError, StressDistError
from .fields import (CallableField, GradientTestField, PiecewiseField,
                     PolyField, PotentialStack, SurfaceField, _tensor_field,
                     chart_derivatives, dual_tangents,
                     make_gradient_test_field, tangential_gradient)
from .geometry import (DEFAULT_SURFACE_LEVEL, boundary_force_moment,
                       curve_force_moment, support_key)

LEMMA2_TOL = 1e-6
CURL_ASYMMETRY_TOL = 1e-6
INC_FD_STEP = 2e-3      # outer FD curl of a non-polynomial potential
DENSITY_SLICE = 512     # points per slice of the extracted-density jet


class StressFunction:
    """Piecewise-smooth symmetric tensor potential across an interface;
    the constructor checks both sides for symmetry at three points."""

    def __init__(self, plus, minus=None, interface=None):
        self.pw = PiecewiseField(2, plus, minus, interface)
        self.interface = interface
        pts = np.array([[0.21, -0.13, 0.08], [-0.4, 0.31, -0.22],
                        [0.05, 0.17, 0.33]])
        for side in (1, -1):
            v = self.pw.side_value(pts, side)
            asym = np.max(np.abs(v - np.swapaxes(v, -1, -2)))
            if asym > 1e-12 * max(1.0, np.max(np.abs(v))):
                raise FieldError("stress function must be symmetric")

    @property
    def inc(self):
        """Double-curl stress of both sides as one piecewise field."""
        def side(f):
            return f.inc_field() if isinstance(f, PolyField) else _fd_inc_field(f)

        minus = None if self.interface is None else side(self.pw.minus)
        return PiecewiseField(2, side(self.pw.plus), minus, self.interface)


def _fd_inc_field(base):
    """curl((curl A)^T) of a smooth tensor field that is not polynomial:
    (curl A)^T from the field's own gradient, the outer curl and the
    gradient of the result by ``CallableField`` finite differences."""
    def curl_t(p):
        grad = np.asarray(base.gradient(p))
        return np.swapaxes(T.tensor_curl_rows_from_gradient(grad), -1, -2)

    outer = CallableField(curl_t, 2, fd_step=INC_FD_STEP)
    return CallableField(
        lambda p: T.tensor_curl_rows_from_gradient(outer.gradient(p)), 2,
        fd_step=2.0 * INC_FD_STEP)


def curl_curl(potential, points, asymmetry_tol=CURL_ASYMMETRY_TOL):
    """Double-curl stress at points off the interface, symmetrized.

    The raw result must already be symmetric for a symmetric potential; an
    asymmetry beyond tolerance signals a convention violation and raises.
    """
    if isinstance(potential, PolyField):
        raw = potential.inc_field().value(points)
    elif isinstance(potential, StressFunction):
        raw = potential.inc.value(points)
    else:
        raw = _fd_inc_field(potential).value(points)
    asym = np.max(np.abs(raw - np.swapaxes(raw, -1, -2)))
    scale = max(1.0, float(np.max(np.abs(raw))))
    if asym > asymmetry_tol * scale:
        raise StressDistError(
            f"double curl asymmetry {asym:.3e} exceeds tolerance: "
            "check the potential's symmetry")
    return T.sym(raw)


def surface_curl(a, batch):
    """Surface curl of a rank-2 surface field.

    Defined row by row through the relation: row_i equals the surface
    divergence of the field (a x e_i), rows crossed on the right.  Crossing
    with a fixed e_i only permutes and negates entries, so it commutes
    exactly with chart differentiation: the chart derivatives of ``a`` are
    taken once and crossed per row.
    """
    fu, fv = chart_derivatives(a, batch)
    dual = dual_tangents(batch)
    rows = []
    for e in T.I3:
        grad = tangential_gradient(T.row_cross(fu, e), T.row_cross(fv, e),
                                   dual)
        rows.append(np.einsum('nijj->ni', grad))
    return np.stack(rows, axis=1)


@dataclass
class DensityTriple:
    """Bulk stress plus the two interfacial densities of a stress function."""

    sigma: PiecewiseField
    sigma1: SurfaceField
    sigma2: SurfaceField
    interface: object

    def scenario(self, domain, name="stress-function", tolerances=None):
        return EquilibriumScenario(
            domain=domain, interface=self.interface, sigma=self.sigma,
            sigma1=self.sigma1, sigma2=self.sigma2,
            tolerances=tolerances or Tolerances(), name=name)

    def composite(self, domain):
        return CompositeDist(b=BDist(domain, self.interface, self.sigma),
                             c=CDist(self.interface, self.sigma1),
                             f=FDist(self.interface, self.sigma2))


def extract_densities(potential, interface):
    """Bulk, surface, and dipole stress densities of a piecewise potential.

    With the jump J taken toward-side minus away-side and N the cross
    matrix of the normal:

    * sigma2 = -N^T J N (tangential, automatically killing the normal);
    * sigma1 = -(curl J)^T x n - (curl_S((J x n)^T))^T + kappa sigma2,
      symmetrized;
    * sigma  = double curl of the side potentials off the interface
      (``potential.inc``, split at the potential's own interface, which
      ``interface`` must be).

    sigma1 and sigma2 are world fields (``_DensityJet``, so the sides must
    have a ``hessian``) restricted by ``SurfaceField.from_world``.
    """
    if not isinstance(potential, StressFunction):
        raise FieldError("extract_densities needs a StressFunction")
    plus, minus = potential.pw.plus, potential.pw.minus
    if not (hasattr(plus, 'hessian') and hasattr(minus, 'hessian')):
        raise FieldError("extract_densities needs potential sides with a "
                         "closed-form hessian, such as PolyField")
    latest = [(None, None)]     # (points array, its jet) as one tuple

    def jet(pts):
        held, out = latest[0]
        if held is not pts:
            out = _DensityJet(plus, minus, interface, pts)
            latest[0] = (pts, out)
        return out

    def world(k):
        return SimpleNamespace(value=lambda p: jet(p).values[k],
                               gradient=lambda p: jet(p).gradients()[k])

    return DensityTriple(
        sigma=potential.inc,
        sigma1=SurfaceField.from_world(world(0), 2, interface),
        sigma2=SurfaceField.from_world(world(1), 2, interface),
        interface=interface)


class _DensityJet:
    """sigma1 and sigma2 at one points array, and on first request their
    gradients (N, i, j, k): both densities and both chart axes of their
    derivatives share one evaluation of the potential's value and
    gradient; its Hessian is evaluated only for the gradients, in slices
    of ``DENSITY_SLICE`` points that bound the temporaries."""

    def __init__(self, plus, minus, interface, pts):
        self.sides, self.interface = (plus, minus), interface
        self.pts = np.asarray(pts, dtype=float)
        self.J = self._jump('value', self.pts)
        self.dJ = self._jump('gradient', self.pts)
        self.values = _densities(self.J, self.dJ,
                                 *interface.distance_jet(self.pts, 2)[1:])
        self._gradients = None

    def _jump(self, method, pts):
        plus, minus = self.sides
        return (np.asarray(getattr(plus, method)(pts))
                - np.asarray(getattr(minus, method)(pts)))

    def gradients(self):
        # write-once: a concurrent first request may compute them twice
        if self._gradients is None:
            parts = []
            for lo in range(0, max(len(self.pts), 1), DENSITY_SLICE):
                cut = slice(lo, lo + DENSITY_SLICE)
                pts = self.pts[cut]
                _, g, H, G = self.interface.distance_jet(pts, 3)
                parts.append(_densities(self.J[cut], self.dJ[cut], g, H,
                                        self._jump('hessian', pts), G))
            self._gradients = tuple(np.concatenate(c) for c in zip(*parts))
        return self._gradients


def _densities(J, dJ, g, H, hJ=None, G=None):
    """(sigma1, sigma2) from the jump J and its gradient and from n = g
    and H of the signed distance s (n = grad s, H = hess s, the shape
    operator on the surface, kappa = tr H); with the Hessian hJ of J and
    the third derivatives G of s, their gradients (N, i, j, k) instead.

    With N the cross matrix of n, sigma2 = N J N.  In sigma1, the surface
    curl C of a = (J x n)^T = -N J follows from grad_S a = (grad a)(I - n n)
    and H n = 0 (|n| = 1 off the surface too):
    C^T = -N curl J - N (d_n J) N - M(H, J), with ``_double_cross`` M, so
    sigma1 = -2 sym((curl J)^T N) + kappa sigma2 + N (d_n J) N + M(H, J).
    """
    N = T.cross_matrix(g)
    kappa = np.trace(H, axis1=1, axis2=2)
    dnJ = (dJ @ g[:, None, :, None])[..., 0]
    # curl J_ij = eps_jkl d_k J_il, as differences over eps_{j c1 c2} = 1
    c1, c2 = [1, 2, 0], [2, 0, 1]
    curlT = np.swapaxes(dJ[..., c2, c1] - dJ[..., c1, c2], 1, 2)
    s2 = N @ J @ N
    if hJ is None:
        X = curlT @ N
        s1 = (-(X + np.swapaxes(X, 1, 2)) + kappa[:, None, None] * s2
              + N @ dnJ @ N + _double_cross(H, J))
        return s1, s2

    # d_k along axis 1: of J, of N (H is symmetric), of H (G is symmetric)
    dJk = np.moveaxis(dJ, 3, 1)
    dN = T.cross_matrix(H)
    Ns = N[:, None]
    dkappa = np.trace(G, axis1=2, axis2=3)

    def nxn(X, dX):
        """d_k (N X N) from X and d_k X."""
        return dN @ (X @ N)[:, None] + Ns @ dX @ Ns + (N @ X)[:, None] @ dN

    ds2 = nxn(J, dJk)
    ddnJ = (hJ @ g[:, None, None, :, None])[..., 0] + dJ @ H[:, None]
    dcurl = np.moveaxis(hJ[:, :, c2, c1] - hJ[:, :, c1, c2], 3, 1)
    dX = np.swapaxes(dcurl, 2, 3) @ Ns + curlT[:, None] @ dN
    ds1 = (-(dX + np.swapaxes(dX, 2, 3))
           + dkappa[..., None, None] * s2[:, None]
           + kappa[:, None, None, None] * ds2
           + nxn(dnJ, np.moveaxis(ddnJ, 3, 1))
           + _double_cross(G, J[:, None]) + _double_cross(H[:, None], dJk))
    return np.moveaxis(ds1, 1, -1), np.moveaxis(ds2, 1, -1)


def _double_cross(A, B):
    """eps_rbc eps_ikl A_bk B_cl of symmetric (..., 3, 3) stacks, bilinear:
    A B + B A - (tr B) A - (tr A) B + (tr A tr B - A:B) I."""
    AB = A @ B
    trA = np.trace(A, axis1=-2, axis2=-1)[..., None, None]
    trB = np.trace(B, axis1=-2, axis2=-1)[..., None, None]
    trAB = np.trace(AB, axis1=-2, axis2=-1)[..., None, None]
    return AB + np.swapaxes(AB, -1, -2) - trB * A - trA * B \
        + (trA * trB - trAB) * T.I3


# ---------------------------------------------------------------------------
# necessary conditions: pairings with curl-free tests, global conditions


# For each q, eps_ipq x_p a_i = x_p1 a_i1 - x_p2 a_i2, where (p1, i1) and
# (p2, i2) index the +1 and the -1 entry of the Levi-Civita symbol.
_EPS_TERMS = (((2, 1), (1, 2)), ((0, 2), (2, 0)), ((1, 0), (0, 1)))


def _axis_column(d, w):
    """e_d (x) w as a dense (N, 3, ...) array, bit for bit as
    ``einsum('i,nj...->nij...', e_d, w)`` builds it (-0.0 turns +0.0)."""
    out = np.zeros((len(w), 3) + w.shape[1:])
    np.add(w, 0.0, out=out[:, d])
    return out


def _axis_eps_x(pts, d, w):
    """The moment column eps_ipq x_p psi_ij of psi = e_d (x) w, bit for bit
    as ``einsum('ipq,np,nij...->njq...', EPS, pts, psi)`` builds it: of
    the two products per entry only x_p w_j is non-zero, so
    out[n, j, q] = +-x_p w[n, j, ...] on the two q with eps_dpq != 0 and
    zero on the third, one product per entry and no epsilon loop.  The
    final ``+= 0.0`` reproduces the einsum's zero-initialised accumulator
    (it turns -0.0 into +0.0), and the memory layout is the einsum's too
    (q fastest), so later reductions over trailing axes sum in the same
    order."""
    n = len(pts)
    lead = (n,) + (1,) * (w.ndim - 1)
    out = np.moveaxis(np.zeros((n,) + w.shape[1:] + (3,)), -1, 2)
    for q, ((p1, i1), (p2, i2)) in enumerate(_EPS_TERMS):
        col = out[:, :, q]
        if i1 == d:
            np.multiply(pts[:, p1].reshape(lead), w, out=col)
        elif i2 == d:
            np.multiply(pts[:, p2].reshape(lead), w, out=col)
            np.negative(col, out=col)
    out += 0.0
    return out


def _axis_moment_gradient(pts, d, w, h):
    """d_k of the moment column, eps_ikq psi_ij + eps_ipq x_p d_k psi_ij,
    of psi = e_d (x) w with gradient e_d (x) h, bit for bit as the sum of
    the two einsums: ``_axis_eps_x`` of h plus w on the two entries where
    eps_dkq != 0."""
    out = _axis_eps_x(pts, d, h)
    for q, ((p1, i1), (p2, i2)) in enumerate(_EPS_TERMS):
        if i1 == d:
            out[:, :, q, p1] += w
        elif i2 == d:
            out[:, :, q, p2] -= w
    return out


def _along(direction, column):
    """``column(d)`` for a direction e_d; any other direction c takes
    sum_d c_d column(d), the columns being linear in the direction."""
    axis = np.flatnonzero(direction)
    if len(axis) == 1 and direction[axis[0]] == 1.0:
        return column(int(axis[0]))
    return sum(c * column(d) for d, c in enumerate(direction))


class ForceMomentTest:
    """The force and moment columns of one or more ``GradientTestField``
    members c (x) grad phi as one column test: one pairing walk gives
    (force_0, moment_0, force_1, ...), each column summed as in a pairing
    of its own.

    The moment partner of a test psi is value[j,q] = eps_ipq x_p psi_ij;
    paired with a stress it gives the x-cross (moment) pairing, and its
    normal derivative produces the dipole correction term.  Each distinct
    phi is evaluated once per point set (``PotentialStack``).  A member
    along e_d is rank one, and its moment column is one product per entry
    (``_axis_eps_x``); any other direction sums the axis columns
    (``_along``).  The members must share one rule layout
    (``distributions._test_layout``), read from the first.
    """

    def __init__(self, *members):
        self.members = members
        self.base = members[0]
        self.columns = 2 * len(members)
        potentials, self._slots = [], []    # (direction, stack row)
        for g in members:
            if g.potential not in potentials:
                potentials.append(g.potential)
            self._slots.append((g.direction, potentials.index(g.potential)))
        self._stack = PotentialStack(potentials)

    def value(self, pts):
        pts = np.asarray(pts, dtype=float)
        grads, = self._stack.orders(pts, (1,))
        out = []
        for c, t in self._slots:
            w = grads[:, t]
            out += [_along(c, lambda d: _axis_column(d, w)),
                    _along(c, lambda d: _axis_eps_x(pts, d, w))]
        return tuple(out)

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        grads, hessians = self._stack.orders(pts, (1, 2))
        out = []
        for c, t in self._slots:
            w, h = grads[:, t], hessians[:, t]
            out += [_along(c, lambda d: _axis_column(d, h)),
                    _along(c, lambda d: _axis_moment_gradient(pts, d, w, h))]
        return tuple(out)


def default_lemma2_suite(domain, rng=None):
    """Gradient test fields probing the existence obstructions.

    Single-component domains get interior gradient-of-bump members (the
    classical divergence-free case); multi-component domains get the
    2(k-1) boundary-constant force/moment members.
    """
    rng = rng or np.random.default_rng(0)
    suite = []
    if domain.k == 1:
        zeros = [np.zeros(3)]
        if domain.kind == 'ball':
            center = np.zeros(3)
            radius = 0.55 * domain.radius
        else:
            center, radius = domain.interior_ball()
        for d in range(3):
            e = np.zeros(3)
            e[d] = 1.0
            suite.append(("interior-e%d" % d,
                          make_gradient_test_field(domain, zeros, rng=rng,
                                                   center=center, radius=radius,
                                                   direction=e)))
        return suite
    for i in range(1, domain.k):
        for d in range(3):
            e = np.zeros(3)
            e[d] = 1.0
            constants = [np.zeros(3) for _ in range(domain.k)]
            constants[i] = e
            suite.append((f"component{i}-e{d}",
                          make_gradient_test_field(domain, constants)))
    return suite


def check_lemma2_conditions(dist, domain, suite=None, level=2,
                            tol=LEMMA2_TOL, rng=None):
    """Checks ``force:<label>`` and ``moment:<label>``: pairings of the
    stress and its x-cross companion with curl-free tests, each with its
    error estimate as ``estimate``.  Suite members must be
    ``GradientTestField``s c (x) grad phi; any other raises ``FieldError``.

    All pairings vanish (to tolerance) exactly when a stress function
    exists; a nonzero value against a boundary-constant member exposes the
    per-component force or moment obstruction.  Members that share a rule
    layout are paired in one walk (``ForceMomentTest``), so the stress is
    evaluated once per block for all of them; the checks keep suite order.
    """
    suite = list(default_lemma2_suite(domain, rng) if suite is None
                 else suite)
    probe = domain.interior_samples(32, None, 0.0)
    groups = {}
    for k, (label, g) in enumerate(suite):
        if not isinstance(g, GradientTestField):
            raise FieldError(f"suite member {label} is not a gradient test "
                             f"field c (x) grad phi")
        if g.curl_residual(probe) > 1e-9:
            raise FieldError(f"suite member {label} is not curl-free")
        support, breaks = _test_layout(g)
        groups.setdefault((support_key(support), breaks), []).append(k)
    columns = {}
    for members in groups.values():
        values = dist.pair(ForceMomentTest(*(suite[k][1] for k in members)),
                           level)
        for i, k in enumerate(members):
            columns[k] = values[2 * i:2 * i + 2]
    checks = []
    for k, (label, _) in enumerate(suite):
        for kind, v in zip(("force", "moment"), columns[k]):
            checks.append(Check(f"{kind}:{label}", v.value,
                                max(tol, 10.0 * v.error),
                                extra={"estimate": v.error}))
    return checks


@dataclass
class GlobalConditionsReport:
    forces: list         # net force vector per boundary component
    moments: list        # net moment vector per boundary component
    tol: float

    def checks(self):
        """Force and moment checks of the components i >= 1 (component 0
        is reported for reference only)."""
        return [Check(f"{kind}-component{i}", np.linalg.norm(v), self.tol)
                for i in range(1, len(self.forces))
                for kind, v in (("force", self.forces[i]),
                                ("moment", self.moments[i]))]

    @property
    def passed(self):
        return all(c.passed for c in self.checks())


def global_conditions(triple_or_sigma, domain, interface=None,
                      level=DEFAULT_SURFACE_LEVEL, tol=LEMMA2_TOL,
                      origin=(0.0, 0.0, 0.0)):
    """Net force and moment per boundary component, including the curve
    terms of the surface stress and the stress dipole on open interfaces
    (``geometry.curve_force_moment``, dipole couple included).

    Both must vanish on every component i >= 1 for a stress function to
    exist; component 0 is reported for reference only.
    """
    if isinstance(triple_or_sigma, DensityTriple):
        sigma = triple_or_sigma.sigma
        sigma1 = triple_or_sigma.sigma1
        sigma2 = triple_or_sigma.sigma2
        interface = triple_or_sigma.interface
    else:
        sigma = triple_or_sigma
        sigma1 = sigma2 = None
    if interface is not None and not interface.closed:
        for comp in interface.curve_components():
            if comp >= domain.k:
                raise ConfigError(
                    f"interface touches unknown boundary component {comp}")

    level = refined(level)
    forces, moments = [], []
    for i in range(domain.k):
        force, moment = boundary_force_moment(domain, i, sigma, level, origin)
        if interface is not None and not interface.closed:
            fc, mc = curve_force_moment(interface, i, sigma1, sigma2, origin)
            force += fc
            moment += mc
        forces.append(force)
        moments.append(moment)
    return GlobalConditionsReport(forces=forces, moments=moments, tol=tol)


# ---------------------------------------------------------------------------
# algebraic identities behind the existence proof


def trace_curl_check(potentials, points):
    """max |tr(curl phi)| over a suite of symmetric potentials (zero in exact
    arithmetic)."""
    worst = 0.0
    for phi in potentials:
        c = T.tensor_curl_rows_from_gradient(np.asarray(phi.gradient(points)))
        worst = max(worst, float(np.max(np.abs(np.einsum('nii->n', c)))))
    return worst


def _x_cross_cols_polyfield(K):
    """x cross (columns of K^T) as an exact polynomial field: entry (i, j)
    is eps_ikl x_k K_jl, one EPS contraction of K's compiled coefficient
    rows over the table with each exponent raised by e_k."""
    exps, coefs = K._value.exps, K._value.coefs
    shifted = np.vstack([exps + e for e in np.eye(3, dtype=int)])
    rows = np.einsum('ikl,jlm->ijkm', T.EPS, coefs)
    return _tensor_field(shifted, rows.reshape(3, 3, -1))


def _x_cross_cols_gradient(points, Kv, grad):
    """d_k of x cross (columns of K^T) from K and its gradient:
    eps_ikb K_jb + eps_iab x_a d_k K_jb."""
    return (np.einsum('ikb,njb->nijk', T.EPS, Kv)
            + np.einsum('iab,na,njbk->nijk', T.EPS, points, grad))


def lemma2_algebraic_identity(K_fields, points):
    """Max residual of: curl(x cross_cols K^T) - x cross_cols curl(K^T)
    - tr(K) I + K, evaluated pointwise (zero for smooth K)."""
    points = np.asarray(points, dtype=float)
    worst = 0.0
    for K in K_fields:
        Kv = np.asarray(K.value(points))
        if isinstance(K, PolyField):
            lhs = _x_cross_cols_polyfield(K).curl_rows_field().value(points)
            sig = K.transpose().curl_rows_field().value(points)
        else:
            grad = np.asarray(K.gradient(points))
            lhs = T.tensor_curl_rows_from_gradient(
                _x_cross_cols_gradient(points, Kv, grad))
            sig = T.tensor_curl_rows_from_gradient(np.swapaxes(grad, 1, 2))
        xs = T.col_cross(points, sig)
        trK = np.einsum('nii->n', Kv)
        rhs = xs + trK[:, None, None] * T.I3 - Kv
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst
