"""Piecewise bulk fields, surface fields, and smooth compactly supported tests.

Every catalog field carries its own derivative: polynomial fields, the
point-force stress and the Hessian of 1/r have closed-form gradients, test
functions closed-form gradients and Hessians, and surface fields a
closed-form in-chart derivative (``dchart``), the chain rule on a world
gradient for the restrictions ``SurfaceField.from_world`` builds.  Finite
differences are left in one place only: ``CallableField`` differentiates a
plain world evaluator (4th-order central).  A surface field without
``dchart`` cannot be differentiated.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from . import _tensor as T
from ._memo import LruMemo
from .errors import FieldError, RankMismatchError


# ---------------------------------------------------------------------------
# trivariate polynomials with exact derivatives

_UNIT = np.eye(3, dtype=int)


def _divisors(terms):
    """Every exponent dividing one of terms, in lexicographic order, so each
    exponent comes after the one with its last nonzero entry lowered."""
    seen = set(terms) | {(0, 0, 0)}
    todo = list(seen)
    while todo:
        i, j, k = todo.pop()
        for d in ((i - 1, j, k), (i, j - 1, k), (i, j, k - 1)):
            if -1 not in d and d not in seen:
                seen.add(d)
                todo.append(d)
    return sorted(seen)


class Poly3:
    """Trivariate polynomials sum_m c[..., m] x^i y^j z^k over one exponent table.

    ``exps`` is an (M, 3) table, duplicate rows allowed; ``coefs`` is (M,) for
    one polynomial or (..., M) for stacked rows sharing the table, and
    ``value`` returns (N,) + coefs.shape[:-1].  The constructor compiles the
    table once: the coefficients are summed onto the monomials dividing a
    term.  ``value`` is ``apply(monomials(pts))``: ``monomials`` builds each
    of those from its parent with one multiply per point, and ``apply``
    runs one matrix product for all rows, so Poly3s made by ``with_coefs``
    can share one table.  A point gets the same bits in any batch of two or
    more, unless the polynomial is a single (scalar) row: numpy then runs a
    matrix-vector product, whose sums depend on the batch.
    """

    def __init__(self, exps, coefs):
        self.exps = np.asarray(exps, dtype=int).reshape(-1, 3)
        if np.any(self.exps < 0):
            raise FieldError("negative polynomial exponent")
        terms = list(map(tuple, self.exps.tolist()))
        self._basis = _divisors(terms)
        index = {e: m for m, e in enumerate(self._basis)}
        self._steps = []            # (parent, axis): mono = parent * x_axis
        for e in self._basis[1:]:
            a = 2 if e[2] else (1 if e[1] else 0)
            self._steps.append((index[e[:a] + (e[a] - 1,) + e[a + 1:]], a))
        self._where = np.array([index[e] for e in terms], dtype=int)
        self._set_coefs(coefs)

    def _set_coefs(self, coefs):
        self.coefs = np.atleast_1d(np.asarray(coefs, dtype=float))
        if self.coefs.shape[-1] != len(self.exps):
            raise FieldError("polynomial term/coefficient mismatch")
        rows = self.coefs.reshape(math.prod(self.coefs.shape[:-1]), -1)
        self._matrix = np.zeros((len(self._basis), len(rows)))   # (K, rows)
        np.add.at(self._matrix, self._where, rows.T)

    def with_coefs(self, coefs):
        """Polynomials with other coefficient rows over the same table."""
        out = copy.copy(self)
        out._set_coefs(coefs)
        return out

    @classmethod
    def constant(cls, c):
        return cls([[0, 0, 0]], [c])

    @classmethod
    def random(cls, rng, degree=3, scale=1.0):
        terms = [(i, j, k) for i in range(degree + 1) for j in range(degree + 1)
                 for k in range(degree + 1) if i + j + k <= degree]
        coefs = rng.uniform(-1.0, 1.0, len(terms)) * scale
        return cls(terms, coefs)

    def monomials(self, pts):
        """The (K, N) table of the compiled monomials at the points."""
        cols = np.ascontiguousarray(np.asarray(pts, dtype=float).T)
        mono = np.empty((len(self._basis), cols.shape[1]))
        mono[0] = 1.0
        for m, (parent, axis) in enumerate(self._steps, 1):
            np.multiply(mono[parent], cols[axis], out=mono[m])
        return mono

    def apply(self, table):
        """The rows at the points of a ``monomials`` table (or its columns)."""
        n = table.shape[1]
        if n == 1:
            # a one-point product would run as a matrix-vector product:
            # evaluate the point as a pair to keep its bits
            return self.apply(np.repeat(table, 2, axis=1))[:1]
        return (table.T @ self._matrix).reshape((n,) + self.coefs.shape[:-1])

    def value(self, pts):
        return self.apply(self.monomials(pts))

    def derivative(self, axis):
        return Poly3(np.maximum(self.exps - _UNIT[axis], 0),
                     self.coefs * self.exps[:, axis])

    def gradient_polys(self):
        return [self.derivative(a) for a in range(3)]

    def __add__(self, other):
        return Poly3(np.vstack([self.exps, other.exps]),
                     np.concatenate([self.coefs, other.coefs], axis=-1))

    def __neg__(self):
        return self.with_coefs(-self.coefs)

    def scaled(self, a):
        return self.with_coefs(a * self.coefs)


def _compiled(exps, coefs):
    """Poly3 with the rows coefs (..., M) over exps summed onto a table
    closed under differentiation: every exponent dividing a nonzero term."""
    live = np.any(coefs != 0, axis=tuple(range(coefs.ndim - 1)))
    raw = Poly3(exps[live], coefs[..., live])
    return Poly3(raw._basis, raw._matrix.T.reshape(coefs.shape[:-1] + (-1,)))


def _stacked(polys, shape):
    """Closed-table Poly3 with the scalar Poly3s ``polys`` as rows (*shape, K)."""
    sizes = [len(p.exps) for p in polys]
    coefs = np.zeros((len(polys), sum(sizes)))
    coefs[np.repeat(np.arange(len(polys)), sizes), np.arange(sum(sizes))] = \
        np.concatenate([p.coefs for p in polys])
    return _compiled(np.vstack([p.exps for p in polys]),
                     coefs.reshape(shape + (-1,)))


def _derivative_rows(table, coefs):
    """(..., 3, K): d/dx_a of the rows coefs (..., K) over a closed table."""
    index = {e: m for m, e in enumerate(map(tuple, table.tolist()))}
    out = np.zeros(coefs.shape[:-1] + (3, len(table)))
    for a in range(3):
        src = np.nonzero(table[:, a])[0]
        dst = [index[tuple(e)] for e in (table[src] - _UNIT[a]).tolist()]
        out[..., a, dst] = coefs[..., src] * table[src, a]
    return out


class PolyField:
    """Smooth field whose components are Poly3, with exact derivatives.

    rank 0: scalar; rank 1: components (3,); rank 2: components (3, 3).
    The constructor compiles the components onto one closed exponent table;
    value, gradient and divergence are coefficient rows over it, one
    ``Poly3.value`` call each.  The Hessian rows and the derived curl,
    transpose and double-curl fields are built on first use and kept.
    """

    def __init__(self, components, rank):
        self.rank = rank
        self.components = components
        self._value = _stacked(np.asarray(components, dtype=object).ravel(),
                               (3,) * rank)
        grads = _derivative_rows(self._value.exps, self._value.coefs)
        self._gradient = self._value.with_coefs(grads)
        self._divergence = (self._value.with_coefs(np.trace(grads, 0, -3, -2))
                            if rank else None)

    @classmethod
    def random_symmetric(cls, rng, degree=3, scale=1.0):
        comp = np.empty((3, 3), dtype=object)
        for i in range(3):
            for j in range(i, 3):
                p = Poly3.random(rng, degree, scale)
                comp[i, j] = p
                comp[j, i] = p
        return cls(comp, rank=2)

    @classmethod
    def random_vector(cls, rng, degree=3, scale=1.0):
        return cls(np.array([Poly3.random(rng, degree, scale)
                             for _ in range(3)], dtype=object), rank=1)

    def value(self, pts):
        return self._value.value(pts)

    def __call__(self, pts):
        return self.value(pts)

    def gradient(self, pts):
        return self._gradient.value(pts)

    def divergence(self, pts):
        if self._divergence is None:
            raise RankMismatchError("divergence needs a vector or tensor field")
        return self._divergence.value(pts)

    def value_and_divergence(self, pts):
        """(value, divergence) from one monomial table."""
        if self._divergence is None:
            raise RankMismatchError("divergence needs a vector or tensor field")
        table = self._value.monomials(pts)
        return self._value.apply(table), self._divergence.apply(table)

    def hessian(self, pts):
        """(N,) + (3,) * rank + (3, 3): d_k d_l of each component."""
        return self._kept('_hessian', lambda: self._value.with_coefs(
            _derivative_rows(self._value.exps, self._gradient.coefs))
        ).value(pts)

    def _kept(self, name, build):
        # Write-once: a concurrent first use may build twice; one copy is kept.
        field = self.__dict__.get(name)
        if field is None:
            field = self.__dict__.setdefault(name, build())
        return field

    def transpose(self):
        if self.rank != 2:
            raise RankMismatchError("transpose needs a rank-2 field")
        return self._kept('_transpose', lambda: _tensor_field(
            self._value.exps, self._value.coefs.swapaxes(0, 1)))

    def curl_rows_field(self):
        """Row-wise curl as an exact polynomial field (rank 2 only)."""
        if self.rank != 2:
            raise RankMismatchError("curl field needs a rank-2 field")
        return self._kept('_curl', lambda: _tensor_field(
            self._value.exps,
            np.einsum('jkl,ilkm->ijm', T.EPS, self._gradient.coefs)))

    def inc_field(self):
        """curl((curl A)^T): the double-curl stress of a polynomial potential."""
        return self.curl_rows_field().transpose().curl_rows_field()


def _tensor_field(exps, coefs):
    """Rank-2 PolyField with the coefficient rows coefs (3, 3, M) over exps."""
    comp = np.empty((3, 3), dtype=object)
    for i, j in np.ndindex(3, 3):
        comp[i, j] = Poly3(exps, coefs[i, j])
    return PolyField(comp, rank=2)


class CallableField:
    """Smooth field given by a plain evaluator; derivatives by central FD."""

    def __init__(self, fn, rank, fd_step=1e-5):
        self.fn = fn
        self.rank = rank
        self.fd_step = fd_step

    def value(self, pts):
        return np.asarray(self.fn(np.asarray(pts, dtype=float)))

    def __call__(self, pts):
        return self.value(pts)

    def gradient(self, pts):
        shape = () if self.rank == 0 else ((3,) if self.rank == 1 else (3, 3))
        return T.fd_gradient(self.value, pts, self.fd_step, shape)

    def divergence(self, pts):
        grad = self.gradient(pts)
        if self.rank == 1:
            return np.einsum('nii->n', grad)
        return np.einsum('nijj->ni', grad)


class ConstantField:
    """Field with one constant value everywhere and zero derivatives.

    A ``PiecewiseField`` whose sides are constant fields pairs with the
    gradient of a test that has a ``contract_gradient`` hook without
    evaluating either (see ``BDist.pair``); ``constant`` is that value.
    """

    def __init__(self, value, rank):
        self._value = np.asarray(value, dtype=float)
        self.rank = rank

    @property
    def constant(self):
        return self._value

    def value(self, pts):
        n = len(np.asarray(pts))
        return np.broadcast_to(self._value, (n,) + self._value.shape).copy()

    def __call__(self, pts):
        return self.value(pts)

    def gradient(self, pts):
        n = len(np.asarray(pts))
        return np.zeros((n,) + self._value.shape + (3,))

    def divergence(self, pts):
        n = len(np.asarray(pts))
        if self.rank == 1:
            return np.zeros(n)
        return np.zeros((n, 3))


class KelvinStressField:
    """Point-force stress field, origin excluded from the domain.

    Normalized so the net outward traction flux across any sphere enclosing
    the origin equals the force parameter: int_{|x|=r} sigma e_r da = F.
    Divergence-free away from the origin; the canonical violator of the
    global force condition on multiply connected domains.
    """

    rank = 2

    def __init__(self, force, nu=0.25):
        self.force = np.asarray(force, dtype=float)
        self.nu = float(nu)
        self._A = -1.0 / (8.0 * np.pi * (1.0 - self.nu))
        self._c = 1.0 - 2.0 * self.nu

    def _parts(self, pts):
        """x, P, |x|^2, |x|^-3, P.x, x@x and P@x + x@P - (P.x) I."""
        x = np.asarray(pts, dtype=float)
        P = -self.force          # classical Kelvin load with outward flux -P
        r2 = np.einsum('ni,ni->n', x, x)
        Px = x @ P
        Px_x = np.einsum('i,nj->nij', P, x)
        lin = Px_x + np.swapaxes(Px_x, 1, 2) - Px[:, None, None] * T.I3
        return (x, P, r2, r2 ** -1.5, Px, np.einsum('ni,nj->nij', x, x),
                lin)

    def value(self, pts):
        """A (3 x@x (P.x) / r^5 + c lin / r^3)."""
        _, _, r2, ir3, Px, xx, lin = self._parts(pts)
        return self._A * (3.0 * (Px * ir3 / r2)[:, None, None] * xx
                          + self._c * ir3[:, None, None] * lin)

    def __call__(self, pts):
        return self.value(pts)

    def gradient(self, pts):
        """d_k of both terms of ``value``, as (N, i, j, k)."""
        x, P, r2, ir3, Px, xx, lin = self._parts(pts)
        ir5 = (ir3 / r2)[:, None, None, None]
        xk = x[:, None, None, :]
        Ix = np.einsum('ik,nj->nijk', T.I3, x)
        dlin = (np.einsum('i,jk->ijk', P, T.I3)
                + np.einsum('j,ik->ijk', P, T.I3)
                - np.einsum('ij,k->ijk', T.I3, P))
        first = 3.0 * ir5 * (
            Px[:, None, None, None] * (Ix + np.swapaxes(Ix, 1, 2))
            + xx[..., None] * P
            - 5.0 * (Px / r2)[:, None, None, None] * xx[..., None] * xk)
        second = self._c * (ir3[:, None, None, None] * dlin
                            - 3.0 * ir5 * lin[..., None] * xk)
        return self._A * (first + second)

    def divergence(self, pts):
        return np.einsum('nijj->ni', self.gradient(pts))


class HessianInverseR:
    """b(x) = amp * hess(1/|x|) = amp (3 x@x/r^5 - I/r^3); divergence-free."""

    rank = 2

    def __init__(self, amplitude=1.0):
        self.amplitude = float(amplitude)

    def value(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        xx = np.einsum('ni,nj->nij', pts, pts)
        return self.amplitude * (3.0 * xx / r[:, None, None] ** 5
                                 - T.I3 / r[:, None, None] ** 3)

    def __call__(self, pts):
        return self.value(pts)

    def gradient(self, pts):
        """d_k b_ij = amp (3 (d_ik x_j + x_i d_jk + d_ij x_k) / r^5
        - 15 x_i x_j x_k / r^7)."""
        x = np.asarray(pts, dtype=float)
        r2 = np.einsum('ni,ni->n', x, x)
        r5 = r2 ** 2.5
        Ix = np.einsum('ik,nj->nijk', T.I3, x)
        sym3 = Ix + np.swapaxes(Ix, 1, 2) + np.swapaxes(Ix, 2, 3)
        xxx = np.einsum('ni,nj,nk->nijk', x, x, x)
        return self.amplitude * (3.0 * sym3 / r5[:, None, None, None]
                                 - 15.0 * xxx / (r5 * r2)[:, None, None, None])

    def divergence(self, pts):
        return np.einsum('nijj->ni', self.gradient(pts))


# ---------------------------------------------------------------------------
# piecewise fields across an interface


class PiecewiseField:
    """Bulk field with independent smooth fields on the two interface sides.

    The plus side is the side the interface normal points toward; the jump
    is plus minus minus.  With no interface the field is globally smooth.
    Each side must be a field with ``value`` and ``gradient`` (wrap a plain
    evaluator in ``CallableField``); value, gradient and divergence are
    taken from the side each point lies on, so no derivative ever samples
    across the interface.
    """

    def __init__(self, rank, plus, minus=None, interface=None):
        self.rank = rank
        self.plus = plus
        self.minus = minus if minus is not None else plus
        self.interface = interface
        if interface is None and minus is not None and minus is not plus:
            raise FieldError("two-sided field needs an interface")
        for f in (self.plus, self.minus):
            if not (hasattr(f, 'value') and hasattr(f, 'gradient')):
                raise FieldError(
                    "piecewise field sides need value and gradient; "
                    "wrap a plain evaluator in CallableField")

    @classmethod
    def smooth(cls, field, rank):
        return cls(rank, field, None, None)

    def _per_side(self, pts, method, orders):
        """``_side_call`` of the side field each point lies on: entry k has
        rank + orders[k] tensor axes."""
        if -1 in orders and self.rank not in (1, 2):
            raise RankMismatchError("divergence needs rank 1 or 2")
        pts = np.asarray(pts, dtype=float)
        if self.interface is None or self.minus is self.plus:
            return _side_call(self.plus, method, pts)
        plus_mask = self.plus_side(pts)
        n_plus = int(np.count_nonzero(plus_mask))
        if n_plus in (0, len(pts)):
            # wholly on one side, as most blocks of a rule are
            f = self.plus if n_plus else self.minus
            return _side_call(f, method, pts)
        # gather each side's points and scatter its values as whole rows
        outs = [np.empty((len(pts), 3 ** (self.rank + k))) for k in orders]
        for f, m in ((self.plus, plus_mask), (self.minus, ~plus_mask)):
            idx = np.flatnonzero(m)
            for out, v in zip(outs, _side_call(f, method,
                                               np.take(pts, idx, axis=0))):
                out[idx] = v.reshape(len(idx), -1)
        return [out.reshape((len(pts),) + (3,) * (self.rank + k))
                for out, k in zip(outs, orders)]

    def plus_side(self, pts):
        """True at the points that take the plus side's values: those at
        signed distance >= 0 from the interface."""
        return self.interface.signed_distance(pts) >= 0.0

    def value(self, pts):
        return self._per_side(pts, 'value', (0,))[0]

    def __call__(self, pts):
        return self.value(pts)

    def side_value(self, pts, side):
        f = self.plus if side > 0 else self.minus
        return np.asarray(f.value(pts))

    def jump(self, batch_or_points):
        pts = getattr(batch_or_points, 'points', batch_or_points)
        return (np.asarray(self.plus.value(pts))
                - np.asarray(self.minus.value(pts)))

    def gradient(self, pts):
        return self._per_side(pts, 'gradient', (1,))[0]

    def divergence(self, pts):
        return self._per_side(pts, 'divergence', (-1,))[0]

    def value_and_divergence(self, pts):
        """(value, divergence) with one side mask."""
        return tuple(self._per_side(pts, 'value_and_divergence', (0, -1)))


def _side_call(f, method, pts):
    """``f.<method>(pts)`` as a list of arrays; a side without
    ``value_and_divergence`` makes two calls, and one without
    ``divergence`` gets the trace of its gradient over the last two axes."""
    if method == 'value_and_divergence' and not hasattr(f, method):
        return _side_call(f, 'value', pts) + _side_call(f, 'divergence', pts)
    if method == 'divergence' and not hasattr(f, 'divergence'):
        return [np.einsum('n...jj->n...', np.asarray(f.gradient(pts)))]
    out = getattr(f, method)(pts)
    return [np.asarray(v) for v in (out if isinstance(out, tuple) else (out,))]


def jump(field, point):
    """Jump of a piecewise field at a surface point (plus minus minus)."""
    pts = np.atleast_2d(np.asarray(point, dtype=float))
    j = field.jump(pts)
    return j[0] if np.asarray(point).ndim == 1 else j


# ---------------------------------------------------------------------------
# surface fields and in-chart differentiation


class SurfaceField:
    """Smooth field on an interface, evaluated on SurfaceBatch objects.

    ``dchart`` supplies the closed-form in-chart partial derivatives
    (batch, axis) -> values that every surface derivative is built from;
    ``from_world`` gives one to the restriction of any world field.  A
    field without ``dchart`` can be evaluated but not differentiated.
    """

    def __init__(self, evaluator, rank, interface=None, dchart=None):
        self.evaluator = evaluator
        self.rank = rank
        self.interface = interface
        self.dchart = dchart

    @classmethod
    def from_world(cls, fn, rank, interface=None):
        """Restriction of a world field to the surface, with the chain rule
        grad f . x_u (x_v) as dchart; a plain evaluator is wrapped in
        ``CallableField``, whose gradient is by finite differences.  The
        world gradient and the tangents of the latest batch are held, so
        both chart axes of one batch evaluate them once."""
        field = fn if hasattr(fn, 'gradient') else CallableField(fn, rank)
        latest = [(None, None)]     # (batch, (gradient, xu, xv)) as one tuple

        def dchart(batch, axis):
            held, parts = latest[0]
            if held is not batch:
                parts = (np.asarray(field.gradient(batch.points)),
                         *batch.patch.tangents(batch.U, batch.V))
                latest[0] = (batch, parts)
            return np.einsum('n...k,nk->n...', parts[0], parts[1 + axis])

        return cls(lambda batch: np.asarray(field.value(batch.points)), rank,
                   interface, dchart=dchart)

    @classmethod
    def constant(cls, value, rank, interface=None):
        value = np.asarray(value, dtype=float)

        def ev(batch):
            return np.broadcast_to(value, (len(batch),) + value.shape).copy()

        def dchart(batch, axis):
            return np.zeros((len(batch),) + value.shape)

        return cls(ev, rank, interface, dchart=dchart)

    def value(self, batch):
        return np.asarray(self.evaluator(batch))


def chart_tangent(batch, axis):
    """(t, dn): the coordinate tangent x_u (axis 0) or x_v (axis 1) and the
    chart derivative of the normal along it, dn = S t with S = grad_S n."""
    xu, xv = batch.patch.tangents(batch.U, batch.V)
    t = xu if axis == 0 else xv
    return t, np.einsum('nij,nj->ni', batch.shape_ops, t)


def chart_derivatives(field, batch):
    """(df/du, df/dv) of a surface field along the chart axes, from its
    ``dchart``."""
    if getattr(field, 'dchart', None) is None:
        raise FieldError(
            "surface field has no dchart to differentiate: restrict a world "
            "field with SurfaceField.from_world, or give it a closed-form "
            "dchart")
    return field.dchart(batch, 0), field.dchart(batch, 1)


def dual_tangents(batch):
    """Dual basis (g^u, g^v) to the coordinate tangents."""
    xu, xv = batch.patch.tangents(batch.U, batch.V)
    guu = np.einsum('ni,ni->n', xu, xu)
    guv = np.einsum('ni,ni->n', xu, xv)
    gvv = np.einsum('ni,ni->n', xv, xv)
    det = guu * gvv - guv ** 2
    gu = (gvv[:, None] * xu - guv[:, None] * xv) / det[:, None]
    gv = (guu[:, None] * xv - guv[:, None] * xu) / det[:, None]
    return gu, gv


def tangential_gradient(fu, fv, dual):
    """grad_S from chart partials (fu, fv) and the dual tangents (gu, gv)."""
    gu, gv = dual
    shape = (len(fu),) + (1,) * (fu.ndim - 1) + (3,)
    return (fu[..., None] * gu.reshape(shape)
            + fv[..., None] * gv.reshape(shape))


def surface_gradient(field, batch):
    """grad_S f: tangential derivative of a surface field, (N, ..., 3)."""
    fu, fv = chart_derivatives(field, batch)
    return tangential_gradient(fu, fv, dual_tangents(batch))


def surface_divergence(field, batch):
    """div_S f: trace for vector fields, row-wise contraction for tensors."""
    return surface_trace(surface_gradient(field, batch), field.rank)


def surface_trace(grad, rank):
    """div_S f from grad_S f (N, ..., 3) of a rank-1 or rank-2 field."""
    if rank not in (1, 2):
        raise RankMismatchError("surface divergence needs rank 1 or 2")
    return np.einsum('n...jj->n...', grad)


def shape_divergence(batch):
    """div_S(grad_S n) = grad_S kappa - tr(S^2) n with S = grad_S n; kappa
    is constant on every catalog patch (spheres, planes, cylinders), so
    this is -tr(S^2) n."""
    S = batch.shape_ops
    return -np.einsum('nij,nij->n', S, S)[:, None] * batch.normals


def shaped_divergence(value, grad, batch):
    """div_S(f grad_S n) from the values and grad_S of a surface field f,
    by the product rule (grad_S f):S + f div_S(grad_S n)."""
    return (np.einsum('n...jk,njk->n...', grad, batch.shape_ops)
            + np.einsum('n...j,nj->n...', value, shape_divergence(batch)))


# ---------------------------------------------------------------------------
# compactly supported smooth test functions


def _in_support(q):
    """The bump support, q = |x-c|^2/r^2 < 1 - 1e-9: beta and all its
    q-derivatives are exactly 0 wherever this is False."""
    return q < 1.0 - 1e-9


def _bump_radial(q, order):
    """[beta, d beta/dq, d2 beta/dq2][:order + 1] with
    beta(q) = exp(1 - 1/(1-q)) inside the support (``_in_support``), else 0."""
    q = np.asarray(q, dtype=float)
    m = _in_support(q)
    om = 1.0 - q[m]
    e = np.exp(1.0 - 1.0 / om)
    inside = [e]
    if order >= 1:
        inside.append(-e / om ** 2)
    if order >= 2:
        inside.append(e * (1.0 / om ** 4 - 2.0 / om ** 3))
    out = []
    for v in inside:
        full = np.zeros_like(q)
        full[m] = v
        out.append(full)
    return out


# contraction rows kept per bump, one per value of the constant it is
# contracted with (``_ComponentBump.contract_gradient``)
CONTRACTION_MEMO_SIZE = 4


def jet(f, pts, order):
    """[value, gradient, hessian][:order + 1] of a test function or factor,
    from its own ``jet`` when it has one."""
    own = getattr(f, 'jet', None)
    if own is not None:
        return own(pts, order)
    return [m(pts) for m in (f.value, f.gradient, f.hessian)[:order + 1]]


class _ComponentBump:
    """Radial bump beta(|x-c|^2/r^2) times one polynomial per component.

    The constructor compiles the distinct polynomials onto one closed
    exponent table, as rows for P, for P and dP, and for P, dP and ddP; a
    derivative of order k, alone or in a ``jet`` with the lower orders,
    then costs one radial factor with its first k q-derivatives and one
    monomial table with one product on the order-k rows (``Poly3.apply``;
    ``value_and_gradient`` applies two), and ``_pick`` maps the distinct
    rows onto the components.  Both run only at the points inside the
    support (``_in_support``), and every other point gets exact zeros; a
    scalar bump's value alone evaluates its polynomial everywhere, so that
    each point keeps the bits it has in the whole batch (``Poly3``).
    """

    def __init__(self, center, radius, polys, shape):
        self.center = np.asarray(center, dtype=float)
        self.radius = float(radius)
        self.polys = polys
        self.shape = shape
        # list.index matches Poly3s by identity: shared entries compile once
        distinct = [p for i, p in enumerate(polys) if polys.index(p) == i]
        pick = [distinct.index(p) for p in polys]
        self._pick = None if pick == list(range(len(pick))) else np.array(pick)
        self._value = _stacked(distinct, (len(distinct),))
        P = self._value.coefs
        G = _derivative_rows(self._value.exps, P).reshape(-1, P.shape[1])
        H = _derivative_rows(self._value.exps, G).reshape(-1, P.shape[1])
        self._gradient = self._value.with_coefs(np.concatenate([P, G]))
        self._hessian = self._value.with_coefs(np.concatenate([P, G, H]))
        self._contractions = LruMemo(CONTRACTION_MEMO_SIZE)

    def _components(self, planes):
        """Node-last (distinct, ..., N) planes -> (N,) + shape + (...)
        arrays in the memory layout ``_orders`` states."""
        if self._pick is None:
            return self._shaped(np.ascontiguousarray(np.moveaxis(planes, -1, 0)))
        rows = np.ascontiguousarray(np.moveaxis(planes, -1, 1))[self._pick]
        return self._shaped(np.moveaxis(rows, 0, 1))

    def _shaped(self, rows):
        """(N, components, ...) -> (N,) + shape + (...), as a view."""
        return rows.reshape(rows.shape[:1] + self.shape + rows.shape[2:])

    def _support(self, pts):
        """(points, offsets d = x - c, q, indices of the points inside)."""
        pts = np.asarray(pts, dtype=float)
        d = pts - self.center
        q = np.einsum('ni,ni->n', d, d) / self.radius ** 2
        return pts, d, q, np.flatnonzero(_in_support(q))

    def _orders(self, pts, orders):
        """Value (0), gradient (1) and Hessian (2) for the ascending
        ``orders``, as (N,) + shape + (3,) * order arrays, zero outside the
        support.

        The memory layout is node-major (C-contiguous), or component-major
        (components, N, ...) when components share a distinct polynomial
        (``_pick``): numpy reductions downstream (``einsum``) choose their
        summation order by the strides, so the layout is part of every
        pairing's bits.
        """
        pts, d, q, idx = self._support(pts)
        n, top = len(q), orders[-1]
        # a scalar's value (one polynomial row) runs as a matrix-vector
        # product, whose sums depend on the batch: it is never masked
        if len(idx) == n or (top == 0 and len(self._value.coefs) == 1):
            return [self._components(p) for p in self._inside_orders(
                self._value.monomials(pts), d, _bump_radial(q, top), orders)]
        # gather the inside points, scatter their values as whole rows
        planes = (self._inside_orders(
            self._value.monomials(np.take(pts, idx, axis=0)),
            np.take(d, idx, axis=0), _bump_radial(q[idx], top), orders)
            if len(idx) else [None] * len(orders))
        out = []
        for p, k in zip(planes, orders):
            if self._pick is None:
                full = np.zeros((n, len(self.polys) * 3 ** k))
                if p is not None:
                    full[idx] = p.reshape(-1, len(idx)).T
                full = full.reshape((n, len(self.polys)) + (3,) * k)
            else:
                full = np.zeros((len(self.polys), n) + (3,) * k)
                if p is not None:
                    full[:, idx] = np.moveaxis(p, -1, 1)[self._pick]
                full = np.moveaxis(full, 0, 1)
            out.append(self._shaped(full))
        return out

    def _inside_orders(self, table, d, radial, orders):
        """``_orders`` at points inside the support (or, unmasked, at any
        points), from their monomial table, offsets d = x - c and radial
        factors, and one product with the rows of the highest order; hess q
        is (2/r^2) I.  Returned as node-last planes (distinct, ..., N), so
        that the product rule runs along whole rows of nodes."""
        top = orders[-1]
        beta = radial[0]
        rows = np.ascontiguousarray(
            (self._value, self._gradient, self._hessian)[top].apply(table).T)
        n, u = len(d), len(self._value.coefs)
        P = rows[:u]
        out = []
        if 0 in orders:
            out.append(P * beta)
        if top >= 1:
            b1 = radial[1]
            dq = 2.0 * np.ascontiguousarray(d.T) / self.radius ** 2
            gP = rows[u:4 * u].reshape(u, 3, n)
        if 1 in orders:
            g = beta * gP
            g += (P * b1)[:, None] * dq
            out.append(g)
        if 2 in orders:
            hq = 2.0 / self.radius ** 2
            h = beta * rows[4 * u:].reshape(u, 3, 3, n)
            sym = gP[:, :, None] * dq
            sym += dq[:, None] * gP[:, None]
            sym *= b1
            h += sym
            h += (P * radial[2])[:, None, None] * dq[:, None] * dq
            h += ((P * b1) * hq)[:, None, None] * T.I3[:, :, None]
            out.append(h)
        return out

    def jet(self, pts, order):
        """[value, gradient, hessian][:order + 1]."""
        return self._orders(pts, range(order + 1))

    def contract_gradient(self, C, pts):
        """(C : grad psi, psi) for a constant C of shape ``shape + (3,)``,
        zero outside the support.

        With psi_i = beta(q) P_i and d = x - c,
        C : grad psi = beta D + beta' (2/r^2) sum_i P_i (C d)_i, where
        D = sum_ij C_ij dP_i/dx_j is compiled as one row after the distinct
        P (kept per value of C): one radial factor and one ``Poly3.value``
        call on u + 1 rows take the place of the gradient.
        """
        C = np.asarray(C, dtype=float)
        if C.shape != self.shape + (3,):
            raise RankMismatchError(
                f"contraction shape mismatch: {C.shape} vs {self.shape + (3,)}")
        rows, Cd = self._contractions.get(C.tobytes(),
                                          lambda: self._contraction_rows(C))
        pts, d, q, idx = self._support(pts)
        n = len(q)
        if len(idx) == n:
            return self._contract_inside(rows, Cd, pts, d, q)
        cg, psi = np.zeros(n), np.zeros((n,) + self.shape)
        if len(idx):
            cg[idx], psi[idx] = self._contract_inside(
                rows, Cd, np.take(pts, idx, axis=0), np.take(d, idx, axis=0),
                q[idx])
        return cg, psi

    def _contraction_rows(self, C):
        """The u + 1 rows (P, D) over the bump's table, and C summed onto
        the distinct rows as a (u, 3) array."""
        P = self._value.coefs
        u = len(P)
        Cd = np.zeros((u, 3))
        comps = np.arange(u) if self._pick is None else self._pick
        np.add.at(Cd, comps, C.reshape(-1, 3))
        G = self._gradient.coefs[u:].reshape(u, 3, -1)
        D = np.einsum('kj,kjm->m', Cd, G)
        return self._value.with_coefs(np.concatenate([P, D[None]])), Cd

    def _contract_inside(self, rows, Cd, pts, d, q):
        """``contract_gradient`` at points inside the support."""
        beta, b1 = _bump_radial(q, 1)
        u = len(Cd)
        vals = rows.value(pts)
        P = vals[:, :u]
        cg = beta * vals[:, u]
        cg += (2.0 / self.radius ** 2) * b1 * np.einsum('nk,nk->n', P, d @ Cd.T)
        psi = beta[:, None] * P
        if self._pick is not None:
            psi = psi[:, self._pick]
        return cg, psi.reshape((len(q),) + self.shape)

    def value(self, pts):
        return self._orders(pts, (0,))[0]

    def gradient(self, pts):
        return self._orders(pts, (1,))[0]

    def value_and_gradient(self, pts):
        """(value, gradient) with their bits and strides, sharing one radial
        factor and table when every point is inside the support."""
        pts, d, q, idx = self._support(pts)
        if len(idx) < len(q):
            return self.value(pts), self.gradient(pts)
        table, radial = self._value.monomials(pts), _bump_radial(q, 1)
        return tuple(self._components(self._inside_orders(
            table, d, radial, (k,))[0]) for k in (0, 1))

    def hessian(self, pts):
        return self._orders(pts, (2,))[0]


class BumpScalar(_ComponentBump):
    """psi(x) = P(x) * exp(1 - 1/(1 - |x-c|^2/r^2)) inside the support ball."""

    rank = 0

    def __init__(self, center, radius, poly=None):
        self.poly = poly if poly is not None else Poly3.constant(1.0)
        super().__init__(center, radius, [self.poly], ())


class BumpVector(_ComponentBump):
    rank = 1

    def __init__(self, center, radius, polys):
        if len(polys) != 3:
            raise FieldError("vector bump needs 3 polynomials")
        super().__init__(center, radius, list(polys), (3,))

    def curl(self, pts):
        return T.curl_from_gradient(self.gradient(pts))


class BumpSymTensor(_ComponentBump):
    """Symmetric-tensor bump: six polynomials fill the upper triangle."""

    rank = 2

    def __init__(self, center, radius, polys):
        if len(polys) != 6:
            raise FieldError("symmetric tensor bump needs 6 polynomials")
        iu = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        grid = np.empty((3, 3), dtype=object)
        for (i, j), p in zip(iu, polys):
            grid[i, j] = p
            grid[j, i] = p
        super().__init__(center, radius, list(grid.ravel()), (3, 3))


def make_bump(domain, center, radius, rank=0, rng=None, degree=3, poly=None):
    """Random-polynomial bump test function supported strictly inside the domain."""
    center = np.asarray(center, dtype=float)
    if not domain.contains_ball(center, radius):
        raise FieldError(
            f"bump support B({center}, {radius}) is not strictly inside the domain")
    if poly is not None:
        return BumpScalar(center, radius, poly)
    if rng is None:
        return BumpScalar(center, radius)
    if rank == 0:
        return BumpScalar(center, radius, Poly3.random(rng, degree))
    n = 3 if rank == 1 else 6
    polys = [Poly3.random(rng, degree) for _ in range(n)]
    return (BumpVector(center, radius, polys) if rank == 1
            else BumpSymTensor(center, radius, polys))


class ModulatedTest:
    """Product of a test function and a smooth scalar factor (value/grad/hess)."""

    def __init__(self, base, factor):
        self.base = base
        self.factor = factor
        self.rank = base.rank

    def jet(self, pts, order):
        """[value, gradient, hessian][:order + 1] of factor * base, by the
        product rule on one jet of the factor and one of the base."""
        m = jet(self.factor, pts, order)
        v = jet(self.base, pts, order)
        lead = (-1,) + (1,) * (v[0].ndim - 1)
        out = [m[0].reshape(lead) * v[0]]
        if order >= 1:
            # on node-last planes (..., 3, N), so that the product rule runs
            # along whole rows of nodes; copied back once, into the memory
            # layout of the base's gradient (see ``_ComponentBump._orders``)
            g = m[0] * np.ascontiguousarray(np.moveaxis(v[1], 0, -1))
            g += (np.ascontiguousarray(np.moveaxis(v[0], 0, -1))[..., None, :]
                  * np.ascontiguousarray(m[1].T))
            grad = np.empty_like(v[1])
            np.moveaxis(grad, 0, -1)[...] = g
            out.append(grad)
        if order >= 2:
            h = m[0].reshape(lead + (1, 1)) * v[2]
            h += v[1][..., :, None] * m[1].reshape(lead + (1, 3))
            h += v[1][..., None, :] * m[1].reshape(lead + (3, 1))
            h += v[0][..., None, None] * m[2].reshape(lead + (3, 3))
            out.append(h)
        return out

    @property
    def contract_gradient(self):
        """The base's hook, ``contract_gradient(C, pts)`` -> (C : grad psi,
        psi), carried through the product rule
        C : grad(m phi) = m (C : grad phi) + phi . (C grad m) on one factor
        jet and one base call; None when the base has no hook."""
        base = getattr(self.base, 'contract_gradient', None)
        if base is None:
            return None

        def hook(C, pts):
            m = jet(self.factor, pts, 1)
            cg, phi = base(C, pts)
            Cm = m[1] @ np.asarray(C, dtype=float).reshape(-1, 3).T
            lead = (-1,) + (1,) * (phi.ndim - 1)
            return (m[0] * cg + np.einsum('nk,nk->n',
                                          phi.reshape(len(cg), -1), Cm),
                    m[0].reshape(lead) * phi)
        return hook

    def value(self, pts):
        return self.jet(pts, 0)[0]

    def gradient(self, pts):
        return self.jet(pts, 1)[1]

    def hessian(self, pts):
        return self.jet(pts, 2)[2]

    def curl(self, pts):
        if self.rank != 1:
            raise RankMismatchError("curl needs a vector test")
        return T.curl_from_gradient(self.gradient(pts))


class SquaredDistanceFactor:
    """m(x) = s(x)^2: vanishes with its normal derivative on the interface."""

    def __init__(self, interface):
        self.interface = interface

    def jet(self, pts, order):
        """[value, gradient, hessian][:order + 1] from one distance
        evaluation."""
        d = self.interface.distance_jet(pts, order)
        s = d[0]
        out = [s ** 2]
        if order >= 1:
            out.append(2.0 * s[:, None] * d[1])
        if order >= 2:
            out.append(2.0 * np.einsum('ni,nj->nij', d[1], d[1])
                       + 2.0 * s[:, None, None] * d[2])
        return out

    def value(self, pts):
        return self.jet(pts, 0)[0]

    def gradient(self, pts):
        return self.jet(pts, 1)[1]

    def hessian(self, pts):
        return self.jet(pts, 2)[2]


class SmoothStepProfile:
    """C-infinity transition t -> [0, 1] with closed-form derivatives."""

    @staticmethod
    def _g(t):
        out = np.zeros_like(t)
        m = t > 0
        out[m] = np.exp(-1.0 / t[m])
        return out

    @staticmethod
    def _g1(t):
        out = np.zeros_like(t)
        m = t > 0
        out[m] = np.exp(-1.0 / t[m]) / t[m] ** 2
        return out

    @staticmethod
    def _g2(t):
        out = np.zeros_like(t)
        m = t > 0
        out[m] = np.exp(-1.0 / t[m]) * (1.0 / t[m] ** 4 - 2.0 / t[m] ** 3)
        return out

    def value(self, t):
        t = np.asarray(t, dtype=float)
        g, g1 = self._g(t), self._g(1.0 - t)
        return np.where(t <= 0, 0.0, np.where(t >= 1, 1.0, g / (g + g1)))

    def d1(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t > 0) & (t < 1)
        out = np.zeros_like(t)
        ti = t[inside]
        g, gp = self._g(ti), self._g1(ti)
        h, hp = self._g(1.0 - ti), self._g1(1.0 - ti)
        D = g + h
        out[inside] = (gp * h + g * hp) / D ** 2
        return out

    def d2(self, t):
        t = np.asarray(t, dtype=float)
        inside = (t > 0) & (t < 1)
        out = np.zeros_like(t)
        ti = t[inside]
        g, gp, gpp = self._g(ti), self._g1(ti), self._g2(ti)
        h, hp, hpp = self._g(1.0 - ti), self._g1(1.0 - ti), self._g2(1.0 - ti)
        D = g + h
        Dp = gp - hp
        N = gp * h + g * hp
        Np = gpp * h - g * hpp
        out[inside] = (Np * D - 2.0 * N * Dp) / D ** 3
        return out


class PlateauFactor:
    """m(z) = 1 on |z - z0| <= w_in, 0 for |z - z0| >= w_out, C-infinity between."""

    def __init__(self, z0, w_in, w_out, axis=2):
        if not 0 < w_in < w_out:
            raise FieldError("plateau needs 0 < w_in < w_out")
        self.z0, self.w_in, self.w_out, self.axis = z0, w_in, w_out, axis
        self._step = SmoothStepProfile()

    def _t(self, pts):
        z = pts[:, self.axis] - self.z0
        return (self.w_out - np.abs(z)) / (self.w_out - self.w_in), np.sign(z)

    def value(self, pts):
        t, _ = self._t(np.asarray(pts, dtype=float))
        return self._step.value(t)

    def gradient(self, pts):
        pts = np.asarray(pts, dtype=float)
        t, sgn = self._t(pts)
        w = self.w_out - self.w_in
        out = np.zeros_like(pts)
        out[:, self.axis] = self._step.d1(t) * (-sgn / w)
        return out

    def hessian(self, pts):
        pts = np.asarray(pts, dtype=float)
        t, _ = self._t(pts)
        w = self.w_out - self.w_in
        out = np.zeros((len(pts), 3, 3))
        out[:, self.axis, self.axis] = self._step.d2(t) / w ** 2
        return out


# ---------------------------------------------------------------------------
# curl-free tensor test fields (gradients of vector potentials)


@dataclass(frozen=True)
class RadialProfile:
    """phi(x) = 1 - step((|x| - a) / (b - a)): identically 1 for |x| <= a,
    0 for |x| >= b, C-infinity between (``SmoothStepProfile``).  Profiles
    compare by value, so tests built apart can share one evaluation."""

    a: float
    b: float
    _step: ClassVar[SmoothStepProfile] = SmoothStepProfile()

    def _t(self, r):
        return (r - self.a) / (self.b - self.a)

    def _radius(self, pts):
        pts = np.asarray(pts, dtype=float)
        r = np.linalg.norm(pts, axis=-1)
        return r, pts / r[:, None]

    def _d1(self, r):
        return -self._step.d1(self._t(r)) / (self.b - self.a)

    def value(self, pts):
        r = np.linalg.norm(np.asarray(pts, dtype=float), axis=-1)
        return 1.0 - self._step.value(self._t(r))

    def gradient(self, pts):
        r, er = self._radius(pts)
        return self._d1(r)[:, None] * er

    def hessian(self, pts):
        r, er = self._radius(pts)
        ee = np.einsum('nj,nk->njk', er, er)
        radial = (-self._step.d2(self._t(r))
                  / (self.b - self.a) ** 2)[:, None, None] * ee
        return radial + (self._d1(r) / r)[:, None, None] * (T.I3 - ee)


class PotentialStack:
    """Scalar potentials evaluated together: ``orders(pts, orders)`` gives
    the gradient (order 1) and the Hessian (order 2) of each, as (N, m, 3)
    and (N, m, 3, 3) arrays with potential t along axis 1.

    Bumps on one support run as one ``_ComponentBump`` with a row per bump:
    one radial factor and one ``Poly3`` call for all of them, each row
    bit-identical to the bump's own.  Any other potential is evaluated on
    its own.
    """

    def __init__(self, potentials):
        self.potentials = list(potentials)
        self._joint = None
        first = self.potentials[0]
        if len(self.potentials) > 1 and all(
                isinstance(p, BumpScalar) and p.radius == first.radius
                and np.array_equal(p.center, first.center)
                for p in self.potentials):
            self._joint = _ComponentBump(first.center, first.radius,
                                         [p.poly for p in self.potentials],
                                         (len(self.potentials),))

    def orders(self, pts, orders):
        if self._joint is not None:
            return self._joint._orders(pts, orders)
        per = [[(p.gradient, p.hessian)[k - 1](pts) for k in orders]
               for p in self.potentials]
        if len(per) == 1:
            return [a[:, None] for a in per[0]]
        return [np.stack(arrays, axis=1) for arrays in zip(*per)]


class GradientTestField:
    """psi = grad u for the vector potential u = c phi: a constant direction
    c times a smooth scalar ``potential`` phi that is constant on a
    neighborhood of each boundary component.  ``constants`` holds the value
    of u there (zero on component 0).

    Curl-free by construction; psi = c (x) grad phi, its gradient
    c (x) hess phi and the potential itself are all analytic.
    ``volume_breaks`` exposes the radial structure of the potential so
    pairings can resolve its transition layers.
    """

    rank = 2

    def __init__(self, direction, potential, constants, volume_breaks=None):
        self.direction = np.asarray(direction, dtype=float)
        self.potential = potential
        self.constants = [np.asarray(c, dtype=float) for c in constants]
        self.volume_breaks = volume_breaks

    def u(self, pts):
        pts = np.asarray(pts, dtype=float)
        return self.direction[None, :] * self.potential.value(pts)[:, None]

    def value(self, pts):
        return np.einsum('i,nj->nij', self.direction,
                         self.potential.gradient(np.asarray(pts, dtype=float)))

    def gradient(self, pts):
        return np.einsum('i,njk->nijk', self.direction,
                         self.potential.hessian(np.asarray(pts, dtype=float)))

    def curl_residual(self, pts):
        """max |curl of each row| (zero identically for gradients)."""
        g = self.gradient(pts)
        c = np.einsum('jkl,nilk->nij', T.EPS, g)
        return float(np.max(np.abs(c)))


def make_gradient_test_field(domain, constants, margin=0.12, rng=None,
                             center=None, radius=None, direction=None):
    """Curl-free tensor test field adapted to the domain's boundary components.

    For a shell the potential is c_1 * profile(r): identically c_1 near the
    inner boundary, zero near the outer one.  For a single-component domain
    the constants must all vanish and the potential is a vector bump.
    """
    constants = [np.asarray(c, dtype=float) for c in constants]
    if len(constants) != domain.k:
        raise FieldError(f"need one constant per boundary component (k={domain.k})")
    if np.linalg.norm(constants[0]) != 0.0:
        raise FieldError("the constant on component 0 must vanish")
    nonzero = any(np.linalg.norm(c) > 0 for c in constants[1:])

    if domain.k == 1 or not nonzero:
        if any(np.linalg.norm(c) > 0 for c in constants):
            raise FieldError("single-component domains admit only zero constants")
        if center is None or radius is None:
            raise FieldError("interior gradient test needs a bump center and radius")
        poly = Poly3.constant(1.0) if rng is None else Poly3.random(rng, 2)
        bump = make_bump(domain, center, radius, rank=0, poly=poly)
        d = direction if direction is not None else [1.0, 0.0, 0.0]
        g = GradientTestField(d, bump, constants)
        g.center = bump.center
        g.radius = bump.radius
        return g

    if domain.kind != 'spherical-shell':
        raise FieldError("boundary-constant gradient tests need a spherical shell")
    r0, r1 = domain.inner_radius, domain.outer_radius
    a = r0 + margin * (r1 - r0)
    b = r1 - margin * (r1 - r0)
    # graded radial breaks resolving the profile's transition layers
    w = b - a
    breaks = sorted({a, b, 0.5 * (a + b)}
                    | {a + w * 0.5 ** k for k in range(1, 9)}
                    | {b - w * 0.5 ** k for k in range(1, 9)})
    return GradientTestField(constants[1], RadialProfile(a, b), constants,
                             volume_breaks=breaks)


# ---------------------------------------------------------------------------
# catalog surface fields


def uniform_tension(gamma, interface):
    """Isotropic tangential tension gamma (I - n@n) on the interface."""
    return dilatational_surface(gamma, interface)


def dilatational_surface(p, interface):
    """p (I - n@n) for a constant p, with the dchart -p (dn@n + n@dn)."""
    p = float(p)

    def ev(batch):
        nn = np.einsum('ni,nj->nij', batch.normals, batch.normals)
        return p * (T.I3 - nn)

    def dchart(batch, axis):
        _, dn = chart_tangent(batch, axis)
        dnn = np.einsum('ni,nj->nij', dn, batch.normals)
        return -p * (dnn + np.swapaxes(dnn, -1, -2))

    return SurfaceField(ev, rank=2, interface=interface, dchart=dchart)


def normal_dyad(a, interface):
    """sym(a @ n): carries nonzero net traction through closed surfaces."""
    a = np.asarray(a, dtype=float)

    def ev(batch):
        return T.sym(np.einsum('i,nj->nij', a, batch.normals))

    def dchart(batch, axis):
        _, dn = chart_tangent(batch, axis)
        return T.sym(np.einsum('i,nj->nij', a, dn))

    return SurfaceField(ev, rank=2, interface=interface, dchart=dchart)


def surface_polynomial(rng, rank, interface, degree=2, symmetric=True, scale=1.0):
    """Random polynomial field restricted to the surface."""
    if rank == 1:
        pf = PolyField.random_vector(rng, degree, scale)
    else:
        pf = (PolyField.random_symmetric(rng, degree, scale) if symmetric
              else PolyField(np.array([[Poly3.random(rng, degree, scale)
                                        for _ in range(3)] for _ in range(3)],
                                      dtype=object), rank=2))
    return SurfaceField.from_world(pf, rank, interface)
