"""Domains, oriented interfaces, and Gauss-Legendre quadrature.

Catalog geometry only: balls, spherical shells, boxes and cylinder annuli,
with interfaces that are spheres, plane disks, equatorial annuli or
cylinder patches, each a level set of one coordinate (``Interface``).
Every surface has analytic normals and shape operators, so the only
numerical error left in integrals is the quadrature error, which is
estimated from two refinement levels.

Orientation conventions (all signs downstream derive from these):

* interface normals point away from the innermost region (spheres and
  cylinders: radially outward); plane interfaces carry n = +e3;
* boundary normals on every component point out of the domain;
* kappa := tr(grad_S n), so the outward-oriented unit sphere has kappa = +2;
* the "plus" side of an interface is the side its normal points toward.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import _pool
from ._memo import LruMemo
from ._tensor import I3, fibonacci_sphere, halton
from .errors import ConfigError, EvaluationError, GeometryError

GAUSS_NODES_PER_CELL = 8          # polynomial exactness degree 15 per cell
DEFAULT_VOLUME_LEVEL = 2
DEFAULT_SURFACE_LEVEL = 2
DEFAULT_CURVE_NODES = 64
ON_SURFACE_TOL = 1e-8

# grading depth added to the refinement level for support-clipped cells
VOLUME_GRADE_OFFSET = 4
SURFACE_GRADE_OFFSET = 8

# entries kept by the fiber-rule memo (``_FIBER_CACHE``), shared by all
# interfaces and also capped in total nodes (an entry keeps 24 bytes of
# cells per 8 nodes; a refined rule has up to 1.2M), which bounds what one
# scenario leaves resident for the next
FIBER_MEMO_SIZE = 17
FIBER_MEMO_NODES = 1_000_000

# quadrature nodes per block of a streamed sum (``blocked_sum``), the unit
# of summation: each block is reduced on its own and the partials are added
# in block order.  A different block changes the summation order, which
# moves the soap-film weak residuals by 3.5e-6 of their 1e-12-scale
# tolerances, so the block is kept.
BLOCK = 8192
# whole blocks one pool task evaluates at most in one integrand call
# (``_task_size``).  The task, not the block, sets the per-call cost that
# lanes contend for: 2-block tasks run refined work about 12% faster on
# two threads with the same sums, and golden work about 5% faster.  On one
# thread they ran golden work about 6% slower, so one lane keeps 1-block
# tasks; 4-block tasks slowed the small rules of the sufficiency loop and
# raised its peak memory.
TASK_BLOCKS = 2


def support_key(support):
    """Value key of a test support ``(center, radius)``, or None."""
    if support is None:
        return None
    return (np.asarray(support[0], dtype=float).tobytes(), float(support[1]))


def interface_key(interface):
    """Value key of an interface: its kind and sorted parameters.

    The catalog constructors put everything that fixes the surface inside
    its domain into ``params``.  None for no interface.
    """
    if interface is None:
        return None
    return (interface.kind, tuple(sorted(interface.params.items())))


@dataclass(frozen=True)
class PairingValue:
    """Quadrature value with an attached two-level error estimate."""

    value: float
    error: float = 0.0

    def __add__(self, other):
        if isinstance(other, PairingValue):
            return PairingValue(self.value + other.value, self.error + other.error)
        return PairingValue(self.value + other, self.error)

    __radd__ = __add__

    def __neg__(self):
        return PairingValue(-self.value, self.error)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, a):
        return PairingValue(self.value * a, self.error * abs(a))

    __rmul__ = __mul__

    def __float__(self):
        return float(self.value)


def two_level(run, level):
    """``run(level)`` with the error estimate ``|run(level) - run(level - 1)|``;
    level 0 has no coarser rule and reports error 0.  A ``run`` that returns
    a tuple of sums gets one ``PairingValue`` per entry."""
    value = run(level)
    coarse = run(level - 1) if level > 0 else value
    if isinstance(value, tuple):
        return tuple(PairingValue(v, abs(v - c)) for v, c in zip(value, coarse))
    return PairingValue(value, abs(value - coarse))


def _gauss_rule(n):
    """Read-only n-point Gauss-Legendre nodes and weights on [-1, 1]."""
    rule = np.polynomial.legendre.leggauss(n)
    for a in rule:
        a.flags.writeable = False
    return rule


# the per-cell rules, built once at import
GAUSS_RULE = _gauss_rule(GAUSS_NODES_PER_CELL)
SMALL_CELL_RULE = _gauss_rule(4)


def _gauss_cells(breaks, level, small_cell=None):
    """1-D composite Gauss-Legendre nodes/weights on cells given by breaks.

    Each cell is split into ``2 ** level`` equal subcells (with the edges
    ``np.linspace`` gives) carrying ``GAUSS_RULE``.  Subcells narrower than
    ``small_cell`` get ``SMALL_CELL_RULE`` instead (graded ladders).
    """
    a = np.asarray(breaks, dtype=float)
    a, b = a[:-1], a[1:]
    m = 2 ** level
    # linspace(a, b, m + 1): a + k * ((b - a) / m), with the last edge b
    edges = a[:, None] + np.arange(m + 1) * ((b - a) / m)[:, None]
    edges[:, -1] = b
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    xs = mid[:, None] + half[:, None] * GAUSS_RULE[0]
    ws = half[:, None] * GAUSS_RULE[1]
    few = (hi - lo) < small_cell if small_cell is not None else None
    if few is None or not few.any():
        return xs.ravel(), ws.ravel()
    k = len(SMALL_CELL_RULE[0])
    xs[few, :k] = mid[few, None] + half[few, None] * SMALL_CELL_RULE[0]
    ws[few, :k] = half[few, None] * SMALL_CELL_RULE[1]
    used = np.ones(xs.shape, dtype=bool)
    used[few, k:] = False
    return xs[used], ws[used]


def _grade_fractions(depth):
    """The sorted distinct fractions 1/2, 2**-k and 1 - 2**-k (0 < k <
    depth) of ``_graded_breaks``, built without ``np.unique``, whose first
    call imports ``numpy.ma``."""
    halves = [0.5 ** k for k in range(1, depth)]
    return np.array(sorted({0.5, *halves, *(1.0 - h for h in halves)}))


def _graded_breaks(lo, hi, depth):
    """Breaks of [lo, hi] graded toward both ends, where bump-type
    integrands have their steep layers: lo, hi and lo + (hi - lo) * f for
    f = 1/2, 2**-k and 1 - 2**-k (0 < k < depth).  Arrays ``lo`` and ``hi``
    give one row of breaks per interval."""
    fr = _grade_fractions(depth)
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return np.concatenate([lo[..., None],
                           lo[..., None] + (hi - lo)[..., None] * fr,
                           hi[..., None]], axis=-1)


def _merge_breaks(breaks, extra, lo, hi):
    pts = set(float(b) for b in breaks)
    for e in extra:
        e = float(e)
        if lo + 1e-12 < e < hi - 1e-12:
            pts.add(e)
    return sorted(pts)


# ---------------------------------------------------------------------------
# surface patches


class SurfacePatch:
    """Parametric chart (u, v) -> R^3 with analytic normal and shape operator."""

    u_range: tuple
    v_range: tuple

    def point(self, U, V):
        raise NotImplementedError

    def normal(self, U, V):
        raise NotImplementedError

    def tangents(self, U, V):
        """Coordinate tangents (x_u, x_v), each (..., 3)."""
        raise NotImplementedError

    def area_element(self, U, V):
        raise NotImplementedError

    def shape_operator(self, U, V):
        raise NotImplementedError

    def support_batch(self, center, radius, level):
        """Quadrature over the part of the patch inside the test support
        B(center, radius), graded toward the support boundary, where a
        support integrand has its steep layers (``level`` deepens the
        grading); a zero-node batch when the support misses the patch."""
        raise NotImplementedError


def _frame_for_axis(axis):
    """Orthonormal columns (e1, e2, axis)."""
    a = np.asarray(axis, dtype=float)
    a = a / np.linalg.norm(a)
    h = np.array([1.0, 0.0, 0.0]) if abs(a[0]) < 0.9 else np.array([0.0, 1.0, 0.0])
    e1 = np.cross(h, a)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(a, e1)
    return np.stack([e1, e2, a], axis=1)


class SpherePatch(SurfacePatch):
    """Sphere |x - center| = radius, chart (theta, phi) in an optional frame."""

    def __init__(self, radius, center=(0.0, 0.0, 0.0), orientation=1.0,
                 u_range=(0.0, np.pi), v_range=(0.0, 2.0 * np.pi), frame=None):
        self.radius = float(radius)
        self.center = np.asarray(center, dtype=float)
        self.orientation = float(orientation)
        self.u_range = u_range
        self.v_range = v_range
        self.frame = np.eye(3) if frame is None else np.asarray(frame, dtype=float)

    def _radial(self, U, V):
        st, ct = np.sin(U), np.cos(U)
        local = np.stack([st * np.cos(V), st * np.sin(V), ct], axis=-1)
        return local @ self.frame.T

    def point(self, U, V):
        return self.center + self.radius * self._radial(U, V)

    def normal(self, U, V):
        return self.orientation * self._radial(U, V)

    def tangents(self, U, V):
        st, ct = np.sin(U), np.cos(U)
        xu = self.radius * np.stack([ct * np.cos(V), ct * np.sin(V), -st], axis=-1)
        xv = self.radius * np.stack([-st * np.sin(V), st * np.cos(V),
                                     np.zeros_like(st)], axis=-1)
        return xu @ self.frame.T, xv @ self.frame.T

    def area_element(self, U, V):
        return self.radius ** 2 * np.sin(U)

    def shape_operator(self, U, V):
        n = self._radial(U, V)
        proj = I3 - n[..., :, None] * n[..., None, :]
        return (self.orientation / self.radius) * proj

    def base_breaks(self):
        return ([self.u_range[0], 0.5 * sum(self.u_range), self.u_range[1]],
                [self.v_range[0], 0.5 * sum(self.v_range), self.v_range[1]])

    def support_batch(self, center, radius, level):
        """The cap inside the support, in a chart about the cap's axis whose
        theta = omega line is the cap rim; None when the support holds the
        whole sphere (the full rule then applies)."""
        c = center - self.center
        d = float(np.linalg.norm(c))
        a = self.radius
        if abs(d - a) >= radius:
            return _empty_batch(self)
        if d < 1e-12:
            return None
        arg = (a * a + d * d - radius * radius) / (2.0 * a * d)
        if arg <= -1.0:
            return None
        omega = float(np.arccos(np.clip(arg, -1.0, 1.0)))
        return self._cap_batch(c, omega, level)

    def shadow_batch(self, center, radius, level):
        """The cap of the cone the support subtends at the sphere's center
        (the whole sphere when the support holds the center)."""
        c = center - self.center
        d = float(np.linalg.norm(c))
        return self._cap_batch(c if d > 1e-12 else np.array([0.0, 0.0, 1.0]),
                               np.arcsin(radius / d) if d > radius else np.pi,
                               level)

    def _cap_batch(self, axis, omega, level):
        """The cap of half-angle ``omega`` about ``axis``, in a chart about
        the axis whose theta = omega line is the cap rim."""
        cap = SpherePatch(self.radius, self.center, self.orientation,
                          u_range=(0.0, omega), v_range=(0.0, 2 * np.pi),
                          frame=_frame_for_axis(axis))
        return _polar_support_batch(cap, omega, level)


class _PlanarPatch(SurfacePatch):
    """Flat patch (zero shape operator); a test support cuts a disk from it.
    Subclasses say whether a disk in their plane lies inside them
    (``_holds_disk(center, radius)``)."""

    def shape_operator(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        return np.zeros(shp + (3, 3))

    def support_batch(self, center, radius, level):
        """The disk the support cuts from the plane, in a polar chart about
        the disk's center whose rho = radius line is the disk rim.

        A valid test support lies strictly inside the domain and every
        catalog plane spans its domain's cross-section, so the disk lies
        inside the patch; one that leaves it raises ``GeometryError``.
        """
        dn = float((center - self.point(0.0, 0.0)) @ self.normal(0.0, 0.0))
        if abs(dn) >= radius:
            return _empty_batch(self)
        return self._disk_batch(center, np.sqrt(radius ** 2 - dn ** 2), level)

    def shadow_batch(self, center, radius, level):
        """The disk of radius ``radius`` about the foot of the center."""
        return self._disk_batch(center, radius, level)

    def _disk_batch(self, center, rp, level):
        """The disk of radius ``rp`` about the foot of ``center``, in a polar
        chart whose rho = rp line is the disk rim; ``GeometryError`` if it
        leaves the patch."""
        normal = self.normal(0.0, 0.0)
        cc = center - float((center - self.point(0.0, 0.0)) @ normal) * normal
        if not self._holds_disk(cc, rp):
            raise GeometryError(f"support disk (center {cc}, radius "
                                f"{rp:.6g}) leaves the planar patch")
        return _polar_support_batch(_RecenteredDiskPatch(cc, normal, rp), rp,
                                    level)


class PlanePolarPatch(_PlanarPatch):
    """Plane z = z0 with polar chart (rho, phi); normal fixed to +e3."""

    def __init__(self, z0, rho_range, center_xy=(0.0, 0.0)):
        self.z0 = float(z0)
        self.center_xy = np.asarray(center_xy, dtype=float)
        self.u_range = (float(rho_range[0]), float(rho_range[1]))
        self.v_range = (0.0, 2.0 * np.pi)

    def point(self, U, V):
        x = self.center_xy[0] + U * np.cos(V)
        y = self.center_xy[1] + U * np.sin(V)
        return np.stack([x, y, np.full_like(np.asarray(U, dtype=float), self.z0)], axis=-1)

    def normal(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        n = np.zeros(shp + (3,))
        n[..., 2] = 1.0
        return n

    def tangents(self, U, V):
        zu = np.zeros_like(np.asarray(U, dtype=float))
        xu = np.stack([np.cos(V), np.sin(V), zu], axis=-1)
        xv = np.stack([-U * np.sin(V), U * np.cos(V), zu], axis=-1)
        return xu, xv

    def area_element(self, U, V):
        return np.broadcast_to(np.asarray(U, dtype=float),
                               np.broadcast(np.asarray(U), np.asarray(V)).shape)

    def base_breaks(self):
        u0, u1 = self.u_range
        ub = [u0, 0.5 * (u0 + u1), u1] if u0 > 0 else [u0, 0.5 * u1, u1]
        return (ub, [0.0, np.pi, 2.0 * np.pi])

    def _holds_disk(self, cc, rp):
        rho = float(np.hypot(*(cc[:2] - self.center_xy)))
        lo, hi = self.u_range
        return ((lo <= 1e-12 or rho - rp >= lo - 1e-12)
                and rho + rp <= hi + 1e-12)


class CylinderPatch(SurfacePatch):
    """Cylinder rho = radius about the z-axis, chart (phi, z)."""

    def __init__(self, radius, z_range, orientation=1.0):
        self.radius = float(radius)
        self.orientation = float(orientation)
        self.u_range = (0.0, 2.0 * np.pi)
        self.v_range = (float(z_range[0]), float(z_range[1]))

    def point(self, U, V):
        return np.stack([self.radius * np.cos(U), self.radius * np.sin(U),
                         np.asarray(V, dtype=float) + 0.0 * np.asarray(U)], axis=-1)

    def normal(self, U, V):
        z = np.zeros_like(np.asarray(U, dtype=float))
        return self.orientation * np.stack([np.cos(U), np.sin(U), z], axis=-1)

    def tangents(self, U, V):
        z = np.zeros_like(np.asarray(U, dtype=float))
        xu = self.radius * np.stack([-np.sin(U), np.cos(U), z], axis=-1)
        xv = np.stack([z, z, np.ones_like(z)], axis=-1)
        return xu, xv

    def area_element(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        return np.full(shp, self.radius)

    def shape_operator(self, U, V):
        er = np.stack([np.cos(U), np.sin(U), np.zeros_like(np.asarray(U, dtype=float))],
                      axis=-1)
        proj = I3 - er[..., :, None] * er[..., None, :]
        proj = proj.copy()
        proj[..., 2, 2] -= 1.0
        return (self.orientation / self.radius) * proj

    def base_breaks(self):
        v0, v1 = self.v_range
        return ([0.0, np.pi, 2.0 * np.pi], [v0, 0.5 * (v0 + v1), v1])

    def support_batch(self, center, radius, level):
        """The (phi, z) rectangle of the support's cut: half-angle
        arccos((a^2 + rho_c^2 - r^2) / (2 a rho_c)) about the center's
        azimuth and half-height sqrt(r^2 - (rho_c - a)^2).  The cut's rim
        crosses cells; the integrand vanishes beyond it."""
        a, rho_c = self.radius, float(np.hypot(center[0], center[1]))
        if abs(rho_c - a) >= radius:
            return _empty_batch(self)
        cos_half = ((a * a + rho_c * rho_c - radius * radius)
                    / (2.0 * a * rho_c) if rho_c > 1e-12 else -1.0)
        return self._rect_batch(center, np.arccos(np.clip(cos_half, -1, 1)),
                                np.sqrt(radius ** 2 - (rho_c - a) ** 2),
                                level)

    def shadow_batch(self, center, radius, level):
        """The (phi, z) rectangle of the cone the support subtends at the
        axis (all azimuths when it holds the axis) and of its height."""
        rho_c = float(np.hypot(center[0], center[1]))
        half = np.arcsin(radius / rho_c) if rho_c > radius else np.pi
        return self._rect_batch(center, half, radius, level)

    def _rect_batch(self, center, half, height, level):
        """Tensor rule on phi_c +- half (unwrapped) by z_c +- height
        (clipped to the patch), graded toward the ends of both."""
        v0, v1 = self.v_range
        lo, hi = max(v0, center[2] - height), min(v1, center[2] + height)
        if lo >= hi:
            return _empty_batch(self)
        phi_c = float(np.arctan2(center[1], center[0]))
        depth = level + SURFACE_GRADE_OFFSET
        return _tensor_batch(
            self, _gauss_cells(_graded_breaks(phi_c - half, phi_c + half,
                                              depth), 0),
            _gauss_cells(_graded_breaks(lo, hi, depth), 0))


class RectPatch(_PlanarPatch):
    """Planar rectangle origin + u*eu + v*ev with a fixed unit normal."""

    def __init__(self, origin, eu, ev, normal, u_range, v_range):
        self.origin = np.asarray(origin, dtype=float)
        self.eu = np.asarray(eu, dtype=float)
        self.ev = np.asarray(ev, dtype=float)
        self._normal = np.asarray(normal, dtype=float)
        self.u_range = (float(u_range[0]), float(u_range[1]))
        self.v_range = (float(v_range[0]), float(v_range[1]))

    def point(self, U, V):
        return (self.origin + np.asarray(U, dtype=float)[..., None] * self.eu
                + np.asarray(V, dtype=float)[..., None] * self.ev)

    def normal(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        return np.broadcast_to(self._normal, shp + (3,))

    def tangents(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        return (np.broadcast_to(self.eu, shp + (3,)),
                np.broadcast_to(self.ev, shp + (3,)))

    def area_element(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        return np.ones(shp)

    def base_breaks(self):
        u0, u1 = self.u_range
        v0, v1 = self.v_range
        return ([u0, 0.5 * (u0 + u1), u1], [v0, 0.5 * (v0 + v1), v1])

    def _holds_disk(self, cc, rp):
        d = cc - self.origin
        u, v = float(d @ self.eu), float(d @ self.ev)
        (u0, u1), (v0, v1) = self.u_range, self.v_range
        return (u - rp >= u0 - 1e-12 and u + rp <= u1 + 1e-12
                and v - rp >= v0 - 1e-12 and v + rp <= v1 + 1e-12)


# ---------------------------------------------------------------------------
# evaluation batches


@dataclass
class SurfaceBatch:
    """Surface points with the geometric data integrands need."""

    patch: SurfacePatch
    U: np.ndarray
    V: np.ndarray
    points: np.ndarray
    normals: np.ndarray
    shape_ops: np.ndarray
    weights: Optional[np.ndarray] = None      # includes the area element

    @property
    def kappa(self):
        return np.einsum('nii->n', self.shape_ops)

    def __len__(self):
        return self.points.shape[0]

    def nodes(self, lo, hi):
        """Nodes lo..hi, as views."""
        return self.take(slice(lo, hi))

    def take(self, index):
        """The batch of the nodes ``index`` selects (a slice gives views)."""
        return SurfaceBatch(self.patch, self.U[index], self.V[index],
                            self.points[index], self.normals[index],
                            self.shape_ops[index], None if self.weights is None
                            else self.weights[index])


def make_surface_batch(patch, U, V, weights=None):
    U = np.asarray(U, dtype=float).ravel()
    V = np.asarray(V, dtype=float).ravel()
    return SurfaceBatch(patch=patch, U=U, V=V,
                        points=patch.point(U, V),
                        normals=patch.normal(U, V),
                        shape_ops=patch.shape_operator(U, V),
                        weights=weights)


@dataclass
class CurveBatch:
    """Quadrature nodes along a boundary curve of an interface.

    ``nu`` is the in-plane conormal (tangent to S, normal to the curve,
    pointing out of S).  Nodes double as surface points of the parent
    interface patch so surface fields can be evaluated on them.
    """

    component: int
    surface: SurfaceBatch
    nu: np.ndarray
    weights: np.ndarray

    @property
    def points(self):
        return self.surface.points

    def __len__(self):
        return self.surface.points.shape[0]

    def nodes(self, lo, hi):
        """Nodes lo..hi, as views."""
        return CurveBatch(self.component, self.surface.nodes(lo, hi),
                          self.nu[lo:hi], self.weights[lo:hi])


@dataclass
class VolumeQuad:
    """Volume nodes and weights: the nodes one sum task receives from a
    ``GridRule`` or ``FiberRule`` (normal fibers: per node its foot and
    offset s along n).  A batch of given nodes is a rule of its own."""

    points: np.ndarray
    weights: np.ndarray
    foot: Optional[np.ndarray] = None
    offset: Optional[np.ndarray] = None

    def __len__(self):
        return self.points.shape[0]

    def nodes(self, lo, hi):
        """Nodes lo..hi, as views."""
        return VolumeQuad(self.points[lo:hi], self.weights[lo:hi])


@dataclass
class GridRule:
    """Tensor grid over a domain's cells: per cell axis its 1-D Gauss rule
    ``(nodes, weights)``, and the domain's coordinate map and Jacobian.
    ``nodes(lo, hi)`` builds the nodes of one sum task."""

    axes: tuple
    to_xyz: Callable
    jac: Callable

    def __len__(self):
        return math.prod(len(n) for n, _ in self.axes)

    def nodes(self, lo, hi):
        """Grid nodes lo..hi in ``meshgrid(..., indexing='ij')`` order,
        weighed ``(w_a w_b) w_c`` (``_tensor_weights``) times the Jacobian."""
        (a, wa), (b, wb), (c, wc) = self.axes
        ij, k = np.divmod(np.arange(lo, min(hi, len(self))), len(c))
        i, j = np.divmod(ij, len(b))
        A, B, C = a[i], b[j], c[k]
        return VolumeQuad(self.to_xyz(A, B, C),
                          (wa[i] * wb[j]) * wc[k] * self.jac(A, B, C))


@dataclass
class FiberRule:
    """Cells of fibers origin + s dirs: per live cell its fiber, mid and
    half-width; per fiber its direction, weight and origin (center fibers
    share one) or foot, with curvature (kappa, K) and the feet batch for
    normal fibers.  ``nodes(lo, hi)`` builds the nodes of one sum task."""

    fiber: np.ndarray
    mid: np.ndarray
    half: np.ndarray
    origin: np.ndarray
    dirs: np.ndarray
    w_fiber: np.ndarray
    curvature: Optional[tuple] = None
    feet: Optional[SurfaceBatch] = None

    def __len__(self):
        return len(self.mid) * GAUSS_NODES_PER_CELL

    def nodes(self, lo, hi):
        """Gauss nodes lo..hi (whole cells) in (fiber, cell, node) order,
        weighed w_fiber * half * wg * J(s): J = s^2, or 1 + kappa s + K s^2
        on normal fibers, whose nodes keep their fiber (``foot``) and s
        (``offset``)."""
        xg, wg = GAUSS_RULE
        c = slice(lo // len(xg), hi // len(xg))
        f, half = self.fiber[c], self.half[c, None]
        s_nodes = self.mid[c, None] + half * xg               # (cells, 8)
        jac = s_nodes ** 2 if self.curvature is None else 1.0 + s_nodes * (
            self.curvature[0][f, None] + self.curvature[1][f, None] * s_nodes)
        pts = np.empty(s_nodes.shape + (3,))
        for a in range(3):
            o = (self.origin[a] if self.origin.ndim == 1
                 else self.origin[f, a][:, None])
            pts[:, :, a] = o + s_nodes * self.dirs[f, a][:, None]
        weights = self.w_fiber[f, None] * (half * wg * jac)
        if self.curvature is None:
            return VolumeQuad(pts.reshape(-1, 3), weights.reshape(-1))
        return VolumeQuad(pts.reshape(-1, 3), weights.reshape(-1),
                          np.repeat(f, len(xg)), s_nodes.reshape(-1))


def _empty_batch(patch):
    return make_surface_batch(patch, np.zeros(0), np.zeros(0),
                              weights=np.zeros(0))


def _tensor_batch(patch, u_rule, v_rule):
    """Tensor product of two 1-D rules ``(nodes, weights)`` over a patch
    chart, weights times the area element."""
    (un, uw), (vn, vw) = u_rule, v_rule
    U, V = np.meshgrid(un, vn, indexing='ij')
    batch = make_surface_batch(patch, U, V)
    batch.weights = (_tensor_weights(uw, vw)
                     * patch.area_element(batch.U, batch.V))
    return batch


def _full_batch(patch, level):
    """Tensor rule over a whole patch: its base cells, each split into
    2**level Gauss cells per axis."""
    return _tensor_batch(patch, *(_gauss_cells(b, level)
                                  for b in patch.base_breaks()))


def _tensor_weights(*weights):
    """Weights of the tensor product of 1-D rules, raveled with the first
    axis slowest (``meshgrid(..., indexing='ij')`` order)."""
    return functools.reduce(np.outer, weights).ravel()


def _polar_support_batch(patch, rim, level):
    """Rule on a polar-type chart (u from 0 at the support's axis to ``rim``
    at its boundary, v the angle about the axis): u cells edge-graded
    toward the rim, 4 + level angular cells."""
    ub = _graded_breaks(0.0, rim, level + SURFACE_GRADE_OFFSET)
    vb = np.linspace(0.0, 2 * np.pi, 4 + level + 1)
    return _tensor_batch(patch, _gauss_cells(ub, 0), _gauss_cells(vb, 0))


class _RecenteredDiskPatch(SurfacePatch):
    """Polar chart centered on a support disk lying in a planar interface."""

    def __init__(self, center, normal, rho_max):
        self.c = np.asarray(center, dtype=float)
        self._normal = np.asarray(normal, dtype=float)
        f = _frame_for_axis(self._normal)
        self.e1, self.e2 = f[:, 0], f[:, 1]
        self.u_range = (0.0, float(rho_max))
        self.v_range = (0.0, 2 * np.pi)

    def point(self, U, V):
        U = np.asarray(U, dtype=float)
        return (self.c + U[..., None] * np.cos(V)[..., None] * self.e1
                + U[..., None] * np.sin(V)[..., None] * self.e2)

    def normal(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        return np.broadcast_to(self._normal, shp + (3,)).copy()

    def tangents(self, U, V):
        U = np.asarray(U, dtype=float)
        xu = np.cos(V)[..., None] * self.e1 + np.sin(V)[..., None] * self.e2
        xv = U[..., None] * (-np.sin(V)[..., None] * self.e1
                             + np.cos(V)[..., None] * self.e2)
        return xu, xv

    def area_element(self, U, V):
        return np.broadcast_to(np.asarray(U, dtype=float),
                               np.broadcast(np.asarray(U), np.asarray(V)).shape)

    def shape_operator(self, U, V):
        shp = np.broadcast(np.asarray(U), np.asarray(V)).shape
        return np.zeros(shp + (3, 3))


# Kept although golden work never hits it (0 hits in 38 lookups per pass):
# deleting it slows golden through glibc's dynamic mmap/trim threshold
# (ROADMAP item 13), not through rebuilt rules.  Without it, minor faults
# per golden worker pass rose from about 190k-250k to about 360k-370k, and
# golden wall time by 3-12% (two sets of alternating runs, 2-core host).
# Delete it only once task temporaries no longer follow glibc's thresholds.
_FIBER_CACHE = LruMemo(FIBER_MEMO_SIZE, budget=FIBER_MEMO_NODES)


def support_volume_quad(interface, center, radius, level, layer=None):
    """A ``FiberRule`` for volume integrands supported in B(center, radius).

    Pairings about no interface or an 'r' or 'z' one take center fibers:
    radial fibers from the support center, their cells broken at the
    interface crossings and edge-graded toward the support boundary.
    Pairings about a 'rho' interface, and mollifier layers of width
    ``layer``, take normal fibers x = p + s n(p) from the feet p of
    ``patch.shadow_batch``: cut to their chords of the ball, graded
    toward the chord ends, broken at s = 0 (and at ``layer`` * (-6, -2, 2,
    6), dropping cells beyond 6 ``layer``), weighed w_p (1 + kappa s + K
    s^2).  They never reach the focal set (s = -a on a sphere or cylinder
    of radius a): supports inside the domain and layers within the
    clearance stay clear of it.  Rules without a layer are kept by
    (interface kind and parameters, center, radius, level); a layer rule
    serves one width once and is not kept.
    """
    center = np.asarray(center, dtype=float)
    if layer is not None:
        return _normal_fiber_quad(interface, center, radius, level, layer)
    key = (interface_key(interface), center.tobytes(), float(radius), level)
    return _FIBER_CACHE.get(
        key, lambda: _build_fiber_quad(interface, center, radius, level))


def _build_fiber_quad(interface, center, radius, level):
    if interface is not None and interface.coordinate == 'rho':
        return _normal_fiber_quad(interface, center, radius, level)
    return _fiber_rule(center, *_fiber_layout(interface, center, radius,
                                              level))


def _normal_fiber_quad(interface, center, radius, level, layer=None):
    feet = interface.patch.shadow_batch(center, float(radius), level)
    d = feet.points - center
    b = np.einsum('ni,ni->n', feet.normals, d)
    disc = b * b - (np.einsum('ni,ni->n', d, d) - radius * radius)
    # |p + s n - center| = radius at s = -b -+ sqrt(disc); a foot on the
    # shadow's rim gets an empty chord
    sq = np.sqrt(np.maximum(disc, 0.0))
    s0, s1 = -b - sq, -b + sq
    ladder = _graded_breaks(s0, s1, level + VOLUME_GRADE_OFFSET)
    cuts = np.array([0.0]) if layer is None else (
        layer * np.array([-6.0, -2.0, 0.0, 2.0, 6.0]))
    breaks = np.sort(np.concatenate(
        [ladder, np.clip(cuts, s0[:, None], s1[:, None])], axis=1), axis=1)
    if layer is not None:
        # cells beyond the layer collapse to zero width and are dropped
        breaks = np.clip(breaks, -6.0 * layer, 6.0 * layer)
    kappa = feet.kappa
    gauss = 0.5 * (kappa * kappa - np.einsum('nij,nji->n', feet.shape_ops,
                                             feet.shape_ops))
    return _fiber_rule(feet.points, feet.normals, feet.weights, breaks,
                       (kappa, gauss), feet)


def _fiber_layout(interface, center, radius, level):
    """(dirs, w_ang, breaks) of center fibers about an interface of
    coordinate 'r' or 'z' (or none): the D fiber directions, their angular
    weights and each fiber's sorted radial breaks (D, B)."""
    coordinate = interface.coordinate if interface is not None else None
    R = _frame_for_axis(center if coordinate == 'r' and np.linalg.norm(
        center) > 1e-12 else np.array([0.0, 0.0, 1.0]))

    # structural polar angles: interface tangency and entry-exit circles get
    # geometrically graded neighborhoods (the crossing roots vary rapidly
    # there, with a half-power kink at tangency).
    alpha_breaks = {0.0, np.pi}
    graded_at = []
    if coordinate == 'r':
        a = interface.value
        d = float(np.linalg.norm(center))
        if d > 1e-12:
            if d > a:
                val = np.sqrt(max(0.0, 1.0 - (a / d) ** 2))
                t = float(np.arccos(-val))
                alpha_breaks.add(t)
                graded_at.append(t)
            ex = (a * a - d * d - radius * radius) / (2.0 * d * radius)
            if -1.0 < ex < 1.0:
                t = float(np.arccos(ex))
                alpha_breaks.add(t)
                graded_at.append(t)
    elif coordinate == 'z':
        dz = interface.value - center[2]
        if abs(dz) < radius:
            t = float(np.arccos(dz / radius))
            alpha_breaks.add(t)
            graded_at.append(t)
        alpha_breaks.add(0.5 * np.pi)

    ab = sorted(alpha_breaks)
    asub = 1 + level
    apts = set()
    for lo, hi in zip(ab[:-1], ab[1:]):
        apts.update(np.linspace(lo, hi, asub + 1))
    for t in graded_at:
        i = ab.index(t)
        for side, lim in ((-1, ab[i - 1] if i > 0 else t),
                          (1, ab[i + 1] if i + 1 < len(ab) else t)):
            span = abs(lim - t)
            for k in range(1, 7 + level):
                apts.add(t + side * span * 0.5 ** k)
    an, aw = _gauss_cells(sorted(apts), 0, small_cell=0.06)
    gn, gw = _gauss_cells(np.linspace(0.0, 2 * np.pi, 3 + level + 1), 0)

    A, G = np.meshgrid(an, gn, indexing='ij')
    sa, ca = np.sin(A).ravel(), np.cos(A).ravel()
    sg, cg = np.sin(G).ravel(), np.cos(G).ravel()
    dirs_local = np.stack([sa * cg, sa * sg, ca], axis=-1)
    dirs = dirs_local @ R.T
    w_ang = _tensor_weights(aw, gw) * sa
    D = len(dirs)

    # radial breaks per fiber: graded support partition plus crossings
    fixed = _graded_breaks(0.0, radius, level + VOLUME_GRADE_OFFSET)
    roots = np.full((D, 2), radius)
    if coordinate == 'r':
        a = interface.value
        d2 = float(center @ center)
        cu = dirs @ center
        disc = cu ** 2 - (d2 - a * a)
        ok = disc > 0
        sq = np.sqrt(np.where(ok, disc, 0.0))
        for j, sgn in enumerate((-1.0, 1.0)):
            s = -cu + sgn * sq
            good = ok & (s > 1e-12 * radius) & (s < radius * (1 - 1e-12))
            roots[good, j] = s[good]
    elif coordinate == 'z':
        dz = interface.value - center[2]
        uz = dirs[:, 2]
        with np.errstate(divide='ignore', invalid='ignore'):
            s = dz / uz
        good = np.isfinite(s) & (s > 1e-12 * radius) & (s < radius * (1 - 1e-12))
        roots[good, 0] = s[good]

    breaks = np.sort(np.concatenate(
        [np.broadcast_to(fixed, (D, len(fixed))), roots], axis=1), axis=1)
    return dirs, w_ang, breaks


def _fiber_rule(origin, dirs, w_fiber, breaks, curvature=None, feet=None):
    """The ``FiberRule`` of fibers origin + s dirs cut at sorted ``breaks``."""
    # a fiber without a crossing repeats a break: drop the zero-width cells
    # this leaves
    live = breaks[:, 1:] > breaks[:, :-1]
    lo, hi = breaks[:, :-1][live], breaks[:, 1:][live]
    fiber = np.repeat(np.arange(len(breaks)), np.count_nonzero(live, axis=1))
    return FiberRule(fiber, 0.5 * (hi + lo), 0.5 * (hi - lo), origin, dirs,
                     w_fiber, curvature, feet)


# ---------------------------------------------------------------------------
# interfaces


def _coordinate(name, pts):
    """The level-set coordinate ``name`` ('r', 'z' or 'rho') at points."""
    if name == 'r':
        # the sum np.linalg.norm forms, in its order, without its overhead
        return np.sqrt(pts[..., 0] * pts[..., 0] + pts[..., 1] * pts[..., 1]
                       + pts[..., 2] * pts[..., 2])
    if name == 'z':
        return pts[..., 2]
    return np.hypot(pts[..., 0], pts[..., 1])


class Interface:
    """Oriented parametric surface inside a domain.

    Every catalog interface is a level set {q(x) = value} of one coordinate
    q: the radius 'r' = |x|, the height 'z' = x3, or the axial distance
    'rho' = |(x1, x2)|.  The signed distance orientation * (q - value), its
    derivatives, the cell breaks and the clearance to the domain boundary
    all derive from these three numbers.

    Either closed, or with every boundary curve lying on a boundary
    component of the domain (partial surfaces crossing the interior are
    out of scope).  ``kind`` and ``params`` must fix the surface within its
    domain: the fiber-rule memo keys interfaces by them
    (``interface_key``).  Nothing is kept after construction: each
    quadrature call builds its rule.
    """

    def __init__(self, kind, patch, closed, coordinate, value, chart_coords,
                 orientation=1.0, boundary_curves=(), feature_size=1.0,
                 params=None):
        if coordinate not in ('r', 'z', 'rho'):
            raise GeometryError(f"unknown interface coordinate {coordinate!r}")
        self.kind = kind
        self.patch = patch
        self.closed = bool(closed)
        self.coordinate = coordinate
        self.value = float(value)
        self.orientation = float(orientation)
        self._chart_coords = chart_coords
        self.boundary_curves = list(boundary_curves)   # (component, builder)
        self.feature_size = float(feature_size)
        self.params = dict(params or {})
        if self.closed and self.boundary_curves:
            raise GeometryError("closed interface cannot carry boundary curves")

    def signed_distance(self, pts):
        """orientation * (q(x) - value): positive on the plus side."""
        pts = np.asarray(pts, dtype=float)
        return self.orientation * (_coordinate(self.coordinate, pts)
                                   - self.value)

    def distance_jet(self, pts, order=2):
        """[s, grad s, hess s, grad hess s][:order + 1] of the signed
        distance at points ``(N, 3)``; the last is (N, i, j, k) =
        d_k d_i d_j s."""
        pts = np.asarray(pts, dtype=float)
        q = _coordinate(self.coordinate, pts)
        o = self.orientation
        out = [o * (q - self.value)]
        if order == 0:
            return out
        if self.coordinate == 'z':
            grad = np.zeros_like(pts)
            grad[:, 2] = 1.0
        else:
            grad = pts / q[:, None]
            if self.coordinate == 'rho':
                grad[:, 2] = 0.0
        out.append(o * grad)
        if order == 1:
            return out
        if self.coordinate == 'z':
            hess = np.zeros((len(pts), 3, 3))
        else:
            hess = ((I3 - np.einsum('ni,nj->nij', grad, grad))
                    / q[:, None, None])
            if self.coordinate == 'rho':
                hess[:, 2, 2] -= 1.0 / q
        out.append(o * hess)
        if order >= 3:
            # d_k H_ij = -(H_ik g_j + H_jk g_i + H_ij g_k) / q for q = r or
            # rho (g, H unoriented); every third derivative of z vanishes
            third = np.zeros((len(pts), 3, 3, 3))
            if self.coordinate != 'z':
                hg = hess[:, :, :, None] * grad[:, None, None, :]
                third -= hg + hg.transpose(0, 1, 3, 2) + hg.transpose(0, 3, 2, 1)
                third /= q[:, None, None, None]
            out.append(o * third)
        return out

    def side(self, pts):
        """+1 on the side the normal points toward, -1 on the other."""
        return np.where(self.signed_distance(pts) >= 0.0, 1.0, -1.0)

    def chart_coords(self, pts):
        """Chart coordinates of the closest surface points."""
        return self._chart_coords(np.asarray(pts, dtype=float))

    def surface_quadrature(self, level=DEFAULT_SURFACE_LEVEL, support=None):
        """Gauss-Legendre batch over the surface, built on every call.

        ``support = (center, radius)`` gives the rule the patch builds for
        the part of the surface a compactly supported integrand can see
        (``SurfacePatch.support_batch``): support-aligned caps and disks,
        the cut's (phi, z) rectangle on a cylinder, the full rule when the
        support holds the whole surface, and a zero-node batch when it
        misses it.
        """
        if support is not None:
            batch = self.patch.support_batch(
                np.asarray(support[0], dtype=float), float(support[1]), level)
            if batch is not None:
                return batch
        return _full_batch(self.patch, level)

    def samples(self, n):
        """Deterministic quasi-uniform surface samples (no weights)."""
        p = self.patch
        if isinstance(p, SpherePatch):
            U, V = fibonacci_sphere(n)
        elif isinstance(p, PlanePolarPatch):
            i = np.arange(n) + 0.5
            r0, r1 = p.u_range
            U = np.sqrt(r0 ** 2 + (r1 ** 2 - r0 ** 2) * i / n)
            V = np.mod(np.pi * (3 - np.sqrt(5)) * i, 2 * np.pi)
        else:
            h = halton(n, 2)
            U = p.u_range[0] + (p.u_range[1] - p.u_range[0]) * h[:, 0]
            V = p.v_range[0] + (p.v_range[1] - p.v_range[0]) * h[:, 1]
        return make_surface_batch(p, U, V)

    def curve_quadrature(self, component, n=DEFAULT_CURVE_NODES):
        """Nodes on every boundary curve the interface has on ``component``
        (``n`` per curve), joined into one batch."""
        curves = [builder(n) for comp, builder in self.boundary_curves
                  if comp == component]
        if not curves:
            raise GeometryError(f"interface {self.kind!r} has no boundary "
                                f"curve on component {component}")
        if len(curves) == 1:
            return curves[0]
        return CurveBatch(
            component=component,
            surface=make_surface_batch(
                self.patch, np.concatenate([c.surface.U for c in curves]),
                np.concatenate([c.surface.V for c in curves])),
            nu=np.concatenate([c.nu for c in curves]),
            weights=np.concatenate([c.weights for c in curves]))

    def curve_components(self):
        return [comp for comp, _ in self.boundary_curves]

    def project_batch(self, pts):
        """Closest-point surface batch for off-surface points (mollifiers)."""
        U, V = self.chart_coords(pts)
        return make_surface_batch(self.patch, U, V)


def _circle_curve(interface_patch, component, radius, nu_dir, chart_of_angle):
    """Builder for a horizontal circle curve with conormal nu_dir(phi)."""

    def build(n):
        t, w = np.polynomial.legendre.leggauss(n)
        phi = np.pi * (t + 1.0)
        wphi = np.pi * w
        U, V = chart_of_angle(phi)
        batch = make_surface_batch(interface_patch, U, V)
        nu = nu_dir(phi)
        return CurveBatch(component=component, surface=batch, nu=nu,
                          weights=radius * wphi)

    return build


def sphere_interface(radius, orientation=1.0):
    """Closed sphere |x| = radius, normal radially outward by default."""
    patch = SpherePatch(radius, orientation=orientation)

    def chart(pts):
        r = np.linalg.norm(pts, axis=-1)
        theta = np.arccos(np.clip(pts[..., 2] / np.maximum(r, 1e-300), -1, 1))
        phi = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), 2 * np.pi)
        return theta, phi

    return Interface('sphere', patch, closed=True, coordinate='r',
                     value=radius, orientation=orientation,
                     chart_coords=chart, feature_size=radius,
                     params={'radius': radius, 'orientation': orientation})


def _polar_chart(pts):
    """(rho, phi) chart of the closest point on a plane z = const."""
    rho = np.hypot(pts[..., 0], pts[..., 1])
    phi = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), 2 * np.pi)
    return rho, phi


def _radial_unit(phi):
    """In-plane radial unit vectors e_rho(phi)."""
    return np.stack([np.cos(phi), np.sin(phi), np.zeros_like(phi)], axis=-1)


def plane_disk_interface(domain, z=0.0):
    """Plane disk z = const spanning the domain cross-section, normal +e3."""
    rho_max = domain.cross_section_radius(z)
    patch = PlanePolarPatch(z, (0.0, rho_max))
    curves = [(0, _circle_curve(patch, 0, rho_max, _radial_unit,
                                lambda phi: (np.full_like(phi, rho_max), phi)))]
    return Interface('plane-disk', patch, closed=False, coordinate='z',
                     value=z, chart_coords=_polar_chart, boundary_curves=curves,
                     feature_size=rho_max, params={'z': z})


def _require_domain(kind, domain, fits):
    if domain.kind != fits:
        raise GeometryError(f"a {kind} interface needs a {fits} domain, "
                            f"not a {domain.kind}")


def equatorial_annulus_interface(domain):
    """Flat annulus z = 0 inside a spherical shell, touching both boundaries."""
    _require_domain('equatorial-annulus', domain, 'spherical-shell')
    r0, r1 = domain.inner_radius, domain.outer_radius
    patch = PlanePolarPatch(0.0, (r0, r1))
    curves = [
        (1, _circle_curve(patch, 1, r0, lambda phi: -_radial_unit(phi),
                          lambda phi: (np.full_like(phi, r0), phi))),
        (0, _circle_curve(patch, 0, r1, _radial_unit,
                          lambda phi: (np.full_like(phi, r1), phi))),
    ]
    return Interface('equatorial-annulus', patch, closed=False,
                     coordinate='z', value=0.0, chart_coords=_polar_chart,
                     boundary_curves=curves, feature_size=r1 - r0)


def cylinder_patch_interface(domain, radius):
    """Cylindrical surface rho = radius spanning a cylinder-annulus domain."""
    _require_domain('cylinder-patch', domain, 'cylinder-annulus')
    z0, z1 = domain.z_range
    patch = CylinderPatch(radius, (z0, z1))

    def chart(pts):
        phi = np.mod(np.arctan2(pts[..., 1], pts[..., 0]), 2 * np.pi)
        return phi, pts[..., 2]

    def nu_top(phi):
        return np.stack([np.zeros_like(phi), np.zeros_like(phi),
                         np.ones_like(phi)], axis=-1)

    def nu_bot(phi):
        return -nu_top(phi)

    curves = [
        (0, _circle_curve(patch, 0, radius, nu_top,
                          lambda phi: (phi, np.full_like(phi, z1)))),
        (0, _circle_curve(patch, 0, radius, nu_bot,
                          lambda phi: (phi, np.full_like(phi, z0)))),
    ]
    return Interface('cylinder-patch', patch, closed=False,
                     coordinate='rho', value=radius, chart_coords=chart,
                     boundary_curves=curves, feature_size=radius,
                     params={'radius': radius})


# ---------------------------------------------------------------------------
# boundary components and domains


class BoundarySurface:
    """One connected boundary component as a union of patches.

    Patch normals are oriented out of the domain.
    """

    def __init__(self, index, patches):
        self.index = index
        self.patches = list(patches)

    def quadrature(self, level=DEFAULT_SURFACE_LEVEL):
        """One full Gauss-Legendre batch per patch, built on every call."""
        return [_full_batch(p, level) for p in self.patches]


class Domain:
    """Bounded open region with labeled, disjoint boundary components.

    Volume rules are tensor products of Gauss cells over three coordinates
    named by ``cell_coordinates``; an interface whose level-set coordinate
    is one of them becomes a cell break on that axis.
    """

    kind = 'domain'
    boundary_components: list
    cell_coordinates: tuple

    @property
    def k(self):
        return len(self.boundary_components)

    def contains(self, pts):
        raise NotImplementedError

    def contains_ball(self, center, radius):
        raise NotImplementedError

    @property
    def length_scale(self):
        raise NotImplementedError

    def _cells(self):
        """Axis break lists, coordinate map and Jacobian of the cells."""
        raise NotImplementedError

    def _axis(self, interface):
        """Index of the cell axis that is the interface's coordinate."""
        if interface.coordinate not in self.cell_coordinates:
            raise GeometryError(
                f"{self.kind} cells have no {interface.coordinate!r} axis "
                f"for the interface {interface.kind!r}")
        return self.cell_coordinates.index(interface.coordinate)

    def _conforming_cells(self, interface):
        """``_cells`` with the interface value merged into its axis, so
        piecewise integrands are never sampled across the jump.  A z = 0
        plane needs no break in spherical cells (theta = pi/2 is one)."""
        axes, to_xyz, jac = self._cells()
        if interface is None or (
                interface.coordinate == 'z' and abs(interface.value) <= 1e-12
                and 'theta' in self.cell_coordinates):
            return axes, to_xyz, jac
        ax = self._axis(interface)
        b = axes[ax]
        axes[ax] = _merge_breaks(b, [interface.value], b[0], b[-1])
        return axes, to_xyz, jac

    def clearance(self, interface):
        """Room between the interface and the domain boundary along its
        coordinate: min(value - lo, hi - value) over the coordinate's
        extent [lo, hi], the bounding box for 'z' and the cell axis
        otherwise."""
        if interface.coordinate == 'z':
            lo, hi = (b[2] for b in self.bounding_box())
        else:
            b = self._cells()[0][self._axis(interface)]
            lo, hi = b[0], b[-1]
        return min(interface.value - lo, hi - interface.value)

    def cross_section_radius(self, z):
        raise GeometryError(f"{self.kind} has no plane-disk cross sections")

    def plane_interface(self, z=0.0):
        raise GeometryError(f"{self.kind} has no plane-rect cross sections")

    def interior_ball(self):
        """(center, radius) of a ball inside a single-component domain, for
        interior test supports: the middle of the bounding box and a fifth
        of its shortest side."""
        lo, hi = self.bounding_box()
        return 0.5 * (lo + hi), 0.2 * float(np.min(hi - lo))

    def volume_quadrature(self, interface=None, level=DEFAULT_VOLUME_LEVEL,
                          extra_breaks=None):
        """Conforming tensor-product rule over the whole domain, built on
        every call: a ``GridRule`` that holds the three 1-D rules of its cell
        axes, so each sum task builds its own nodes.  Supported integrands
        take ``support_volume_quad``."""
        axes, to_xyz, jac = self._conforming_cells(interface)
        if extra_breaks:
            axes = [_merge_breaks(b, e, b[0], b[-1])
                    for b, e in zip(axes, extra_breaks)]
        return GridRule(tuple(_gauss_cells(b, level) for b in axes),
                        to_xyz, jac)

    def interior_samples(self, n, interface=None, min_dist=0.0, max_tries=60):
        """Deterministic low-discrepancy interior points, kept off the interface."""
        lo, hi = self.bounding_box()
        pts = []
        have = 0
        offset = 0
        while have < n and offset < max_tries:
            raw = halton(4 * n, 3, skip=20 + offset * 4 * n)
            cand = lo + raw * (hi - lo)
            keep = self.contains(cand, margin=min_dist)
            if interface is not None and min_dist > 0:
                keep &= np.abs(interface.signed_distance(cand)) > min_dist
            cand = cand[keep]
            pts.append(cand)
            have += len(cand)
            offset += 1
        if have < n:
            raise GeometryError("could not draw enough interior samples")
        return np.concatenate(pts)[:n]

    def bounding_box(self):
        raise NotImplementedError


class _SphericalDomain(Domain):
    """Region r0 < |x| < r1 (``r_range``; r0 = 0 for a ball) with
    (r, theta, phi) cells; theta = pi/2, the equator, is a cell break."""

    cell_coordinates = ('r', 'theta', 'phi')
    r_range: tuple

    @property
    def length_scale(self):
        return 2 * self.r_range[1]

    def bounding_box(self):
        r = self.r_range[1]
        return np.array([-r, -r, -r]), np.array([r, r, r])

    def _cells(self):
        r0, r1 = self.r_range

        def to_xyz(r, t, p):
            st = np.sin(t)
            return np.stack([r * st * np.cos(p), r * st * np.sin(p),
                             r * np.cos(t)], axis=-1)

        def jac(r, t, p):
            return r ** 2 * np.sin(t)

        return ([[r0, 0.5 * (r0 + r1), r1], [0.0, 0.5 * np.pi, np.pi],
                 [0.0, np.pi, 2 * np.pi]], to_xyz, jac)


class Ball(_SphericalDomain):
    kind = 'ball'

    def __init__(self, radius):
        if radius <= 0:
            raise GeometryError("ball radius must be positive")
        self.radius = float(radius)
        self.r_range = (0.0, self.radius)
        self.boundary_components = [
            BoundarySurface(0, [SpherePatch(self.radius, orientation=1.0)])]

    def contains(self, pts, margin=0.0):
        return np.linalg.norm(pts, axis=-1) < self.radius - margin

    def contains_ball(self, center, radius):
        return np.linalg.norm(center) + radius < self.radius

    def cross_section_radius(self, z):
        if abs(z) >= self.radius:
            raise GeometryError("plane does not intersect the ball")
        return float(np.sqrt(self.radius ** 2 - z ** 2))


class SphericalShell(_SphericalDomain):
    kind = 'spherical-shell'

    def __init__(self, inner_radius, outer_radius):
        if not 0 < inner_radius < outer_radius:
            raise GeometryError("shell needs 0 < inner_radius < outer_radius")
        self.inner_radius = float(inner_radius)
        self.outer_radius = float(outer_radius)
        self.r_range = (self.inner_radius, self.outer_radius)
        self.boundary_components = [
            BoundarySurface(0, [SpherePatch(self.outer_radius, orientation=1.0)]),
            BoundarySurface(1, [SpherePatch(self.inner_radius, orientation=-1.0)]),
        ]

    def contains(self, pts, margin=0.0):
        r = np.linalg.norm(pts, axis=-1)
        return (r > self.inner_radius + margin) & (r < self.outer_radius - margin)

    def contains_ball(self, center, radius):
        r = np.linalg.norm(center)
        return (r - radius > self.inner_radius) and (r + radius < self.outer_radius)


class Box(Domain):
    kind = 'box'
    cell_coordinates = ('x', 'y', 'z')

    def __init__(self, half_widths):
        hw = np.asarray(half_widths, dtype=float)
        if hw.shape != (3,) or np.any(hw <= 0):
            raise GeometryError("box needs three positive half-widths")
        self.half_widths = hw
        hx, hy, hz = hw
        patches = [
            RectPatch([hx, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0, 0], (-hy, hy), (-hz, hz)),
            RectPatch([-hx, 0, 0], [0, 1, 0], [0, 0, 1], [-1, 0, 0], (-hy, hy), (-hz, hz)),
            RectPatch([0, hy, 0], [1, 0, 0], [0, 0, 1], [0, 1, 0], (-hx, hx), (-hz, hz)),
            RectPatch([0, -hy, 0], [1, 0, 0], [0, 0, 1], [0, -1, 0], (-hx, hx), (-hz, hz)),
            RectPatch([0, 0, hz], [1, 0, 0], [0, 1, 0], [0, 0, 1], (-hx, hx), (-hy, hy)),
            RectPatch([0, 0, -hz], [1, 0, 0], [0, 1, 0], [0, 0, -1], (-hx, hx), (-hy, hy)),
        ]
        self.boundary_components = [BoundarySurface(0, patches)]

    @property
    def length_scale(self):
        return 2 * float(np.max(self.half_widths))

    def contains(self, pts, margin=0.0):
        return np.all(np.abs(pts) < self.half_widths - margin, axis=-1)

    def contains_ball(self, center, radius):
        return bool(np.all(np.abs(center) + radius < self.half_widths))

    def clearance(self, interface):
        """``Domain.clearance``; a sphere's is the room to the nearest face."""
        if interface.coordinate == 'r':
            return float(np.min(self.half_widths)) - interface.value
        return super().clearance(interface)

    def bounding_box(self):
        return -self.half_widths, self.half_widths

    def plane_interface(self, z=0.0):
        """Full plane cross-section z = const with the boundary curve omitted.

        Identity checks only pair plane interfaces in a box with compactly
        supported tests, so the (rectangular) boundary curve never enters.
        """
        hx, hy, hz = self.half_widths
        if abs(z) >= hz:
            raise GeometryError("plane outside the box")
        patch = RectPatch([0, 0, z], [1, 0, 0], [0, 1, 0], [0, 0, 1],
                          (-hx, hx), (-hy, hy))

        def chart(pts):
            return pts[..., 0], pts[..., 1]

        return Interface('plane-rect', patch, closed=False, coordinate='z',
                         value=z, chart_coords=chart,
                         feature_size=float(min(hx, hy)), params={'z': z})

    def _cells(self):
        def to_xyz(a, b, c):
            return np.stack([a, b, c], axis=-1)

        def jac(a, b, c):
            return np.ones_like(a)

        return [[-h, 0.0, h] for h in self.half_widths], to_xyz, jac


class CylinderAnnulus(Domain):
    """Solid between two coaxial cylinders with end caps: one boundary
    component, non-contractible."""

    kind = 'cylinder-annulus'
    cell_coordinates = ('rho', 'phi', 'z')

    def __init__(self, inner_radius, outer_radius, height):
        if not 0 < inner_radius < outer_radius or height <= 0:
            raise GeometryError("cylinder annulus needs 0 < r0 < r1 and height > 0")
        self.inner_radius = float(inner_radius)
        self.outer_radius = float(outer_radius)
        self.z_range = (-0.5 * float(height), 0.5 * float(height))
        z0, z1 = self.z_range
        patches = [
            CylinderPatch(self.outer_radius, self.z_range, orientation=1.0),
            CylinderPatch(self.inner_radius, self.z_range, orientation=-1.0),
            PlanePolarPatch(z1, (self.inner_radius, self.outer_radius)),
            _FlippedPlanePatch(z0, (self.inner_radius, self.outer_radius)),
        ]
        self.boundary_components = [BoundarySurface(0, patches)]

    @property
    def length_scale(self):
        return 2 * self.outer_radius

    def contains(self, pts, margin=0.0):
        rho = np.hypot(pts[..., 0], pts[..., 1])
        z0, z1 = self.z_range
        return ((rho > self.inner_radius + margin)
                & (rho < self.outer_radius - margin)
                & (pts[..., 2] > z0 + margin) & (pts[..., 2] < z1 - margin))

    def contains_ball(self, center, radius):
        rho = float(np.hypot(center[0], center[1]))
        z0, z1 = self.z_range
        return (rho - radius > self.inner_radius
                and rho + radius < self.outer_radius
                and center[2] - radius > z0 and center[2] + radius < z1)

    def bounding_box(self):
        r = self.outer_radius
        return (np.array([-r, -r, self.z_range[0]]),
                np.array([r, r, self.z_range[1]]))

    def interior_ball(self):
        """``Domain.interior_ball`` in the wall at mid-height (the middle of
        the bounding box is in the hole), filling 0.8 of the room there."""
        r0, r1, (z0, z1) = self.inner_radius, self.outer_radius, self.z_range
        return (np.array([0.5 * (r0 + r1), 0.0, 0.5 * (z0 + z1)]),
                0.4 * min(r1 - r0, z1 - z0))

    def _cells(self):
        rb = [self.inner_radius,
              0.5 * (self.inner_radius + self.outer_radius), self.outer_radius]
        pb = [0.0, np.pi, 2 * np.pi]
        z0, z1 = self.z_range
        zb = [z0, 0.5 * (z0 + z1), z1]

        def to_xyz(rho, phi, z):
            return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=-1)

        def jac(rho, phi, z):
            return rho

        return [rb, pb, zb], to_xyz, jac


class _FlippedPlanePatch(PlanePolarPatch):
    """Bottom cap of a cylinder annulus (normal -e3)."""

    def normal(self, U, V):
        return -super().normal(U, V)


# ---------------------------------------------------------------------------
# integration and differential-geometry operations


def _finite(vals, pts, what):
    """``vals`` as a float array; raises at the first node with a non-finite
    value."""
    vals = np.asarray(vals, dtype=float)
    bad = ~np.all(np.isfinite(vals.reshape(len(pts), -1)), axis=1)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise EvaluationError(
            f"non-finite {what} value at node {pts[i]}", location=pts[i])
    return vals


def _task_size(n):
    """Nodes one pool task evaluates for a rule of ``n`` nodes: a whole
    number of blocks, at most ``TASK_BLOCKS``, and few enough that every
    lane of the pool still gets two tasks.  A pool of one lane keeps one
    block per task: it has no lanes contending per call, and larger tasks
    only spill its temporaries out of cache."""
    lanes = _pool.thread_bound()
    if lanes == 1:
        return BLOCK
    blocks = -(-n // BLOCK)
    return BLOCK * max(1, min(TASK_BLOCKS, blocks // (2 * lanes)))


def blocked_sum(rule, integrand):
    """Sum over a quadrature rule of ``w[n] * f[n]``, block by block.

    A rule is anything with ``len`` and ``nodes(lo, hi)``: a volume rule
    (``GridRule``, ``FiberRule``), a surface or curve batch, or a
    ``VolumeQuad`` of given nodes.  The rule is cut into pool tasks of whole
    blocks of ``BLOCK`` nodes (``_task_size``); each task evaluates ``f =
    integrand(nodes)`` once, on the nodes ``rule.nodes(lo, hi)`` gives it,
    so the integrand must be pointwise and no rule's nodes are held whole.
    ``f`` is ``(N,)`` for a scalar sum (returned as a float) or ``(N, ...)``
    for a vector or tensor sum (returned as an array).  Each block of ``f``
    is reduced by ``np.add.reduce(w[:, None, ...] * f, axis=0)`` with the
    nodes' ``weights`` and the partials are added in block order: the sum
    depends only on the rule and ``BLOCK``, never on the task size, the
    BLAS thread count or the pool width.  A rule without nodes sums to 0.0.

    The tasks are evaluated on the bounded thread pool
    (``_pool.map_blocks``), so the integrand must also be safe to call
    from several threads at once.  An integrand may return a tuple of
    arrays: each entry is then summed as its own column, bit-identical to
    a call of its own, and a tuple of sums is returned.
    """
    size = _task_size(len(rule))
    starts = range(0, len(rule), size)

    def partials(k):
        nodes = rule.nodes(starts[k], starts[k] + size)
        w, f = nodes.weights, integrand(nodes)
        blocks = range(0, len(w), BLOCK)
        if isinstance(f, tuple):
            return [tuple(_weighted_reduce(w[b:b + BLOCK], c[b:b + BLOCK])
                          for c in f) for b in blocks]
        return [_weighted_reduce(w[b:b + BLOCK], f[b:b + BLOCK])
                for b in blocks]

    total = 0.0
    for p in itertools.chain.from_iterable(
            _pool.map_blocks(partials, len(starts))):
        if isinstance(p, tuple):
            total = tuple(t + q for t, q in zip(total or (0.0,) * len(p), p))
        else:
            total = total + p
    if isinstance(total, tuple):
        return tuple(_as_sum(t) for t in total)
    return _as_sum(total)


def _weighted_reduce(w, f):
    f = np.asarray(f)
    return np.add.reduce(w.reshape((-1,) + (1,) * (f.ndim - 1)) * f, axis=0)


def _as_sum(total):
    return total if np.ndim(total) else float(total)


def integrate_volume(domain, interface, integrand, level=DEFAULT_VOLUME_LEVEL,
                     extra_breaks=None):
    """Quadrature of a pointwise ``integrand(points) -> (N,)`` over the domain.

    Volume cells conform to the interface: piecewise integrands are never
    sampled across the jump.  The error estimate is the difference against
    one coarser refinement level (``two_level``).
    """
    def f(pts):
        return _finite(integrand(pts), pts, "volume integrand")

    def run(lv):
        return blocked_sum(domain.volume_quadrature(interface, lv,
                                                    extra_breaks),
                           lambda q: f(q.points))

    return two_level(run, level)


def integrate_surface(interface, integrand, level=DEFAULT_SURFACE_LEVEL):
    """Quadrature of ``integrand(batch) -> (N,)`` over the interface."""
    def run(lv):
        return blocked_sum(interface.surface_quadrature(lv), lambda b: _finite(
            integrand(b), b.points, "surface integrand"))

    return two_level(run, level)


def integrate_curve(interface, component, integrand, n=DEFAULT_CURVE_NODES):
    """Quadrature of ``integrand(curve_batch) -> (N,)`` along a boundary
    curve, ``n >= 2`` nodes per curve; the error estimate is the difference
    against ``n // 2`` nodes."""
    if n < 2:
        raise ConfigError(f"a curve rule needs at least 2 nodes, got {n!r}")

    def run(m):
        return blocked_sum(interface.curve_quadrature(component, m),
                           lambda c: _finite(integrand(c), c.points,
                                             "curve integrand"))

    value = run(n)
    return PairingValue(value, abs(value - run(n // 2)))


def _surface_point_batch(interface, point):
    point = np.asarray(point, dtype=float)
    s = float(np.abs(interface.signed_distance(point.reshape(1, 3)))[0])
    if s > ON_SURFACE_TOL * max(interface.feature_size, 1.0):
        raise GeometryError(f"point {point} is not on the interface (dist {s:.3e})")
    U, V = interface.chart_coords(point.reshape(1, 3))
    return make_surface_batch(interface.patch, U, V)


def shape_operator(interface, point):
    """Surface gradient of the normal at a surface point: symmetric,
    tangential, orientation-dependent."""
    return _surface_point_batch(interface, point).shape_ops[0]


def mean_curvature(interface, point):
    """kappa = tr(grad_S n); +2/R on an outward-oriented sphere of radius R."""
    return float(np.trace(shape_operator(interface, point)))


def boundary_force_moment(domain, component, tensor_field,
                          level=DEFAULT_SURFACE_LEVEL, origin=(0.0, 0.0, 0.0)):
    """(integral of sigma n, integral of (x - origin) x (sigma n)) over one
    boundary component, with the out-of-domain normal: force and moment
    are two columns of one walk per boundary batch."""
    f = tensor_field if callable(tensor_field) else tensor_field.value
    origin = np.asarray(origin, dtype=float)

    def columns(b):
        t = np.einsum('nij,nj->ni', np.asarray(f(b.points)), b.normals)
        return t, np.cross(b.points - origin, t)

    force, moment = np.zeros(3), np.zeros(3)
    for batch in domain.boundary_components[component].quadrature(level):
        fb, mb = blocked_sum(batch, columns)
        force += fb
        moment += mb
    return force, moment


def curve_force_moment(interface, component, sigma1=None, sigma2=None,
                       origin=(0.0, 0.0, 0.0), n=DEFAULT_CURVE_NODES):
    """Force and moment that a surface stress ``sigma1`` and a stress dipole
    ``sigma2`` (surface fields; either may be None) carry through the
    interface's boundary curves on one boundary component.

    With nu the curve conormal, the traction is sigma1 nu - (sigma2 grad_S n)
    nu, and the dipole adds the couple n x (sigma2 nu) to the moment; force,
    moment and couple are three columns of one walk.  Components the
    interface does not touch get zeros.
    """
    origin = np.asarray(origin, dtype=float)
    if component not in interface.curve_components():
        return np.zeros(3), np.zeros(3)

    def columns(nodes):
        b, nu = nodes.surface, nodes.nu
        tr, couple = np.zeros((len(nodes), 3)), np.zeros((len(nodes), 3))
        if sigma1 is not None:
            tr += np.einsum('nij,nj->ni', sigma1.value(b), nu)
        if sigma2 is not None:
            s2 = sigma2.value(b)
            tr -= np.einsum('nij,njk,nk->ni', s2, b.shape_ops, nu)
            couple = np.cross(b.normals, np.einsum('nij,nj->ni', s2, nu))
        return tr, np.cross(nodes.points - origin, tr), couple

    force, moment, couple = blocked_sum(
        interface.curve_quadrature(component, n), columns)
    return force, moment + couple
