"""Local equilibrium residuals, weak/local equivalence, and the dipole limit.

The local interface conditions verified here (with kappa = tr(grad_S n) and
the jump taken toward-side minus away-side) ask the coefficients of psi,
d_n psi and d_nn psi in the interface part of Div Sigma(psi) + B(psi)
(``distributions.interface_terms``) to vanish:

* bulk (12a):      div sigma + b = 0 off the interface;
* interface (12b): [sigma] n + div_S sigma1 - kappa sigma1 n
                   - div_S(sigma2 grad_S n) + b1 = 0;
* dipole (12c):    -sigma1 n + div_S sigma2 - kappa sigma2 n + b2 = 0, the
                   full d_n psi coefficient (its kappa term vanishes when
                   12d holds);
* closure (12d):   sigma2 n = 0.

``local_report`` reads each sum once; for a ``dilatational`` scenario
(sigma = p I, sigma_i = p_i (I - n n)) it also reports the normal and
tangential parts of the 12b and 12c sums (for 12b: the Young-Laplace
balance [p] = kappa p1 and the balance of grad_S p1).  Every check comes
back as a ``Check``, so reports concatenate lists of them.

The weak residual of the same scenario is Div Sigma(psi) + B(psi) evaluated
through the pairings; scenarios passing all four local conditions must pair
to zero within quadrature tolerance for every test function.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from . import _tensor as T
from .distributions import (BDist, CDist, CompositeDist, FDist, PairingValue,
                            distributional_div, interface_terms, refined)
from .errors import FieldError, GeometryError
from .fields import (BumpSymTensor, ModulatedTest, Poly3,
                     SquaredDistanceFactor, SurfaceField, make_bump)
from .geometry import blocked_sum, plane_disk_interface

LOCAL_TOL_ANALYTIC = 1e-6
WEAK_FACTOR = 10.0
# bulk samples keep this distance, relative to the domain length scale,
# from the interface
BULK_GUARD_REL = 6e-4


@dataclass
class Tolerances:
    local: float = LOCAL_TOL_ANALYTIC
    weak_factor: float = WEAK_FACTOR
    weak_floor: float = 1e-12
    symmetry: float = 1e-12


@dataclass
class EquilibriumScenario:
    domain: object
    interface: object
    sigma: Optional[object] = None          # piecewise rank-2 field
    sigma1: Optional[SurfaceField] = None
    sigma2: Optional[SurfaceField] = None
    b: Optional[object] = None              # piecewise rank-1 field
    b1: Optional[SurfaceField] = None
    b2: Optional[SurfaceField] = None
    dilatational: bool = False              # report 12b/12c projections
    tolerances: Tolerances = dfield(default_factory=Tolerances)
    name: str = "scenario"

    def _dist(self, bulk, surface, dipole):
        """Composite of the given densities, or None when all are absent."""
        if not any((bulk, surface, dipole)):
            return None
        return CompositeDist(
            b=BDist(self.domain, self.interface, bulk) if bulk else None,
            c=CDist(self.interface, surface) if surface else None,
            f=FDist(self.interface, dipole) if dipole else None)

    def stress_dist(self):
        return self._dist(self.sigma, self.sigma1, self.sigma2)

    def force_dist(self):
        return self._dist(self.b, self.b1, self.b2)

    def check_symmetry(self, n=64):
        """Tensor densities must be symmetric (sampled check)."""
        tol = self.tolerances.symmetry
        if self.sigma is not None:
            pts = self.domain.interior_samples(n, self.interface, 1e-3)
            v = self.sigma.value(pts)
            if np.max(np.abs(v - np.swapaxes(v, -1, -2))) > tol * max(1, np.max(np.abs(v))):
                raise FieldError("bulk stress density is not symmetric")
        batch = self.interface.samples(n) if self.interface is not None else None
        for f in (self.sigma1, self.sigma2):
            if f is None or batch is None:
                continue
            v = f.value(batch)
            if np.max(np.abs(v - np.swapaxes(v, -1, -2))) > tol * max(1, np.max(np.abs(v))):
                raise FieldError("surface stress density is not symmetric")


@dataclass
class Check:
    """One verified condition: a residual against its tolerance.

    ``passed`` defaults to |residual| <= tolerance; ``extra`` entries (an
    error estimate, a fitted order) are reported next to the residual.
    """

    id: str
    residual: float
    tolerance: float
    passed: Optional[bool] = None
    extra: Optional[dict] = None

    def __post_init__(self):
        self.residual = float(self.residual)
        self.tolerance = float(self.tolerance)
        self.passed = bool(abs(self.residual) <= self.tolerance
                           if self.passed is None else self.passed)
        self.extra = self.extra or {}

    def to_dict(self):
        return {"id": self.id, "residual": self.residual,
                "tolerance": self.tolerance, "pass": self.passed, **self.extra}


# ---------------------------------------------------------------------------
# local residuals


def bulk_residual(scenario, points=None, n=2000, guard=None):
    """max |div sigma + b| over interior samples kept away from the interface."""
    dom, itf = scenario.domain, scenario.interface
    if guard is None:
        guard = BULK_GUARD_REL * dom.length_scale
    resampled = 0
    if points is None:
        points = dom.interior_samples(n, itf, min_dist=guard)
    else:
        if itf is not None:
            keep = np.abs(itf.signed_distance(points)) > guard
            resampled = int(np.count_nonzero(~keep))
            points = points[keep]
    total = np.zeros((len(points), 3))
    if scenario.sigma is not None:
        total += scenario.sigma.divergence(points)
    if scenario.b is not None:
        total += scenario.b.value(points)
    r = float(np.max(np.linalg.norm(total, axis=-1))) if len(points) else 0.0
    return r, resampled


def _interface_sums(scenario, batch):
    """The coefficients (a0, a1, a2) of ``interface_terms`` summed over the
    parts of the stress on ``batch``, plus b1 in a0 and b2 in a1."""
    sums = [np.zeros((len(batch), 3)) for _ in range(3)]
    stress = scenario.stress_dist()
    for part in stress.parts if stress is not None else ():
        for k, term in enumerate(interface_terms(part, batch)):
            if term is not None:
                sums[k] += term
    for k, force in ((0, scenario.b1), (1, scenario.b2)):
        if force is not None:
            sums[k] += force.value(batch)
    return sums


def _max_norm(r):
    return float(np.max(np.linalg.norm(r, axis=-1)))


def interface_residuals(scenario, batch=None, n=2000):
    """Max norms of the three interface conditions (12b, 12c, 12d) over
    surface samples."""
    if batch is None:
        batch = scenario.interface.samples(n)
    return tuple(_max_norm(r) for r in _interface_sums(scenario, batch))


def local_report(scenario, n_bulk=2000, n_surface=2000):
    """Checks 12a-12d; a ``dilatational`` scenario also gets the normal and
    tangential parts of 12b and 12c."""
    tol = scenario.tolerances.local
    batch = scenario.interface.samples(n_surface)
    rb, rc, rd = _interface_sums(scenario, batch)
    checks = [Check("12a", bulk_residual(scenario, n=n_bulk)[0], tol)]
    for cid, r in (("12b", rb), ("12c", rc)):
        checks.append(Check(cid, _max_norm(r), tol))
        if scenario.dilatational:
            rn = np.einsum('ni,ni->n', r, batch.normals)
            rt = r - rn[:, None] * batch.normals
            checks += [Check(cid + "-normal", np.max(np.abs(rn)), tol),
                       Check(cid + "-tangential", _max_norm(rt), tol)]
    checks.append(Check("12d", _max_norm(rd), tol))
    return checks


# ---------------------------------------------------------------------------
# test suites for the weak form


def _crossing_bump_geometry(domain, interface, rng):
    """(center, radius) for a support that straddles the interface."""
    kind, a = interface.kind, interface.value
    if kind == 'sphere':
        r = 0.42 * domain.clearance(interface)
        d = _unit(rng)
        center = d * (a + rng.uniform(-0.4, 0.4) * r)
        return center, r
    if kind in ('plane-disk', 'plane-rect'):
        r = 0.35 * domain.clearance(interface)
        x = _xy_interior(domain, rng, a, margin=1.3 * r)
        center = np.array([x[0], x[1], a + rng.uniform(-0.4, 0.4) * r])
        return center, r
    if kind == 'equatorial-annulus':
        r0, r1 = domain.inner_radius, domain.outer_radius
        r = 0.3 * (r1 - r0) / 2
        rho = rng.uniform(r0 + 1.6 * r, r1 - 1.6 * r)
        phi = rng.uniform(0, 2 * np.pi)
        center = np.array([rho * np.cos(phi), rho * np.sin(phi),
                           rng.uniform(-0.4, 0.4) * r])
        return center, r
    if kind == 'cylinder-patch':
        z0, z1 = domain.z_range
        r = min(0.42 * domain.clearance(interface), 0.3 * (z1 - z0))
        phi = rng.uniform(0, 2 * np.pi)
        rho = a + rng.uniform(-0.4, 0.4) * r
        z = rng.uniform(z0 + 1.5 * r, z1 - 1.5 * r)
        center = np.array([rho * np.cos(phi), rho * np.sin(phi), z])
        return center, r
    raise GeometryError(f"no bump placement rule for interface {kind!r}")


def _offset_bump_geometry(domain, interface, rng):
    """(center, radius) for a support disjoint from the interface."""
    center, r = _crossing_bump_geometry(domain, interface, rng)
    s = float(interface.signed_distance(center.reshape(1, 3))[0])
    shift = (1.6 * r - s) if s >= 0 else -(1.6 * r + s)
    # move along the (unit) distance gradient to clear the surface
    g = interface.distance_jet(center[None], 1)[1][0]
    new_center = center + shift * g
    new_r = 0.45 * r
    if not domain.contains_ball(new_center, new_r):
        new_center = center - (shift + 0.5 * r) * g
    if not domain.contains_ball(new_center, new_r):
        new_center, new_r = center, r   # fall back to a crossing support
    return new_center, new_r


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


def _xy_interior(domain, rng, z, margin):
    """(x, y) with the ball of radius 0.9 margin about (x, y, z) inside the
    domain; (0, 0) after 100 misses."""
    lo, hi = domain.bounding_box()
    for _ in range(100):
        x = rng.uniform(lo[0] + margin, hi[0] - margin)
        y = rng.uniform(lo[1] + margin, hi[1] - margin)
        if domain.contains_ball(np.array([x, y, z]), 0.9 * margin):
            return x, y
    return 0.0, 0.0


def make_test_suite(domain, interface, n, rng, rank=1, degree=2):
    """Stratified suite: off-interface, crossing, and dipole-sensitive tests."""
    suite = []
    strata = []
    for j in range(n):
        strata.append(j % 3 if interface is not None else 0)
    for stratum in strata:
        if interface is None:
            lo, hi = domain.bounding_box()
            r = 0.15 * float(np.min(hi - lo))
            for _ in range(200):
                center = rng.uniform(lo, hi)
                if domain.contains_ball(center, r):
                    break
                r *= 0.95
            c, rr = center, r
        elif stratum == 0:
            c, rr = _offset_bump_geometry(domain, interface, rng)
        else:
            c, rr = _crossing_bump_geometry(domain, interface, rng)
        t = make_bump(domain, c, rr, rank=rank, rng=rng, degree=degree)
        if stratum == 2:
            t = ModulatedTest(t, SquaredDistanceFactor(interface))
        suite.append(t)
    return suite


def weak_residuals(scenario, tests, level=None):
    """Check ``weak-j``: Div Sigma(psi) + B(psi) for test j, with tolerance
    from the estimates."""
    sig = scenario.stress_dist()
    frc = scenario.force_dist()
    out = []
    for j, t in enumerate(tests):
        total = PairingValue(0.0, 0.0)
        scale = 0.0
        if sig is not None:
            dv = distributional_div(sig, t, level)
            total = total + dv
            scale += abs(dv.value)
        if frc is not None:
            bv = frc.pair(t, level)
            total = total + bv
            scale += abs(bv.value)
        tol = max(scenario.tolerances.weak_factor * total.error,
                  scenario.tolerances.weak_floor * max(1.0, scale))
        out.append(Check(f"weak-{j}", total.value, tol))
    return out


@dataclass
class EquivalenceReport:
    local: list                # Check
    weak: list                 # Check
    consistent: bool
    pairing_factor: float


def weak_equals_local(scenario, n_suite=12, seed=0, level=None, tests=None):
    """Correlate weak residuals with the local conditions.

    Both small, or both failing with the weak residual bounded by the local
    one times a pairing norm; anything else is flagged inconsistent.
    """
    rng = np.random.default_rng(seed)
    if tests is None:
        tests = make_test_suite(scenario.domain, scenario.interface, n_suite, rng)
    local = local_report(scenario)
    weak = weak_residuals(scenario, tests, level)
    local_pass = all(c.passed for c in local)
    weak_pass = all(c.passed for c in weak)
    factor = 0.0
    if local_pass:
        consistent = weak_pass
    else:
        max_local = max(c.residual for c in local)
        factor = _pairing_factor(scenario, tests)
        max_weak = max(abs(c.residual) for c in weak)
        consistent = (not weak_pass or max_weak <= scenario.tolerances.local * factor) \
            and max_weak <= 2.0 * max_local * factor
    return EquivalenceReport(local=local, weak=weak, consistent=bool(consistent),
                             pairing_factor=factor)


def _pairing_factor(scenario, tests):
    """Crude bound: sup over tests of the L1 mass seen by the pairings, each
    summed over one level-1 rule (raised by the refinement boost)."""
    level = refined(1)
    grid = scenario.domain.volume_quadrature(scenario.interface, level)
    surface = (None if scenario.interface is None
               else scenario.interface.surface_quadrature(level))
    worst = 0.0
    for t in tests:
        def mass(p):
            return (np.linalg.norm(t.value(p).reshape(len(p), -1), axis=1)
                    + np.linalg.norm(t.gradient(p).reshape(len(p), -1), axis=1))
        total = blocked_sum(grid, lambda q: mass(q.points))
        if surface is not None:
            total += blocked_sum(surface.weights, mass, surface.points)
        worst = max(worst, total)
    return worst


# ---------------------------------------------------------------------------
# stress-dipole limit


@dataclass
class DipoleLimitReport:
    h_values: list
    errors: list              # per test: list of |Sigma_h - Sigma_2|
    orders: list
    fraction_first_order: float

    def rows(self):
        out = []
        for j, errs in enumerate(self.errors):
            for h, e in zip(self.h_values, errs):
                out.append((j, h, e))
        return out


def dipole_limit(domain, sigma0, h_values, tests=None, z0=0.0, n_tests=10,
                 seed=0, level=None, min_order=0.9):
    """Difference quotient of two opposite surface concentrations vs. the
    dipole pairing, tabulated over the separation h.

    sigma0 is a constant symmetric tensor; the carrier planes sit at z0 and
    z0+h inside the domain.  For each test the dipole pairing (sigma0 with
    the normal derivative) and the lower concentration, neither of which
    depends on h, are paired once on one support rule of the z0 plane;
    only the upper plane is paired per h.  Errors are listed per test in
    descending h.
    """
    sigma0 = np.asarray(sigma0, dtype=float)
    if np.max(np.abs(sigma0 - sigma0.T)) > 1e-12:
        raise FieldError("dipole strength must be symmetric")
    h_values = sorted(float(h) for h in h_values)
    lo, hi = domain.bounding_box()
    if z0 + max(h_values) >= hi[2] or z0 <= lo[2]:
        raise GeometryError("separation exceeds the domain clearance")

    base = plane_disk_interface(domain, z=z0)
    rng = np.random.default_rng(seed)
    if tests is None:
        tests = []
        for _ in range(n_tests):
            c, r = _crossing_bump_geometry(domain, base, rng)
            c = c.copy()
            c[2] = z0 + abs(c[2] - z0) * 0.2   # keep support over both planes
            r = min(r, 0.45 * (hi[2] - z0 - max(h_values)))
            polys = [Poly3.random(rng, 2) for _ in range(6)]
            tests.append(BumpSymTensor(c, r, polys))
    lv = refined(2 if level is None else level)

    def plane_int(itf, fn, support):
        b = itf.surface_quadrature(lv, support=support)
        if len(b) == 0:
            return 0.0
        return blocked_sum(b.weights, None, fn(b))

    def concentration(t):
        return lambda b: np.einsum('ij,nij->n', sigma0, t.value(b.points))

    exact, low = [], []
    for t in tests:
        sup = (t.center, t.radius)
        exact.append(plane_int(base, lambda b: np.einsum(
            'ij,nij->n', sigma0,
            np.einsum('nijk,nk->nij', t.gradient(b.points), b.normals)), sup))
        low.append(plane_int(base, concentration(t), sup))
    hs = sorted(h_values, reverse=True)
    errors = [[] for _ in tests]
    for h in hs:
        upper = plane_disk_interface(domain, z=z0 + h)
        for j, t in enumerate(tests):
            highv = plane_int(upper, concentration(t), (t.center, t.radius))
            sh = (highv - low[j]) / h
            errors[j].append(abs(sh - exact[j]))
    orders = []
    for j, errs in enumerate(errors):
        scale = max(1.0, abs(exact[j]))
        orders.append(T.loglog_slope(hs, errs, floor=1e-12 * scale))
    good = [o for o in orders if not np.isnan(o)]
    frac = (sum(1 for o in good if o >= min_order) / len(orders)) if orders else 0.0
    return DipoleLimitReport(h_values=hs, errors=errors, orders=orders,
                             fraction_first_order=frac)
