"""Named geometry, field, and scenario builders addressable from configs.

Everything the CLI can reference by name lives here, so tests and scenario
files construct the exact same objects.
"""

from __future__ import annotations

import numbers

import numpy as np

from . import _tensor as T
from .equilibrium import EquilibriumScenario, Tolerances
from .errors import ConfigError, GeometryError
from .fields import (ConstantField, HessianInverseR, KelvinStressField,
                     PiecewiseField, PolyField, Poly3, SurfaceField,
                     chart_tangent, dilatational_surface, normal_dyad,
                     surface_polynomial, uniform_tension)
from .geometry import (Ball, Box, CylinderAnnulus, SphericalShell,
                       cylinder_patch_interface, equatorial_annulus_interface,
                       plane_disk_interface, sphere_interface)
from .stressfn import StressFunction


_REQUIRED = object()


class ConfigBlock(dict):
    """A scenario block that knows its JSON path.

    Reading a missing required key raises ``ConfigError`` naming the key's
    path (``$.geometry.domain.radius``), and nested blocks come back as
    ``ConfigBlock``s with the path extended (so do block defaults of
    ``get``), so every builder below reports an incomplete scenario as a
    configuration error.  Numbers are read through ``number``, named
    alternatives through ``choice`` and nested objects through ``block``,
    which report a wrong value the same way.
    """

    def __init__(self, data, path="$"):
        super().__init__(data)
        self.path = path

    @classmethod
    def of(cls, cfg):
        return cfg if isinstance(cfg, cls) else cls(cfg)

    def __getitem__(self, key):
        if key not in self:
            raise ConfigError(f"{self.path}.{key}: missing required key")
        value = super().__getitem__(key)
        if isinstance(value, dict):
            return ConfigBlock(value, f"{self.path}.{key}")
        return value

    def get(self, key, default=None):
        if key in self:
            return self[key]
        if isinstance(default, dict):
            return ConfigBlock(default, f"{self.path}.{key}")
        return default

    def block(self, key, default=_REQUIRED):
        """``self[key]`` (``default`` when given and the key is missing),
        which must be an object; any other value raises ``ConfigError``."""
        value = self[key] if default is _REQUIRED else self.get(key, default)
        if not isinstance(value, ConfigBlock):
            raise ConfigError(f"{self.path}.{key}: must be an object, "
                              f"got {value!r}")
        return value

    def number(self, key, default=_REQUIRED, integer=False, shape=()):
        """``self[key]`` (``default`` when given and the key is missing) as
        a float, an int with ``integer``, or a float array of ``shape``
        (None for any length); any other value raises ``ConfigError``."""
        value = self[key] if default is _REQUIRED else self.get(key, default)
        kind = numbers.Integral if integer else numbers.Real
        if _numeric(value, len(shape), kind):
            if not shape:
                return int(value) if integer else float(value)
            try:
                arr = np.asarray(value, dtype=float)
                if arr.ndim == len(shape) and all(
                        n in (None, m) for n, m in zip(shape, arr.shape)):
                    return arr
            except ValueError:            # ragged nesting
                pass
        what = ("an integer" if integer else "a number" if not shape else
                "an array of shape " + str(shape).replace("None", "n"))
        raise ConfigError(f"{self.path}.{key}: must be {what}, got {value!r}")

    def non_negative(self, key, default=_REQUIRED, integer=False):
        """``number(key, default, integer=integer)``, at least 0."""
        value = self.number(key, default, integer=integer)
        if value >= 0:
            return value
        raise ConfigError(f"{self.path}.{key}: must be non-negative, "
                          f"got {value}")

    def seed(self, key, default=_REQUIRED):
        return self.non_negative(key, default, integer=True)

    def ladder(self, key, default):
        """``number(key, default, shape=(None,))``: two or more distinct
        positive values (a convergence fit's widths or steps)."""
        values = self.number(key, default, shape=(None,))
        if np.all(np.isfinite(values) & (values > 0)) and len(
                set(values.tolist())) > 1:
            return values
        raise ConfigError(f"{self.path}.{key}: must hold two or more distinct "
                          f"positive numbers, got {values.tolist()!r}")

    def choice(self, key, default, choices):
        """``self.get(key, default)``, which must be one of ``choices``;
        any other value raises ``ConfigError``."""
        value = self.get(key, default)
        if value not in choices:
            raise ConfigError(f"{self.path}.{key}: must be one of "
                              f"{list(choices)}, got {value!r}")
        return value


def _numeric(value, ndim, kind):
    """A ``kind`` number (never a bool), or nested lists ``ndim`` deep of
    them."""
    if ndim == 0:
        return isinstance(value, kind) and not isinstance(value, bool)
    return (isinstance(value, (list, tuple, np.ndarray))
            and all(_numeric(v, ndim - 1, kind) for v in value))


def _seeded(cfg, degree):
    """(generator seeded by ``seed``, ``degree`` or its default)."""
    return (np.random.default_rng(cfg.seed("seed")),
            cfg.number("degree", degree, integer=True))


def build_domain(cfg):
    cfg = ConfigBlock.of(cfg)
    kind = cfg.get("kind")
    if kind == "ball":
        return Ball(cfg.number("radius"))
    if kind == "spherical-shell":
        return SphericalShell(cfg.number("inner_radius"),
                              cfg.number("outer_radius"))
    if kind == "box":
        return Box(cfg.number("half_widths", shape=(3,)))
    if kind == "cylinder-annulus":
        return CylinderAnnulus(cfg.number("inner_radius"),
                               cfg.number("outer_radius"),
                               cfg.number("height"))
    raise ConfigError(f"unknown domain kind {kind!r}")


def build_interface(cfg, domain):
    if cfg is None:
        return None
    cfg = ConfigBlock.of(cfg)
    kind = cfg.get("kind")
    if kind == "sphere":
        return _inside(cfg, domain, sphere_interface)
    if kind == "plane-disk":
        return plane_disk_interface(domain, cfg.number("z", 0.0))
    if kind == "plane-rect":
        return domain.plane_interface(cfg.number("z", 0.0))
    if kind == "equatorial-annulus":
        return equatorial_annulus_interface(domain)
    if kind == "cylinder-patch":
        return _inside(cfg, domain,
                       lambda r: cylinder_patch_interface(domain, r))
    raise ConfigError(f"unknown interface kind {kind!r}")


def _inside(cfg, domain, make):
    """``make(radius)``, with room to the boundary (``Domain.clearance``)."""
    radius = cfg.number("radius")
    interface = make(radius) if radius > 0 else None
    if interface is None or domain.clearance(interface) <= 0:
        raise GeometryError(f"{cfg.path}.radius: must be positive and inside "
                            f"the {domain.kind}, got {radius}")
    return interface


# ---------------------------------------------------------------------------
# bulk fields


def _pressure_side(p):
    return ConstantField(p * T.I3, rank=2)


def build_bulk_tensor(cfg, domain, interface):
    cfg = ConfigBlock.of(cfg)
    kind = cfg.get("kind")
    if kind == "zero":
        return None
    if kind == "uniform-pressure":
        return PiecewiseField(2, _pressure_side(cfg.number("p_plus")),
                              _pressure_side(cfg.number("p_minus")), interface)
    if kind == "kelvin":
        return PiecewiseField.smooth(
            KelvinStressField(cfg.number("force", shape=(3,)),
                              cfg.number("nu", 0.25)), 2)
    if kind == "hessian-harmonic":
        return PiecewiseField.smooth(
            HessianInverseR(cfg.number("amplitude", 1.0)), 2)
    if kind == "constant":
        return PiecewiseField.smooth(
            ConstantField(cfg.number("value", shape=(3, 3)), 2), 2)
    if kind == "piecewise-polynomial":
        rng, deg = _seeded(cfg, 3)
        scale = cfg.number("scale", 1.0)
        plus = PolyField.random_symmetric(rng, deg, scale)
        minus = PolyField.random_symmetric(rng, deg, scale)
        return PiecewiseField(2, plus, minus, interface)
    if kind == "radial-pressure":
        plus = _radial_pressure_field(cfg.number("coeffs_plus", shape=(None,)))
        if interface is None or "coeffs_minus" not in cfg:
            return PiecewiseField(2, plus, None, interface)
        minus = _radial_pressure_field(cfg.number("coeffs_minus", shape=(None,)))
        return PiecewiseField(2, plus, minus, interface)
    raise ConfigError(f"unknown bulk stress kind {kind!r}")


def _radial_pressure_field(coeffs):
    """p(r) I with p an even radial polynomial sum c_k r^(2k), exact
    derivatives."""
    r2 = Poly3([[2, 0, 0], [0, 2, 0], [0, 0, 2]], [1.0, 1.0, 1.0])
    p = Poly3.constant(0.0)
    power = Poly3.constant(1.0)
    for c in coeffs:
        p = p + power.scaled(float(c))
        power = _poly_times(power, r2)
    comp = np.empty((3, 3), dtype=object)
    for i in range(3):
        for j in range(3):
            comp[i, j] = p if i == j else Poly3.constant(0.0)
    return PolyField(comp, rank=2)


def _poly_times(a, b):
    exps = (a.exps[:, None, :] + b.exps[None, :, :]).reshape(-1, 3)
    coefs = (a.coefs[:, None] * b.coefs[None, :]).ravel()
    return Poly3(exps, coefs)


def build_bulk_vector(cfg, domain, interface):
    cfg = ConfigBlock.of(cfg)
    kind = cfg.get("kind")
    if kind == "zero":
        return None
    if kind == "constant-vector":
        return PiecewiseField.smooth(
            ConstantField(cfg.number("value", shape=(3,)), 1), 1)
    if kind == "piecewise-polynomial":
        rng, deg = _seeded(cfg, 3)
        plus = PolyField.random_vector(rng, deg, cfg.number("scale", 1.0))
        minus = PolyField.random_vector(rng, deg, cfg.number("scale", 1.0))
        return PiecewiseField(1, plus, minus, interface)
    if kind == "gradient":        # curl-free bulk field for curl checks
        rng, deg = _seeded(cfg, 4)
        pot = Poly3.random(rng, deg)
        comp = np.array(pot.gradient_polys(), dtype=object)
        return PiecewiseField.smooth(PolyField(comp, rank=1), 1)
    raise ConfigError(f"unknown bulk force kind {kind!r}")


# ---------------------------------------------------------------------------
# surface fields


def build_surface_tensor(cfg, interface):
    cfg = ConfigBlock.of(cfg)
    kind = cfg.get("kind")
    if kind == "zero":
        return None
    if kind == "uniform-tension":
        return uniform_tension(cfg.number("gamma"), interface)
    if kind == "dilatational":
        return dilatational_surface(cfg.number("p"), interface)
    if kind == "normal-dyad":
        return normal_dyad(cfg.number("a", shape=(3,)), interface)
    if kind == "constant":
        return SurfaceField.constant(cfg.number("value", shape=(3, 3)), 2, interface)
    if kind == "polynomial":
        rng, deg = _seeded(cfg, 2)
        return surface_polynomial(rng, 2, interface, deg,
                                  scale=cfg.number("scale", 1.0))
    raise ConfigError(f"unknown surface stress kind {kind!r}")


def build_surface_vector(cfg, interface):
    cfg = ConfigBlock.of(cfg)
    kind = cfg.get("kind")
    if kind == "zero":
        return None
    if kind == "constant-vector":
        return SurfaceField.constant(cfg.number("value", shape=(3,)), 1, interface)
    if kind == "matched-dipole":
        p2 = cfg.number("p2")

        # kappa is constant on every catalog patch (``shape_divergence``)
        def ev(batch):
            return p2 * batch.kappa[:, None] * batch.normals

        def dchart(batch, axis):
            _, dn = chart_tangent(batch, axis)
            return p2 * batch.kappa[:, None] * dn

        return SurfaceField(ev, 1, interface, dchart=dchart)
    if kind == "polynomial":
        rng, deg = _seeded(cfg, 2)
        return surface_polynomial(rng, 1, interface, deg,
                                  scale=cfg.number("scale", 1.0))
    raise ConfigError(f"unknown surface force kind {kind!r}")


# ---------------------------------------------------------------------------
# equilibrium scenario presets


def soap_film(domain, interface, gamma, pressure_jump, tolerances=None):
    """Constant-pressure sides with uniform surface tension on a sphere.

    Equilibrated exactly when pressure_jump (toward-side minus away-side)
    equals kappa * gamma.
    """
    sigma = PiecewiseField(2, _pressure_side(pressure_jump),
                           _pressure_side(0.0), interface)
    return EquilibriumScenario(
        domain=domain, interface=interface, sigma=sigma,
        sigma1=uniform_tension(gamma, interface),
        dilatational=True, tolerances=tolerances or Tolerances(),
        name="soap-film")


def dilatational_dipole(domain, interface, gamma, p2, tolerances=None):
    """Soap film plus a constant dilatational dipole with its matched
    normal body-force dipole; equilibrated by construction on a sphere."""
    a = interface.params["radius"]
    kappa = 2.0 / a
    jump = kappa * gamma - 2.0 * p2 / a ** 2
    scn = soap_film(domain, interface, gamma, jump, tolerances)
    scn.sigma2 = dilatational_surface(p2, interface)
    scn.b2 = build_surface_vector({"kind": "matched-dipole", "p2": p2}, interface)
    scn.name = "dilatational-dipole"
    return scn


def kelvin_scenario(domain, force=(0.0, 0.0, 1.0), nu=0.25):
    """Smooth divergence-free stress with nonzero net flux: no stress function."""
    sigma = PiecewiseField.smooth(KelvinStressField(force, nu), 2)
    return EquilibriumScenario(domain=domain, interface=None, sigma=sigma,
                               name="kelvin")


def flat_tension(domain, interface, gamma, tolerances=None):
    """Uniform tension on a flat interface: equilibrated with zero jump."""
    sigma = PiecewiseField(2, _pressure_side(0.0), _pressure_side(0.0),
                           interface)
    return EquilibriumScenario(
        domain=domain, interface=interface, sigma=sigma,
        sigma1=uniform_tension(gamma, interface),
        dilatational=True, tolerances=tolerances or Tolerances(),
        name="flat-tension")


def build_scenario_fields(cfg, domain, interface, tolerances=None):
    """Equilibrium scenario from a preset name or explicit field blocks."""
    cfg = ConfigBlock.of(cfg)
    preset = cfg.get("preset")
    if preset == "soap-film":
        scn = soap_film(domain, interface, cfg.number("gamma"),
                        cfg.number("pressure_jump"), tolerances)
    elif preset == "dilatational-dipole":
        scn = dilatational_dipole(domain, interface, cfg.number("gamma"),
                                  cfg.number("p2"), tolerances)
    elif preset == "flat-tension":
        scn = flat_tension(domain, interface, cfg.number("gamma"), tolerances)
    elif preset == "kelvin":
        scn = kelvin_scenario(domain, cfg.number("force", (0, 0, 1), shape=(3,)),
                              cfg.number("nu", 0.25))
    elif preset is None:
        zero = {"kind": "zero"}
        scn = EquilibriumScenario(
            domain=domain, interface=interface,
            sigma=build_bulk_tensor(cfg.block("sigma", zero), domain,
                                    interface),
            sigma1=build_surface_tensor(cfg.block("sigma1", zero), interface),
            sigma2=build_surface_tensor(cfg.block("sigma2", zero), interface),
            b=build_bulk_vector(cfg.block("b", zero), domain, interface),
            b1=build_surface_vector(cfg.block("b1", zero), interface),
            b2=build_surface_vector(cfg.block("b2", zero), interface),
            tolerances=tolerances or Tolerances())
    else:
        raise ConfigError(f"unknown preset {preset!r}")
    if tolerances is not None:
        scn.tolerances = tolerances
    return scn


def build_potential(cfg, domain, interface):
    cfg = ConfigBlock.of(cfg)
    kind = cfg.get("kind")
    if kind == "piecewise-polynomial":
        rng, deg = _seeded(cfg, 4)
        scale = cfg.number("scale", 1.0)
        plus = PolyField.random_symmetric(rng, deg, scale)
        minus = PolyField.random_symmetric(rng, deg, scale)
        return StressFunction(plus, minus, interface)
    if kind == "smooth-polynomial":
        rng, deg = _seeded(cfg, 4)
        f = PolyField.random_symmetric(rng, deg, cfg.number("scale", 1.0))
        return StressFunction(f, None, interface)
    if kind == "airy":
        # planar potential f(x1, x2) e3 (x) e3: generates an in-plane stress
        terms = cfg.number("terms", shape=(None, 3))   # rows [i, j, coef]
        f = Poly3([[int(i), int(j), 0] for i, j, _ in terms],
                  [float(c) for _, _, c in terms])
        comp = np.empty((3, 3), dtype=object)
        for a in range(3):
            for b in range(3):
                comp[a, b] = f if (a == 2 and b == 2) else Poly3.constant(0.0)
        pf = PolyField(comp, rank=2)
        return StressFunction(pf, None, interface)
    raise ConfigError(f"unknown potential kind {kind!r}")


def random_stress_function(rng, interface, domain, degree=4, scale=1.0):
    plus = PolyField.random_symmetric(rng, degree, scale)
    minus = PolyField.random_symmetric(rng, degree, scale)
    return StressFunction(plus, minus, interface)
