"""Outside-in layer tracer for the stressdist benchmark.

The tracer wraps public functions and methods of the stressdist modules
from outside the package: the package source is never edited.  Each wrapped
call records a span; a metric's self time is its span time minus the time
covered by nested wrapped calls.  A nested call covers its whole wrapper,
argument probe and bookkeeping included, so no layer's self time holds
tracer work; that work is summed as ``probe_s``.  The self times of all
metrics plus ``probe_s`` add up to the span time of the outermost span.

Wrappers replace the original function at every stressdist module attribute
bound to it (``from .fields import surface_divergence`` copies the binding
into ``distributions``) and, for methods, in the ``__dict__`` of the class
that defines them.  ``Tracer.install`` is called only in a traced worker
process; ``Tracer.uninstall`` restores every original.
"""

import hashlib
import sys
import time

MARK = "__perfbench_metric__"

# Metric families reported for each layer: per-layer metric names are
# "<family>.<stat>" for the stats listed here.
FAMILIES = {
    "cli.run_scenario": ("self_s",),
    "catalog.build": ("calls", "self_s"),
    "geometry.fiber": ("calls", "self_s", "nodes", "repeat_ratio"),
    "geometry.surface_support": ("calls", "self_s", "nodes", "repeat_ratio"),
    "geometry.surface_full": ("calls", "self_s", "nodes"),
    "geometry.volume_grid": ("calls", "self_s", "nodes"),
    "geometry.boundary": ("calls", "self_s", "nodes"),
    "fields.poly": ("calls", "self_s", "points", "points_per_s"),
    "fields.polyfield": ("self_s", "points"),
    "fields.piecewise": ("self_s", "points"),
    "fields.test.value": ("calls", "self_s", "points"),
    "fields.test.gradient": ("calls", "self_s", "points"),
    "fields.test.hessian": ("calls", "self_s", "points"),
    "fields.density": ("calls", "self_s", "points", "repeat_ratio"),
    "fields.surface_deriv.dchart": ("calls", "self_s"),
    "fields.surface_deriv.fd": ("calls", "self_s"),
    "distributions.pair": ("calls", "self_s"),
    "distributions.rhs": ("calls", "self_s"),
    "distributions.mollify": ("self_s",),
    "distributions.cauchy_flux": ("self_s",),
    "equilibrium.local": ("self_s",),
    "equilibrium.weak": ("self_s",),
    "equilibrium.dipole_limit": ("self_s",),
    "stressfn.extract": ("self_s",),
    "stressfn.lemma2": ("calls", "self_s", "total_s"),
    "stressfn.global": ("self_s",),
    "stressfn.surface_curl": ("calls",),
}

UNITS = {"calls": "count", "self_s": "s", "total_s": "s", "nodes": "count",
         "points": "count", "points_per_s": "points/s", "repeat_ratio": "1"}


def layer_metric_names():
    """Every per-layer metric name the tracer reports, in a fixed order."""
    return [f"{fam}.{stat}" for fam, stats in FAMILIES.items()
            for stat in stats]


# ---------------------------------------------------------------------------
# argument probes: what a call processes and the key its result depends on


def _rows(x):
    """Row count of an (N, 3) point array or of a batch carrying points."""
    pts = getattr(x, "points", x)
    shape = getattr(pts, "shape", None)
    if shape is None:
        return 0
    return int(shape[0]) if len(shape) >= 2 else 1


def _nodes(rule):
    if rule is None:
        return 0
    if isinstance(rule, (list, tuple)):
        return sum(len(r) for r in rule)
    return len(rule)


def _digest(arr):
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest()


def _interface_key(itf):
    if itf is None:
        return None
    return (itf.kind, repr(sorted(itf.params.items())))


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _fiber(args, kwargs):
    import numpy as np
    center = np.asarray(_arg(args, kwargs, 1, "center"), dtype=float)
    key = (_interface_key(_arg(args, kwargs, 0, "interface")), _digest(center),
           float(_arg(args, kwargs, 2, "radius")), _arg(args, kwargs, 3, "level"))
    return "geometry.fiber", 0, key


def _surface_quadrature(args, kwargs):
    import numpy as np
    self = args[0]
    support = _arg(args, kwargs, 2, "support")
    if support is None:
        return "geometry.surface_full", 0, None
    level = _arg(args, kwargs, 1, "level", "default")
    center = np.asarray(support[0], dtype=float)
    key = (_interface_key(self), _digest(center), float(support[1]), level)
    return "geometry.surface_support", 0, key


def _surface_deriv(args, kwargs):
    field = _arg(args, kwargs, 0, "field")
    batch = _arg(args, kwargs, 1, "batch")
    kind = "dchart" if getattr(field, "dchart", None) is not None else "fd"
    return "fields.surface_deriv." + kind, _rows(batch), None


def _density(args, kwargs):
    batch = args[1]
    # The key holds the density object itself, so its id cannot be reused
    # by another object while the pass runs.
    return "fields.density", _rows(batch), (args[0], _digest(batch.points))


def _fixed(metric, point_arg=None):
    def probe(args, kwargs):
        pts = _rows(args[point_arg]) if point_arg is not None and \
            len(args) > point_arg else 0
        return metric, pts, None
    return probe


# (module, "function" or "Class.method", probe)
def _targets():
    t = [("cli", "run_scenario", _fixed("cli.run_scenario"))]
    for fn in ("build_domain", "build_interface", "build_scenario_fields",
               "build_potential"):
        t.append(("catalog", fn, _fixed("catalog.build")))
    t += [
        ("geometry", "support_volume_quad", _fiber),
        ("geometry", "Interface.surface_quadrature", _surface_quadrature),
        ("geometry", "Domain.volume_quadrature", _fixed("geometry.volume_grid")),
        ("geometry", "BoundarySurface.quadrature", _fixed("geometry.boundary")),
        ("fields", "Poly3.value", _fixed("fields.poly", 1)),
        ("fields", "SurfaceField.value", _density),
        ("fields", "surface_gradient", _surface_deriv),
        ("fields", "surface_divergence", _surface_deriv),
    ]
    for meth in ("value", "gradient", "divergence", "curl_rows"):
        t.append(("fields", "PolyField." + meth, _fixed("fields.polyfield", 1)))
    for meth in ("value", "side_value", "jump", "gradient", "divergence",
                 "curl_rows", "side_gradient"):
        t.append(("fields", "PiecewiseField." + meth,
                  _fixed("fields.piecewise", 1)))
    tests = [("fields", ("BumpScalar", "_ComponentBump", "ModulatedTest",
                         "GradientTestField")),
             ("distributions", ("GradTest", "CurlTest", "ColsCurlTest")),
             ("stressfn", ("MomentTest",))]
    for mod, classes in tests:
        for cls in classes:
            for meth in ("value", "gradient", "hessian"):
                t.append((mod, f"{cls}.{meth}",
                          _fixed("fields.test." + meth, 1)))
    for cls in ("BDist", "CDist", "FDist"):
        t.append(("distributions", cls + ".pair", _fixed("distributions.pair")))
    t += [
        ("distributions", "identity1_rhs", _fixed("distributions.rhs")),
        ("distributions", "identity2_rhs", _fixed("distributions.rhs")),
        ("distributions", "mollify_convergence",
         _fixed("distributions.mollify")),
        ("distributions", "cauchy_flux", _fixed("distributions.cauchy_flux")),
    ]
    for fn in ("local_report", "dilatational_residuals", "bulk_residual",
               "interface_residuals"):
        t.append(("equilibrium", fn, _fixed("equilibrium.local")))
    t += [
        ("equilibrium", "weak_residuals", _fixed("equilibrium.weak")),
        ("equilibrium", "weak_equals_local", _fixed("equilibrium.weak")),
        ("equilibrium", "dipole_limit", _fixed("equilibrium.dipole_limit")),
        ("stressfn", "extract_densities", _fixed("stressfn.extract")),
        ("stressfn", "check_lemma2_conditions", _fixed("stressfn.lemma2")),
        ("stressfn", "global_conditions", _fixed("stressfn.global")),
        ("stressfn", "surface_curl", _fixed("stressfn.surface_curl")),
    ]
    return t


class _Stat:
    __slots__ = ("calls", "total_s", "self_s", "points", "nodes", "repeats")

    def __init__(self):
        self.calls = self.points = self.nodes = self.repeats = 0
        self.total_s = self.self_s = 0.0


class Tracer:
    """Span recorder; ``install`` wraps the layer boundaries of stressdist."""

    def __init__(self):
        self.stats = {fam: _Stat() for fam in FAMILIES}
        self._stack = []
        self._seen = {fam: set() for fam in FAMILIES}
        self._installed = []      # (owner, attribute, original)
        self.probe_s = 0.0        # tracer time inside wrapped spans

    def _wrap(self, fn, probe):
        stats, stack, seen = self.stats, self._stack, self._seen
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t_in = clock()
            metric, points, key = probe(args, kwargs)
            st = stats[metric]
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dt = clock() - t0
                stack.pop()
                st.calls += 1
                st.total_s += dt
                st.self_s += dt - frame[0]
                st.points += points
                if metric.startswith("geometry."):
                    st.nodes += _nodes(result)
                if key is not None:
                    if key in seen[metric]:
                        st.repeats += 1
                    else:
                        seen[metric].add(key)
                # The probe and this bookkeeping are tracer work: they count
                # as covered time of the caller's span, not as self time of
                # any layer, and are reported on their own as trace.probe_s.
                if stack:
                    dt_wrapper = clock() - t_in
                    stack[-1][0] += dt_wrapper
                    self.probe_s += dt_wrapper - dt

        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, MARK, True)
        return wrapper

    def install(self):
        """Wrap every target; returns the number of bindings replaced.

        A target the package no longer defines is skipped, and its metric
        reports zero calls.
        """
        import importlib
        targets = _targets()
        for modname, _, _ in targets:
            importlib.import_module("stressdist." + modname)
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "stressdist"
                                         or name.startswith("stressdist."))]
        for modname, path, probe in targets:
            mod = sys.modules["stressdist." + modname]
            if "." in path:
                clsname, meth = path.split(".")
                cls = getattr(mod, clsname, None)
                if cls is None or meth not in cls.__dict__:
                    continue          # inherited: wrapped where it is defined
                orig = cls.__dict__[meth]
                self._installed.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(orig, probe))
                continue
            orig = getattr(mod, path, None)
            if orig is None:
                continue
            wrapper = self._wrap(orig, probe)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._installed.append((m, attr, orig))
                        setattr(m, attr, wrapper)
        return len(self._installed)

    def uninstall(self):
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def metrics(self):
        """Per-layer metric values, named as in ``layer_metric_names``."""
        out = {}
        for fam, stats in FAMILIES.items():
            st = self.stats[fam]
            values = {
                "calls": st.calls, "self_s": st.self_s, "total_s": st.total_s,
                "points": st.points, "nodes": st.nodes,
                "points_per_s": st.points / st.self_s if st.self_s > 0 else 0.0,
                "repeat_ratio": st.repeats / st.calls if st.calls else 0.0,
            }
            for stat in stats:
                out[f"{fam}.{stat}"] = values[stat]
        out["trace.probe_s"] = self.probe_s
        return out


def installed_wrappers():
    """Count tracer wrappers currently bound anywhere in stressdist."""
    count = 0
    for name, m in list(sys.modules.items()):
        if m is None or not (name == "stressdist"
                             or name.startswith("stressdist.")):
            continue
        for val in vars(m).values():
            if getattr(val, MARK, False):
                count += 1
            elif isinstance(val, type) and val.__module__ == name:
                count += sum(1 for v in val.__dict__.values()
                             if getattr(v, MARK, False))
    return count
