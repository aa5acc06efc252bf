"""Scenario-driven command line front end.

A scenario is a JSON file naming a geometry, catalog fields, one
verification operation, suite parameters, and tolerance overrides.  ``run``
executes one scenario and writes a machine-readable report (exit 0 pass,
1 checks failed, 2 configuration error, 3 internal error); ``batch`` runs a
directory of scenarios in parallel and writes a summary CSV.

Reports are deterministic for a fixed scenario and seed up to the volatile
``timing`` block.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
import traceback
from concurrent.futures import ThreadPoolExecutor
from datetime import datetime, timezone

import numpy as np

from . import __version__, _pool, catalog, distributions
from .distributions import (BDist, CDist, CompositeDist, FDist, cauchy_flux,
                            identity_sides, mollify_convergence)
from .equilibrium import (Check, Tolerances, bulk_residual, dipole_limit,
                          local_report, make_test_suite, weak_residuals)
from .errors import ConfigError, StressDistError
from .fields import make_bump, make_gradient_test_field, surface_polynomial
from .stressfn import check_lemma2_conditions, extract_densities, global_conditions

SCHEMA_VERSION = 1

OPERATIONS = ("verify-identity", "check-equilibrium", "dipole-limit",
              "stress-function", "global-conditions", "mollify", "cauchy-flux")

_TOP_KEYS = {"schema_version", "name", "operation", "seed", "geometry",
             "fields", "suite", "tolerances", "parameters"}
_GEOM_KEYS = {"domain", "interface"}
_SUITE_KEYS = {"count", "seed"}
# the $.suite, $.parameters and $.tolerances keys each operation's driver
# reads (verify-identity reads only suite.count, but shipped identity
# scenarios set suite.seed)
_OPERATION_KEYS = {
    "verify-identity": (_SUITE_KEYS,
                        {"family", "identity", "abs_tol", "rel_tol"}, ()),
    "check-equilibrium": (_SUITE_KEYS, (), {"local", "weak_factor"}),
    "dipole-limit": (_SUITE_KEYS, {"sigma0", "h_values", "z", "min_order",
                                   "min_fraction"}, ()),
    "stress-function": ((), {"tol"}, ()),
    "global-conditions": ((), {"tol"}, ()),
    "mollify": ((), {"family", "rhos", "min_order"}, ()),
    "cauchy-flux": ((), {"rhos", "expect", "probe"}, ()),
}
FAMILIES = ("B", "C", "F")

# What needs $.geometry.interface: these operations always; the others only
# a field that lives on the interface or jumps across it (dipole-limit
# builds its own planes and reads no fields).  Extracted stress-function
# densities live on the interface, so a potential needs one there.
_INTERFACE_OPERATIONS = ("verify-identity", "check-equilibrium", "mollify")
_SURFACE_FIELDS = ("sigma1", "sigma2", "b1", "b2")
_TWO_SIDED_KINDS = ("piecewise-polynomial", "uniform-pressure")


def _fail(errors, path, message):
    errors.append(f"{path}: {message}")


def validate_scenario(cfg):
    """Schema check with json-path diagnostics; unknown keys are rejected."""
    errors = []
    if not isinstance(cfg, dict):
        return ["$: scenario must be a JSON object"]
    for k in cfg:
        if k not in _TOP_KEYS:
            _fail(errors, f"$.{k}", "unknown key")
    if cfg.get("schema_version") != SCHEMA_VERSION:
        _fail(errors, "$.schema_version", f"must be {SCHEMA_VERSION}")
    op = cfg.get("operation")
    if op not in OPERATIONS:
        _fail(errors, "$.operation", f"must be one of {sorted(OPERATIONS)}")
    geom = cfg.get("geometry")
    if not isinstance(geom, dict):
        _fail(errors, "$.geometry", "missing or not an object")
    else:
        for k in geom:
            if k not in _GEOM_KEYS:
                _fail(errors, f"$.geometry.{k}", "unknown key")
        if not isinstance(geom.get("domain"), dict):
            _fail(errors, "$.geometry.domain", "missing or not an object")
        if geom.get("interface") is None:
            user = _interface_user(op, cfg.get("fields", {}))
            if user is not None:
                _fail(errors, "$.geometry.interface",
                      f"missing; {user} needs an interface")
        elif not isinstance(geom["interface"], dict):
            _fail(errors, "$.geometry.interface", "not an object")
    allowed = _OPERATION_KEYS[op] if op in OPERATIONS else (None,) * 3
    for section, keys in zip(("suite", "parameters", "tolerances", "fields"),
                             allowed + (None,)):
        block = cfg.get(section, {})
        if not isinstance(block, dict):
            _fail(errors, f"$.{section}", "not an object")
        elif keys is not None:
            for k in block:
                if k not in keys:
                    _fail(errors, f"$.{section}.{k}", "unknown key")
    randomized = op in ("verify-identity", "check-equilibrium", "dipole-limit",
                        "mollify", "cauchy-flux", "stress-function")
    seed = cfg.get("seed")
    if "seed" not in cfg and randomized:
        _fail(errors, "$.seed", "an integer seed is mandatory")
    elif "seed" in cfg and (isinstance(seed, bool)
                            or not isinstance(seed, int)):
        _fail(errors, "$.seed", f"must be an integer, got {seed!r}")
    return errors


def _interface_user(op, fields):
    """What in a scenario needs an interface: the operation, the JSON path
    of a field, or None."""
    if op in _INTERFACE_OPERATIONS:
        return f"operation {op}"
    if op == "dipole-limit" or not isinstance(fields, dict):
        return None

    def kind(key):
        block = fields.get(key, {"kind": "zero"})
        return block.get("kind") if isinstance(block, dict) else None

    if "potential" in fields:
        if op == "stress-function" or kind("potential") in _TWO_SIDED_KINDS:
            return "$.fields.potential"
        return None
    if fields.get("preset", "kelvin") != "kelvin":
        return "$.fields.preset"
    for key in ("sigma", "b") + _SURFACE_FIELDS:
        if kind(key) in _TWO_SIDED_KINDS or (key in _SURFACE_FIELDS
                                             and kind(key) != "zero"):
            return f"$.fields.{key}"
    return None


def _build_geometry(cfg):
    domain = catalog.build_domain(cfg["geometry"]["domain"])
    interface = catalog.build_interface(cfg["geometry"].get("interface"),
                                        domain)
    return domain, interface


def _tolerances(cfg):
    over = cfg.get("tolerances", {})
    return Tolerances(**{k: over.non_negative(k)
                         for k in ("local", "weak_factor") if k in over})


def _suite_count(cfg, default):
    """``$.suite.count`` (``default`` when absent), a positive integer."""
    suite = cfg.get("suite", {})
    count = suite.number("count", default, integer=True)
    if count < 1:
        raise ConfigError(f"{suite.path}.count: must be a positive integer, "
                          f"got {count!r}")
    return count


# ---------------------------------------------------------------------------
# operation drivers: each returns (checks, tables)


def _op_verify_identity(cfg, domain, interface, rng):
    params = cfg.get("parameters", {})
    family = params.choice("family", "B", FAMILIES)
    which = params.number("identity", 1, integer=True)
    if which not in (1, 2):
        raise ConfigError(f"{params.path}.identity: must be 1 or 2, "
                          f"got {which!r}")
    count = _suite_count(cfg, 5)
    abs_tol = params.non_negative("abs_tol", distributions.ABS_TOL)
    rel_tol = params.non_negative("rel_tol", distributions.REL_TOL)
    checks = []
    rows = []
    for j in range(count):
        dist = _random_dist(family, domain, interface, rng,
                            rank=2 if which == 2 else 1)
        test = (_random_scalar_bump(domain, interface, rng) if which == 1
                else _random_gradient_field(domain, rng))
        lhs, rhs = identity_sides(dist, test, which)
        scale = max(abs(lhs.value), abs(rhs.value))
        tol = max(abs_tol, rel_tol * scale)
        checks.append(Check(f"identity{which}-{family}-{j}",
                            lhs.value - rhs.value, tol,
                            extra={"lhs": lhs.value, "rhs": rhs.value,
                                   "estimate": lhs.error + rhs.error}))
        rows.append((f"{family}-{j}", lhs.value, rhs.value,
                     abs(lhs.value - rhs.value)))
    return checks, {"pairings": {"columns": ["scenario", "lhs", "rhs", "abs_diff"],
                                 "rows": rows}}


def _random_dist(family, domain, interface, rng, rank):
    from .fields import PiecewiseField, PolyField
    if family == "B":
        make = (PolyField.random_symmetric if rank == 2
                else PolyField.random_vector)
        return BDist(domain, interface,
                     PiecewiseField(rank, make(rng, 3), make(rng, 3),
                                    interface))
    density = surface_polynomial(rng, rank, interface, degree=2,
                                 symmetric=False)
    return CDist(interface, density) if family == "C" else \
        FDist(interface, density)


def _random_scalar_bump(domain, interface, rng):
    from .equilibrium import _crossing_bump_geometry
    c, r = _crossing_bump_geometry(domain, interface, rng)
    return make_bump(domain, c, r, rank=0, rng=rng, degree=3)


def _random_gradient_field(domain, rng):
    constants = [np.zeros(3)]
    for _ in range(1, domain.k):
        constants.append(rng.uniform(-1, 1, 3))
    if domain.k == 1:
        center, radius = domain.interior_ball()
        return make_gradient_test_field(
            domain, constants, rng=rng, center=center, radius=radius,
            direction=rng.normal(size=3))
    return make_gradient_test_field(domain, constants)


def _op_check_equilibrium(cfg, domain, interface, rng):
    tol = _tolerances(cfg)
    scn = catalog.build_scenario_fields(cfg.get("fields", {}), domain,
                                        interface, tol)
    scn.check_symmetry()
    count = _suite_count(cfg, 9)
    seed = cfg.get("suite", {}).seed("seed", cfg.get("seed", 0))
    tests = make_test_suite(domain, interface, count,
                            np.random.default_rng(seed))
    return local_report(scn) + weak_residuals(scn, tests), {}


def _op_dipole_limit(cfg, domain, interface, rng):
    params = cfg.get("parameters", {})
    sigma0 = params.number("sigma0", [[1, 0, 0], [0, -0.5, 0], [0, 0, 0]],
                           shape=(3, 3))
    h_values = params.ladder("h_values", [0.2, 0.1, 0.05, 0.025, 0.0125])
    count = _suite_count(cfg, 10)
    seed = cfg.get("suite", {}).seed("seed", cfg.get("seed", 0))
    min_order = params.number("min_order", 0.9)
    rep = dipole_limit(domain, sigma0, h_values, z0=params.number("z", 0.0),
                       n_tests=count, seed=seed, min_order=min_order)
    frac_needed = params.number("min_fraction", 0.9)
    checks = [Check("dipole-order-fraction", rep.fraction_first_order, 1.0,
                    passed=rep.fraction_first_order >= frac_needed,
                    extra={"orders": [None if np.isnan(o) else round(o, 4)
                                      for o in rep.orders]})]
    return checks, {"convergence": {"columns": ["test", "h", "abs_error"],
                                    "rows": rep.rows()}}


def _op_stress_function(cfg, domain, interface, rng):
    tol = cfg.get("parameters", {}).non_negative("tol", 1e-6)
    fields_cfg = cfg.get("fields", {})
    if "potential" in fields_cfg:
        sigma = extract_densities(catalog.build_potential(
            fields_cfg.block("potential"), domain, interface), interface)
        checks = local_report(sigma.scenario(
            domain, tolerances=Tolerances(local=tol)))
        dist = sigma.composite(domain)
    else:
        scn = catalog.build_scenario_fields(fields_cfg, domain, interface)
        checks = [Check("12a", bulk_residual(scn)[0], tol)]
        dist = CompositeDist(b=BDist(domain, interface, scn.sigma))
        sigma = scn.sigma
    checks += check_lemma2_conditions(dist, domain, tol=tol)
    gc = global_conditions(sigma, domain, interface, tol=tol)
    return checks + gc.checks(), {}


def _op_global_conditions(cfg, domain, interface, rng):
    tol = cfg.get("parameters", {}).non_negative("tol", 1e-6)
    fields_cfg = cfg.get("fields", {})
    if "potential" in fields_cfg:
        sigma = extract_densities(catalog.build_potential(
            fields_cfg.block("potential"), domain, interface), interface)
    else:
        sigma = catalog.build_scenario_fields(fields_cfg, domain,
                                              interface).sigma
    gc = global_conditions(sigma, domain, interface, tol=tol)
    rows = [(i, float(np.linalg.norm(f)), float(np.linalg.norm(m)))
            for i, (f, m) in enumerate(zip(gc.forces, gc.moments))]
    return gc.checks(), {"global": {"columns": ["component", "force_norm",
                                                "moment_norm"], "rows": rows}}


def _op_mollify(cfg, domain, interface, rng):
    params = cfg.get("parameters", {})
    family = params.choice("family", "C", FAMILIES)
    rhos = params.ladder("rhos", [0.08, 0.04, 0.02, 0.01]).tolist()
    min_order = params.number("min_order", 1.0)
    dist = _random_dist(family, domain, interface, rng, rank=2)
    from .equilibrium import _crossing_bump_geometry
    c, r = _crossing_bump_geometry(domain, interface, rng)
    test = make_bump(domain, c, r, rank=2, rng=rng, degree=2)
    tab = mollify_convergence(dist, test, rhos, domain=domain)
    order = tab.order if not np.isnan(tab.order) else float('inf')
    checks = [Check("mollify-order", order, float('inf'),
                    passed=order >= min_order,
                    extra={"required": min_order})]
    return checks, {"convergence": {"columns": ["rho", "value", "abs_error"],
                                    "rows": tab.rows()}}


def _op_cauchy_flux(cfg, domain, interface, rng):
    params = cfg.get("parameters", {})
    rhos = params.ladder("rhos", [0.05, 0.025, 0.0125, 0.00625]).tolist()
    expect = params.choice("expect", "converge", ("converge", "diverge"))
    probe = catalog.build_interface(
        params.block("probe", {"kind": "sphere", "radius": 1.5}), domain)
    fields_cfg = cfg.get("fields", {})
    zero = {"kind": "zero"}
    b = catalog.build_bulk_tensor(fields_cfg.block("sigma", zero), domain,
                                  interface)
    c = catalog.build_surface_tensor(fields_cfg.block("sigma1", zero),
                                     interface)
    f = catalog.build_surface_tensor(fields_cfg.block("sigma2", zero),
                                     interface)
    dist = CompositeDist(
        b=BDist(domain, interface, b) if b is not None else None,
        c=CDist(interface, c) if c is not None else None,
        f=FDist(interface, f) if f is not None else None)
    rep = cauchy_flux(dist, probe, rhos, domain=domain)
    ok = rep.converged if expect == "converge" else not rep.converged
    slope = rep.divergence_slope
    checks = [Check("cauchy-flux", 0.0 if ok else 1.0, 0.5, passed=ok,
                    extra={"expect": expect, "converged": rep.converged,
                           "order": None if np.isnan(rep.order) else rep.order,
                           "magnitude_slope": None if np.isnan(slope) else slope})]
    rows = [(r, float(np.linalg.norm(fv)), e)
            for r, fv, e in zip(rep.rhos, rep.fluxes, rep.errors)]
    return checks, {"flux": {"columns": ["rho", "flux_norm", "abs_error"],
                             "rows": rows}}


_DRIVERS = {
    "verify-identity": _op_verify_identity,
    "check-equilibrium": _op_check_equilibrium,
    "dipole-limit": _op_dipole_limit,
    "stress-function": _op_stress_function,
    "global-conditions": _op_global_conditions,
    "mollify": _op_mollify,
    "cauchy-flux": _op_cauchy_flux,
}


# ---------------------------------------------------------------------------
# run / batch


def run_scenario(cfg, refine=0, seed_override=None):
    """Execute one validated scenario dict; returns the report dict."""
    errors = validate_scenario(cfg)
    if errors:
        raise ConfigError("; ".join(errors))
    if seed_override is not None:
        if int(seed_override) < 0:
            raise ConfigError(f"--seed: must be non-negative, "
                              f"got {seed_override!r}")
        cfg = dict(cfg)
        cfg["seed"] = int(seed_override)
    t0 = time.perf_counter()
    block = catalog.ConfigBlock(cfg)
    with distributions.refinement(refine):
        domain, interface = _build_geometry(block)
        rng = np.random.default_rng(block.seed("seed", 0))
        checks, tables = _DRIVERS[cfg["operation"]](block, domain, interface,
                                                    rng)
    passed = all(c.passed for c in checks)
    report = {
        "schema_version": SCHEMA_VERSION,
        "library_version": __version__,
        "scenario": cfg,
        "operation": cfg["operation"],
        "checks": [c.to_dict() for c in checks],
        "tables": {k: v for k, v in tables.items()},
        "summary": {
            "pass": bool(passed),
            "n_pass": sum(1 for c in checks if c.passed),
            "n_fail": sum(1 for c in checks if not c.passed),
            "failing": [c.id for c in checks if not c.passed],
        },
        "timing": {
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "wall_time_s": round(time.perf_counter() - t0, 3),
        },
    }
    return report


def _dump_report(report, out_path, fmt):
    if fmt == "report":
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    else:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            for name, table in sorted(report["tables"].items()):
                writer.writerow([name])
                writer.writerow(table["columns"])
                for row in table["rows"]:
                    writer.writerow(list(row))
            if not report["tables"]:
                writer.writerow(["id", "residual", "tolerance", "pass"])
                for c in report["checks"]:
                    writer.writerow([c["id"], c["residual"], c["tolerance"],
                                     c["pass"]])


def run(path, refine=0, seed=None, out=None, fmt="report"):
    """Run one scenario file.

    Exit codes: 0 pass, 1 failed checks, 2 configuration error (an
    unreadable or malformed scenario, one the library rejects with a
    ``StressDistError``, or a report path that cannot be written), 3
    internal error (any other exception; its traceback goes to stderr).
    """
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read scenario {path}: {exc}", file=sys.stderr)
        return 2, None
    try:
        report = run_scenario(cfg, refine=refine, seed_override=seed)
    except StressDistError as exc:
        print(f"error: {path}: {exc}", file=sys.stderr)
        return 2, None
    except Exception:
        print(f"internal error: {path}", file=sys.stderr)
        traceback.print_exc()
        return 3, None
    suffix = ".report.json" if fmt == "report" else ".report.csv"
    out_path = out or (os.path.splitext(path)[0] + suffix)
    try:
        _dump_report(report, out_path, fmt)
    except OSError as exc:
        print(f"error: cannot write report {out_path}: {exc}",
              file=sys.stderr)
        return 2, None
    return (0 if report["summary"]["pass"] else 1), report


def batch(directory, refine=0, out=None, jobs=None):
    """Run every *.json scenario in a directory; summary CSV + exit code."""
    try:
        names = sorted(n for n in os.listdir(directory) if n.endswith(".json")
                       and not n.endswith(".report.json"))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, []
    if not names:
        print(f"error: no scenario files in {directory}", file=sys.stderr)
        return 2, []
    try:
        jobs = _worker_count(jobs)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2, []
    results = []

    def one(name):
        # each worker evaluates on one lane of the budget its scenario's
        # block helpers draw from, so the two together stay within the bound
        with _pool.holding_lane():
            code, report = run(os.path.join(directory, name), refine=refine)
        return name, code, report

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        for name, code, report in pool.map(one, names):
            results.append((name, code, report))

    out_path = out or os.path.join(directory, "summary.csv")
    try:
        with open(out_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["scenario", "exit_code", "pass", "n_pass",
                             "n_fail"])
            for name, code, report in results:
                if report is None:
                    writer.writerow([name, code, "", "", ""])
                else:
                    s = report["summary"]
                    writer.writerow([name, code, s["pass"], s["n_pass"],
                                     s["n_fail"]])
    except OSError as exc:
        print(f"error: cannot write summary {out_path}: {exc}",
              file=sys.stderr)
        return 2, results
    worst = max(code for _, code, _ in results)
    return worst, results


def _worker_count(jobs):
    """Threads for ``batch``: ``jobs`` when nonzero, else the thread bound
    (``STRESSDIST_THREADS`` when set and nonzero, else the CPU count).
    Anything but a non-negative integer raises ``ConfigError``."""
    if not jobs:
        return _pool.thread_bound()
    if not str(jobs).isdecimal():
        raise ConfigError(f"--jobs must be a non-negative integer, got {jobs!r}")
    return int(jobs)


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="stressdist",
        description="Quadrature-based verification of singular stress fields")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario")
    p_run.add_argument("--refine", type=int, default=0,
                       help="extra quadrature refinement levels")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
    p_run.add_argument("--out", default=None, help="report output path")
    p_run.add_argument("--format", dest="fmt", choices=("report", "csv"),
                       default="report")

    p_batch = sub.add_parser("batch", help="run a directory of scenarios")
    p_batch.add_argument("directory")
    p_batch.add_argument("--refine", type=int, default=0)
    p_batch.add_argument("--out", default=None, help="summary CSV path")
    p_batch.add_argument("--jobs", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        code, _ = run(args.scenario, refine=args.refine, seed=args.seed,
                      out=args.out, fmt=args.fmt)
        return code
    code, _ = batch(args.directory, refine=args.refine, out=args.out,
                    jobs=args.jobs)
    return code


if __name__ == "__main__":
    sys.exit(main())
