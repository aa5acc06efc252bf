"""Acceptance suite: every criterion at its stated tolerance.

One [PASS]/[FAIL] line is printed per criterion (run pytest with -s to see
them on success).
"""

import json
import os
import shutil
import time

import numpy as np
import pytest

from stressdist._tensor import loglog_slope
from stressdist.catalog import kelvin_scenario, soap_film
from stressdist.cli import batch, run, run_scenario
from stressdist.distributions import (BDist, CDist, CompositeDist, FDist,
                                      cauchy_flux, distributional_div,
                                      identity1_rhs, identity2_rhs)
from stressdist.equilibrium import (bulk_residual, dipole_limit,
                                    interface_residuals, local_report,
                                    make_test_suite, weak_residuals,
                                    _crossing_bump_geometry)
from stressdist.fields import (PiecewiseField, PolyField, make_bump,
                               make_gradient_test_field, normal_dyad,
                               surface_polynomial)
from stressdist.geometry import sphere_interface
from stressdist.stressfn import (check_lemma2_conditions, extract_densities,
                                 global_conditions)

SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")


def _report(num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert ok, line


def _dual_path_tol(lhs, rhs):
    scale = max(abs(lhs), abs(rhs))
    return max(1e-7, 1e-5 * scale)


@pytest.fixture(scope="module")
def geometries(ball, shell, sphere_half, shell_sphere, annulus, ball_disk):
    return {
        "ball-sphere": (ball, sphere_half),
        "ball-disk": (ball, ball_disk),
        "shell-sphere": (shell, shell_sphere),
        "shell-annulus": (shell, annulus),
    }


def test_criterion_1_identity1_dual_path(geometries):
    t0 = time.time()
    combos = list(geometries.values())
    worst = 0.0
    failures = []
    for family in ("B", "C", "F"):
        for j in range(20):
            rng = np.random.default_rng(1000 + 57 * j + ord(family))
            domain, interface = combos[j % len(combos)]
            if family == "B":
                dist = BDist(domain, interface,
                             PiecewiseField(1, PolyField.random_vector(rng, 3),
                                            PolyField.random_vector(rng, 3),
                                            interface))
            else:
                dens = surface_polynomial(rng, 1, interface, degree=2)
                dist = (CDist(interface, dens) if family == "C"
                        else FDist(interface, dens))
            c, r = _crossing_bump_geometry(domain, interface, rng)
            psi = make_bump(domain, c, r, rank=0, rng=rng, degree=3)
            lhs = distributional_div(dist, psi).value
            rhs = identity1_rhs(dist, psi).value
            diff = abs(lhs - rhs)
            tol = _dual_path_tol(lhs, rhs)
            worst = max(worst, diff / tol)
            if diff > tol:
                failures.append((family, j, diff, tol))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 60.0
    _report(1, ok, f"identity-1 dual path, 60 scenarios, worst diff/tol "
                   f"{worst:.3f}, {elapsed:.1f} s (limit 60 s)")


def test_criterion_2_identity2_dual_path(shell, shell_sphere, annulus):
    worst = 0.0
    failures = []
    n_annulus = 0
    for j in range(12):
        rng = np.random.default_rng(3000 + 41 * j)
        interface = annulus if j % 2 == 0 else shell_sphere
        if interface is annulus:
            n_annulus += 1
        family = ("B", "C", "F")[j % 3]
        if family == "B":
            dist = BDist(shell, interface,
                         PiecewiseField(2, PolyField.random_symmetric(rng, 2),
                                        PolyField.random_symmetric(rng, 2),
                                        interface))
        else:
            dens = surface_polynomial(rng, 2, interface, degree=2,
                                      symmetric=False)
            dist = (CDist(interface, dens) if family == "C"
                    else FDist(interface, dens))
        g = make_gradient_test_field(shell, [np.zeros(3),
                                             rng.uniform(-1, 1, 3)])
        lhs = dist.pair(g).value
        rhs = identity2_rhs(dist, g).value
        diff = abs(lhs - rhs)
        tol = _dual_path_tol(lhs, rhs)
        worst = max(worst, diff / tol)
        if diff > tol:
            failures.append((family, j, diff, tol))
    ok = not failures and n_annulus >= 4
    _report(2, ok, f"identity-2 dual path on the shell, 12 scenarios "
                   f"({n_annulus} with boundary curves), worst diff/tol {worst:.3f}")


def test_criterion_3_soap_film(big_ball, unit_sphere):
    scn = soap_film(big_ball, unit_sphere, gamma=0.7, pressure_jump=1.4)
    rb, rc, rd = interface_residuals(scn, n=2000)
    bk, _ = bulk_residual(scn, n=2000)
    locals_ok = max(bk, rb, rc, rd) <= 1e-8
    proj = local_report(scn, n_surface=2000)
    proj_ok = all(c.residual <= 1e-8 for c in proj)

    rng = np.random.default_rng(77)
    tests = make_test_suite(big_ball, unit_sphere, 9, rng)
    weak = weak_residuals(scn, tests)
    weak_ok = all(c.passed for c in weak)

    maxima = []
    epss = [1e-1, 1e-2, 1e-3]
    for eps in epss:
        pert = soap_film(big_ball, unit_sphere, gamma=0.7,
                         pressure_jump=1.4 + eps)
        w = weak_residuals(pert, tests)
        maxima.append(max(abs(c.residual) for c in w))
    slope = loglog_slope(epss, maxima)
    slope_ok = abs(slope - 1.0) <= 0.05
    ok = locals_ok and proj_ok and weak_ok and slope_ok
    _report(3, ok, f"soap film: local max {max(bk, rb, rc, rd):.2e} <= 1e-8, "
                   f"weak within estimates, perturbation slope {slope:.3f}")


def test_criterion_4_dipole_limit(big_ball):
    sigma0 = np.diag([1.0, -0.5, 0.0])
    rep = dipole_limit(big_ball, sigma0, [0.2, 0.1, 0.05, 0.025, 0.0125],
                       n_tests=10, seed=0, min_order=0.9)
    ok = rep.fraction_first_order >= 0.9
    _report(4, ok, f"stress-dipole limit: {rep.fraction_first_order:.0%} of "
                   f"10 tests with fitted order >= 0.9 "
                   f"(orders {np.round(rep.orders, 2).tolist()})")


CATALOG_RESULTS = {}


def test_criterion_5_sufficiency_loop(ball, shell, sphere_half, shell_sphere):
    t0 = time.time()
    failures = []
    for idx in range(20):
        rng = np.random.default_rng(5000 + idx)
        for name, dom, itf in (("ball", ball, sphere_half),
                               ("shell", shell, shell_sphere)):
            phi_plus = PolyField.random_symmetric(rng, 4, scale=0.2)
            phi_minus = PolyField.random_symmetric(rng, 4, scale=0.2)
            from stressdist.stressfn import StressFunction
            phi = StressFunction(phi_plus, phi_minus, itf)
            triple = extract_densities(phi, itf)
            scn = triple.scenario(dom)
            rb, rc, rd = interface_residuals(scn, n=600)
            bk, _ = bulk_residual(scn, n=400)
            if max(bk, rb, rc, rd) > 1e-6:
                failures.append((idx, name, "local", max(bk, rb, rc, rd)))
            lem = check_lemma2_conditions(triple.composite(dom), dom)
            lem_max = max(abs(c.residual) for c in lem)
            if lem_max > 1e-6:
                failures.append((idx, name, "lemma2", lem_max))
            gc = global_conditions(triple, dom)
            gmax = max((c.residual for c in gc.checks()), default=0.0)
            if gmax > 1e-6:
                failures.append((idx, name, "global", gmax))
            CATALOG_RESULTS.setdefault(name, []).append((phi, triple, itf))
    elapsed = time.time() - t0
    ok = not failures and elapsed <= 300.0
    _report(5, ok, f"sufficiency loop: 20 potentials x (ball, shell), "
                   f"{len(failures)} failures, {elapsed:.0f} s (limit 300 s)")


def test_criterion_6_kelvin_necessity(shell):
    scn = kelvin_scenario(shell, force=[0.0, 0.0, 1.0], nu=0.25)
    bk, _ = bulk_residual(scn, n=2000)
    bulk_ok = bk <= 1e-6
    gc = global_conditions(scn.sigma, shell)
    inner_force = gc.forces[1]
    force_ok = np.linalg.norm(inner_force - [0, 0, -1.0]) <= 1e-4 * 1.0
    dist = CompositeDist(b=BDist(shell, None, scn.sigma))
    lem = check_lemma2_conditions(dist, shell)
    vals = {c.id: c.residual for c in lem}
    pairing = vals["force:component1-e2"]
    pairing_ok = abs(pairing - (-1.0)) <= 1e-3
    reported_fail = not all(c.passed for c in lem) and not gc.passed
    ok = bulk_ok and force_ok and pairing_ok and reported_fail
    _report(6, ok, f"kelvin witness: inner force {np.round(inner_force, 6)}"
                   f" ~ -F, pairing {pairing:.6f} ~ <e3, -F>, "
                   f"bulk residual {bk:.1e} <= 1e-6, reported FAIL")


def test_criterion_7_dipole_density_tangential(ball, shell, sphere_half,
                                               shell_sphere):
    worst = 0.0
    for idx in range(20):
        rng = np.random.default_rng(5000 + idx)
        for name, dom, itf in (("ball", ball, sphere_half),
                               ("shell", shell, shell_sphere)):
            from stressdist.stressfn import StressFunction
            phi = StressFunction(PolyField.random_symmetric(rng, 4, scale=0.2),
                                 PolyField.random_symmetric(rng, 4, scale=0.2),
                                 itf)
            triple = extract_densities(phi, itf)
            batch = itf.samples(400)
            s2n = np.einsum('nij,nj->ni', triple.sigma2.value(batch),
                            batch.normals)
            worst = max(worst, float(np.max(np.abs(s2n))))
    ok = worst <= 1e-10
    _report(7, ok, f"extracted dipole density: max |sigma2 n| = {worst:.2e} "
                   f"<= 1e-10 over the criterion-5 catalog")


def test_criterion_8_cauchy_flux_dichotomy(big_ball, unit_sphere, rng):
    bulk = PiecewiseField(2, PolyField.random_symmetric(rng, 2, 0.5),
                          PolyField.random_symmetric(rng, 2, 0.5),
                          unit_sphere)
    comp = CompositeDist(b=BDist(big_ball, unit_sphere, bulk),
                         c=CDist(unit_sphere,
                                 normal_dyad([0, 0, 1.0], unit_sphere)))
    rhos = [0.05, 0.025, 0.0125, 0.00625]
    apart = cauchy_flux(comp, sphere_interface(1.5), rhos, domain=big_ball)
    apart_ok = apart.converged and (np.isnan(apart.order) or apart.order >= 1.0)
    onto = cauchy_flux(CompositeDist(c=comp.c), unit_sphere, rhos,
                       domain=big_ball)
    onto_ok = (not onto.converged) and abs(onto.divergence_slope + 1.0) <= 0.1
    ok = apart_ok and onto_ok
    _report(8, ok, f"cauchy flux: disjoint probe converges, coincident probe "
                   f"grows with slope {onto.divergence_slope:.3f} ~ -1, "
                   f"flagged non-convergent")


def test_criterion_9_cli_golden_suite(tmp_path):
    # batch writes each report next to its scenario: run on a copy
    suite = tmp_path / "scenarios"
    suite.mkdir()
    for name in os.listdir(SCENARIO_DIR):
        if name.endswith(".json") and not name.endswith(".report.json"):
            shutil.copy(os.path.join(SCENARIO_DIR, name), suite / name)
    code, results = batch(str(suite), out=str(tmp_path / "summary.csv"))
    golden_ok = code == 0 and len(results) >= 12

    soap = str(suite / "soap-film-sphere.json")
    o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(soap, out=o1)
    run(soap, out=o2)

    def strip(path):
        rep = json.loads(open(path).read())
        rep.pop("timing")
        return json.dumps(rep, sort_keys=True)

    deterministic = strip(o1) == strip(o2)

    bad = json.loads(open(soap).read())
    bad["fields"]["pressure_jump"] = 2.0
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(bad))
    code1, _ = run(str(bad_path), out=str(tmp_path / "bad_rep.json"))
    broken = dict(json.loads(open(soap).read()))
    broken["operation"] = "nope"
    broken_path = tmp_path / "broken.json"
    broken_path.write_text(json.dumps(broken))
    code2, _ = run(str(broken_path))
    contract_ok = code1 == 1 and code2 == 2
    ok = golden_ok and deterministic and contract_ok
    _report(9, ok, f"CLI: golden suite of {len(results)} scenarios exit 0, "
                   f"byte-identical reports modulo timing, exit-code contract "
                   f"(1 on failed checks, 2 on config errors)")
