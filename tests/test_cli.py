"""Scenario validation, exit codes, determinism, and batch aggregation."""

import json
import os
import re
import subprocess
import sys
import threading

import numpy as np
import pytest

from stressdist.cli import batch, main, run, run_scenario, validate_scenario
from stressdist.errors import ConfigError

SOAP = {
    "schema_version": 1,
    "name": "soap",
    "operation": "check-equilibrium",
    "seed": 7,
    "geometry": {"domain": {"kind": "ball", "radius": 2.0},
                 "interface": {"kind": "sphere", "radius": 1.0}},
    "fields": {"preset": "soap-film", "gamma": 0.7, "pressure_jump": 1.4},
    "suite": {"count": 3, "seed": 5},
}


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg, indent=2, sort_keys=True))
    return str(p)


SCENARIO_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "scenarios")
SRC_DIR = os.path.join(os.path.dirname(__file__), os.pardir, "src")

# Runs the named scenarios in a fresh interpreter and prints their reports
# without the timing block, one JSON list on stdout.
_RUN_REPORTS = """
import json, sys
from stressdist.cli import run_scenario
reports = []
for path in sys.argv[1:]:
    with open(path, encoding="utf-8") as fh:
        rep = run_scenario(json.load(fh), refine=0)
    rep.pop("timing", None)
    reports.append(rep)
print(json.dumps(reports, sort_keys=True))
"""


def _reports_under_blas_threads(threads, names, pool_width=None):
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    if pool_width is not None:
        env["STRESSDIST_THREADS"] = str(pool_width)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.abspath(SRC_DIR)] + [p for p in [env.get("PYTHONPATH")] if p])
    paths = [os.path.join(SCENARIO_DIR, n + ".json") for n in names]
    out = subprocess.run([sys.executable, "-c", _RUN_REPORTS, *paths],
                         env=env, capture_output=True, text=True, timeout=600,
                         check=True)
    return json.loads(out.stdout)


def _strip_timing(text):
    rep = json.loads(text)
    rep.pop("timing", None)
    return json.dumps(rep, sort_keys=True)


class TestValidation:
    def test_valid(self):
        assert validate_scenario(SOAP) == []

    def test_unknown_key_rejected(self):
        cfg = dict(SOAP)
        cfg["tolerance"] = 1.0
        errs = validate_scenario(cfg)
        assert any("$.tolerance" in e and "unknown key" in e for e in errs)

    def test_missing_seed(self):
        cfg = {k: v for k, v in SOAP.items() if k != "seed"}
        errs = validate_scenario(cfg)
        assert any("$.seed" in e for e in errs)

    def test_bad_operation(self):
        cfg = dict(SOAP)
        cfg["operation"] = "solve-pde"
        errs = validate_scenario(cfg)
        assert any("$.operation" in e for e in errs)

    def test_missing_domain(self):
        cfg = dict(SOAP)
        cfg["geometry"] = {}
        errs = validate_scenario(cfg)
        assert any("$.geometry.domain" in e for e in errs)

    @pytest.mark.parametrize("name,section,key", [
        ("identity1-C-ball", "parameters", "familly"),
        ("identity1-C-ball", "tolerances", "locl"),
        ("soap-film-sphere", "parameters", "tol"),
        ("soap-film-sphere", "tolerances", "locl"),
        ("dipole-limit-ball", "parameters", "count"),
        ("stress-function-ball", "tolerances", "local"),
        ("global-conditions-shell", "parameters", "rhos"),
        ("mollify-C-box", "parameters", "tol"),
        ("cauchy-flux-disjoint", "parameters", "family"),
        ("stress-function-ball", "suite", "count"),
        ("global-conditions-shell", "suite", "seed"),
        ("mollify-C-box", "suite", "count"),
        ("cauchy-flux-disjoint", "suite", "count"),
    ])
    def test_unknown_operation_key_rejected(self, name, section, key):
        # each operation takes only the parameters its driver reads, only
        # check-equilibrium takes tolerances, and only the three suite
        # drivers take a suite
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        cfg.setdefault(section, {})[key] = 1
        assert validate_scenario(cfg) == [f"$.{section}.{key}: unknown key"]
        with pytest.raises(ConfigError, match=re.escape(f"$.{section}.{key}")):
            run_scenario(cfg)

    @pytest.mark.parametrize("name", ["identity1-C-ball", "soap-film-sphere",
                                      "dipole-limit-ball"])
    def test_suite_operations_take_count_and_seed(self, name):
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        cfg["suite"] = {"count": 2, "seed": 3}
        assert validate_scenario(cfg) == []

    def test_operation_blocks_must_be_objects(self):
        for section in ("suite", "parameters", "tolerances"):
            cfg = dict(SOAP, **{section: [1]})
            assert validate_scenario(cfg) == [f"$.{section}: not an object"]

    @pytest.mark.parametrize("name,seed", [
        ("soap-film-sphere", True), ("soap-film-sphere", 1.0),
        ("global-conditions-shell", "abc"), ("global-conditions-shell", None),
    ])
    def test_seed_must_be_an_integer(self, tmp_path, capsys, name, seed):
        # a bool is not an integer seed, and a seed the operation does not
        # need is still read as one
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        cfg["seed"] = seed
        assert validate_scenario(cfg) == [
            f"$.seed: must be an integer, got {seed!r}"]
        code, report = run(_write(tmp_path, "bad.json", cfg),
                           out=str(tmp_path / "r.json"))
        assert code == 2 and report is None
        assert "$.seed: must be an integer" in capsys.readouterr().err

    def test_shipped_scenarios_validate(self):
        names = sorted(n for n in os.listdir(SCENARIO_DIR)
                       if n.endswith(".json") and not n.endswith(".report.json"))
        assert len(names) == 15
        for name in names:
            with open(os.path.join(SCENARIO_DIR, name)) as fh:
                assert validate_scenario(json.load(fh)) == [], name


class TestRun:
    def test_soap_film_passes(self, tmp_path):
        path = _write(tmp_path, "soap.json", SOAP)
        code, report = run(path, out=str(tmp_path / "r.json"))
        assert code == 0
        assert report["summary"]["pass"]

    def test_perturbed_jump_fails_normal_projection(self, tmp_path):
        cfg = json.loads(json.dumps(SOAP))
        cfg["fields"]["pressure_jump"] = 1.5
        path = _write(tmp_path, "bad.json", cfg)
        code, report = run(path, out=str(tmp_path / "r.json"))
        assert code == 1
        assert "12b-normal" in report["summary"]["failing"]

    def test_malformed_geometry_exits_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SOAP))
        cfg["geometry"]["domain"] = {"kind": "dodecahedron"}
        path = _write(tmp_path, "bad.json", cfg)
        code, report = run(path)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "dodecahedron" in err

    def test_schema_error_exits_2(self, tmp_path, capsys):
        cfg = dict(SOAP)
        cfg["extra"] = 1
        path = _write(tmp_path, "bad.json", cfg)
        code, _ = run(path)
        assert code == 2
        assert "$.extra" in capsys.readouterr().err

    def test_missing_catalog_key_exits_2(self, tmp_path, capsys):
        cfg = json.loads(json.dumps(SOAP))
        del cfg["geometry"]["domain"]["radius"]
        path = _write(tmp_path, "bad.json", cfg)
        code, report = run(path)
        assert code == 2 and report is None
        assert "$.geometry.domain.radius" in capsys.readouterr().err

    @pytest.mark.parametrize("block,key,value", [
        (("geometry", "domain"), "radius", "abc"),
        (("suite",), "count", 2.5),
    ])
    def test_wrongly_typed_value_exits_2(self, tmp_path, capsys, block, key,
                                         value):
        cfg = json.loads(json.dumps(SOAP))
        target = cfg
        for name in block:
            target = target[name]
        target[key] = value
        path = _write(tmp_path, "bad.json", cfg)
        code, report = run(path)
        assert code == 2 and report is None
        assert ".".join(("$",) + block + (key,)) in capsys.readouterr().err

    @pytest.mark.parametrize("name,block,key,value,path", [
        ("soap-film-sphere", (), "fields", [1, 2], "$.fields"),
        ("soap-film-sphere", ("geometry",), "interface", "sphere",
         "$.geometry.interface"),
        ("flat-tension-box", (), "fields", {"sigma": 3}, "$.fields.sigma"),
        ("stress-function-ball", (), "fields", {"potential": "poly"},
         "$.fields.potential"),
        ("cauchy-flux-disjoint", ("parameters",), "probe", "sphere",
         "$.parameters.probe"),
    ])
    def test_non_object_block_exits_2(self, tmp_path, capsys, name, block,
                                      key, value, path):
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        target = cfg
        for part in block:
            target = target[part]
        target[key] = value
        code, report = run(_write(tmp_path, "bad.json", cfg),
                           out=str(tmp_path / "r.json"))
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert f"{path}: " in err and "Traceback" not in err

    def test_config_blocks(self):
        from stressdist.catalog import ConfigBlock
        block = ConfigBlock({"a": {"kind": "zero"}, "n": 3, "s": "x"}, "$.b")
        assert block.block("a").path == "$.b.a"
        assert block.block("missing", {"k": 1}) == {"k": 1}
        for key in ("n", "s", "missing"):
            with pytest.raises(ConfigError, match=r"\$\.b\." + key):
                block.block(key)

    def test_config_numbers(self):
        from stressdist.catalog import ConfigBlock
        from stressdist.errors import ConfigError
        block = ConfigBlock({"n": 3, "x": 2, "f": 2.5, "v": [1, 2.5],
                             "m": [[1, 0]],
                             "flag": True, "ragged": [[1], [1, 2]],
                             "words": ["1.0"]}, "$.b")
        assert block.number("x") == 2.0
        assert isinstance(block.number("x"), float)
        assert block.number("n", integer=True) == 3
        assert block.number("missing", 0.5) == 0.5
        assert np.array_equal(block.number("v", shape=(None,)), [1.0, 2.5])
        assert block.number("m", shape=(None, None)).shape == (1, 2)
        for key, kw in (("flag", {}), ("x", {"shape": (None,)}), ("v", {}),
                        ("ragged", {"shape": (None, None)}),
                        ("words", {"shape": (None,)}),
                        ("f", {"integer": True}),
                        ("missing", {})):
            with pytest.raises(ConfigError, match=r"\$\.b\." + key):
                block.number(key, **kw)

    @pytest.mark.parametrize("name,key,value", [
        ("identity1-C-ball", "family", "Q"),
        ("mollify-C-box", "family", "c"),
        ("cauchy-flux-disjoint", "expect", "converges"),
        ("identity1-C-ball", "identity", 3),
        ("identity1-C-ball", "identity", 0),
    ])
    def test_unknown_choice_exits_2(self, tmp_path, capsys, name, key, value):
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        cfg["parameters"][key] = value
        path = _write(tmp_path, "bad.json", cfg)
        code, report = run(path, out=str(tmp_path / "r.json"))
        assert code == 2 and report is None
        assert f"$.parameters.{key}" in capsys.readouterr().err

    @pytest.mark.parametrize("name,key,value", [
        ("mollify-C-box", "rhos", []),
        ("mollify-C-box", "rhos", [0.05]),
        ("mollify-C-box", "rhos", [0.05, 0.05]),
        ("dipole-limit-ball", "h_values", []),
        ("dipole-limit-ball", "h_values", [0.1, -0.05]),
        ("cauchy-flux-disjoint", "rhos", []),
    ])
    def test_short_ladder_exits_2(self, tmp_path, capsys, name, key, value):
        # a convergence fit needs two distinct positive widths or steps
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        cfg["parameters"][key] = value
        path = _write(tmp_path, "bad.json", cfg)
        code, report = run(path, out=str(tmp_path / "r.json"))
        assert code == 2 and report is None
        assert f"$.parameters.{key}" in capsys.readouterr().err

    def test_negative_refine_exits_2(self, tmp_path, capsys):
        # a fine level below the default has no coarser rule to estimate by
        path = _write(tmp_path, "soap.json", SOAP)
        out = tmp_path / "r.json"
        assert main(["run", path, "--refine", "-1", "--out", str(out)]) == 2
        assert "refinement must be non-negative" in capsys.readouterr().err
        assert not out.exists()
        with pytest.raises(ConfigError):
            run_scenario(SOAP, refine=-1)

    @pytest.mark.parametrize("name,count", [
        ("identity1-C-ball", 0), ("identity1-C-ball", -2),
        ("soap-film-sphere", -1), ("dipole-limit-ball", 0),
    ])
    def test_suite_count_below_one_exits_2(self, tmp_path, capsys, name,
                                           count):
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        cfg["suite"]["count"] = count
        code, report = run(_write(tmp_path, "bad.json", cfg),
                           out=str(tmp_path / "r.json"))
        assert code == 2 and report is None
        assert "$.suite.count: must be a positive integer" in (
            capsys.readouterr().err)

    def test_equilibrium_without_interface_exits_2(self, tmp_path, capsys):
        cfg = dict(SOAP, fields={"preset": "kelvin"},
                   geometry={"domain": {"kind": "spherical-shell",
                                        "inner_radius": 1.0,
                                        "outer_radius": 2.0}})
        assert validate_scenario(cfg) == [
            "$.geometry.interface: missing; operation check-equilibrium "
            "needs an interface"]
        code, report = run(_write(tmp_path, "kelvin.json", cfg),
                           out=str(tmp_path / "r.json"))
        assert code == 2 and report is None
        assert "$.geometry.interface" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [
        "mollify-C-box", "identity1-B-ball", "identity1-C-ball",
        "identity1-F-ball", "identity2-C-annulus", "cauchy-flux-disjoint",
        "stress-function-ball", "global-conditions-shell",
    ])
    def test_missing_interface_exits_2(self, tmp_path, capsys, name):
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        del cfg["geometry"]["interface"]
        code, report = run(_write(tmp_path, "bare.json", cfg),
                           out=str(tmp_path / "r.json"))
        assert code == 2 and report is None
        assert "$.geometry.interface: missing" in capsys.readouterr().err

    @pytest.mark.parametrize("operation, fields", [
        ("stress-function", {"preset": "kelvin"}),
        ("global-conditions", {"potential": {"kind": "smooth-polynomial",
                                             "seed": 1}}),
        ("cauchy-flux", {"sigma": {"kind": "hessian-harmonic",
                                   "amplitude": 0.5}}),
    ])
    def test_interface_free_fields_need_no_interface(self, operation, fields):
        # smooth fields: the kelvin necessity witness, a one-sided
        # potential's global conditions, a bulk flux
        cfg = {"schema_version": 1, "operation": operation, "seed": 1,
               "geometry": {"domain": {"kind": "spherical-shell",
                                       "inner_radius": 1.0,
                                       "outer_radius": 2.0}},
               "fields": fields}
        assert validate_scenario(cfg) == []
        assert run_scenario(cfg)["checks"]

    def test_internal_error_exits_3(self, tmp_path, capsys, monkeypatch):
        from stressdist import catalog

        def broken(cfg):
            raise TypeError("injected fault")

        monkeypatch.setattr(catalog, "build_domain", broken)
        path = _write(tmp_path, "soap.json", SOAP)
        code, report = run(path, out=str(tmp_path / "r.json"))
        assert code == 3 and report is None
        err = capsys.readouterr().err
        assert "internal error" in err
        assert "Traceback" in err and "injected fault" in err
        assert not (tmp_path / "r.json").exists()

    def test_unreadable_file_exits_2(self, tmp_path):
        code, _ = run(str(tmp_path / "missing.json"))
        assert code == 2

    def test_unwritable_report_exits_2(self, tmp_path, capsys):
        path = _write(tmp_path, "soap.json", SOAP)
        out = str(tmp_path / "missing" / "r.json")
        assert main(["run", path, "--out", out]) == 2
        err = capsys.readouterr().err
        assert out in err and "Traceback" not in err

    def test_determinism_modulo_timing(self, tmp_path):
        path = _write(tmp_path, "soap.json", SOAP)
        o1, o2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert run(path, out=o1)[0] == 0
        assert run(path, out=o2)[0] == 0
        t1 = _strip_timing(open(o1).read())
        t2 = _strip_timing(open(o2).read())
        assert t1 == t2

    def test_a_scenario_run_leaves_numpy_ma_unimported(self):
        # the first np.unique of a process imports numpy.ma (about 13 ms);
        # no pass should pay it
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.abspath(SRC_DIR)]
            + [p for p in [env.get("PYTHONPATH")] if p])
        code = ("import json, sys\n"
                "from stressdist.cli import run_scenario\n"
                "run_scenario(json.load(open(sys.argv[1])))\n"
                "print('numpy.ma' in sys.modules)\n")
        path = os.path.join(SCENARIO_DIR, "soap-film-sphere.json")
        out = subprocess.run([sys.executable, "-c", code, path], env=env,
                             capture_output=True, text=True, timeout=600,
                             check=True)
        assert out.stdout.split() == ["False"]

    def test_reports_do_not_depend_on_blas_threads(self):
        names = ["soap-film-sphere", "identity1-B-ball"]
        one = _reports_under_blas_threads(1, names)
        two = _reports_under_blas_threads(2, names)
        for name, a, b in zip(names, one, two):
            assert a == b, name

    def test_reports_do_not_depend_on_pool_width(self):
        # the width sets how many blocks a pool task holds; identity1-B-ball's
        # volume rules span 14 to 41 blocks, the others add weak residuals
        # of constant pressure sides (soap film, dilatational dipole, flat
        # tension), mollified sums, lemma-2 column tests and the two-column
        # bulk walks of identities 1 and 2 on the shell
        names = ["identity1-B-ball", "soap-film-sphere",
                 "dilatational-dipole-sphere", "flat-tension-box",
                 "mollify-C-box", "stress-function-shell",
                 "identity1-B-shell-annulus", "identity2-B-shell"]
        one = _reports_under_blas_threads(1, names, pool_width=1)
        for width in (2, 3):
            other = _reports_under_blas_threads(1, names, pool_width=width)
            for name, a, b in zip(names, one, other):
                assert a == b, (name, width)

    @pytest.mark.parametrize("name", ["soap-film-sphere",
                                      "dilatational-dipole-sphere",
                                      "flat-tension-box"])
    def test_constant_pressure_scenarios_pair_by_the_hook(self, name,
                                                          monkeypatch):
        # their bulk stress is a constant on each side: the weak residuals
        # pair it through the tests' contract_gradient hook, and a zero
        # side (all of flat tension) evaluates no test at all
        from stressdist.distributions import BDist
        from stressdist.fields import _ComponentBump
        calls = {}
        for owner, attr in ((BDist, "_pair_constant_sides"),
                            (_ComponentBump, "contract_gradient")):
            real = getattr(owner, attr)

            def counting(*args, _real=real, _attr=attr, **kwargs):
                calls[_attr] = calls.get(_attr, 0) + 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(owner, attr, counting)
        with open(os.path.join(SCENARIO_DIR, name + ".json"),
                  encoding="utf-8") as fh:
            report = run_scenario(json.load(fh), refine=0)
        assert report["summary"]["pass"]
        assert calls.get("_pair_constant_sides", 0) > 0
        assert (calls.get("contract_gradient", 0) > 0) == (
            name != "flat-tension-box")

    def test_seed_override_changes_suite(self, tmp_path):
        path = _write(tmp_path, "soap.json", SOAP)
        _, r1 = run(path, out=str(tmp_path / "a.json"), seed=7)
        _, r2 = run(path, out=str(tmp_path / "b.json"), seed=8)
        assert r1["scenario"]["seed"] != r2["scenario"]["seed"]

    def test_csv_format(self, tmp_path):
        path = _write(tmp_path, "soap.json", SOAP)
        out = str(tmp_path / "r.csv")
        code, _ = run(path, out=out, fmt="csv")
        assert code == 0
        text = open(out).read()
        assert "id,residual,tolerance,pass" in text
        # RFC-4180-style: comma separated, '.' decimals
        assert re.search(r",\d+\.\d+e?-?\d*,", text) or "," in text

    def test_csv_default_path(self, tmp_path):
        # without --out a CSV goes beside the scenario, never into the
        # JSON report's name
        path = _write(tmp_path, "soap.json", SOAP)
        code, _ = run(path, fmt="csv")
        assert code == 0
        assert not (tmp_path / "soap.report.json").exists()
        text = (tmp_path / "soap.report.csv").read_text()
        assert "id,residual,tolerance,pass" in text

    def test_report_embeds_tolerances(self, tmp_path):
        path = _write(tmp_path, "soap.json", SOAP)
        _, report = run(path, out=str(tmp_path / "r.json"))
        assert all("tolerance" in c for c in report["checks"])
        assert report["schema_version"] == 1


LOCAL_IDS = ["12a", "12b", "12c", "12d"]
PROJECTED_IDS = ["12a", "12b", "12b-normal", "12b-tangential", "12c",
                 "12c-normal", "12c-tangential", "12d"]


class TestReportFormat:
    """The ordered check ids and entry keys the benchmark reference gates."""

    @pytest.mark.parametrize("name,ids", [
        ("soap-film-sphere",
         PROJECTED_IDS + [f"weak-{j}" for j in range(6)]),
        ("stress-function-ball",
         LOCAL_IDS + [f"{kind}:interior-e{d}" for d in range(3)
                      for kind in ("force", "moment")]),
        ("global-conditions-shell", ["force-component1", "moment-component1"]),
    ])
    def test_check_ids_and_keys(self, name, ids):
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            report = run_scenario(json.load(fh), seed_override=0)
        assert [c["id"] for c in report["checks"]] == ids
        for c in report["checks"]:
            keys = {"id", "residual", "tolerance", "pass"}
            if c["id"].startswith(("force:", "moment:")):
                keys.add("estimate")
            assert set(c) == keys, c
            assert isinstance(c["pass"], bool)


class TestBatch:
    def test_empty_directory_exits_2(self, tmp_path):
        code, _ = batch(str(tmp_path))
        assert code == 2

    def test_mixed_pass_fail_counts(self, tmp_path):
        _write(tmp_path, "good.json", SOAP)
        bad = json.loads(json.dumps(SOAP))
        bad["fields"]["pressure_jump"] = 2.0
        _write(tmp_path, "bad.json", bad)
        broken = dict(SOAP)
        broken["operation"] = "nope"
        _write(tmp_path, "broken.json", broken)
        code, results = batch(str(tmp_path))
        assert code == 2
        by_name = {n: c for n, c, _ in results}
        assert by_name["good.json"] == 0
        assert by_name["bad.json"] == 1
        assert by_name["broken.json"] == 2
        summary = open(tmp_path / "summary.csv").read().splitlines()
        assert summary[0] == "scenario,exit_code,pass,n_pass,n_fail"
        assert len(summary) == 4

    def test_main_entrypoint(self, tmp_path):
        path = _write(tmp_path, "soap.json", SOAP)
        assert main(["run", path, "--out", str(tmp_path / "r.json")]) == 0

    def test_unwritable_summary_exits_2(self, tmp_path, capsys):
        _write(tmp_path, "soap.json", SOAP)
        out = str(tmp_path / "missing" / "s.csv")
        assert main(["batch", str(tmp_path), "--out", out]) == 2
        err = capsys.readouterr().err
        assert out in err and "Traceback" not in err
        assert (tmp_path / "soap.report.json").exists()

    @pytest.mark.parametrize("threads,jobs", [("abc", None), ("-2", None),
                                              ("0", "-1")])
    def test_bad_thread_count_exits_2(self, tmp_path, capsys, monkeypatch,
                                      threads, jobs):
        monkeypatch.setenv("STRESSDIST_THREADS", threads)
        _write(tmp_path, "soap.json", SOAP)
        argv = ["batch", str(tmp_path)] + (["--jobs", jobs] if jobs else [])
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert ("--jobs" if jobs else "STRESSDIST_THREADS") in err
        assert not (tmp_path / "summary.csv").exists()

    def test_batch_and_block_helpers_share_the_bound(self, tmp_path,
                                                     monkeypatch):
        # sampled inside the integrands: threads evaluating a polynomial at
        # once, batch workers and block helpers together
        from stressdist import fields
        monkeypatch.setenv("STRESSDIST_THREADS", "2")
        lock = threading.Lock()
        active, peak = set(), [0]
        evaluate = fields.Poly3.monomials

        def sampled(self, pts):
            me = threading.get_ident()
            with lock:
                active.add(me)
                peak[0] = max(peak[0], len(active))
            try:
                return evaluate(self, pts)
            finally:
                with lock:
                    active.discard(me)

        monkeypatch.setattr(fields.Poly3, "monomials", sampled)
        for name in ("identity1-B-ball", "soap-film-sphere",
                     "mollify-C-box"):
            with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
                _write(tmp_path, name + ".json", json.load(fh))
        assert main(["batch", str(tmp_path), "--jobs", "2",
                     "--refine", "1"]) in (0, 1)
        assert 1 <= peak[0] <= 2

    def test_negative_refine_exits_2(self, tmp_path, capsys):
        _write(tmp_path, "soap.json", SOAP)
        assert main(["batch", str(tmp_path), "--refine", "-2"]) == 2
        assert "refinement must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "soap.report.json").exists()

    def test_zero_thread_count_keeps_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("STRESSDIST_THREADS", "0")
        _write(tmp_path, "soap.json", SOAP)
        assert main(["batch", str(tmp_path), "--jobs", "0"]) == 0

    def test_refinement_is_per_scenario_across_threads(self, monkeypatch):
        # B runs at refine=0 and finishes while A, at refine=1, is still
        # inside its operation: A must still see its own level afterwards.
        from stressdist import cli, distributions
        from stressdist.geometry import DEFAULT_VOLUME_LEVEL
        barrier = threading.Barrier(2, timeout=30)
        seen = {}

        # Barrier phases: 1) B is inside its operation and A starts; 2) both
        # are inside their operations; 3) B has returned from run_scenario.
        def operation(cfg, domain, interface, rng):
            barrier.wait()                  # B: phase 1, A: phase 2
            barrier.wait()                  # B: phase 2, A: phase 3
            seen[threading.current_thread().name] = distributions._lv(
                None, adapted=False)
            return [], {}

        monkeypatch.setitem(cli._DRIVERS, SOAP["operation"], operation)
        errors = []

        def run_b():
            try:
                run_scenario(SOAP, refine=0)
                barrier.wait()
            except Exception as exc:        # surfaced by the assert below
                errors.append(exc)

        def run_a():
            try:
                barrier.wait()
                run_scenario(SOAP, refine=1)
            except Exception as exc:
                errors.append(exc)

        threads = [threading.Thread(target=run_b, name="B"),
                   threading.Thread(target=run_a, name="A")]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert seen == {"A": DEFAULT_VOLUME_LEVEL + 1, "B": DEFAULT_VOLUME_LEVEL}


# one shipped scenario per operation
OPERATION_SCENARIOS = ["identity1-C-ball", "soap-film-sphere",
                       "dipole-limit-ball", "stress-function-ball",
                       "global-conditions-shell", "mollify-C-box",
                       "cauchy-flux-disjoint"]


class TestRefine:
    @pytest.mark.parametrize("name", OPERATION_SCENARIOS)
    def test_refine_raises_every_rule_level(self, monkeypatch, name):
        import inspect
        from stressdist import distributions, geometry
        levels = []

        def record(owner, attr):
            build = getattr(owner, attr)
            sig = inspect.signature(build)

            def recorded(*args, **kwargs):
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                levels.append((attr, bound.arguments["level"]))
                return build(*args, **kwargs)
            monkeypatch.setattr(owner, attr, recorded)

        record(geometry.Interface, "surface_quadrature")
        record(geometry.Domain, "volume_quadrature")
        record(geometry.BoundarySurface, "quadrature")
        record(distributions, "support_volume_quad")
        with open(os.path.join(SCENARIO_DIR, name + ".json")) as fh:
            cfg = json.load(fh)
        if "suite" in cfg:
            cfg["suite"]["count"] = 1
        by_refine = []
        for refine in (0, 1):
            levels.clear()
            run_scenario(cfg, refine=refine)
            by_refine.append(sorted(levels))
        assert by_refine[0]
        assert by_refine[1] == [(a, lv + 1) for a, lv in by_refine[0]]


class TestIdentityScenario:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_identity_on_raised_plane(self, seed):
        # crossing supports sit at the plane's height, inside the ball
        with open(os.path.join(SCENARIO_DIR, "identity1-C-ball.json")) as fh:
            cfg = json.load(fh)
        cfg["geometry"]["interface"] = {"kind": "plane-disk", "z": 0.5}
        assert run_scenario(cfg, seed_override=seed)["summary"]["pass"]

    def test_verify_identity_runs(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "operation": "verify-identity",
            "seed": 3,
            "geometry": {"domain": {"kind": "ball", "radius": 1.0},
                         "interface": {"kind": "sphere", "radius": 0.5}},
            "parameters": {"family": "C", "identity": 1},
            "suite": {"count": 2, "seed": 4},
        }
        rep = run_scenario(cfg)
        assert rep["summary"]["pass"]
        table = rep["tables"]["pairings"]
        assert table["columns"] == ["scenario", "lhs", "rhs", "abs_diff"]
        assert len(table["rows"]) == 2


class TestCatalogFields:
    def test_radial_pressure_is_equilibrated_with_matched_force(self):
        # p(r) = 1 + 0.5 r^2: div(p I) = grad p, balanced by b = -grad p
        from stressdist.catalog import build_bulk_tensor
        from stressdist.equilibrium import EquilibriumScenario, bulk_residual
        from stressdist.fields import CallableField, PiecewiseField
        from stressdist.geometry import Ball
        import numpy as np
        ball = Ball(1.0)
        sig = build_bulk_tensor({"kind": "radial-pressure",
                                 "coeffs_plus": [1.0, 0.5]}, ball, None)
        pts = np.random.default_rng(0).uniform(-0.5, 0.5, (50, 3))
        vals = sig.value(pts)
        r2 = np.sum(pts ** 2, axis=1)
        assert np.allclose(vals[:, 0, 0], 1.0 + 0.5 * r2, atol=1e-13)
        b = PiecewiseField.smooth(
            CallableField(lambda p: -p, 1), 1)
        scn = EquilibriumScenario(domain=ball, interface=None, sigma=sig, b=b)
        bk, _ = bulk_residual(scn, n=200)
        assert bk < 1e-10

    def test_bulk_vector_kinds(self, ball, sphere_half):
        from stressdist import _tensor as T
        from stressdist.catalog import build_bulk_vector
        from stressdist.errors import ConfigError
        assert build_bulk_vector({"kind": "zero"}, ball, sphere_half) is None
        pts = ball.interior_samples(40, sphere_half, 0.05)
        const = build_bulk_vector({"kind": "constant-vector",
                                   "value": [1.0, -2.0, 0.5]}, ball, None)
        assert np.array_equal(const.value(pts),
                              np.tile([1.0, -2.0, 0.5], (40, 1)))
        pw = build_bulk_vector({"kind": "piecewise-polynomial", "seed": 3,
                                "degree": 2}, ball, sphere_half)
        jump = pw.jump(sphere_half.samples(32))
        assert pw.rank == 1 and jump.shape == (32, 3)
        assert np.max(np.abs(jump)) > 1e-3
        grad = build_bulk_vector({"kind": "gradient", "seed": 4}, ball, None)
        assert np.max(np.abs(T.curl_from_gradient(grad.gradient(pts)))) < 1e-12
        with pytest.raises(ConfigError):
            build_bulk_vector({"kind": "vortex"}, ball, None)

    def test_bulk_tensor_kinds(self, ball, sphere_half):
        from stressdist.catalog import build_bulk_tensor
        pts = ball.interior_samples(40, sphere_half, 0.05)
        on = sphere_half.samples(32)
        assert build_bulk_tensor({"kind": "zero"}, ball, sphere_half) is None
        pressure = build_bulk_tensor({"kind": "uniform-pressure",
                                      "p_plus": 1.4, "p_minus": -0.3},
                                     ball, sphere_half)
        assert np.allclose(pressure.jump(on), 1.7 * np.eye(3), atol=1e-15)
        value = [[1.0, 0.2, 0.0], [0.2, -0.5, 0.3], [0.0, 0.3, 2.0]]
        const = build_bulk_tensor({"kind": "constant", "value": value},
                                  ball, None)
        assert np.array_equal(const.value(pts), np.tile(value, (40, 1, 1)))
        kelvin = build_bulk_tensor({"kind": "kelvin",
                                    "force": [0.3, 0.0, 1.0]}, ball, None)
        assert np.max(np.abs(kelvin.divergence(pts))) < 1e-10 * np.max(
            np.abs(kelvin.gradient(pts)))
        pw = build_bulk_tensor({"kind": "piecewise-polynomial", "seed": 2,
                                "degree": 2}, ball, sphere_half)
        v = pw.value(pts)
        assert np.array_equal(v, np.swapaxes(v, 1, 2))
        assert np.max(np.abs(pw.jump(on))) > 1e-3
        # p_plus(r) - p_minus(r) on the sphere r = 0.5
        radial = build_bulk_tensor({"kind": "radial-pressure",
                                    "coeffs_plus": [1.0, 0.5],
                                    "coeffs_minus": [0.2, 0.0, 4.0]},
                                   ball, sphere_half)
        want = (1.0 + 0.5 * 0.25) - (0.2 + 4.0 * 0.0625)
        assert np.allclose(radial.jump(on), want * np.eye(3), atol=1e-14)

    def test_catalog_cylinder_geometry(self):
        from stressdist.catalog import build_domain, build_interface
        from stressdist.geometry import (CylinderAnnulus,
                                         cylinder_patch_interface,
                                         interface_key)
        domain = build_domain({"kind": "cylinder-annulus",
                               "inner_radius": 0.5, "outer_radius": 1.5,
                               "height": 2.0})
        direct = CylinderAnnulus(0.5, 1.5, 2.0)
        itf = build_interface({"kind": "cylinder-patch", "radius": 1.2},
                              domain)
        want = cylinder_patch_interface(direct, 1.2)
        assert interface_key(itf) == interface_key(want)
        grids = [r.nodes(0, len(r)) for r in (
            domain.volume_quadrature(itf, 0), direct.volume_quadrature(want, 0))]
        for a, b in (grids,
                     (itf.surface_quadrature(1), want.surface_quadrature(1))):
            assert np.array_equal(a.points, b.points)
            assert np.array_equal(a.weights, b.weights)

    def test_explicit_blocks_reproduce_the_soap_film_preset(self):
        # the preset is these two blocks plus the normal and tangential
        # splits of 12b and 12c
        with open(os.path.join(SCENARIO_DIR, "soap-film-sphere.json")) as fh:
            cfg = json.load(fh)
        preset = run_scenario(cfg)["checks"]
        cfg["fields"] = {
            "sigma": {"kind": "uniform-pressure", "p_plus": 1.4,
                      "p_minus": 0.0},
            "sigma1": {"kind": "uniform-tension", "gamma": 0.7}}
        explicit = run_scenario(cfg)["checks"]
        want = [c for c in preset
                if not c["id"].endswith(("-normal", "-tangential"))]
        assert [c["id"] for c in want] == [
            "12a", "12b", "12c", "12d"] + [f"weak-{j}" for j in range(6)]
        assert [(c["id"], c["residual"]) for c in explicit] == [
            (c["id"], c["residual"]) for c in want]

    def test_airy_potential_scenario(self, tmp_path):
        cfg = {
            "schema_version": 1,
            "operation": "stress-function",
            "seed": 1,
            "geometry": {"domain": {"kind": "ball", "radius": 1.0},
                         "interface": {"kind": "sphere", "radius": 0.5}},
            "fields": {"potential": {"kind": "airy",
                                      "terms": [[2, 2, 0.3], [3, 0, 0.1]]}},
            "parameters": {"tol": 1e-6},
        }
        rep = run_scenario(cfg)
        assert rep["summary"]["pass"]


def _shipped(name):
    with open(os.path.join(SCENARIO_DIR, name + ".json"),
              encoding="utf-8") as fh:
        return json.load(fh)


class TestNegativeSeeds:
    """A negative seed is a configuration error (exit 2) that names where
    it was given, never an internal error from the random generator."""

    @pytest.mark.parametrize("name,where", [
        ("soap-film-sphere", "$.seed"),
        ("soap-film-sphere", "$.suite.seed"),
        ("stress-function-ball", "$.fields.potential.seed"),
    ])
    def test_scenario_seed(self, tmp_path, capsys, name, where):
        cfg = _shipped(name)
        block = cfg
        for key in where.split(".")[1:-1]:
            block = block.setdefault(key, {})
        block["seed"] = -3 if "potential" in where else -1
        path = _write(tmp_path, "s.json", cfg)
        assert main(["run", path, "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert f"{where}: must be" in err and "non-negative" in err
        assert "internal error" not in err
        assert not (tmp_path / "r.json").exists()

    def test_seed_option(self, tmp_path, capsys):
        path = _write(tmp_path, "s.json", _shipped("soap-film-sphere"))
        assert main(["run", path, "--seed", "-1",
                     "--out", str(tmp_path / "r.json")]) == 2
        err = capsys.readouterr().err
        assert "--seed: must be non-negative" in err
        assert "internal error" not in err


def _run_with(tmp_path, name, where, value):
    """(exit code, report) of the shipped scenario ``name`` with the value
    at the keys ``where`` replaced."""
    cfg = _shipped(name)
    block = cfg
    for key in where[:-1]:
        block = block.setdefault(key, {})
    block[where[-1]] = value
    return run(_write(tmp_path, "s.json", cfg), out=str(tmp_path / "r.json"))


class TestInterfaceInsideDomain:
    """Sphere and cylinder-patch interfaces need a positive radius that
    leaves room to the domain boundary: anything else is a geometry error
    (exit 2) naming the radius."""

    @pytest.mark.parametrize("name,radius", [
        ("identity2-B-shell", 0.5),        # inside the cavity
        ("identity2-B-shell", 2.5),        # outside the shell
        ("identity2-B-shell", 2.0),        # on the outer boundary
        ("stress-function-shell", 0.9),
        ("soap-film-sphere", 0.0),
        ("soap-film-sphere", -1.0),
        ("soap-film-sphere", 2.0),
    ])
    def test_sphere(self, tmp_path, capsys, name, radius):
        code, report = _run_with(tmp_path, name,
                                 ("geometry", "interface", "radius"), radius)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "$.geometry.interface.radius: " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("radius", [0.0, -1.0, 0.2, 0.5, 1.5, 2.0])
    def test_cylinder_patch(self, radius):
        from stressdist.catalog import ConfigBlock, build_interface
        from stressdist.errors import GeometryError
        from stressdist.geometry import CylinderAnnulus
        domain = CylinderAnnulus(0.5, 1.5, 2.0)

        def block(r):
            return ConfigBlock({"kind": "cylinder-patch", "radius": r},
                               "$.geometry.interface")

        with pytest.raises(GeometryError,
                           match=r"\$\.geometry\.interface\.radius: "):
            build_interface(block(radius), domain)
        assert build_interface(block(1.0), domain).value == 1.0

    @pytest.mark.parametrize("radius,room", [(1.5, True), (2.0, False),
                                             (2.5, False)])
    def test_sphere_in_a_box(self, radius, room):
        # a box's room for a sphere is to its nearest face
        from stressdist.catalog import ConfigBlock, build_interface
        from stressdist.errors import GeometryError
        from stressdist.geometry import Box
        block = ConfigBlock({"kind": "sphere", "radius": radius},
                            "$.parameters.probe")
        box = Box([2.0, 3.0, 3.0])
        if room:
            assert box.clearance(build_interface(block, box)) == 0.5
        else:
            with pytest.raises(GeometryError,
                               match=r"\$\.parameters\.probe\.radius: "):
                build_interface(block, box)

    def test_every_shipped_scenario_builds(self):
        from stressdist import cli
        from stressdist.catalog import ConfigBlock
        for path in sorted(os.listdir(SCENARIO_DIR)):
            if path.endswith(".json") and not path.endswith(".report.json"):
                cli._build_geometry(ConfigBlock(_shipped(path[:-5])))


class TestArrayShapes:
    """Fixed-shape arrays are checked for their shape, not only their
    dimensions: a wrong one is a configuration error (exit 2) naming the
    path and the shape."""

    @pytest.mark.parametrize("name,where,value,path,shape", [
        ("dipole-limit-ball", ("parameters", "sigma0"), [[1, 0], [0, 1]],
         "$.parameters.sigma0", "(3, 3)"),
        ("cauchy-flux-disjoint", ("fields", "sigma"),
         {"kind": "kelvin", "force": [0, 1]}, "$.fields.sigma.force", "(3,)"),
        ("cauchy-flux-disjoint", ("fields", "sigma"),
         {"kind": "constant", "value": [[1, 0], [0, 1]]},
         "$.fields.sigma.value", "(3, 3)"),
        ("cauchy-flux-disjoint", ("fields", "sigma1"),
         {"kind": "normal-dyad", "a": [1, 0]}, "$.fields.sigma1.a", "(3,)"),
        ("cauchy-flux-disjoint", ("fields", "sigma1"),
         {"kind": "constant", "value": [[1, 0, 0]]}, "$.fields.sigma1.value",
         "(3, 3)"),
        ("soap-film-sphere", ("fields",),
         {"b": {"kind": "constant-vector", "value": [1, 2]}},
         "$.fields.b.value", "(3,)"),
        ("soap-film-sphere", ("fields",),
         {"b1": {"kind": "constant-vector", "value": [1, 2]}},
         "$.fields.b1.value", "(3,)"),
        ("soap-film-sphere", ("fields",), {"preset": "kelvin", "force": [0, 1]},
         "$.fields.force", "(3,)"),
        ("flat-tension-box", ("geometry", "domain", "half_widths"), [1, 1],
         "$.geometry.domain.half_widths", "(3,)"),
        ("stress-function-ball", ("fields", "potential"),
         {"kind": "airy", "terms": [[1, 2]]}, "$.fields.potential.terms",
         "(n, 3)"),
    ])
    def test_wrong_shape_exits_2(self, tmp_path, capsys, name, where, value,
                                 path, shape):
        code, report = _run_with(tmp_path, name, where, value)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert f"{path}: must be an array of shape {shape}" in err
        assert "Traceback" not in err

    def test_config_shapes(self):
        from stressdist.catalog import ConfigBlock
        block = ConfigBlock({"v": [1, 2, 3], "m": [[1, 2, 3], [4, 5, 6]],
                             "e": []}, "$.b")
        assert block.number("v", shape=(3,)).shape == (3,)
        assert block.number("m", shape=(None, 3)).shape == (2, 3)
        for key, shape in (("v", (2,)), ("m", (3, 3)), ("m", (None, 2)),
                           ("e", (None, 3)), ("v", (3, 3))):
            with pytest.raises(ConfigError, match=r"\$\.b\." + key):
                block.number(key, shape=shape)


class TestNegativeTolerances:
    """A negative tolerance is a configuration error (exit 2) naming it."""

    @pytest.mark.parametrize("name,where", [
        ("stress-function-shell", ("parameters", "tol")),
        ("global-conditions-shell", ("parameters", "tol")),
        ("identity1-B-ball", ("parameters", "abs_tol")),
        ("identity1-B-ball", ("parameters", "rel_tol")),
        ("soap-film-sphere", ("tolerances", "local")),
        ("soap-film-sphere", ("tolerances", "weak_factor")),
    ])
    def test_negative_exits_2(self, tmp_path, capsys, name, where):
        code, report = _run_with(tmp_path, name, where, -1)
        assert code == 2 and report is None
        err = capsys.readouterr().err
        assert "$." + ".".join(where) + ": must be non-negative" in err

    def test_zero_is_allowed(self):
        from stressdist.catalog import ConfigBlock
        assert ConfigBlock({"tol": 0}).non_negative("tol") == 0.0
