"""Self-tests of the benchmark and its tracer.

    python3 -m pytest -q perfbench/test_perfbench.py

Run from the repository root.  The traced-versus-untraced comparison starts
worker processes exactly as the benchmark does, on a few fast items.
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

FAST_ITEMS = ["cauchy-flux-disjoint", "dipole-limit-ball",
              "global-conditions-shell", "identity1-C-ball",
              "identity2-C-annulus", "stress-function-ball"]
COUNT_STATS = (".calls", ".points", ".nodes", ".repeat_ratio")


def _stressdist_modules():
    import stressdist  # noqa: F401
    return [m for n, m in sys.modules.items()
            if m is not None and (n == "stressdist"
                                  or n.startswith("stressdist."))]


def test_install_rebinds_every_alias_and_uninstall_restores():
    from stressdist import distributions, fields, geometry
    orig_div = fields.surface_divergence
    orig_value = fields.Poly3.__dict__["value"]
    assert distributions.surface_divergence is orig_div
    assert tracing.installed_wrappers() == 0

    tr = tracing.Tracer()
    try:
        assert tr.install() > 0
        originals = [orig for _, _, orig in tr._installed]
        for m in _stressdist_modules():
            for val in vars(m).values():
                assert not any(val is o for o in originals), (m.__name__, val)
        # the alias copied by `from .fields import surface_divergence`
        assert distributions.surface_divergence is fields.surface_divergence
        assert getattr(fields.surface_divergence, tracing.MARK)
        assert fields.surface_divergence.__wrapped__ is orig_div
        # methods are wrapped where they are defined, inherited elsewhere
        assert getattr(fields.Poly3.__dict__["value"], tracing.MARK)
        assert getattr(geometry.Interface.__dict__["surface_quadrature"],
                       tracing.MARK)
        assert "value" not in fields.BumpSymTensor.__dict__
        assert getattr(fields.BumpSymTensor.value, tracing.MARK)
        assert tracing.installed_wrappers() > 0
    finally:
        tr.uninstall()
    assert tracing.installed_wrappers() == 0
    assert fields.surface_divergence is orig_div
    assert distributions.surface_divergence is orig_div
    assert fields.Poly3.__dict__["value"] is orig_value


def test_self_time_excludes_nested_spans():
    from stressdist import cli
    tr = tracing.Tracer()
    tr.install()
    try:
        with open(os.path.join(ROOT, "scenarios", "identity1-C-ball.json"),
                  encoding="utf-8") as fh:
            cli.run_scenario(json.load(fh))
    finally:
        tr.uninstall()
    total = tr.stats["cli.run_scenario"].total_s
    self_sum = sum(st.self_s for st in tr.stats.values())
    assert tr.stats["cli.run_scenario"].calls == 1
    # probe and bookkeeping time is the tracer's, not any layer's
    assert tr.probe_s > 0
    assert self_sum + tr.probe_s == pytest.approx(total, rel=1e-9)
    assert tr.stats["fields.poly"].calls > 0
    assert tr.stats["fields.density"].calls > 0


@pytest.fixture(scope="module")
def worker_runs():
    deadline = time.monotonic() + 300
    plain = run.start_worker("golden", 0, deadline, only=FAST_ITEMS)
    traced = [run.start_worker("golden", 0, deadline, trace=True,
                               only=FAST_ITEMS) for _ in range(2)]
    return plain, traced


def test_traced_reports_equal_untraced(worker_runs):
    plain, traced = worker_runs
    assert [r["name"] for r in plain["items"]] == FAST_ITEMS
    assert plain["wrappers"] == 0
    for t in traced:
        assert t["wrappers"] > 0
        for a, b in zip(plain["items"], t["items"]):
            assert a["error"] is None and b["error"] is None
            assert a["checks"] == b["checks"]
            assert a["digest"] == b["digest"]


def test_trace_counts_repeat_exactly(worker_runs):
    _, (first, second) = worker_runs
    counts = [{k: v for k, v in t["layers"].items()
               if k.endswith(COUNT_STATS)} for t in (first, second)]
    assert counts[0] == counts[1]
    assert counts[0]["fields.poly.calls"] > 0
    assert counts[0]["stressfn.lemma2.calls"] == 1


def _fake_pass(items, wrappers=0):
    return {"wrappers": wrappers, "wall_s": 1.0, "peak_rss_mb": 1.0,
            "items": items}


def test_scoring_counts_changed_ids_and_errors_as_failed():
    reference = {"a": {"ids": ["x", "y"], "pass": [True, False]},
                 "b": {"ids": ["z"], "pass": [True]},
                 "c": {"ids": ["w"], "pass": [True]},
                 "d": {"ids": ["v"], "pass": [True]}}
    items = [
        {"name": "a", "error": None, "elapsed_s": 1.0,
         "checks": [["x", True, 0.5, 1.0], ["y", False, 2.0, 1.0]]},
        {"name": "b", "error": None, "elapsed_s": 1.0,
         "checks": [["q", True, 0.0, 1.0]]},
        {"name": "c", "error": "ValueError: boom", "elapsed_s": 1.0,
         "checks": None},
        {"name": "d", "error": None, "elapsed_s": 1.0,
         "checks": [["v", False, 3.0, 1.0]]},
    ]
    other_seed = run.Score(reference, compare_verdicts=False)
    other_seed.add(_fake_pass(items))
    assert (other_seed.items, other_seed.failed_items) == (4, 2)
    assert (other_seed.checks, other_seed.failed_checks) == (5, 4)
    assert other_seed.changed_verdicts == 1
    assert other_seed.worst_margin == 0.5
    # at the reference seed a changed verdict is a failed operation too
    ref_seed = run.Score(reference, compare_verdicts=True)
    ref_seed.add(_fake_pass(items))
    assert ref_seed.failed_items == 3
    # an untraced pass may not run wrapped code
    wrapped = run.Score(reference, compare_verdicts=False)
    wrapped.add(_fake_pass(items[:1], wrappers=5))
    assert wrapped.failed_items == 1


def test_reference_covers_every_item():
    with open(run.REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)["workloads"]
    assert sorted(ref) == sorted(workloads.WORKLOADS)
    for w in workloads.WORKLOADS:
        for seed in (0, 12345):
            names = [it[0] for it in workloads.generate(w, seed, ROOT)]
            assert sorted(names) == sorted(ref[w])
    # the known soap-film false alarm at refine=2 is part of the baseline
    film = ref["refined"]["soap-film-sphere"]
    assert dict(zip(film["ids"], film["pass"]))["weak-1"] is False


def test_benchmark_json_matches_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    layer = [m["name"] for m in bench["per_layer"]]
    for m in bench["per_layer"]:
        if m["name"] in tracing.layer_metric_names():
            assert m["unit"] == tracing.UNITS[m["name"].rsplit(".", 1)[1]]
    layer_extra = ["cli.item_p50_s", "checks.failed_ratio",
                   "checks.worst_margin", "trace.overhead_ratio",
                   "trace.probe_s"]
    assert layer == tracing.layer_metric_names() + layer_extra
    fake = _fake_pass([{"name": "a", "elapsed_s": 1.0, "error": None,
                        "checks": [["x", True, 0.5, 1.0]]}])
    score = run.Score({"a": {"ids": ["x"], "pass": [True]}}, True)
    score.add(fake)
    metrics = run.end_to_end(score, [0.1], [fake])
    assert [m["name"] for m in bench["end_to_end"]] == list(metrics)
    for m in bench["end_to_end"]:
        assert m["unit"] == metrics[m["name"]][1]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "golden",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_workload_seed_sets_the_inputs():
    a = workloads.generate("sufficiency", 3, ROOT)
    b = workloads.generate("sufficiency", 3, ROOT)
    c = workloads.generate("sufficiency", 4, ROOT)
    assert a == b
    assert [it[1] for it in a] != [it[1] for it in c]
    golden = workloads.generate("golden", 7, ROOT)
    assert {it[3] for it in golden} == {7}
