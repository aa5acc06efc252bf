"""Workload generation for the stressdist benchmark.

A workload is a list of items ``(name, scenario, refine, seed_override)``;
one pass runs every item once, serially, through ``cli.run_scenario``.
Scenario files are read, never written.
"""

import json
import os

WORKLOADS = ("golden", "sufficiency", "refined")

REFINED = ("soap-film-sphere", "identity1-B-ball", "mollify-C-box")
REFINED_LEVEL = 2

# A sufficiency pass runs one potential on both geometries below; the short
# pass lets a run hold several passes to take the median of.
SUFFICIENCY_GEOMETRIES = (
    ("ball", {"kind": "ball", "radius": 1.0},
     {"kind": "sphere", "radius": 0.5}),
    ("shell", {"kind": "spherical-shell", "inner_radius": 1.0,
               "outer_radius": 2.0},
     {"kind": "sphere", "radius": 1.45}),
)


def scenario_paths(root):
    sdir = os.path.join(root, "scenarios")
    return [os.path.join(sdir, n) for n in sorted(os.listdir(sdir))
            if n.endswith(".json") and not n.endswith(".report.json")]


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def derived_seed(seed, index):
    """Independent 32-bit seed for sub-item ``index`` of workload ``seed``."""
    import numpy as np
    return int(np.random.SeedSequence([seed, index]).generate_state(1)[0])


def sufficiency_scenario(name, potential_seed, domain, interface):
    return {
        "schema_version": 1,
        "name": name,
        "operation": "stress-function",
        "seed": potential_seed,
        "geometry": {"domain": dict(domain), "interface": dict(interface)},
        "fields": {"potential": {"kind": "piecewise-polynomial", "degree": 4,
                                 "scale": 0.2, "seed": potential_seed}},
        "parameters": {"tol": 1e-6},
    }


def generate(workload, seed, root):
    """Items of ``workload`` for workload seed ``seed`` (any integer)."""
    seed %= 2 ** 32
    if workload == "golden":
        return [(os.path.basename(p)[:-len(".json")], _load(p), 0, seed)
                for p in scenario_paths(root)]
    if workload == "refined":
        sdir = os.path.join(root, "scenarios")
        return [(n, _load(os.path.join(sdir, n + ".json")), REFINED_LEVEL, seed)
                for n in REFINED]
    if workload == "sufficiency":
        pseed = derived_seed(seed, 0)
        return [(f"sufficiency-{g}",
                 sufficiency_scenario(f"sufficiency-{g}", pseed, dom, itf),
                 0, None)
                for g, dom, itf in SUFFICIENCY_GEOMETRIES]
    raise ValueError(f"unknown workload {workload!r}")
