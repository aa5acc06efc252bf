"""stressdist benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload golden|sufficiency|refined \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Every pass runs in a fresh worker process
(perfbench/worker.py) with BLAS and OpenMP pinned to one thread; items run
serially through ``stressdist.cli.run_scenario``, in memory, so nothing is
written under ``src/`` or ``scenarios/``.

With ``--trace 0`` the benchmark first starts set-up-only workers, then runs
passes until ``--seconds`` have been measured (at least one pass) and
reports the end-to-end metrics as medians over passes.  With ``--trace 1``
it runs one untraced and one traced pass and reports the per-layer metrics
of the traced pass, the accuracy summary of its checks and the tracing
overhead.

Every item's check ids are compared with perfbench/reference.json
(regenerate with perfbench/make_reference.py), and at the reference seed
its verdicts too.  An item that raises or whose ids differ is a failed
operation, and every check the reference expects of it counts as failed.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

REFERENCE = os.path.join(HERE, "reference.json")
PYCACHE = os.path.join(ROOT, ".perfbench_cache", "pycache")
SETUP_PROBES = 8
RUN_BUDGET_S = 170.0
# Checks whose verdict is not |residual| <= tolerance (order and flag
# checks); they carry no accuracy margin.
NO_MARGIN_IDS = {"dipole-order-fraction", "mollify-order", "cauchy-flux"}


class WorkerError(Exception):
    pass


def worker_env():
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # Bytecode is cached in the benchmark's own directory, never next to the
    # sources, so set-up after the first worker reads compiled bytecode.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPYCACHEPREFIX"] = PYCACHE
    return env


def start_worker(workload, seed, deadline, setup_only=False, trace=False,
                 only=None):
    """Run one worker; returns its JSON result with ``setup_s`` added."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed)]
    if setup_only:
        cmd.append("--setup-only")
    if trace:
        cmd.append("--trace")
    if only:
        cmd += ["--only", ",".join(only)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("time budget exhausted")
    t_spawn = time.time()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                              stdout=subprocess.PIPE, timeout=timeout,
                              check=False)
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {timeout:.0f} s") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["t_ready"] - t_spawn
    return out


class Score:
    """Operations and checks of one or more passes, against the reference."""

    def __init__(self, reference, compare_verdicts):
        self.reference = reference
        self.compare_verdicts = compare_verdicts
        self.items = self.failed_items = 0
        self.checks = self.failed_checks = self.changed_verdicts = 0
        self.margins = []

    def add(self, result, digests=None):
        """Score one pass; ``digests`` are the reports it must reproduce."""
        traced = digests is not None
        if bool(result.get("wrappers")) != traced:
            # wrappers only in the traced pass, and there at every boundary
            self.failed_items += len(result["items"])
        for rec in result["items"]:
            self.items += 1
            ref = self.reference.get(rec["name"])
            n_ref = len(ref["ids"]) if ref else 0
            self.checks += n_ref
            checks = rec.get("checks")
            if (ref is None or rec["error"] is not None
                    or [c[0] for c in checks] != ref["ids"]):
                self.failed_items += 1
                self.failed_checks += n_ref
                continue
            verdicts = [c[1] for c in checks]
            self.failed_checks += verdicts.count(False)
            changed = sum(a != b for a, b in zip(verdicts, ref["pass"]))
            self.changed_verdicts += changed
            if (changed and self.compare_verdicts) or \
                    (traced and digests.get(rec["name"]) != rec["digest"]):
                self.failed_items += 1
            for cid, passed, residual, tol in checks:
                if passed and cid not in NO_MARGIN_IDS and \
                        0 < tol < float("inf"):
                    self.margins.append(abs(residual) / tol)

    @property
    def failed_ratio(self):
        return self.failed_checks / self.checks if self.checks else 1.0

    @property
    def worst_margin(self):
        return max(self.margins, default=0.0)

    def describe(self):
        return (f"{self.items} items, {self.failed_items} failed; checks: "
                f"{self.failed_checks} of {self.checks} failing, "
                f"{self.changed_verdicts} verdicts differ from the reference")


def _missing_sources():
    need = [os.path.join(ROOT, "src", "stressdist", "cli.py"),
            os.path.join(ROOT, "scenarios"), REFERENCE]
    return [p for p in need if not os.path.exists(p)]


def measure(workload, seed, seconds, deadline):
    """Untraced run: set-up probes, then passes for ``seconds``.

    A first set-up-only worker warms the file cache and bytecode and is not
    counted.  Half of the set-up probes run before the passes and half
    after, so that they do not all fall into one slow spell of the host.
    Passes follow while the next one, as long as the last, is expected to
    end within ``seconds`` (at least one pass), so a run holds as many
    passes as fit and its length stays near ``seconds``.
    """
    def probe():
        return start_worker(workload, seed, deadline,
                            setup_only=True)["setup_s"]

    probe()
    setups = [probe() for _ in range(SETUP_PROBES // 2)]
    passes = []
    t0 = last = time.monotonic()
    while True:
        now = time.monotonic()
        if passes and (now - t0 + (now - last) > seconds
                       or now + 1.5 * (now - last) > deadline):
            break
        last = now
        passes.append(start_worker(workload, seed, deadline))
    setups += [probe() for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    setups += [p["setup_s"] for p in passes]
    return setups, passes


def end_to_end(score, setups, passes):
    items = [r["elapsed_s"] for p in passes for r in p["items"]]
    print(f"{len(passes)} pass(es), {len(items)} item times, "
          f"{len(setups)} set-up samples; {score.describe()}")
    print(f"  failed_checks_ratio = {score.failed_ratio!r} 1")
    print(f"  worst_margin = {score.worst_margin!r} 1")
    print(f"  item_p50_s = {statistics.median(items)!r} s")
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes),
                        "MB"),
        "passed_checks_ratio": (1.0 - score.failed_ratio, "1"),
    }


def per_layer(score, plain, traced):
    print(f"untraced and traced pass; {score.describe()}")
    metrics = {}
    for name in tracing.layer_metric_names():
        unit = tracing.UNITS[name.rsplit(".", 1)[1]]
        metrics[name] = (traced["layers"][name], unit)
    metrics["cli.item_p50_s"] = (
        statistics.median(r["elapsed_s"] for r in plain["items"]), "s")
    metrics["checks.failed_ratio"] = (score.failed_ratio, "1")
    metrics["checks.worst_margin"] = (score.worst_margin, "1")
    metrics["trace.overhead_ratio"] = (
        traced["wall_s"] / plain["wall_s"] - 1.0, "1")
    metrics["trace.probe_s"] = (traced["layers"]["trace.probe_s"], "s")
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_BUDGET_S

    missing = _missing_sources()
    if missing:
        print("error: not a stressdist checkout; missing "
              + ", ".join(os.path.relpath(p, ROOT) for p in missing),
              file=sys.stderr)
        return 2
    with open(REFERENCE, encoding="utf-8") as fh:
        ref = json.load(fh)
    score = Score(ref["workloads"][args.workload],
                  compare_verdicts=args.seed == ref["seed"])
    print(f"workload {args.workload}, seed {args.seed}")
    try:
        if args.trace:
            plain = start_worker(args.workload, args.seed, deadline)
            traced = start_worker(args.workload, args.seed, deadline,
                                  trace=True)
            score.add(plain)
            score.add(traced, digests={r["name"]: r.get("digest")
                                       for r in plain["items"]})
            metrics = per_layer(score, plain, traced)
            env = traced["env"]
        else:
            setups, passes = measure(args.workload, args.seed, args.seconds,
                                     deadline)
            for p in passes:
                score.add(p)
            metrics = end_to_end(score, setups, passes)
            env = passes[0]["env"]
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value!r} {unit}")
    print(json.dumps({
        "correct": score.failed_items == 0,
        "attempted": score.items,
        "failed": score.failed_items,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
