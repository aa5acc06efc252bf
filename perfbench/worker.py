"""One benchmark pass in a fresh process.

Usage (normally started by run.py, which pins BLAS threads and puts the
repository's ``src`` on PYTHONPATH):

    python3 perfbench/worker.py --workload golden --seed 0 [--setup-only]
                                [--trace] [--only NAME,NAME]

Imports stressdist, generates and validates the workload's items, then runs
every item once through ``cli.run_scenario`` and prints one JSON line: the
wall-clock time at which set-up ended, the pass wall time, per-item times,
check ids, verdicts, residuals, tolerances and a digest of each report
without its ``timing`` block, peak RSS, the environment and, when traced,
the per-layer metrics.
"""

import argparse
import hashlib
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def report_digest(report):
    body = {k: v for k, v in report.items() if k != "timing"}
    text = json.dumps(body, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def environment():
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, AttributeError):
        blas = "unknown"
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
    }


def run_pass(items, cli):
    """Run items serially; returns (wall_s, per-item records, reports)."""
    records, reports = [], []
    t_pass = time.perf_counter()
    for name, cfg, refine, seed in items:
        t0 = time.perf_counter()
        try:
            report = cli.run_scenario(cfg, refine=refine, seed_override=seed)
            error = None
        except Exception as exc:    # recorded as a failed operation
            report, error = None, f"{type(exc).__name__}: {exc}"
        records.append({"name": name, "elapsed_s": time.perf_counter() - t0,
                        "error": error})
        reports.append(report)
    return time.perf_counter() - t_pass, records, reports


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--only", default=None,
                    help="comma-separated item names to run (self-test)")
    args = ap.parse_args(argv)

    sys.path.insert(0, HERE)
    import workloads
    import tracer as tracing
    from stressdist import cli

    items = workloads.generate(args.workload, args.seed, ROOT)
    if args.only:
        keep = set(args.only.split(","))
        items = [it for it in items if it[0] in keep]
    for name, cfg, _, _ in items:
        errors = cli.validate_scenario(cfg)
        if errors:
            print(f"invalid item {name}: {'; '.join(errors)}", file=sys.stderr)
            return 2
    out = {"t_ready": time.time()}
    if args.setup_only:
        print(json.dumps(out))
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    try:
        wall, records, reports = run_pass(items, cli)
        out["wrappers"] = tracing.installed_wrappers()
    finally:
        if tracer is not None:
            tracer.uninstall()
    for rec, report in zip(records, reports):
        if report is not None:
            rec["checks"] = [[c["id"], bool(c["pass"]), c["residual"],
                              c["tolerance"]] for c in report["checks"]]
            rec["digest"] = report_digest(report)
    out.update(wall_s=wall, items=records,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0,
               env=environment())
    if tracer is not None:
        out["layers"] = tracer.metrics()
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
