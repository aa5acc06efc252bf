"""Regenerate perfbench/reference.json: check ids and verdicts per item.

    python3 perfbench/make_reference.py

Runs one untraced pass of every workload at seed 0, the reference seed (BLAS
pinned to one thread, as in the benchmark), and stores, per item, the
ordered check ids and pass flags.
Regenerate only when a change is meant to alter which checks a scenario
runs or how they come out, and say so in the change.
"""

import json
import sys
import time

import run
import workloads


def main():
    ref = {"seed": 0, "workloads": {}}
    for workload in workloads.WORKLOADS:
        deadline = time.monotonic() + 600.0
        result = run.start_worker(workload, 0, deadline)
        items = {}
        for rec in result["items"]:
            if rec["error"] is not None:
                print(f"{workload}/{rec['name']}: {rec['error']}",
                      file=sys.stderr)
                return 1
            items[rec["name"]] = {"ids": [c[0] for c in rec["checks"]],
                                  "pass": [c[1] for c in rec["checks"]]}
        ref["workloads"][workload] = items
    with open(run.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
