"""Toy-size smoke run of all four workloads, untraced and traced.

    python3 perfbench/smoke.py [--seed N]

Each workload runs 3 ops plus the op 0 re-run, with one set-up-only process,
through the same workers and checks as a full run. Prints every metric by
name with its unit and exits 1 if any op or run check failed.
"""

from __future__ import annotations

import argparse
import sys

import run


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    ok = True
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            try:
                result, record, notes = run.run_workload(workload, args.seed, 0.0, trace,
                                                         min_ops=3, setup_runs=1)
            except run.WorkerFailed as exc:
                print(f"perfbench: {exc}", file=sys.stderr)
                return 1
            run.report(result, record, notes)
            ok = ok and result["correct"]
    print("smoke: all checks passed" if ok else "smoke: CHECKS FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
