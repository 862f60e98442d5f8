"""detnet benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sim-modular --seed 1 --seconds 20 --trace 0

Workloads: sim-modular, sim-walk, analytic-design, cli-sweep (see README.md).
With --trace 0 it prints the end-to-end metrics; with --trace 1 the per-layer
metrics of a separate traced run. Each metric is printed by name with its
unit, then a `record` line (commit, versions, CPU, output digest, exact
counts), and last one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

This process imports nothing from detnet. It starts SETUP_RUNS fresh worker
processes that only set up, for `setup_s`, and one that measures; detnet is
imported in those, from this checkout's src/ only. Exits non-zero, without a
result, when a worker fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

WORKLOADS = ("sim-modular", "sim-walk", "analytic-design", "cli-sweep")
MIN_OPS = 100  # at least ten samples beyond p90; also the digest and count prefix
SETUP_RUNS = 8  # set-up-only processes; the measuring process adds one more sample
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms_p50": "ms",
    "op_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
PER_LAYER_UNITS = {
    "sim.build_world.ms": "ms",
    "sim.build_world.hubs": "count",
    "sim.run_recruitment.ms": "ms",
    "sim.run_recruitment.contacts": "count",
    "sim.drain.ms": "ms",
    "sim.to_text.ms": "ms",
    "sim.events": "count",
    "sim.run_detection.ms": "ms",
    "sim.run_detection.walk_steps": "count",
    "sim.run_detection.steps_per_ms": "1/ms",
    "sim.spawn_infection.ms": "ms",
    "sim.run_expansion.ms": "ms",
    "sim.run_expansion.ticks": "count",
    "scaling.mean_center_distance.ms": "ms",
    "scaling.optimal_exponent.ms": "ms",
    "scaling.optimal_exponent.points": "count",
    "scaling.point_us": "us",
    "scenarios.evaluate_scenario.ms": "ms",
    "config.parse_config.ms": "ms",
    "cli.write_csv.ms": "ms",
    "cli.dispatch.ms": "ms",
    "cli.dispatch.self_ms": "ms",
    "trace.overhead_pct": "%",
}


class WorkerFailed(Exception):
    pass


def worker(args, deadline):
    """Run one fresh worker process to completion and parse its result."""
    timeout = deadline - monotonic()
    if timeout <= 0:
        raise WorkerFailed("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise WorkerFailed(f"worker {args} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerFailed(f"worker {args} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def run_workload(workload, seed, seconds, trace, min_ops=MIN_OPS, setup_runs=SETUP_RUNS):
    """Measure one workload; returns (result line, record, notes per metric)."""
    deadline = monotonic() + DEADLINE_S
    setups = [worker(["setup", workload, seed], deadline) for _ in range(setup_runs)]
    main = worker(["trace" if trace else "run", workload, seed, seconds, min_ops], deadline)
    setups.append(main)
    n = main["ops"]
    if trace:
        metrics = dict(main["metrics"])
        geometry = [statistics.mean(s["geometry_ms"]) for s in setups if s["geometry_ms"]]
        metrics["scaling.mean_center_distance.ms"] = (
            statistics.median(geometry) if geometry else 0.0)
        units = PER_LAYER_UNITS
        notes = {name: f"median per call, {n} traced ops" for name in units
                 if name.endswith(".ms")}
        notes.update({name: f"per call, ops 0..{min_ops - 1}" for name in main["counts"]})
        notes.update({
            "sim.run_detection.steps_per_ms": "walk steps / run_detection time, all traced ops",
            "scaling.point_us": "optimal_exponent.ms / points",
            "scaling.mean_center_distance.ms":
                f"cold, mean over d = 1, 2, 3; median of {len(geometry)} processes",
            "cli.dispatch.self_ms": "median per op: dispatch - parse_config - simulate calls",
            "trace.overhead_pct": f"traced vs untraced op time, {n} op pairs",
        })
    else:
        metrics = dict(main["metrics"], setup_s=statistics.median(s["setup_s"] for s in setups))
        units = END_TO_END_UNITS
        beyond = n - int(0.9 * n)
        notes = {
            "setup_s": f"median of {len(setups)} fresh processes",
            "ops_per_s": f"{n} ops in {main['op_seconds']:.3f} s of op time",
            "op_ms_p50": f"{n} samples",
            "op_ms_p90": f"{n} samples, {beyond} beyond p90",
            "peak_rss_mb": "ru_maxrss of the measuring process",
        }
        main["raw"]["setup_s"] = statistics.median(s["setup_raw_s"] for s in setups)
    result = {
        "correct": main["failed"] == 0,
        "attempted": main["attempted"],
        "failed": main["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    record = dict(main["record"], workload=workload, seed=seed, seconds=seconds, trace=trace,
                  ops=n, digest=main["digest"], counts=main.get("counts"),
                  probe_ms=main["probe_ms"], raw=main.get("raw"), errors=main["errors"])
    return result, record, notes


def report(result, record, notes, out=sys.stdout):
    """Print every metric by name with its unit, the record, then the result."""
    print(f"workload {record['workload']}  seed {record['seed']}  trace {record['trace']}",
          file=out)
    for name, m in result["metrics"].items():
        print(f"  {name:34s} {m['value']:14.6g} {m['unit']:6s} {notes.get(name, '')}", file=out)
    rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':34s} {rate:14.6g} {'':6s} "
          f"{result['failed']} of {result['attempted']} attempts failed", file=out)
    for error in record["errors"]:
        print(error, file=sys.stderr)
    print("record " + json.dumps(record), file=out)
    print(json.dumps(result), file=out)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    try:
        result, record, notes = run_workload(args.workload, args.seed, args.seconds,
                                             args.trace)
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    report(result, record, notes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
