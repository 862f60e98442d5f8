"""One fresh benchmark process: set up a workload, then optionally measure it.

    python3 perfbench/worker.py setup <workload> <seed>
    python3 perfbench/worker.py run   <workload> <seed> <seconds> <min_ops>
    python3 perfbench/worker.py trace <workload> <seed> <seconds> <min_ops>

`setup` stops once the first op could start. `run` then runs a closed loop
of untraced ops: one caller, each op after the previous returns, until at
least <seconds> of op time and <min_ops> ops. `trace` runs each op index
twice, untraced and traced in alternating order, and derives the per-layer
numbers from the spans. Every time is corrected for the machine's current
speed (speed.py); the uncorrected figures are kept under "raw". Prints one
JSON object on its last stdout line. Exits 3 when detnet does not come from
this checkout's src/.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench-out"

SPAN_MS = (
    "sim.build_world", "sim.spawn_infection", "sim.run_detection", "sim.run_recruitment",
    "sim.run_expansion", "sim.drain", "sim.to_text", "scaling.optimal_exponent",
    "scenarios.evaluate_scenario", "config.parse_config", "cli.write_csv", "cli.dispatch",
)
COUNTS = (
    "sim.build_world.hubs", "sim.run_recruitment.contacts", "sim.events",
    "sim.run_detection.walk_steps", "sim.run_expansion.ticks", "scaling.optimal_exponent.points",
)


def timed(fn, *args):
    """Run one op; an op that raises returns its exception as the output."""
    start = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failing op is counted and the loop goes on
        out = exc
    return out, perf_counter() - start


class Tally:
    """Op failures, output digest over the first `digest_ops` op indices, and
    the summaries the run-level check needs."""

    def __init__(self, wl, digest_ops):
        self.wl = wl
        self.digest_ops = digest_ops
        self.attempted = 0
        self.errors: list[str] = []
        self.digest = hashlib.sha256()
        self.first: bytes | None = None
        self.summaries = []

    @property
    def failed(self):
        return len(self.errors)

    def check(self, i, out, reference=None) -> bytes | None:
        """Check one op's output; returns its bytes, or None if it failed."""
        self.attempted += 1
        try:
            if isinstance(out, Exception):
                raise out
            self.wl.check_op(out)
            data = self.wl.output_bytes(out)
            if reference is not None and data != reference:
                raise AssertionError(f"op {i}: output differs from the untraced op")
        except Exception:  # every failure is recorded with its traceback
            self.errors.append(f"op {i}: " + traceback.format_exc(limit=3))
            return None
        return data

    def add(self, i, out, data):
        if i < self.digest_ops:
            self.digest.update(data if data is not None else b"<failed>")
        if i == 0:
            self.first = data
        if data is not None:
            self.summaries.append(self.wl.summary(out))

    def finish(self):
        """Re-run op 0, compare it byte for byte, and run the run-level checks."""
        out, _ = timed(self.wl.op, 0)
        data = self.check(0, out)
        if data is not None and data != self.first:
            self.errors.append("op 0 re-run: output is not byte-identical")
        self.attempted += 1  # the run-level check counts as one more attempt
        try:
            self.wl.check_run([s for s in self.summaries if s is not None])
        except Exception:  # recorded like an op failure
            self.errors.append("run check: " + traceback.format_exc(limit=3))


def latency_metrics(op_ms):
    return {
        "ops_per_s": len(op_ms) / (sum(op_ms) / 1e3),
        "op_ms_p50": statistics.median(op_ms),
        "op_ms_p90": statistics.quantiles(op_ms, n=10)[8] if len(op_ms) > 1 else op_ms[0],
    }


def measure(wl, seconds, min_ops):
    from speed import SpeedTrack  # imports numpy, so not before set-up is timed

    tally = Tally(wl, min_ops)
    track = SpeedTrack()
    raw_ms = []
    op_seconds = 0.0
    i = 0
    while i < min_ops or op_seconds < seconds:
        out, dt = timed(wl.op, i)
        raw_ms.append(dt * 1e3)
        op_seconds += dt
        track.op_done()
        tally.add(i, out, tally.check(i, out))
        i += 1
    track.flush()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tally.finish()
    metrics = latency_metrics([ms * f for ms, f in zip(raw_ms, track.factors)])
    metrics["peak_rss_mb"] = peak_rss_mb
    return tally, metrics, {"ops": i, "op_seconds": op_seconds, "raw": latency_metrics(raw_ms),
                            "probe_ms": statistics.median(track.readings)}


def measure_traced(wl, seconds, min_ops):
    from speed import SpeedTrack  # imports numpy, so not before set-up is timed

    tally = Tally(wl, min_ops)
    tr = Tracer()
    track = SpeedTrack()
    untraced_ms = []
    i = 0
    start = perf_counter()
    while i < min_ops or perf_counter() - start < seconds:
        tr.op = i
        if i % 2:  # alternate the order so neither side always runs warm
            traced, _ = timed(wl.traced_op, i, tr)
            out, dt = timed(wl.op, i)
        else:
            out, dt = timed(wl.op, i)
            traced, _ = timed(wl.traced_op, i, tr)
        untraced_ms.append(dt * 1e3)
        track.op_done()
        data = tally.check(i, out)
        tally.check(i, traced, reference=data)
        tally.add(i, out, data)
        i += 1
    track.flush()
    tally.finish()
    tr.scale = track.factors

    metrics = {f"{name}.ms": tr.median_ms(name) for name in SPAN_MS}
    metrics.update({name: tr.count_per_call(name, min_ops) for name in COUNTS})
    detect_ms = sum(tr.durations_ms("sim.run_detection"))
    steps = sum(v for _, v in tr.counts.get("sim.run_detection.walk_steps", ()))
    metrics["sim.run_detection.steps_per_ms"] = steps / detect_ms if steps else 0.0
    points = metrics["scaling.optimal_exponent.points"]
    metrics["scaling.point_us"] = (metrics["scaling.optimal_exponent.ms"] * 1e3 / points
                                   if points else 0.0)
    dispatch = tr.per_op_ms("cli.dispatch")
    parse = tr.per_op_ms("config.parse_config")
    simulate = tr.per_op_ms("sim.simulate")
    metrics["cli.dispatch.self_ms"] = (
        statistics.median(dispatch[op] - parse[op] - simulate[op] for op in dispatch)
        if dispatch else 0.0)
    op_ms = tr.per_op_ms("op")
    metrics["trace.overhead_pct"] = (
        sum(op_ms.values()) / sum(untraced_ms[op] * track.factors[op] for op in op_ms)
        - 1.0) * 100.0
    counts = {name: metrics[name] for name in COUNTS}
    return tally, metrics, {"ops": i, "counts": counts,
                            "probe_ms": statistics.median(track.readings)}


def run_record(detnet_file):
    import numpy

    record = {
        "commit": None,
        "dirty": None,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu": platform.processor() or None,
        "nproc": len(os.sched_getaffinity(0)),
        "detnet": detnet_file,
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            record["cpu"] = next(line.split(":", 1)[1].strip()
                                 for line in f if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    if (ROOT / ".git").exists():
        def git(*args):
            return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                                  timeout=30, check=True).stdout
        try:
            record["commit"] = git("rev-parse", "HEAD").strip()
            record["dirty"] = bool(git("status", "--porcelain").strip())
        except (OSError, subprocess.SubprocessError):
            pass
    return record


def main(argv):
    mode, name, seed = argv[0], argv[1], int(argv[2])
    start = perf_counter()
    sys.path.insert(0, str(SRC))
    import detnet

    detnet_file = str(Path(detnet.__file__).resolve())
    if not Path(detnet_file).is_relative_to(SRC.resolve()):
        print(f"detnet imported from {detnet_file}, not from {SRC}", file=sys.stderr)
        return 3
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(dir=OUT_DIR)
    try:
        wl = workloads.WORKLOADS[name](seed, workdir)
        setup_raw_s = perf_counter() - start
        # speed imports numpy, so it may only load once set-up is timed
        import speed

        factor = speed.REF_MS / statistics.median(speed.probe_ms() for _ in range(3))
        result = {"setup_s": setup_raw_s * factor, "setup_raw_s": setup_raw_s,
                  "geometry_ms": [ms * factor for ms in getattr(wl, "geometry_ms", [])]}
        if mode != "setup":
            seconds, min_ops = float(argv[3]), int(argv[4])
            tally, metrics, info = (measure if mode == "run" else measure_traced)(
                wl, seconds, min_ops)
            result.update(info)
            result.update(metrics=metrics, attempted=tally.attempted, failed=tally.failed,
                          errors=tally.errors[:5], digest=tally.digest.hexdigest(),
                          record=run_record(detnet_file))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
