"""Repeat the benchmark over seeds and judge its spread against BENCHMARK.json.

    python3 perfbench/steady.py --workloads sim-walk --seeds 1-10 --out set1.json
    python3 perfbench/steady.py --workloads all --seeds 1-10 --out set2.json --compare set1.json

Runs `run.py` once per (workload, seed) with the configured run_seconds,
untraced unless --trace 1. For each end-to-end metric it prints the median and
the quartile spread (Q3 - Q1) / median over the seeds, next to a third of the
metric's bound. With --compare it also checks, against an earlier set of the
same seeds, that each median is no worse by more than the bound and that the
per-layer counts are identical; it reports output digests that differ
without failing. Exits 1 on any failed run, a spread over the bound, or a
failed comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run_once(spec, workload, seed, trace):
    cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    record = next(json.loads(line[len("record "):]) for line in lines
                  if line.startswith("record "))
    return json.loads(lines[-1]), record


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all", help="comma list or 'all'")
    parser.add_argument("--seeds", default="1-10", help="N or N-M")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", required=True, help="write every result here")
    parser.add_argument("--compare", help="an earlier --out file of the same seeds")
    args = parser.parse_args(argv)
    workloads = names if args.workloads == "all" else args.workloads.split(",")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    earlier = json.loads(Path(args.compare).read_text()) if args.compare else {}

    ok = True
    runs = {}
    for workload in workloads:
        results = []
        for seed in seed_list(args.seeds):
            result, record = run_once(spec, workload, seed, args.trace)
            ok = ok and result["correct"]
            results.append({"seed": seed, "result": result, "digest": record["digest"],
                            "counts": record["counts"], "raw": record["raw"],
                            "probe_ms": record["probe_ms"]})
            print(f"{workload} seed {seed}: correct {result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
                             if args.trace == 0), flush=True)
        runs[workload] = results
        for name in results[0]["result"]["metrics"]:
            if name not in bounds:
                continue
            values = [r["result"]["metrics"][name]["value"] for r in results]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            bound = bounds[name]["bound"]
            line = (f"  {workload:16s} {name:12s} median {median:12.6g}  spread {spread:.4f}"
                    f"  bound/3 {bound / 3:.4f}")
            if results[0]["raw"] and name in results[0]["raw"]:
                raw = [r["raw"][name] for r in results]
                q1, _, q3 = statistics.quantiles(raw, n=4)
                line += f"  (uncorrected spread {(q3 - q1) / statistics.median(raw):.4f})"
            if name != "setup_s" and spread > bound:
                ok = False
                line += "  OVER BOUND"
            elif spread > bound / 3:
                line += "  over a third"
            if workload in earlier:
                before = statistics.median(r["result"]["metrics"][name]["value"]
                                           for r in earlier[workload])
                worse = (median - before) / before
                if bounds[name]["better"] == "higher":
                    worse = -worse
                line += f"  vs earlier {worse:+.4f}"
                if worse > bound:
                    ok = False
                    line += "  WORSE"
            print(line, flush=True)
        for prior in earlier.get(workload, ()):
            match = next((r for r in results if r["seed"] == prior["seed"]), None)
            if match and match["counts"] != prior["counts"]:
                ok = False
                print(f"  {workload} seed {prior['seed']}: per-layer counts differ", flush=True)
            if match and match["digest"] != prior["digest"]:  # recorded, not gated
                print(f"  {workload} seed {prior['seed']}: output digest differs", flush=True)
    Path(args.out).write_text(json.dumps(runs, indent=1))
    print("steady: ok" if ok else "steady: FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
