"""The benchmark's four workloads: generated inputs, ops, traced ops and checks.

Importing this module imports detnet, so the worker process times the import
as part of set-up. Every op is a pure function of (workload seed, op index):
op i uses seed + i, and the program receives only the generated inputs.

Each workload offers
  op(i)               the untraced op, as a user would call it
  traced_op(i, tr)    the same work split at layer boundaries, with spans and
                      counts recorded in `tr` (a spans.Tracer)
  check_op(out)       raises CheckFailed when an op's output is wrong
  output_bytes(out)   the bytes that are digested and compared on re-run
  summary(out)        what the run-level check needs from one op, or None
  check_run(sums)     run-level checks over the summaries of all ops
"""

from __future__ import annotations

import contextlib
import io
import math
from collections import namedtuple
from pathlib import Path
from time import perf_counter

import numpy as np

from detnet import cli
from detnet.config import parse_config
from detnet.scaling import (
    ArchitectureSpec,
    ModelParams,
    TimingBreakdown,
    detection_time,
    exponent_grid,
    hub_count,
    mean_center_distance,
    optimal_exponent,
    total_response_time,
)
from detnet.scenarios import PROFILE_NAMES, evaluate_scenario, profile_from_name, scenario_table
from detnet.sim import (
    build_world,
    run_detection,
    run_expansion,
    run_recruitment,
    simulate,
    spawn_infection,
)


_Event = namedtuple("_Event", "time kind")


class CheckFailed(Exception):
    """An op or run produced output that fails the benchmark's checks."""


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def check_breakdown(bd: TimingBreakdown) -> None:
    for name in ("t_detect", "t_recruit", "t_expand"):
        value = getattr(bd, name)
        _require(math.isfinite(value) and value >= 0.0, f"{name} = {value!r}")
    _require(bd.t_total == bd.t_detect + bd.t_recruit + bd.t_expand, "phase sum identity")


def check_time_ordered(records, what: str) -> None:
    times = [r.time for r in records]
    _require(all(a <= b for a, b in zip(times, times[1:])), f"{what} is not time-ordered")


def check_detectors(records, n_detectors: int) -> None:
    kinds = [r.kind for r in records]
    _require(kinds.count("spawn") == n_detectors, "one spawn per detector")
    _require(kinds.count("arrival") == n_detectors, "one arrival per detector")


def traced_simulate(tr, M, arch, params, seed, n_detectors, movement, step_length):
    """`simulate`, called phase by phase in the order it uses, with a span
    around each phase and counts taken from public return values."""
    with tr.span("sim.build_world"):
        world = build_world(M, arch, params, seed)
    with tr.span("sim.spawn_infection"):
        spawn_infection(world, None, n_detectors)
    with tr.span("sim.run_detection"):
        t_detect, detect_log = run_detection(world, movement, step_length)
    with tr.span("sim.run_recruitment"):
        t_recruit, recruit_log = run_recruitment(world)
    with tr.span("sim.run_expansion"):
        t_expand, expand_log = run_expansion(world)
    with tr.span("sim.drain"):
        log = world.drain(0)
    for phase_log, what in ((detect_log, "detection log"), (recruit_log, "recruitment log"),
                            (expand_log, "expansion log")):
        check_time_ordered(phase_log, what)
    walk_steps = 0
    if movement == "random_walk":
        # detection starts at time 0 and each walker travels steps * step / v
        v = params.detector_speed
        walk_steps = sum(round(r.time * v / step_length)
                         for r in detect_log if r.kind == "arrival")
    tr.count("sim.build_world.hubs", hub_count(M, arch)[1])
    tr.count("sim.run_detection.walk_steps", walk_steps)
    tr.count("sim.run_recruitment.contacts",
             sum(r.kind == "contact-complete" for r in recruit_log))
    tr.count("sim.run_expansion.ticks", sum(r.kind == "doubling-tick" for r in expand_log))
    tr.count("sim.events", len(log))
    return TimingBreakdown(t_detect, t_recruit, t_expand), log


class Workload:
    """Defaults for a workload without run-level checks."""

    def summary(self, out):
        return None

    def check_run(self, summaries):
        pass


class SimWorkload(Workload):
    """One `simulate` call plus `EventLog.to_text()` per op."""

    def __init__(self, seed, workdir, mass, exponent, movement, detectors, step_length=0.1):
        self.seed = seed
        self.mass = mass
        self.arch = ArchitectureSpec(exponent=exponent, dimension=2)
        self.params = ModelParams()
        self.movement = movement
        self.detectors = detectors
        self.step_length = step_length

    def op(self, i):
        bd, log = simulate(self.mass, self.arch, self.params, self.seed + i,
                           n_detectors=self.detectors, movement=self.movement,
                           step_length=self.step_length)
        return bd, log, log.to_text()

    def traced_op(self, i, tr):
        with tr.span("op"):
            bd, log = traced_simulate(tr, self.mass, self.arch, self.params, self.seed + i,
                                      self.detectors, self.movement, self.step_length)
            with tr.span("sim.to_text"):
                text = log.to_text()
        return bd, log, text

    def check_op(self, out):
        bd, log, text = out
        check_breakdown(bd)
        check_time_ordered(log, "event log")
        check_detectors(log, self.detectors)
        _require(text.count("\n") == len(log), "one text line per event")

    def output_bytes(self, out):
        bd, _, text = out
        return repr((bd.t_detect, bd.t_recruit, bd.t_expand)).encode() + b"\n" + text.encode()

    def summary(self, out):
        return out[0].t_detect


class SimModular(SimWorkload):
    """A large fully modular world: 64 x 64 hubs, every peer contacted."""

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, mass=4096.0, exponent=1.0,
                         movement="straight", detectors=1)

    def check_run(self, summaries):
        # straight-line detection in a square tiling is an unbiased draw of
        # the analytic mean; compare within 4 standard errors
        n = len(summaries)
        if n < 2:
            return
        mean = sum(summaries) / n
        sd = math.sqrt(sum((x - mean) ** 2 for x in summaries) / (n - 1))
        expected = detection_time(self.mass, self.arch, self.params, "spatial")
        _require(abs(mean - expected) <= 4.0 * sd / math.sqrt(n),
                 f"mean t_detect {mean} vs analytic {expected} over {n} ops")


class SimWalk(SimWorkload):
    """A tiny world (4 hubs) searched by 4 random walkers.

    Walk lengths are heavy-tailed, so a run's throughput depends on which
    walks its seed draws. Step 0.2 (absorption radius 0.2) makes walks short
    enough that a run holds over 1000 ops and its figures repeat from seed
    to seed; at step 0.1 a run held about 270 and they did not.
    """

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir, mass=16.0, exponent=0.5,
                         movement="random_walk", detectors=4, step_length=0.2)


# M = 10^(k/4) for k = 0..32, crossed with d = 1, 2, 3
DESIGN_POINTS = [(10.0 ** (k / 4), d) for k in range(33) for d in (1, 2, 3)]
DESIGN_GRID = 1e-3
README_MASSES = [1.0, 10.0, 100.0, 1000.0, 10000.0]


class AnalyticDesign(Workload):
    """Optimal exponent in both detection modes plus the four bandwidth
    regimes, for one (M, d) design point per op."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.params = ModelParams()
        # the geometry constant is a lazy per-process cost every CLI run pays;
        # its cold time per dimension is a layer metric of the traced run
        self.geometry_ms = []
        for d in (1, 2, 3):
            start = perf_counter()
            mean_center_distance(d)
            self.geometry_ms.append((perf_counter() - start) * 1e3)

    def _point(self, i):
        M, d = DESIGN_POINTS[(self.seed + i) % len(DESIGN_POINTS)]
        return M, ArchitectureSpec(dimension=d)

    def op(self, i):
        M, arch = self._point(i)
        spatial = optimal_exponent(M, self.params, "spatial", DESIGN_GRID, arch)
        contention = optimal_exponent(M, self.params, "contention", DESIGN_GRID, arch)
        verdicts = [evaluate_scenario(profile_from_name(name), [M], self.params,
                                      arch=arch, grid_resolution=DESIGN_GRID)
                    for name in PROFILE_NAMES]
        return M, arch, spatial, contention, verdicts

    def traced_op(self, i, tr):
        M, arch = self._point(i)
        points = len(exponent_grid(DESIGN_GRID))
        with tr.span("op"):
            with tr.span("scaling.optimal_exponent"):
                spatial = optimal_exponent(M, self.params, "spatial", DESIGN_GRID, arch)
            tr.count("scaling.optimal_exponent.points", points)
            with tr.span("scaling.optimal_exponent"):
                contention = optimal_exponent(M, self.params, "contention", DESIGN_GRID, arch)
            tr.count("scaling.optimal_exponent.points", points)
            verdicts = []
            for name in PROFILE_NAMES:
                with tr.span("scenarios.evaluate_scenario"):
                    verdicts.append(evaluate_scenario(profile_from_name(name), [M], self.params,
                                                      arch=arch, grid_resolution=DESIGN_GRID))
        return M, arch, spatial, contention, verdicts

    def check_op(self, out):
        M, arch, spatial, contention, verdicts = out
        for mode, (a, bd) in (("spatial", spatial), ("contention", contention)):
            _require(0.0 <= a <= 1.0, f"{mode} a* = {a!r}")
            check_breakdown(bd)
            for end in (0.0, 1.0):
                edge = total_response_time(M, arch.with_exponent(end), self.params, mode)
                _require(bd.t_total <= edge.t_total, f"{mode} optimum worse than a = {end}")
        for verdict in verdicts:
            _require(len(verdict.per_mass) == 1, "one verdict per mass")
            _require(verdict.overall_winner in ("tie", "model1", "model2", "model3"),
                     f"winner {verdict.overall_winner!r}")
            for bd in verdict.per_mass[0].breakdowns.values():
                check_breakdown(bd)

    def output_bytes(self, out):
        M, arch, spatial, contention, verdicts = out
        rows = [(M, arch.dimension, spatial, contention)]
        rows += [(v.profile.name, v.overall_winner, v.per_mass[0].model3_exponent,
                  {k: bd.t_total for k, bd in v.per_mass[0].breakdowns.items()})
                 for v in verdicts]
        return repr(rows).encode()

    def check_run(self, summaries):
        for d in (1, 2, 3):
            a, _ = optimal_exponent(1e8, self.params, "spatial", DESIGN_GRID,
                                    ArchitectureSpec(dimension=d))
            _require(abs(a - 1.0 / (d + 1)) <= 0.02, f"a* at M = 1e8, d = {d} is {a}")
        winners = [w for _, w in scenario_table(self.params, README_MASSES)]
        _require(winners == ["tie", "model1", "model2", "model3"],
                 f"default scenario table reads {winners}")


SWEEP_MASSES = [2.0 ** k for k in range(13)]  # 1, 2, 4, ..., 4096
SWEEP_TRIALS = 8
SWEEP_EXPONENT = 0.5


class CliSweep(Workload):
    """In-process `detnet simulate` over 13 masses x 8 trials, writing the CSV
    and the `.events` file."""

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = str(workdir)
        self.csv_path = Path(workdir) / "sweep.csv"
        self.events_path = Path(str(self.csv_path) + ".events")
        self.ref_path = Path(workdir) / "reference.csv"
        self.config_path = Path(workdir) / "sweep.cfg"
        self.config_text = (
            f"masses = {' '.join(f'{m:g}' for m in SWEEP_MASSES)}\n"
            f"exponent = {SWEEP_EXPONENT}\n"
            f"trials = {SWEEP_TRIALS}\n"
            "movement = straight\n"
            f"output = {self.csv_path}\n"
        )
        self.config_path.write_text(self.config_text, encoding="utf-8")

    def _dispatch(self, i):
        argv = ["simulate", "--config", str(self.config_path), "--seed", str(self.seed + i)]
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            status = cli.dispatch(argv)
        return status, stdout.getvalue()

    def _outputs(self, status, stdout):
        return status, stdout, self.csv_path.read_bytes(), self.events_path.read_bytes()

    def op(self, i):
        return self._outputs(*self._dispatch(i))

    def traced_op(self, i, tr):
        with tr.span("op"):
            with tr.span("cli.dispatch"):
                status, stdout = self._dispatch(i)
        out = self._outputs(status, stdout)
        # the same work again, outside the op span: it prices the parts of
        # dispatch and must reproduce dispatch's files byte for byte
        with tr.span("reference"):
            with tr.span("config.parse_config"):
                cfg = parse_config(self.config_text)
            cfg.seed = self.seed + i
            rows, events = [], []
            for M in cfg.masses:
                trial_bds = []
                for trial in range(cfg.trials):
                    args = (M, cfg.arch, cfg.params, cfg.seed + trial)
                    with tr.span("sim.simulate"):
                        bd, log = simulate(*args, site=cfg.site, n_detectors=cfg.detectors,
                                           movement=cfg.movement, step_length=cfg.walk_step)
                    phases = traced_simulate(tr, *args, cfg.detectors, cfg.movement,
                                             cfg.walk_step)
                    _require(phases == (bd, log), "layer-by-layer simulate differs")
                    with tr.span("sim.to_text"):
                        text = log.to_text()
                    rows.append(cli.CsvRow(M, cfg.arch.exponent, "sim", cfg.movement,
                                           bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total,
                                           cfg.seed + trial, trial))
                    events.append(f"{0.0:.9f}\ttrial-begin\t{trial}\t-1\n" + text)
                    trial_bds.append(bd)
                means = [float(np.mean([getattr(bd, name) for bd in trial_bds]))
                         for name in ("t_detect", "t_recruit", "t_expand")]
                rows.append(cli.CsvRow(M, cfg.arch.exponent, "sim", cfg.movement, *means,
                                       sum(means), cfg.seed, cli.SUMMARY_TRIAL))
            with tr.span("cli.write_csv"):
                cli.write_csv(rows, self.ref_path)
        _require(self.ref_path.read_bytes() == out[2], "CSV differs from the layer-by-layer run")
        _require("".join(events).encode() == out[3],
                 ".events differs from the layer-by-layer run")
        return out

    def check_op(self, out):
        status, stdout, csv, events = out
        _require(status == 0, f"exit status {status}")
        _require(stdout.startswith(f"wrote {len(SWEEP_MASSES) * (SWEEP_TRIALS + 1)} rows"),
                 f"stdout {stdout!r}")
        lines = csv.decode().splitlines()
        _require(lines[0] == cli.CSV_HEADER, "CSV header")
        _require(len(lines) - 1 == len(SWEEP_MASSES) * (SWEEP_TRIALS + 1), "CSV row count")
        for line in lines[1:]:
            detect, recruit, expand, total = (float(x) for x in line.split(",")[4:8])
            for x in (detect, recruit, expand):
                _require(math.isfinite(x) and x >= 0.0, f"CSV phase {x!r}")
            # phases are printed to 9 significant digits
            _require(abs(total - (detect + recruit + expand)) <= 1e-8 * max(total, 1.0),
                     "CSV phase sum identity")
        blocks = []
        for line in events.decode().splitlines():
            time, kind, _, _ = line.split("\t")
            if kind == "trial-begin":
                blocks.append([])
            else:
                blocks[-1].append(_Event(float(time), kind))
        _require(len(blocks) == len(SWEEP_MASSES) * SWEEP_TRIALS, "trial-begin count")
        for records in blocks:
            check_time_ordered(records, "trial event log")
            check_detectors(records, 1)

    def output_bytes(self, out):
        status, stdout, csv, events = out
        # stdout names the per-process scratch directory; keep digests comparable
        stdout = stdout.replace(self.workdir, "<workdir>")
        return f"{status}\n{stdout}".encode() + csv + events


WORKLOADS = {
    "sim-modular": SimModular,
    "sim-walk": SimWalk,
    "analytic-design": AnalyticDesign,
    "cli-sweep": CliSweep,
}
