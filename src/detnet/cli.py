"""Command-line entry point: analyze, sweep, simulate, scenario.

All file outputs are byte-deterministic for a given config and seed: floats
are printed with 9 significant digits, line endings are LF, and row order is
fixed. Exit codes: 0 success, 1 usage/configuration error, 2 infeasible
parameters.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple

import numpy as np

from detnet.config import ConfigError, RunConfig, parse_config
from detnet.scaling import InfeasibleParametersError, sweep, total_response_time
from detnet.scenarios import (MODEL_NAMES, PROFILE_NAMES, evaluate_scenario, profile_from_name,
                              scenario_table)
from detnet.sim import EventRecord, simulate

__all__ = ["dispatch", "main", "write_csv", "CsvRow", "UsageError"]

SUMMARY_TRIAL = -1  # sentinel for rows that aggregate or do not run trials


class UsageError(Exception):
    pass


class CsvRow(NamedTuple):
    """One row of the timing CSV; the fields are its columns, in order."""
    M: float
    a: float
    model: str
    mode: str
    t_detect: float
    t_recruit: float
    t_expand: float
    t_total: float
    seed: int
    trial: int


CSV_HEADER = ",".join(CsvRow._fields)


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def write_csv(rows, path, header: str = CSV_HEADER) -> None:
    """Write `header` (the timing schema by default), then one line per row
    of its fields through `_fmt`; zero rows gives a header-only file."""
    lines = [header, *(",".join(map(_fmt, row)) for row in rows)]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; 2 is reserved for infeasible
    # parameters here, so surface usage problems as exceptions instead
    def error(self, message):
        raise UsageError(message)


@lru_cache(maxsize=1)  # parse_args returns a fresh Namespace, so one parser serves every call
def _build_parser() -> _Parser:
    parser = _Parser(prog="detnet",
                     description="Scaling laws and simulation for hierarchical "
                                 "detection-and-response networks.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_analyze = sub.add_parser("analyze", help="print one analytic timing breakdown")
    p_analyze.add_argument("--mass", type=float, required=True, help="system mass ratio M > 0")
    p_analyze.add_argument("--exponent", type=float, required=True,
                           help="hub-count scaling exponent a in [0, 1]")

    p_sweep = sub.add_parser("sweep", help="write the (mass x exponent) timing table")

    p_sim = sub.add_parser("simulate", help="run seeded simulations, write per-trial CSV")
    p_sim.add_argument("--trials", type=int, default=None, help="number of seeded trials")

    p_scen = sub.add_parser("scenario", help="rank architectures under a bandwidth regime")
    p_scen.add_argument("--profile", required=True,
                        choices=list(PROFILE_NAMES) + ["all"],
                        help="bandwidth regime, or 'all' for the summary table")

    for p in (p_analyze, p_sweep, p_sim, p_scen):
        p.add_argument("--config", default=None, help="path to a key = value config file")
        p.add_argument("--seed", type=int, default=None, help="override the config seed")
    return parser


def _load_config(args) -> RunConfig:
    if getattr(args, "config", None) is not None:
        cfg = parse_config(Path(args.config).read_text(encoding="utf-8"))
    else:
        cfg = parse_config("")
    # the flags are validated like the config keys they override
    flags = {name: getattr(args, name, None) for name in ("seed", "trials")}
    return replace(cfg, **{name: value for name, value in flags.items() if value is not None})


def _cmd_analyze(args) -> int:
    cfg = _load_config(args)
    arch = cfg.arch.with_exponent(args.exponent)
    bd = total_response_time(args.mass, arch, cfg.params, cfg.mode)
    print(f"M={_fmt(args.mass)} a={_fmt(args.exponent)} mode={cfg.mode} "
          f"t_detect={_fmt(bd.t_detect)} t_recruit={_fmt(bd.t_recruit)} "
          f"t_expand={_fmt(bd.t_expand)} t_total={_fmt(bd.t_total)}")
    return 0


def _cmd_sweep(args) -> int:
    cfg = _load_config(args)
    rows = [
        CsvRow(M, a, "analytic", cfg.mode, bd.t_detect, bd.t_recruit, bd.t_expand,
               bd.t_total, cfg.seed, SUMMARY_TRIAL)
        for M, a, bd in sweep(cfg.masses, cfg.exponents, cfg.params, cfg.mode, cfg.arch)
    ]
    write_csv(rows, cfg.output)
    print(f"wrote {len(rows)} rows to {cfg.output}")
    return 0


def _cmd_simulate(args) -> int:
    cfg = _load_config(args)
    rows = []
    events = []  # per trial: a trial-begin marker line, then the trial's log
    n_events = 0
    for M in cfg.masses:
        phases = []  # per trial: (t_detect, t_recruit, t_expand)
        for trial in range(cfg.trials):
            trial_seed = cfg.seed + trial
            bd, log = simulate(M, cfg.arch, cfg.params, trial_seed,
                               site=cfg.site, n_detectors=cfg.detectors,
                               movement=cfg.movement, step_length=cfg.walk_step)
            rows.append(CsvRow(M, cfg.arch.exponent, "sim", cfg.movement,
                               bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total,
                               trial_seed, trial))
            events.append(EventRecord(0.0, "trial-begin", trial, -1).to_line() + "\n")
            events.append(log.to_text())
            n_events += 1 + len(log)
            phases.append((bd.t_detect, bd.t_recruit, bd.t_expand))
        means = [float(np.mean(column)) for column in zip(*phases)]
        rows.append(CsvRow(M, cfg.arch.exponent, "sim", cfg.movement, *means, sum(means),
                           cfg.seed, SUMMARY_TRIAL))

    write_csv(rows, cfg.output)
    events_path = str(cfg.output) + ".events"
    try:
        Path(events_path).write_text("".join(events), encoding="utf-8", newline="")
    except OSError:  # leave no CSV beside a missing or stale .events
        Path(cfg.output).unlink()
        raise
    print(f"wrote {len(rows)} rows to {cfg.output} and {n_events} events to {events_path}")
    return 0


def _cmd_scenario(args) -> int:
    cfg = _load_config(args)
    if args.profile == "all":
        table = scenario_table(cfg.params, cfg.masses, cfg.arch, cfg.grid_resolution,
                               model3_exponent=cfg.model3_exponent, mode=cfg.mode)
        write_csv(table, cfg.output, "profile,winner")
        for name, winner in table:
            print(f"{name}: {winner}")
    else:
        verdict = evaluate_scenario(profile_from_name(args.profile), cfg.masses, cfg.params,
                                    cfg.model3_exponent, cfg.arch, cfg.grid_resolution, cfg.mode)
        rows = [(args.profile, v.mass, v.winner, *(v.breakdowns[m].t_total for m in MODEL_NAMES),
                 v.model3_exponent) for v in verdict.per_mass]
        rows.append((args.profile, "overall", verdict.overall_winner, "-", "-", "-", "-"))
        header = ["profile", "M", "winner", *(f"{m}_total" for m in MODEL_NAMES),
                  "model3_exponent"]
        write_csv(rows, cfg.output, ",".join(header))
        print(f"{args.profile}: {verdict.overall_winner}")
    return 0


_COMMANDS = {
    "analyze": _cmd_analyze,
    "sweep": _cmd_sweep,
    "simulate": _cmd_simulate,
    "scenario": _cmd_scenario,
}


def dispatch(argv) -> int:
    """Parse argv and run one subcommand; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            return 1
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except InfeasibleParametersError as exc:
        print(f"infeasible parameters: {exc}", file=sys.stderr)
        return 2
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
