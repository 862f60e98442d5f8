"""Bandwidth-constraint regimes and architecture rankings.

Two channels can each be limited or unlimited: the detector-to-hub channel
(travel at `detector_speed` in spatial mode, congestion charged per detector
sharing a hub in contention mode) and the hub-to-hub channel (latency
charged per peer contacted). For each of the four regimes the harness
evaluates the fully modular (a=1), non-modular (a=0) and sub-modular
(optimized or fixed interior exponent) architectures over a mass range and
names the per-mass and overall winners. All three are read off one grid
pass per mass: a = 0 and a = 1 are the grid's endpoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from detnet.scaling import (
    ArchitectureSpec,
    ModelParams,
    TimingBreakdown,
    _grid_pass,
    _require_mode,
)

__all__ = [
    "ScenarioProfile",
    "MassVerdict",
    "ScenarioVerdict",
    "EPSILON_TIE",
    "PROFILE_NAMES",
    "profile_from_name",
    "evaluate_scenario",
    "scenario_table",
]

# Relative spread below which all architectures are declared tied; the
# free-channel regime is an exact-zero-cost case, so this only needs to
# absorb float noise.
EPSILON_TIE = 1e-9

MODEL_NAMES = ("model1", "model2", "model3")

# Regimes in canonical order: (detector channel, hub channel).
PROFILE_NAMES = (
    "unlimited-unlimited",
    "limited-unlimited",
    "unlimited-limited",
    "limited-limited",
)


@dataclass(frozen=True)
class ScenarioProfile:
    """Which communication channels are bandwidth-limited.

    A limited channel costs what the model charges for it (the detector
    channel `detector_speed` in spatial mode or `contention_coefficient` in
    contention mode, the hub channel `contact_latency`); an unlimited channel
    costs nothing, which for the detector channel in spatial mode is an
    infinite speed.
    """

    detector_channel: str
    hub_channel: str

    def __post_init__(self):
        for name in ("detector_channel", "hub_channel"):
            value = getattr(self, name)
            if value not in ("limited", "unlimited"):
                raise ValueError(f"{name} must be 'limited' or 'unlimited', got {value!r}")

    @property
    def name(self) -> str:
        return f"{self.detector_channel}-{self.hub_channel}"

    def effective_params(self, params: ModelParams, mode: str = "contention") -> ModelParams:
        _require_mode(mode)
        # per channel: the field that prices it, the value that makes it free
        # (the only value ModelParams accepts that costs nothing) and its bound
        detector = ("detector_speed", math.inf, "< inf") if mode == "spatial" else \
            ("contention_coefficient", 0.0, "> 0")
        costs = {}
        for (key, free, bound), channel in ((detector, self.detector_channel),
                                            (("contact_latency", 0.0, "> 0"), self.hub_channel)):
            cost = getattr(params, key)
            if channel == "limited" and cost == free:
                raise ValueError(f"profile {self.name} needs {key} {bound} on its limited "
                                 f"channel, got {cost!r}")
            costs[key] = cost if channel == "limited" else free
        return replace(params, **costs)


def profile_from_name(name: str) -> ScenarioProfile:
    if name not in PROFILE_NAMES:
        raise ValueError(f"unknown profile {name!r}; expected one of {PROFILE_NAMES}")
    return ScenarioProfile(*name.split("-"))


@dataclass(frozen=True)
class MassVerdict:
    mass: float
    winner: str  # model1 | model2 | model3 | tie
    breakdowns: dict[str, TimingBreakdown]
    model3_exponent: float


@dataclass(frozen=True)
class ScenarioVerdict:
    profile: ScenarioProfile
    per_mass: tuple[MassVerdict, ...]
    overall_winner: str


def _pick_winner(totals: dict[str, float]) -> str:
    lowest = min(totals.values())
    spread = (max(totals.values()) - lowest) / max(lowest, 1e-300)
    if spread < EPSILON_TIE:
        return "tie"
    # near-exact ties (an optimized model 3 collapsing onto an endpoint)
    # resolve to the simpler architecture
    return next(name for name in MODEL_NAMES
                if totals[name] <= lowest * (1.0 + EPSILON_TIE) + 1e-300)


def _overall(winners: list[str]) -> str:
    contested = [w for w in winners if w != "tie"]
    # max keeps the first of equal counts: the simpler architecture
    return max(MODEL_NAMES, key=contested.count) if contested else "tie"


def evaluate_scenario(profile: ScenarioProfile, M_list, params: ModelParams,
                      model3_exponent: float | None = None,
                      arch: ArchitectureSpec = ArchitectureSpec(),
                      grid_resolution: float = 0.01,
                      mode: str = "contention") -> ScenarioVerdict:
    """Rank the three architectures under one bandwidth regime.

    Each mass is one grid pass in `mode`, with the profile's channel costs.
    model3_exponent None means the sub-modular exponent is optimized over
    `optimal_exponent`'s grid, whose first and last points are models 2
    and 1; a float pins it for reproducible fixtures, on the grid [0, a, 1].
    """
    if len(M_list) == 0:  # lists or arrays
        raise ValueError("M_list must be non-empty")
    effective = profile.effective_params(params, mode)
    # with_exponent raises the spec's range error for a pinned exponent
    grid = None if model3_exponent is None else \
        np.array([0.0, arch.with_exponent(model3_exponent).exponent, 1.0])

    per_mass = []
    for M in M_list:
        a, *phases, t_total = _grid_pass(M, arch, effective, mode, grid, grid_resolution)
        best = int(np.argmin(t_total)) if grid is None else 1
        breakdowns = {name: TimingBreakdown(*(float(x[i]) for x in phases))
                      for name, i in zip(MODEL_NAMES, (-1, 0, best))}
        winner = _pick_winner({name: bd.t_total for name, bd in breakdowns.items()})
        per_mass.append(MassVerdict(float(M), winner, breakdowns, float(a[best])))

    overall = _overall([v.winner for v in per_mass])
    return ScenarioVerdict(profile, tuple(per_mass), overall)


def scenario_table(params: ModelParams, M_list,
                   arch: ArchitectureSpec = ArchitectureSpec(),
                   grid_resolution: float = 0.01,
                   model3_exponent: float | None = None,
                   mode: str = "contention") -> list[tuple[str, str]]:
    """Overall winner per regime, one row per profile in canonical order;
    model3_exponent and mode as in `evaluate_scenario`."""
    rows = []
    for name in PROFILE_NAMES:
        verdict = evaluate_scenario(profile_from_name(name), M_list, params,
                                    model3_exponent=model3_exponent, arch=arch,
                                    grid_resolution=grid_resolution, mode=mode)
        rows.append((name, verdict.overall_winner))
    return rows
