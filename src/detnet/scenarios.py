"""Bandwidth-constraint regimes and architecture rankings.

Two channels can each be limited or unlimited: the detector-to-hub channel
(congestion charged per detector sharing a hub) and the hub-to-hub channel
(latency charged per peer contacted). For each of the four regimes the
harness evaluates the fully modular (a=1), non-modular (a=0) and sub-modular
(optimized or fixed interior exponent) architectures over a mass range and
names the per-mass and overall winners.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from detnet.scaling import (
    ArchitectureSpec,
    ModelParams,
    TimingBreakdown,
    optimal_exponent,
    total_response_time,
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
    channel `contention_coefficient`, the hub channel `contact_latency`); an
    unlimited channel costs nothing.
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

    def effective_params(self, params: ModelParams) -> ModelParams:
        costs = {}
        for key, channel in (("contention_coefficient", self.detector_channel),
                             ("contact_latency", self.hub_channel)):
            cost = getattr(params, key)
            if channel == "limited" and not cost > 0.0:
                raise ValueError(f"profile {self.name} needs {key} > 0 on its limited "
                                 f"channel, got {cost!r}")
            costs[key] = cost if channel == "limited" else 0.0
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
                      arch: ArchitectureSpec | None = None,
                      grid_resolution: float = 0.01) -> ScenarioVerdict:
    """Rank the three architectures under one bandwidth regime.

    Evaluation runs in contention mode (the detector channel is a shared
    queue, not a travel distance) with the hub channel charged through the
    contact latency. model3_exponent None means the sub-modular exponent is
    optimized per mass; a float pins it for reproducible fixtures.
    """
    if len(M_list) == 0:  # lists or arrays
        raise ValueError("M_list must be non-empty")
    if arch is None:
        arch = ArchitectureSpec()
    effective = profile.effective_params(params)

    per_mass = []
    for M in M_list:
        breakdowns = {
            "model1": total_response_time(M, arch.with_exponent(1.0), effective, "contention"),
            "model2": total_response_time(M, arch.with_exponent(0.0), effective, "contention"),
        }
        if model3_exponent is None:
            a3, bd3 = optimal_exponent(M, effective, "contention", grid_resolution, arch)
        else:
            a3 = model3_exponent
            bd3 = total_response_time(M, arch.with_exponent(a3), effective, "contention")
        breakdowns["model3"] = bd3
        winner = _pick_winner({name: bd.t_total for name, bd in breakdowns.items()})
        per_mass.append(MassVerdict(float(M), winner, breakdowns, float(a3)))

    overall = _overall([v.winner for v in per_mass])
    return ScenarioVerdict(profile, tuple(per_mass), overall)


def scenario_table(params: ModelParams, M_list,
                   arch: ArchitectureSpec | None = None,
                   grid_resolution: float = 0.01,
                   model3_exponent: float | None = None) -> list[tuple[str, str]]:
    """Overall winner per regime, one row per profile in canonical order;
    model3_exponent as in `evaluate_scenario`."""
    rows = []
    for name in PROFILE_NAMES:
        verdict = evaluate_scenario(profile_from_name(name), M_list, params,
                                    model3_exponent=model3_exponent, arch=arch,
                                    grid_resolution=grid_resolution)
        rows.append((name, verdict.overall_winner))
    return rows
