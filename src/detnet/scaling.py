"""Closed-form scaling laws for hierarchical detection-and-response networks.

A network of size M (mass ratio relative to a baseline system) is organized
into N(M) = n0 * M^a hubs of size S(M) = s0 * M^(1-a) cells each, so that
total hub tissue N * S = n0 * s0 * M is conserved for every exponent a.
The exponent interpolates between three reference architectures:

    a = 1   fully modular (many fixed-size hubs, cheap detection)
    a = 0   non-modular (few growing hubs, cheap recruitment)
    0<a<1   sub-modular (both count and size grow sublinearly)

Response latency decomposes into three phases: detection (a mobile detector
carries the report to its draining hub), recruitment (the infected hub
contacts peer hubs for additional responders), and expansion (activated
responders double every `doubling_time` until the output target is met).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import lru_cache

import numpy as np

__all__ = [
    "ArchitectureSpec",
    "ModelParams",
    "TimingBreakdown",
    "InfeasibleParametersError",
    "BASELINE_RESPONSE_TIME",
    "RECRUITMENT_DISABLED",
    "MAX_GRID_POINTS",
    "mean_center_distance",
    "output_target",
    "hub_count",
    "hub_size",
    "detection_time",
    "expansion_time",
    "total_response_time",
    "exponent_grid",
    "optimal_exponent",
    "sweep",
    "check_feasible",
]

# Expansion from the critical responder pool takes exactly this long under
# the default output calibration, independent of M and of the doubling time.
BASELINE_RESPONSE_TIME = 4.0

# Sentinel for `contact_latency`: recruitment switched off entirely, the
# infected hub expands from its local pool alone (fixed-pool regime).
RECRUITMENT_DISABLED = math.inf

# Largest exponent grid the optimizer builds (grid step 1e-6); a finer
# resolution is refused before any point is allocated.
MAX_GRID_POINTS = 1_000_001


class InfeasibleParametersError(ValueError):
    """The whole system holds fewer cognate responders than required."""


@dataclass(frozen=True)
class ArchitectureSpec:
    """How hub count and hub size scale with system mass.

    exponent:        a in [0, 1]; hub count grows as M^a, hub size as M^(1-a)
    base_hub_count:  n0 >= 1, hub count at M = 1
    base_hub_size:   s0 > 0, hub size in cell units at M = 1
    dimension:       spatial dimension of the domain, 1, 2 or 3
    """

    exponent: float = 0.5
    base_hub_count: float = 1.0
    base_hub_size: float = 1.0e6
    dimension: int = 2

    def __post_init__(self):
        if not 0.0 <= self.exponent <= 1.0:
            raise ValueError(f"exponent must be in [0, 1], got {self.exponent}")
        if not self.base_hub_count >= 1.0:
            raise ValueError(f"base_hub_count must be >= 1, got {self.base_hub_count}")
        if not self.base_hub_size > 0.0:
            raise ValueError(f"base_hub_size must be > 0, got {self.base_hub_size}")
        if self.dimension not in (1, 2, 3):
            raise ValueError(f"dimension must be 1, 2 or 3, got {self.dimension}")
        # numpy scalars and ints compute as the Python number they equal
        for name, kind in (("exponent", float), ("base_hub_count", float),
                           ("base_hub_size", float), ("dimension", int)):
            value = getattr(self, name)
            if type(value) is not kind:
                object.__setattr__(self, name, kind(value))

    def with_exponent(self, a: float) -> "ArchitectureSpec":
        return replace(self, exponent=a)


def _calibrated_antibody_coefficient(bcrit_coefficient, doubling_time):
    # Output target per unit mass such that expanding from the critical pool
    # B_crit = bcrit * M always takes BASELINE_RESPONSE_TIME, whatever M.
    try:
        growth = 2.0 ** (BASELINE_RESPONSE_TIME / doubling_time)
    except OverflowError:
        raise ValueError(f"doubling_time is too short to calibrate antibody_coefficient: "
                         f"2**({BASELINE_RESPONSE_TIME:g}/doubling_time) overflows, "
                         f"got {doubling_time}") from None
    return bcrit_coefficient * growth


@dataclass(frozen=True)
class ModelParams:
    """Rate constants of the detection/recruitment/expansion model.

    cognate_frequency:        fraction of cells specific to one target (1e-6)
    bcrit_coefficient:        required activated responders per unit mass
    antibody_coefficient:     output units required per unit mass; None means
                              calibrated so expansion from the critical pool
                              takes BASELINE_RESPONSE_TIME at every M
    doubling_time:            responder population doubling period
    detector_speed:           detector travel speed; a unit mass has unit volume,
                              so lengths are in (volume per unit mass)^(1/d)
    contact_latency:          time per peer hub contacted during recruitment
                              (0 = free channel, math.inf = recruitment off)
    contention_coefficient:   time per detector sharing a hub (contention mode,
                              detector density folded in)
    recruitment_composition:  "serial" contacts one peer after another,
                              "parallel" fans out as a doubling tree
    """

    cognate_frequency: float = 1.0e-6
    bcrit_coefficient: float = 1.0
    antibody_coefficient: float | None = None
    doubling_time: float = 1.0
    detector_speed: float = 1.0
    contact_latency: float = 0.2
    contention_coefficient: float = 0.1
    recruitment_composition: str = "serial"

    def __post_init__(self):
        if not 0.0 < self.cognate_frequency <= 1.0:
            raise ValueError(f"cognate_frequency must be in (0, 1], got {self.cognate_frequency}")
        for name in (
            "cognate_frequency",
            "bcrit_coefficient",
            "doubling_time",
            "detector_speed",
        ):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
            if type(value) is not float:  # numpy scalars compute as the float they equal
                object.__setattr__(self, name, float(value))
        if self.antibody_coefficient is None:
            object.__setattr__(
                self,
                "antibody_coefficient",
                _calibrated_antibody_coefficient(self.bcrit_coefficient, self.doubling_time),
            )
        if not self.antibody_coefficient > 0.0:
            raise ValueError(f"antibody_coefficient must be > 0, got {self.antibody_coefficient}")
        for name in ("antibody_coefficient", "contact_latency", "contention_coefficient"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
            if type(value) is not float:
                object.__setattr__(self, name, float(value))
        if self.recruitment_composition not in ("serial", "parallel"):
            raise ValueError(
                "recruitment_composition must be 'serial' or 'parallel', "
                f"got {self.recruitment_composition!r}"
            )

    @property
    def recruitment_enabled(self) -> bool:
        return math.isfinite(self.contact_latency)


@dataclass(frozen=True)
class TimingBreakdown:
    """Three-phase latency decomposition; t_total is the exact float sum."""

    t_detect: float
    t_recruit: float
    t_expand: float
    t_total: float = field(init=False)

    def __post_init__(self):
        for name in ("t_detect", "t_recruit", "t_expand"):
            if not getattr(self, name) >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        object.__setattr__(self, "t_total", self.t_detect + self.t_recruit + self.t_expand)


def _positive_mass(M) -> float:
    """M as the Python float it equals, so no numpy scalar type reaches the laws."""
    if not 0.0 < M < math.inf:
        raise ValueError(f"mass ratio M must be finite and > 0, got {M}")
    return float(M)


def _require_mode(mode):
    if mode not in ("spatial", "contention"):
        raise ValueError(f"unknown detection mode {mode!r}; expected 'spatial' or 'contention'")


def check_feasible(arch: ArchitectureSpec, params: ModelParams) -> None:
    """Raise InfeasibleParametersError if the system-wide cognate pool falls
    short of the critical responder requirement (both scale linearly in M,
    so feasibility is independent of M)."""
    total_per_mass = params.cognate_frequency * arch.base_hub_count * arch.base_hub_size
    if total_per_mass < params.bcrit_coefficient:
        raise InfeasibleParametersError(
            f"system-wide cognate pool {total_per_mass!r} per unit mass is below "
            f"the required {params.bcrit_coefficient!r} responders per unit mass"
        )


# ---------------------------------------------------------------------------
# geometry constant
# ---------------------------------------------------------------------------

_MEAN_CENTER_DISTANCE = {
    1: 1 / 4,
    2: (math.sqrt(2) + math.asinh(1)) / 6,
    3: (math.sqrt(3) / 4 - math.pi / 24 + math.log(2 + math.sqrt(3)) / 2) / 2,
}


def mean_center_distance(dimension: int) -> float:
    """Mean Euclidean distance from a uniform point in the unit d-cube to the
    cube's center, in closed form. Each orthant is a cube of side 1/2 with a
    vertex at the center, so this is half the mean distance from a vertex of
    the unit d-cube (Weisstein, "Square/Cube Point Picking", MathWorld)."""
    if dimension not in (1, 2, 3):
        raise ValueError(f"dimension must be 1, 2 or 3, got {dimension}")
    return _MEAN_CENTER_DISTANCE[dimension]


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

def output_target(M: float, params: ModelParams) -> float:
    """Output the activated responders must reach at mass M,
    antibody_coefficient * M; a target that overflows is refused.

    A system 25000x the baseline needs 25000x the absolute output to hold the
    same output concentration in a volume proportional to M.
    """
    target = params.antibody_coefficient * _positive_mass(M)
    if not math.isfinite(target):
        raise ValueError(f"output target antibody_coefficient*M = {target} is not finite at M={M}")
    return target


def hub_count(M: float, arch: ArchitectureSpec) -> tuple[float, int]:
    """Hub count at mass M, as (continuous, rounded) pair.

    Analytic laws use the continuous value n0 * M^a; the simulator builds
    the rounded world (never fewer than one hub).
    """
    M = _positive_mass(M)
    continuous = arch.base_hub_count * M ** arch.exponent
    if not math.isfinite(continuous):
        raise ValueError(f"hub count n0*M^a = {continuous} is not finite "
                         f"(n0={arch.base_hub_count}, M={M}, a={arch.exponent})")
    return continuous, max(1, round(float(continuous)))


def hub_size(M: float, arch: ArchitectureSpec) -> float:
    """Hub size in cell units at mass M: s0 * M^(1-a)."""
    M = _positive_mass(M)
    return arch.base_hub_size * M ** (1.0 - arch.exponent)


def detection_time(M: float, arch: ArchitectureSpec, params: ModelParams,
                   mode: str = "spatial") -> float:
    """Expected time for the first detector report to reach its hub.

    spatial mode:    travel time over the draining region, mu_d * extent / v,
                     with mu_d the unit-cube mean center distance and extent
                     the side of a region, (M / N(M))^(1/d)
    contention mode: queueing delay on the detector-to-hub channel, rho times
                     the detector population sharing one hub
    """
    M = _positive_mass(M)
    _require_mode(mode)
    if mode == "contention":
        return params.contention_coefficient * M / hub_count(M, arch)[0]
    extent = (M / hub_count(M, arch)[0]) ** (1.0 / arch.dimension)
    return mean_center_distance(arch.dimension) * extent / params.detector_speed


def _recruitment(M: float, arch: ArchitectureSpec, params: ModelParams) -> tuple[int, float]:
    """(k, pool) at a mass M already checked by `_positive_mass`, for a
    feasible model: the peer hubs the infected hub contacts and the
    responders activated before expansion begins.

    Each peer contributes its own cognate pool, local = f * S(M), so k is
    the ceiling of the deficit bcrit * M - local over local, and never more
    than the rounded number of peers that exist. Activation stops once
    bcrit * M is covered, so the pool is min(bcrit * M, local + k * local).
    With recruitment off, k = 0 and the pool is min(local, bcrit * M). A
    deficit over a local pool that underflows to 0, or over which the
    ceiling is not finite, is refused.
    """
    local = params.cognate_frequency * hub_size(M, arch)
    needed = params.bcrit_coefficient * M
    if not params.recruitment_enabled:
        return 0, min(local, needed)
    deficit = needed - local
    k = 0
    if not deficit <= 0.0:  # a NaN deficit (inf - inf) is refused below
        if not local > 0.0:
            raise ValueError(f"local cognate pool f*S(M) underflows to {local} at M={M}, "
                             f"a={arch.exponent}; no peer hub can cover the deficit")
        peers = deficit / local
        if not math.isfinite(peers):
            raise ValueError(f"recruitment demand deficit/local = {peers} is not finite "
                             f"at M={M}, a={arch.exponent}")
        k = min(math.ceil(peers), max(0, hub_count(M, arch)[1] - 1))
    return k, min(needed, local + k * local)


def expansion_time(B_initial: float, B_target: float, doubling_time: float) -> float:
    """Time for a population doubling every `doubling_time` to grow from
    B_initial to B_target; zero when the target is already met."""
    if not B_initial > 0.0:
        raise ValueError(f"B_initial must be > 0, got {B_initial}")
    if not B_target > 0.0:
        raise ValueError(f"B_target must be > 0, got {B_target}")
    if B_target <= B_initial:  # also where B_target / B_initial underflows to 0
        return 0.0
    return max(0.0, doubling_time * math.log2(B_target / B_initial))


def total_response_time(M: float, arch: ArchitectureSpec, params: ModelParams,
                        mode: str = "spatial") -> TimingBreakdown:
    """Full three-phase latency at mass M for one architecture.

    Serial recruitment charges contact_latency per peer contacted (the
    infected hub's outbound channel is the bottleneck); parallel recruitment
    fans out as a doubling tree, contact_latency * log2(k + 1).
    """
    M = _positive_mass(M)
    check_feasible(arch, params)
    t_detect = detection_time(M, arch, params, mode)
    k, pool = _recruitment(M, arch, params)
    if not params.recruitment_enabled:
        t_recruit = 0.0
    elif params.recruitment_composition == "parallel":
        t_recruit = params.contact_latency * math.log2(k + 1)
    else:
        t_recruit = params.contact_latency * k
    t_expand = expansion_time(pool, output_target(M, params), params.doubling_time)
    return TimingBreakdown(t_detect, t_recruit, t_expand)


# ---------------------------------------------------------------------------
# optimizer and sweeps
# ---------------------------------------------------------------------------

def exponent_grid(resolution: float) -> np.ndarray:
    """Exponent grid {0, resolution, 2*resolution, ..., 1}, as a float64 array.

    When 1/resolution is integral the points are computed as i/n so both
    endpoints are exact; otherwise the points i*resolution below 1 are kept and
    1.0 appended.
    A resolution finer than 1e-6 (more than MAX_GRID_POINTS points) is
    refused before the grid is built.
    """
    if not resolution > 0.0:
        raise ValueError(f"grid resolution must be > 0, got {resolution}")
    if 1.0 / resolution > MAX_GRID_POINTS - 1:
        raise ValueError(
            f"grid resolution {resolution} is finer than {1.0 / (MAX_GRID_POINTS - 1):g}; "
            f"the exponent grid is limited to {MAX_GRID_POINTS} points"
        )
    n = round(1.0 / resolution)
    if n >= 1 and abs(n * resolution - 1.0) < 1e-9:
        # one correctly rounded division of exact integers each, as i / n
        return np.arange(n + 1) / n
    # 0 is prepended, not computed: 0 * inf is NaN
    steps = np.arange(1, math.floor(1.0 / resolution) + 2) * resolution
    return np.concatenate(([0.0], steps[steps < 1.0], [1.0]))


# Largest exponent grid whose terms `optimal_exponent` caches: 2**14 points,
# a grid at step 1e-4 with room to spare; a grid at step 1e-6 is never kept.
_MEMO_BUDGET = 2 ** 14


def _log2(x: np.ndarray) -> np.ndarray:
    # math.log2 per element: numpy has no generic float64 log2 loop
    return np.fromiter(map(math.log2, x.tolist()), dtype=float)


def _grid_terms(M, a, n0, s0, f, bcrit, antibody, doubling_time, recruits,
                composition) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The terms of `total_response_time` that no detection input reads, as
    read-only arrays over the float64 grid `a`: a, the continuous hub count,
    the recruitment units (k, or log2(k + 1) in parallel) and t_expand.

    Exact operations (+ - * /, ceil, rint, minimum, where) run on whole
    arrays in the scalar path's order. pow runs through `np.float_power`,
    whose float64 loop calls libm's pow per element, as Python's ** does;
    log2 runs per element through `math.log2`, since numpy's SIMD power and
    log2 loops can differ from libm in the last bit.
    `where` keeps Python min/max's first argument unless the second is better.
    """
    with np.errstate(all="ignore"):  # a refused point raises its scalar error below
        continuous = n0 * np.float_power(M, a)
        ok = np.isfinite(continuous)  # False wherever the scalar path may refuse
        local = f * (s0 * np.float_power(M, 1.0 - a))
        needed = bcrit * M
        if recruits:
            deficit = needed - local
            peers = np.ceil(deficit / local)
            ok &= np.isfinite(peers)
            rounded = np.maximum(1.0, np.rint(continuous))
            units = k = np.where(deficit <= 0.0, 0.0, np.minimum(peers, rounded - 1.0))
            if composition == "parallel":
                # k + 1 as min(peers + 1, rounded): one rounding, as the
                # scalar path's exact integer k + 1 gets, also beyond 2**53
                units = _log2(np.where(deficit <= 0.0, 1.0, np.minimum(peers + 1.0, rounded)))
            recruited = local + k * local
            pool = np.where(recruited < needed, recruited, needed)
        else:
            units = np.zeros_like(a)
            pool = np.where(needed < local, needed, local)
        target = antibody * M
        ok &= (pool > 0.0) & (target > 0.0) & (target < math.inf)
        for i in np.flatnonzero(~ok):
            # the scalar error at the first refused point; none names a field left out
            total_response_time(M, ArchitectureSpec(float(a[i]), n0, s0), ModelParams(
                f, bcrit, antibody, doubling_time, recruitment_composition=composition,
                contact_latency=0.0 if recruits else RECRUITMENT_DISABLED), "contention")
        # a target already met, also one whose ratio underflows to 0, takes no time
        t_expand = doubling_time * _log2(np.maximum(target / pool, 1.0))
        t_expand = np.where(t_expand > 0.0, t_expand, 0.0)
    for x in (a, continuous, units, t_expand):
        x.flags.writeable = False
    return a, continuous, units, t_expand


@lru_cache(maxsize=16, typed=True)  # a call that raises keeps nothing
def _cached_terms(M, resolution, *fields):
    return _grid_terms(M, exponent_grid(resolution), *fields)


def _grid_pass(M, arch, params, mode, a=None, resolution=None):
    # (grid, *phases) over the float64 grid a, or over exponent_grid(resolution),
    # whose terms are cached when it has at most _MEMO_BUDGET points (by the
    # test exponent_grid applies to MAX_GRID_POINTS)
    cached = a is None and resolution > 0.0 and 1.0 / resolution <= _MEMO_BUDGET - 1
    if a is None and not cached:
        a = exponent_grid(resolution)
    M = _positive_mass(M)
    check_feasible(arch, params)
    _require_mode(mode)
    # every input of the terms but M and the grid, and nothing else: the
    # dimension, mode, rho, lambda's finite value and v stay out
    fields = (arch.base_hub_count, arch.base_hub_size, params.cognate_frequency,
              params.bcrit_coefficient, params.antibody_coefficient, params.doubling_time,
              params.recruitment_enabled, params.recruitment_composition)
    a, continuous, units, t_expand = _cached_terms(M, resolution, *fields) if cached else \
        _grid_terms(M, a, *fields)
    with np.errstate(all="ignore"):
        if mode == "spatial":
            extent = np.float_power(M / continuous, 1.0 / arch.dimension)
            t_detect = mean_center_distance(arch.dimension) * extent / params.detector_speed
        else:
            t_detect = params.contention_coefficient * M / continuous
        t_recruit = params.contact_latency * units if params.recruitment_enabled else units
        return a, t_detect, t_recruit, t_expand, t_detect + t_recruit + t_expand


def optimal_exponent(M: float, params: ModelParams, mode: str = "spatial",
                     grid_resolution: float = 0.01,
                     arch: ArchitectureSpec = ArchitectureSpec(),
                     ) -> tuple[float, TimingBreakdown]:
    """Grid search for the exponent minimizing total response time at mass M.

    Evaluates the whole exponent grid in one pass and keeps the first
    minimum (`argmin`), so ties resolve toward the smaller exponent. `arch`
    supplies the base hub count/size and dimension (its own exponent is
    ignored). Grids of at most `_MEMO_BUDGET` points read their terms from
    `_cached_terms`, whose hits are bit-identical to a fresh pass.
    """
    grid, t_detect, t_recruit, t_expand, t_total = _grid_pass(
        M, arch, params, mode, resolution=grid_resolution)
    best = int(np.argmin(t_total))
    return float(grid[best]), TimingBreakdown(float(t_detect[best]), float(t_recruit[best]),
                                              float(t_expand[best]))


def sweep(M_list, a_list, params: ModelParams, mode: str = "spatial",
          arch: ArchitectureSpec = ArchitectureSpec(),
          ) -> list[tuple[float, float, TimingBreakdown]]:
    """Evaluate total response time over the (M, a) product grid.

    Returns one row per pair in deterministic order, M-major then a-minor;
    each mass is one uncached pass over a_list, equal bit for bit to the
    scalar path (`arch`'s own exponent is ignored), or the scalar path's error.
    """
    if len(M_list) == 0 or len(a_list) == 0:  # lists or arrays
        raise ValueError("M_list and a_list must be non-empty")
    grid = np.array(a_list, dtype=float)
    out_of_range = np.flatnonzero(~((grid >= 0.0) & (grid <= 1.0)))
    if out_of_range.size:
        arch.with_exponent(a_list[out_of_range[0]])  # raises the spec's range error
    rows = []
    for M in M_list:
        _, t_detect, t_recruit, t_expand, _ = _grid_pass(M, arch, params, mode, grid)
        rows.extend((float(M), float(a), TimingBreakdown(*phases)) for a, *phases in
                    zip(a_list, t_detect.tolist(), t_recruit.tolist(), t_expand.tolist()))
    return rows
