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
import threading
from dataclasses import dataclass, replace
from itertools import repeat

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
    "antibody_requirement",
    "hub_count",
    "hub_size",
    "dr_extent",
    "detection_time",
    "local_cognate_pool",
    "recruitment_demand",
    "recruitment_time",
    "activated_pool",
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

    def with_exponent(self, a: float) -> "ArchitectureSpec":
        return replace(self, exponent=a)


def _calibrated_antibody_coefficient(plasma_yield, bcrit_coefficient, doubling_time):
    # Output target per unit mass such that expanding from the critical pool
    # B_crit = bcrit * M always takes BASELINE_RESPONSE_TIME, whatever M.
    try:
        growth = 2.0 ** (BASELINE_RESPONSE_TIME / doubling_time)
    except OverflowError:
        raise ValueError(f"doubling_time is too short to calibrate antibody_coefficient: "
                         f"2**({BASELINE_RESPONSE_TIME:g}/doubling_time) overflows, "
                         f"got {doubling_time}") from None
    return plasma_yield * bcrit_coefficient * growth


@dataclass(frozen=True)
class ModelParams:
    """Rate constants of the detection/recruitment/expansion model.

    cognate_frequency:        fraction of cells specific to one target (1e-6)
    bcrit_coefficient:        required activated responders per unit mass
    antibody_coefficient:     output units required per unit mass; None means
                              calibrated so expansion from the critical pool
                              takes BASELINE_RESPONSE_TIME at every M
    plasma_yield:             output units produced per activated responder
    doubling_time:            responder population doubling period
    detector_speed:           detector travel speed
    contact_latency:          time per peer hub contacted during recruitment
                              (0 = free channel, math.inf = recruitment off)
    contention_coefficient:   time per detector sharing a hub (contention mode,
                              detector density folded in)
    body_volume_coefficient:  domain volume per unit mass
    recruitment_composition:  "serial" contacts one peer after another,
                              "parallel" fans out as a doubling tree
    """

    cognate_frequency: float = 1.0e-6
    bcrit_coefficient: float = 1.0
    antibody_coefficient: float | None = None
    plasma_yield: float = 1.0
    doubling_time: float = 1.0
    detector_speed: float = 1.0
    contact_latency: float = 0.2
    contention_coefficient: float = 0.1
    body_volume_coefficient: float = 1.0
    recruitment_composition: str = "serial"

    def __post_init__(self):
        for name in (
            "cognate_frequency",
            "bcrit_coefficient",
            "plasma_yield",
            "doubling_time",
            "detector_speed",
            "body_volume_coefficient",
        ):
            value = getattr(self, name)
            if not value > 0.0:
                raise ValueError(f"{name} must be > 0, got {value}")
        if self.antibody_coefficient is None:
            object.__setattr__(
                self,
                "antibody_coefficient",
                _calibrated_antibody_coefficient(
                    self.plasma_yield, self.bcrit_coefficient, self.doubling_time
                ),
            )
        # also a calibrated coefficient, which underflows to 0 on tiny inputs
        if not self.antibody_coefficient > 0.0:
            raise ValueError(f"antibody_coefficient must be > 0, got {self.antibody_coefficient}")
        for name in ("contact_latency", "contention_coefficient"):
            value = getattr(self, name)
            if not value >= 0.0:
                raise ValueError(f"{name} must be >= 0, got {value}")
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
    t_total: float = None  # type: ignore[assignment]

    def __post_init__(self):
        for name in ("t_detect", "t_recruit", "t_expand"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        total = self.t_detect + self.t_recruit + self.t_expand
        if self.t_total is None:
            object.__setattr__(self, "t_total", total)
        elif self.t_total != total:
            raise ValueError("t_total must equal t_detect + t_recruit + t_expand")


def _require_positive_mass(M):
    if not 0.0 < M < math.inf:
        raise ValueError(f"mass ratio M must be finite and > 0, got {M}")


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
            f"system-wide cognate pool {total_per_mass:g} per unit mass is below "
            f"the required {params.bcrit_coefficient:g} responders per unit mass"
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

def antibody_requirement(M: float, params: ModelParams) -> float:
    """Output units required at mass M: antibody_coefficient * M.

    A system 25000x the baseline needs 25000x the absolute output to hold the
    same output concentration in a volume proportional to M.
    """
    _require_positive_mass(M)
    return params.antibody_coefficient * M


def hub_count(M: float, arch: ArchitectureSpec) -> tuple[float, int]:
    """Hub count at mass M, as (continuous, rounded) pair.

    Analytic laws use the continuous value n0 * M^a; the simulator builds
    the rounded world (never fewer than one hub).
    """
    _require_positive_mass(M)
    continuous = arch.base_hub_count * M ** arch.exponent
    if not math.isfinite(continuous):
        raise ValueError(f"hub count n0*M^a = {continuous} is not finite "
                         f"(n0={arch.base_hub_count}, M={M}, a={arch.exponent})")
    return continuous, max(1, round(float(continuous)))


def hub_size(M: float, arch: ArchitectureSpec) -> float:
    """Hub size in cell units at mass M: s0 * M^(1-a)."""
    _require_positive_mass(M)
    return arch.base_hub_size * M ** (1.0 - arch.exponent)


def dr_extent(M: float, arch: ArchitectureSpec, params: ModelParams) -> float:
    """Linear extent of one draining region.

    The domain is a d-cube of volume c_v * M split evenly over the continuous
    hub count, so each region has volume c_v * M / N(M).
    """
    continuous, _ = hub_count(M, arch)
    volume = params.body_volume_coefficient * M / continuous
    return volume ** (1.0 / arch.dimension)


def detection_time(M: float, arch: ArchitectureSpec, params: ModelParams,
                   mode: str = "spatial") -> float:
    """Expected time for the first detector report to reach its hub.

    spatial mode:    travel time over the draining region, mu_d * extent / v,
                     with mu_d the unit-cube mean center distance
    contention mode: queueing delay on the detector-to-hub channel, rho times
                     the detector population sharing one hub
    """
    _require_positive_mass(M)
    _require_mode(mode)
    if mode == "spatial":
        mu = mean_center_distance(arch.dimension)
        return mu * dr_extent(M, arch, params) / params.detector_speed
    continuous, _ = hub_count(M, arch)
    return params.contention_coefficient * M / continuous


def local_cognate_pool(M: float, arch: ArchitectureSpec, params: ModelParams) -> float:
    """Cognate responders resident in a single hub: f * S(M)."""
    return params.cognate_frequency * hub_size(M, arch)


def recruitment_demand(M: float, arch: ArchitectureSpec, params: ModelParams) -> int:
    """Number of peer hubs the infected hub must contact to cover the
    critical responder requirement B_crit = bcrit * M.

    Each contacted peer contributes its own cognate pool f * S(M); the count
    is the ceiling of the deficit over that contribution, and can never
    exceed the rounded number of peers that exist. A local pool that
    underflows to 0, or a ceiling too large to be finite, is refused.
    """
    _require_positive_mass(M)
    check_feasible(arch, params)
    local = local_cognate_pool(M, arch, params)
    deficit = params.bcrit_coefficient * M - local
    if deficit <= 0.0:
        return 0
    if not local > 0.0:
        raise ValueError(f"local cognate pool f*S(M) underflows to {local} at M={M}, "
                         f"a={arch.exponent}; no peer hub can cover the deficit")
    peers = deficit / local
    if not math.isfinite(peers):
        raise ValueError(f"recruitment demand deficit/local = {peers} is not finite "
                         f"at M={M}, a={arch.exponent}")
    _, rounded = hub_count(M, arch)
    return min(math.ceil(peers), max(0, rounded - 1))


def recruitment_time(M: float, arch: ArchitectureSpec, params: ModelParams) -> float:
    """Time spent contacting peer hubs.

    Serial composition charges contact_latency per peer (the infected hub's
    outbound channel is the bottleneck); parallel composition fans out as a
    doubling tree, lambda * log2(k + 1).
    """
    if not params.recruitment_enabled:
        return 0.0
    k = recruitment_demand(M, arch, params)
    if params.recruitment_composition == "parallel":
        return params.contact_latency * math.log2(k + 1)
    return params.contact_latency * k


def activated_pool(M: float, arch: ArchitectureSpec, params: ModelParams) -> float:
    """Responders activated before expansion begins.

    Activation stops once the critical requirement bcrit * M is covered (the
    last contacted peer is used only partially), so the pool is exactly
    B_crit whenever local plus recruited cells can reach it. With recruitment
    disabled the hub expands from whatever its local pool holds.
    """
    _require_positive_mass(M)
    local = local_cognate_pool(M, arch, params)
    needed = params.bcrit_coefficient * M
    if not params.recruitment_enabled:
        return min(local, needed)
    k = recruitment_demand(M, arch, params)
    return min(needed, local + k * local)


def expansion_time(B_initial: float, B_target: float, doubling_time: float) -> float:
    """Time for a population doubling every `doubling_time` to grow from
    B_initial to B_target; zero when the target is already met."""
    if not B_initial > 0.0:
        raise ValueError(f"B_initial must be > 0, got {B_initial}")
    if not B_target > 0.0:
        raise ValueError(f"B_target must be > 0, got {B_target}")
    return max(0.0, doubling_time * math.log2(B_target / B_initial))


def total_response_time(M: float, arch: ArchitectureSpec, params: ModelParams,
                        mode: str = "spatial") -> TimingBreakdown:
    """Full three-phase latency at mass M for one architecture."""
    _require_positive_mass(M)
    check_feasible(arch, params)
    t_detect = detection_time(M, arch, params, mode)
    t_recruit = recruitment_time(M, arch, params)
    pool = activated_pool(M, arch, params)
    target = antibody_requirement(M, params) / params.plasma_yield
    t_expand = expansion_time(pool, target, params.doubling_time)
    return TimingBreakdown(t_detect, t_recruit, t_expand)


# ---------------------------------------------------------------------------
# optimizer and sweeps
# ---------------------------------------------------------------------------

def exponent_grid(resolution: float) -> np.ndarray:
    """Exponent grid {0, resolution, 2*resolution, ..., 1}, as a float64 array.

    When 1/resolution is integral the points are computed as i/n so both
    endpoints are exact; otherwise the last step is clamped and 1.0 appended.
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
    grid = []
    a = 0.0
    i = 0
    while a < 1.0:
        grid.append(a)
        i += 1
        a = min(i * resolution, 1.0)
    grid.append(1.0)
    return np.array(grid)


# Elements the libm memo retains, about 128 KB of float64: the distinct
# arrays of a few optimizer calls at grid step 1e-3 (1001 points each).
_MEMO_BUDGET = 2 ** 14


class _ElementMemo:
    """`func` over its operands element by element through libm, memoised on
    the exact input bits.

    Each operand is a float64 array or a scalar repeated alongside it. The
    key is the function and every operand's shape and bytes, so a hit is the
    same libm call on the same bits (0.0 and -0.0 are different keys), and
    every result is read-only. Results are retained oldest-first up to
    `budget` elements; a larger call is evaluated but neither keyed nor
    retained, and a call that raises retains nothing.
    """

    def __init__(self, budget: int):
        self.budget = budget
        self.retained = 0
        self._results = {}
        self._lock = threading.Lock()

    def clear(self) -> None:
        with self._lock:
            self._results.clear()
            self.retained = 0

    def __call__(self, func, *operands) -> np.ndarray:
        operands = [np.asarray(x, dtype=float) for x in operands]
        size = max(x.size for x in operands)
        key = None
        if size <= self.budget:
            key = (func, *((x.shape, x.tobytes()) for x in operands))
            with self._lock:
                result = self._results.get(key)
            if result is not None:
                return result
        result = np.fromiter(map(func, *(x.tolist() if x.ndim else repeat(x.item())
                                         for x in operands)), dtype=float)
        result.flags.writeable = False
        if key is not None:
            with self._lock:
                if key not in self._results:
                    while self.retained + size > self.budget:
                        self.retained -= self._results.pop(next(iter(self._results))).size
                    self._results[key] = result
                    self.retained += size
        return result


_per_element = _ElementMemo(_MEMO_BUDGET)


def _grid_phases(M: float, arch: ArchitectureSpec, params: ModelParams, mode: str,
                 exponents) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """`total_response_time` at every exponent in one pass.

    Returns (t_detect, t_recruit, t_expand, t_total) as arrays, equal bit for
    bit to the scalar path at each exponent (`arch`'s own exponent is
    ignored), or raises the scalar path's error at the first exponent it
    refuses. The IEEE-exact operations (+ - * /, ceil, rint, minimum,
    where) run on whole arrays in the scalar path's order; every pow and
    log2 runs per element through libm, as Python float `**` and
    math.log2, because numpy's SIMD pow and log2 can differ in the last bit;
    `_per_element` memoises those on their exact input bits, so calls that
    share (M, grid) or an expansion ratio evaluate them once.
    Python's min/max keep their first argument unless the second compares
    strictly better, which `where` reproduces.
    """
    a = np.array(exponents, dtype=float)
    out_of_range = np.flatnonzero(~((a >= 0.0) & (a <= 1.0)))
    if out_of_range.size:
        arch.with_exponent(exponents[out_of_range[0]])  # raises the spec's range error
    _require_positive_mass(M)
    check_feasible(arch, params)
    _require_mode(mode)

    # a point the scalar path refuses is refused below with its message,
    # not reported as a numpy warning on the way there
    with np.errstate(all="ignore"):
        continuous = arch.base_hub_count * _per_element(pow, M, a)
        ok = np.isfinite(continuous)  # False wherever the scalar path may refuse
        local = params.cognate_frequency * (
            arch.base_hub_size * _per_element(pow, M, 1.0 - a))
        if mode == "spatial":
            volume = params.body_volume_coefficient * M / continuous
            extent = _per_element(pow, volume, 1.0 / arch.dimension)
            t_detect = mean_center_distance(arch.dimension) * extent / params.detector_speed
        else:
            t_detect = params.contention_coefficient * M / continuous

        needed = params.bcrit_coefficient * M
        if params.recruitment_enabled:
            deficit = needed - local
            peers = np.ceil(deficit / local)
            ok &= np.isfinite(peers)
            rounded = np.maximum(1.0, np.rint(continuous))
            k = np.where(deficit <= 0.0, 0.0, np.minimum(peers, rounded - 1.0))
            if params.recruitment_composition == "parallel":
                # k + 1 as min(peers + 1, rounded): one rounding, as the
                # scalar path's exact integer k + 1 gets, also beyond 2**53
                k_plus_1 = np.where(deficit <= 0.0, 1.0, np.minimum(peers + 1.0, rounded))
                t_recruit = params.contact_latency * _per_element(math.log2, k_plus_1)
            else:
                t_recruit = params.contact_latency * k
            recruited = local + k * local
            pool = np.where(recruited < needed, recruited, needed)
        else:
            t_recruit = np.zeros_like(a)
            pool = np.where(needed < local, needed, local)

        target = params.antibody_coefficient * M / params.plasma_yield
        ok &= (pool > 0.0) & (target > 0.0)
        for i in np.flatnonzero(~ok):
            # the scalar path raises its own error at the first point it refuses
            total_response_time(M, arch.with_exponent(exponents[i]), params, mode)
        t_expand = params.doubling_time * _per_element(math.log2, target / pool)
        t_expand = np.where(t_expand > 0.0, t_expand, 0.0)
        t_total = t_detect + t_recruit + t_expand
    return t_detect, t_recruit, t_expand, t_total


def optimal_exponent(M: float, params: ModelParams, mode: str = "spatial",
                     grid_resolution: float = 0.01,
                     arch: ArchitectureSpec | None = None,
                     ) -> tuple[float, TimingBreakdown]:
    """Grid search for the exponent minimizing total response time at mass M.

    Evaluates the whole exponent grid in one pass and keeps the first
    minimum (`argmin`), so ties resolve toward the smaller exponent. `arch`
    supplies the base hub count/size and dimension (its own exponent is
    ignored).
    """
    if arch is None:
        arch = ArchitectureSpec()
    grid = exponent_grid(grid_resolution)
    t_detect, t_recruit, t_expand, t_total = _grid_phases(M, arch, params, mode, grid)
    best = int(np.argmin(t_total))
    return float(grid[best]), TimingBreakdown(float(t_detect[best]), float(t_recruit[best]),
                                              float(t_expand[best]))


def sweep(M_list, a_list, params: ModelParams, mode: str = "spatial",
          arch: ArchitectureSpec | None = None,
          ) -> list[tuple[float, float, TimingBreakdown]]:
    """Evaluate total response time over the (M, a) product grid.

    Returns one row per pair in deterministic order, M-major then a-minor;
    each mass is one pass over a_list.
    """
    if not M_list or not a_list:
        raise ValueError("M_list and a_list must be non-empty")
    if arch is None:
        arch = ArchitectureSpec()
    rows = []
    for M in M_list:
        t_detect, t_recruit, t_expand, _ = _grid_phases(M, arch, params, mode, a_list)
        rows.extend((M, a, TimingBreakdown(*phases)) for a, *phases in
                    zip(a_list, t_detect.tolist(), t_recruit.tolist(), t_expand.tolist()))
    return rows
