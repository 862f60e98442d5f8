"""Discrete-event spatial simulation of one detection-network architecture.

The domain is a d-cube tiled into equal draining regions, one hub per region
at its center. Detector agents spawn at an infection site, carry the report
to their draining hub, the infected hub contacts peer hubs for responders,
and the activated pool doubles on a fixed tick until the output target is
met. Every run is fully determined by (configuration, seed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import chain, groupby, repeat
from operator import index
from typing import NamedTuple

import numpy as np

from detnet.scaling import (
    ArchitectureSpec,
    ModelParams,
    TimingBreakdown,
    check_feasible,
    expansion_time,
    hub_count,
    output_target,
    _positive_mass,
    _recruitment,
)

__all__ = ["EventRecord", "EventLog", "SimWorld", "SimulationInvariantError", "WalkLimitError",
           "MAX_HUBS", "build_world", "spawn_infection", "run_detection", "run_recruitment",
           "run_expansion", "simulate"]

EVENT_TIME_DIGITS = 9
_EVENT_LINE = f"%.{EVENT_TIME_DIGITS}f\t%s\t%d\t%d"

# Largest world build_world accepts: the (n, d) float64 centers and the (n, d)
# int64 lattice, about 96 MB at d = 3. spawn_infection holds its detector
# count k to the same bound, which bounds its 2k spawn and arrival events.
MAX_HUBS = 2_000_000

# Random-walk steps are drawn in blocks growing from the first size to the cap;
# a walk not absorbed within the step limit raises WalkLimitError.
_WALK_BLOCK = 64
_WALK_BLOCK_CAP = 1024
_WALK_MAX_STEPS = 1_000_000


class SimulationInvariantError(RuntimeError):
    """An internal simulation invariant was violated (a bug, not bad input)."""


class WalkLimitError(ValueError):
    """A random walk was not absorbed within the step limit (a configuration
    limit: the step is too short for the domain)."""


class EventRecord(NamedTuple):
    time: float
    kind: str
    subject: int
    hub: int

    def to_line(self) -> str:
        return _EVENT_LINE % self


class EventLog:
    """Events as columns (time, subject) plus maximal runs (kind, hub, count) of one kind
    and hub, records built only on iteration; a world's log is in scheduling order, a
    drained one in (time, seq) order."""

    def __init__(self, records=()):
        self._times, self._subjects, self._runs = [], [], []
        for time, kind, subject, hub in records:
            self._append((time,), kind, (subject,), hub)

    def _append(self, times, kind: str, subjects, hub: int) -> None:
        self._times.extend(times)
        self._subjects.extend(subjects)
        runs, n = self._runs, len(times)
        if runs and runs[-1][:2] == (kind, hub):  # runs stay maximal
            n += runs.pop()[2]
        if n:
            runs.append((kind, hub, n))

    def __len__(self):
        return len(self._times)

    def __iter__(self):
        kinds = chain.from_iterable(repeat(kind, n) for kind, _, n in self._runs)
        hubs = chain.from_iterable(repeat(hub, n) for _, hub, n in self._runs)
        return map(EventRecord, self._times, kinds, self._subjects, hubs)

    def __eq__(self, other):  # equal (times, subjects, runs): maximal runs make it equal records
        return isinstance(other, EventLog) and vars(self) == vars(other)

    def to_text(self) -> str:
        """Serialize as one `time<TAB>kind<TAB>subject<TAB>hub` line per event: each
        run's lines share one format, and one `%` fills every (time, subject)."""
        fields = [None] * (2 * len(self))
        fields[::2], fields[1::2] = self._times, self._subjects
        return "".join([_run_line(kind, hub) * n for kind, hub, n in self._runs]) % tuple(fields)


@lru_cache(maxsize=1024)  # a world has about four runs, and its trials repeat them
def _run_line(kind: str, hub: int) -> str:
    """`_EVENT_LINE` with `kind` and `hub` written in: a format of (time, subject)."""
    time, kind_field, subject, hub_field = _EVENT_LINE.split("\t")
    kind = (kind_field % kind).replace("%", "%%")  # %d writes no % for the hub
    return f"{time}\t{kind}\t{subject}\t{hub_field % hub}\n"


class _Layout(NamedTuple):
    """The tiling of one world: a pure function of (M, arch), built
    once and shared, with read-only arrays, by every world of that key."""
    extent: float
    grid_shape: tuple[int, ...]
    # one row per hub, in flat region order: the hub at its region's center
    # and the region's int64 grid index
    centers: np.ndarray
    cells: np.ndarray
    stride: np.ndarray  # n // s_k: one cell along axis k in units of extent / n
    widths: np.ndarray  # region width along each axis

    def region_of(self, point: np.ndarray) -> int:
        """Flat region index containing `point`; points on a shared boundary
        resolve to the lowest index."""
        flat = 0
        for axis, cells in enumerate(self.grid_shape):
            x = point[axis]
            if not 0.0 <= x <= self.extent:
                raise SimulationInvariantError(f"point {point} lies outside the domain "
                                               f"[0, {self.extent}]^d")
            idx = min(max(math.ceil(x / self.widths[axis]) - 1, 0), cells - 1)
            flat = flat * cells + idx
        return flat

    def nearest_peers(self, hub: int) -> np.ndarray:
        """Every other hub, nearest center first, equal distances in index order.
        The key is the squared center distance in units of (extent / n)^2: whole-cell
        offsets times n // s_k are integers, so equal distances get equal keys, which
        the stable sort keeps in index order; a key is < 3 n^2 <= 1.2e13, exact in
        int64, and `hub`'s own key is the only zero."""
        scaled = (self.cells - self.cells[hub]) * self.stride
        return np.argsort((scaled * scaled).sum(axis=1), kind="stable")[1:]


@dataclass
class SimWorld:
    mass: float
    arch: ArchitectureSpec
    params: ModelParams
    layout: _Layout
    # the infection: its (d,) site, the hub whose region holds it, and the
    # number of detectors spawned there (0 until spawn_infection)
    site: np.ndarray | None = None
    site_hub: int | None = None
    detectors: int = 0
    clock: float = 0.0
    rng: np.random.Generator = None  # type: ignore[assignment]
    completed: str = "build_world"  # the last of _PHASES this world has run
    pool: float | None = None
    # every event in scheduling order: an event's index is its sequence number
    _events: EventLog = field(default_factory=EventLog)

    def schedule(self, times: list, kind: str, subjects, hub: int) -> None:
        """Append one `kind` event at `hub` per entry of `times` and `subjects`, in order."""
        self._events._append(times, kind, subjects, hub)

    def drain(self, since_seq: int = 0) -> EventLog:
        """Events scheduled at or after `since_seq`, ordered by (time, seq)."""
        events, log = self._events, EventLog()
        if not 0 <= since_seq <= len(events._times):
            raise ValueError(f"since_seq must be in [0, {len(events)}], got {since_seq}")
        runs, skip = events._runs[:], since_seq
        while skip:  # drop the runs before since_seq, trim the one it falls in
            kind, hub, n = runs[0]
            runs[:1] = [(kind, hub, n - skip)] if skip < n else []
            skip = max(skip - n, 0)
        times, subjects = events._times[since_seq:], events._subjects[since_seq:]
        if times != (ordered := sorted(times)):  # else the stable sort below is the identity
            order = sorted(range(len(times)), key=times.__getitem__)  # ordered's stable order
            keys = []  # each event's (kind, hub)
            for kind, hub, n in runs:
                keys += [(kind, hub)] * n
            runs = [(kind, hub, len(list(run)))
                    for (kind, hub), run in groupby(map(keys.__getitem__, order))]
            times, subjects = ordered, [subjects[i] for i in order]
        log._times, log._subjects, log._runs = times, subjects, runs
        return log


def _divisors(n: int) -> list[int]:
    small = [i for i in range(1, math.isqrt(n) + 1) if n % i == 0]
    return small + [n // i for i in reversed(small) if i * i != n]


def _factorizations(n: int, dimension: int) -> list[tuple[int, ...]]:
    if dimension == 1:
        return [(n,)]
    return [(f, *rest) for f in _divisors(n) for rest in _factorizations(n // f, dimension - 1)]


def _grid_shape(n: int, dimension: int) -> tuple[int, ...]:
    """Factor n into `dimension` axis counts minimizing the cell aspect ratio
    (max factor over min factor); ties resolve to the lexicographically
    smallest descending tuple for determinism."""
    shapes = {tuple(sorted(f, reverse=True)) for f in _factorizations(n, dimension)}
    return min(shapes, key=lambda shape: (shape[0] / shape[-1], shape))


@lru_cache(maxsize=1)  # trials of one world run back to back; holds one world
def _layout(M: float, arch: ArchitectureSpec) -> _Layout:
    _, rounded = hub_count(M, arch)
    d = arch.dimension
    if rounded > MAX_HUBS:  # raised before allocating, and never cached
        raise ValueError(
            f"world of {rounded} hubs exceeds the simulator's limit of {MAX_HUBS} hubs "
            f"(its hub arrays would need about {2 * 8 * d * rounded / 1e6:.0f} MB)"
        )
    extent = M ** (1.0 / d)  # a float, as build_world passes M through _positive_mass
    shape = _grid_shape(rounded, d)
    widths = extent / np.asarray(shape, dtype=float)
    cells = np.indices(shape, dtype=np.int64).reshape(d, -1).T  # row i: grid index of hub i
    arrays = (cells * widths + widths / 2.0, cells, rounded // np.asarray(shape), widths)
    for array in arrays:
        array.flags.writeable = False
    return _Layout(extent, shape, *arrays)


def build_world(M: float, arch: ArchitectureSpec, params: ModelParams, seed: int) -> SimWorld:
    """Tile a d-cube of volume M into the rounded hub count of equal regions
    and place one hub at each region center. The tiling is shared, read-only,
    with the last world built for the same (M, arch)."""
    M = _positive_mass(M)
    check_feasible(arch, params)
    return SimWorld(
        mass=M,
        arch=arch,
        params=params,
        layout=_layout(M, arch),
        rng=np.random.default_rng(seed),
    )


# the phases, by the function that runs each, in the one order a world runs them
_PHASES = ("build_world", "spawn_infection", "run_detection", "run_recruitment", "run_expansion")


def _start(world: SimWorld, phase: str) -> None:
    """Refuse `phase` unless the phase before it is the last one the world
    completed: each phase runs once, in order."""
    done, before = _PHASES.index(world.completed), _PHASES.index(phase) - 1
    if done < before:
        raise SimulationInvariantError(f"{phase} called before {_PHASES[before]}")
    if done > before:
        when = "twice on one world" if world.completed == phase else f"after {world.completed}"
        raise SimulationInvariantError(f"{phase} called {when}")


def spawn_infection(world: SimWorld, site=None, n_detectors: int = 1) -> SimWorld:
    """Place `n_detectors` loaded detectors at `site` (uniform random over the
    domain when None); all report to the hub whose region contains the site.
    A world is infected once, with at most MAX_HUBS detectors."""
    _start(world, "spawn_infection")
    try:  # an int or a numpy integer, checked before the world changes
        if not 1 <= index(n_detectors) <= MAX_HUBS:
            raise ValueError(f"n_detectors must be in [1, {MAX_HUBS}], got {n_detectors}")
    except TypeError:
        raise ValueError(f"n_detectors must be an integer, got {n_detectors!r}") from None
    extent = world.layout.extent
    if site is None:
        site = world.rng.random(world.arch.dimension) * extent
    site = np.array(site, dtype=float)  # the world's own copy
    if site.shape != (world.arch.dimension,):
        raise ValueError(f"site must have {world.arch.dimension} coordinates, got {site.shape}")
    if not all(0.0 <= x <= extent for x in site.tolist()):  # NaN fails too
        raise ValueError(f"site {site} outside the domain [0, {extent}]^d")
    world.site, world.site_hub, world.detectors = site, world.layout.region_of(site), n_detectors
    world.schedule([world.clock] * n_detectors, "spawn", range(n_detectors), world.site_hub)
    world.completed = "spawn_infection"
    return world


def _norms(x: np.ndarray) -> np.ndarray | float:
    """Lengths along the last axis of an offset or rows, bit for bit as np.linalg.norm,
    but |x| in 1-D, where sqrt(x * x) underflows or overflows."""
    if x.shape[-1] == 1:
        return np.abs(x[..., 0])
    if x.ndim == 1:
        return math.sqrt(x.dot(x))
    return np.sqrt(reduce(np.add, (x * x).T))  # column by column: (a + b) + c, as add.reduce


def _fold(x: np.ndarray, extent: float) -> np.ndarray:
    """Fold free coordinates into [0, extent], in place, by the method of images:
    a free path folded this way is the path reflected off the domain walls. Its
    remainder is np.mod's (fmod, plus the period where below 0) up to a zero's sign."""
    period = 2.0 * extent
    np.fmod(x, period, out=x)
    np.add(x, period, out=x, where=x < 0.0)
    return np.subtract(extent, np.abs(np.subtract(x, extent, out=x), out=x), out=x)


def _walk_arrival_steps(world: SimWorld, start: np.ndarray, hub_pos: np.ndarray,
                        step_length: float) -> int:
    """Steps until a fixed-length random walk from beyond the absorption radius (one
    step length) around the hub enters it, reflecting off the domain walls. Steps are
    drawn in blocks; each block's free path is summed, folded and tested in place."""
    rng, d, extent = world.rng, world.arch.dimension, world.layout.extent
    free = start.copy()  # free (unfolded) position, kept within [0, 2 * extent)
    taken, block = 0, _WALK_BLOCK
    while taken < _WALK_MAX_STEPS - 1:
        n = min(block, _WALK_MAX_STEPS - 1 - taken)
        if d == 1:
            path = np.where(rng.random((n, 1)) < 0.5, step_length, -step_length)
        else:
            path = rng.normal(size=(n, d))
            norms = _norms(path)
            while np.count_nonzero(norms) < n:  # redraw directionless (zero) vectors
                zero = norms == 0.0
                path[zero] = rng.normal(size=(int(zero.sum()), d))
                norms = _norms(path)
            path /= norms[:, None]
            path *= step_length
        np.add(np.add.accumulate(path, out=path), free, out=path)  # free + cumsum
        free = np.mod(path[-1], 2.0 * extent)  # folding has period 2 * extent
        hit = _norms(np.subtract(_fold(path, extent), hub_pos, out=path)) <= step_length
        first = int(hit.argmax())
        if hit[first]:
            return taken + first + 1
        taken += n
        block = min(2 * block, _WALK_BLOCK_CAP)
    raise WalkLimitError(
        f"random walk with step length {step_length:g} was not absorbed within "
        f"{_WALK_MAX_STEPS} steps in a domain of extent {extent:g}; use a longer walk step"
    )


# Each phase's body schedules its events and returns its duration; the public
# phase drains what it scheduled, and simulate drains once, at the end.

def _detect(world: SimWorld, movement: str, step_length: float) -> float:
    _start(world, "run_detection")
    if movement not in ("straight", "random_walk"):
        raise ValueError(f"unknown movement {movement!r}; expected 'straight' or 'random_walk'")
    if movement == "random_walk" and not 0.0 < step_length < math.inf:
        raise ValueError(f"step_length must be finite and > 0, got {step_length}")

    start_time = world.clock
    v, k = world.params.detector_speed, world.detectors
    hub_pos = world.layout.centers[world.site_hub]
    distance = float(_norms(world.site - hub_pos))
    if movement == "straight":
        arrivals = [start_time + distance / v] * k
    elif distance <= step_length:  # every walker starts within reach: no steps
        arrivals = [start_time] * k
    else:  # one walk per detector, each drawing from the RNG in turn
        arrivals = [start_time + _walk_arrival_steps(world, world.site, hub_pos, step_length)
                    * step_length / v for _ in range(k)]
    world.schedule(arrivals, "arrival", range(k), world.site_hub)
    world.completed = "run_detection"
    world.clock = min(arrivals)
    return world.clock - start_time


def run_detection(world: SimWorld, movement: str = "straight",
                  step_length: float = 0.1) -> tuple[float, EventLog]:
    """Move every spawned detector from the site to the site's hub; detection
    completes at the first arrival. Straight mode travels the exact distance
    at detector speed; random-walk mode takes fixed-length steps in uniform
    directions."""
    start_seq = len(world._events)
    return _detect(world, movement, step_length), world.drain(start_seq)


def _recruit(world: SimWorld) -> float:
    _start(world, "run_recruitment")
    params = world.params
    start_time = world.clock

    k, world.pool = _recruitment(world.mass, world.arch, params)
    world.completed = "run_recruitment"
    if k == 0:
        return 0.0

    peers = world.layout.nearest_peers(world.site_hub)[:k]
    rank = np.arange(1, len(peers) + 1)
    if params.recruitment_composition == "parallel":
        # doubling-tree wave of the rank-th contact: ceil(log2(rank + 1)),
        # which equals the bit length of rank, the exponent frexp returns
        offset = params.contact_latency * np.frexp(rank)[1]
    else:
        offset = params.contact_latency * rank
    world.schedule((start_time + offset).tolist(), "contact-complete", peers.tolist(),
                   world.site_hub)
    # durations are accumulated relative to the phase start, never as a
    # difference of absolute clocks, so they match the analytic values
    # bit for bit
    duration = float(offset.max())

    world.clock = start_time + duration
    return duration


def run_recruitment(world: SimWorld) -> tuple[float, EventLog]:
    """Contact peer hubs in order of increasing center distance (ties by
    index) until the critical responder demand is covered; the empirical
    contact count is the shared analytic demand formula."""
    start_seq = len(world._events)
    return _recruit(world), world.drain(start_seq)


def _expand(world: SimWorld) -> float:
    _start(world, "run_expansion")
    params = world.params
    start_time = world.clock
    target = output_target(world.mass, params)  # refuses a target that overflows
    if not (world.pool > 0.0 and target > 0.0):  # the law's refusal of an empty pool or target
        expansion_time(world.pool, target, params.doubling_time)
    population = world.pool
    ticks = 0
    while population < target:
        ticks += 1
        population *= 2.0
        if ticks > 10_000:
            raise SimulationInvariantError("expansion did not reach the target in 10000 ticks")
    world.schedule([start_time + tick * params.doubling_time for tick in range(1, ticks + 1)],
                   "doubling-tick", range(1, ticks + 1), world.site_hub)
    world.completed = "run_expansion"
    duration = ticks * params.doubling_time
    world.clock = start_time + duration
    return duration


def run_expansion(world: SimWorld) -> tuple[float, EventLog]:
    """Double the activated pool once per doubling period until its output
    meets the target; the tick count is the ceiling of the analytic time."""
    start_seq = len(world._events)
    return _expand(world), world.drain(start_seq)


def simulate(M: float, arch: ArchitectureSpec, params: ModelParams, seed: int,
             site=None, n_detectors: int = 1, movement: str = "straight",
             step_length: float = 0.1) -> tuple[TimingBreakdown, EventLog]:
    """Run the three phases end to end and return the empirical breakdown
    plus the full time-ordered event log."""
    world = build_world(M, arch, params, seed)
    spawn_infection(world, site, n_detectors)
    breakdown = TimingBreakdown(_detect(world, movement, step_length), _recruit(world),
                                _expand(world))
    return breakdown, world.drain(0)
