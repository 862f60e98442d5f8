"""Tests for the discrete-event world: tiling, phases, determinism."""

import dataclasses
import functools
import itertools
import math
import re
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from detnet.scaling import (
    ArchitectureSpec,
    InfeasibleParametersError,
    ModelParams,
    TimingBreakdown,
    detection_time,
    expansion_time,
    hub_count,
    mean_center_distance,
    total_response_time,
    _recruitment,
)
from detnet.sim import (
    MAX_HUBS,
    EventLog,
    EventRecord,
    SimulationInvariantError,
    SimWorld,
    WalkLimitError,
    _fold,
    _layout,
    _norms,
    build_world,
    run_detection,
    run_expansion,
    run_recruitment,
    simulate,
    spawn_infection,
)


def arch(a=0.5, n0=1.0, s0=1.0e6, d=2):
    return ArchitectureSpec(exponent=a, base_hub_count=n0, base_hub_size=s0, dimension=d)


def region_boxes(world):
    # (lower, upper) corners of every region, as the layout places its centers
    layout = world.layout
    return layout.cells * layout.widths, (layout.cells + 1.0) * layout.widths


def region_volumes(world):
    return [float(np.prod(upper - lower)) for lower, upper in zip(*region_boxes(world))]


# ---------------------------------------------------------------------------
# world construction
# ---------------------------------------------------------------------------

def test_single_region_world():
    world = build_world(1.0, arch(n0=1.0), ModelParams(), seed=1)
    assert len(world.layout.centers) == 1
    assert np.allclose(world.layout.centers[0], [0.5, 0.5])
    lower, upper = region_boxes(world)
    assert np.allclose(lower[0], [0.0, 0.0]) and np.allclose(upper[0], [1.0, 1.0])


def test_world_matches_rounded_scaling_counts():
    world = build_world(4.0, arch(a=1.0, n0=2.0), ModelParams(), seed=1)
    assert len(world.layout.centers) == 8
    domain_volume = world.layout.extent ** 2
    for volume in region_volumes(world):
        assert volume == pytest.approx(domain_volume / 8.0, rel=1e-9)
    assert domain_volume == pytest.approx(4.0, rel=1e-12)


@pytest.mark.parametrize("M,a,d", [(16.0, 0.5, 2), (256.0, 0.5, 2), (27.0, 1.0, 3),
                                   (100.0, 1.0, 1), (10.0, 0.7, 2), (60.0, 1.0, 3)])
def test_regions_tile_domain(M, a, d):
    world = build_world(M, arch(a=a, d=d), ModelParams(), seed=3)
    _, rounded = hub_count(M, arch(a=a, d=d))
    assert len(world.layout.centers) == rounded
    volume = world.layout.extent ** d
    total = sum(region_volumes(world))
    assert total == pytest.approx(volume, rel=1e-9)
    boxes = region_boxes(world)
    for i, (center, lower, upper) in enumerate(zip(world.layout.centers, *boxes)):
        assert float(np.prod(upper - lower)) == pytest.approx(volume / rounded, rel=1e-9)
        assert np.all(lower < center) and np.all(center < upper)
        assert world.layout.region_of(center) == i
    # random points land in the region that contains them
    rng = np.random.default_rng(5)
    for _ in range(200):
        point = rng.random(d) * world.layout.extent
        i = world.layout.region_of(point)
        assert np.all(point >= boxes[0][i] - 1e-12) and np.all(point <= boxes[1][i] + 1e-12)


def test_boundary_points_resolve_to_lowest_region_index():
    world = build_world(4.0, arch(a=1.0, n0=1.0), ModelParams(), seed=1)  # 2x2 grid
    mid = world.layout.extent / 2.0
    assert world.layout.region_of(np.array([mid, 0.1])) == 0  # x boundary: lower column
    assert world.layout.region_of(np.array([0.1, mid])) == 0  # y boundary: lower row
    assert world.layout.region_of(np.array([mid, mid])) == 0
    assert world.layout.region_of(np.array([0.0, 0.0])) == 0
    corner = np.array([world.layout.extent, world.layout.extent])
    assert world.layout.region_of(corner) == len(world.layout.centers) - 1


def test_oversized_world_refused():
    assert hub_count(1e6, arch(a=1.0))[1] <= MAX_HUBS
    with pytest.raises(ValueError, match="100000000 hubs"):
        build_world(1e8, arch(a=1.0), ModelParams(), seed=1)


def test_build_world_refuses_the_mass_before_feasibility():
    infeasible = ModelParams(cognate_frequency=1e-7)
    with pytest.raises(InfeasibleParametersError):
        build_world(16.0, ArchitectureSpec(), infeasible, 1)
    for refuse in (lambda: build_world(math.nan, ArchitectureSpec(), infeasible, 1),
                   lambda: total_response_time(math.nan, ArchitectureSpec(), infeasible)):
        with pytest.raises(ValueError, match=r"^mass ratio M must be finite and > 0, got nan$"):
            refuse()


@pytest.mark.parametrize("d", [1, 2, 3])
def test_oversized_world_refusal_prices_the_arrays_a_world_keeps(d):
    small = build_world(16.0, arch(d=d), ModelParams(), seed=1).layout
    per_hub = (small.centers.nbytes + small.cells.nbytes) / len(small.centers)
    n = MAX_HUBS + 1
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^world of {n} hubs exceeds .* limit of "
                                             rf"{MAX_HUBS} hubs \(.* about "
                                             rf"{per_hub * n / 1e6:.0f} MB\)$"):
            build_world(1.0, arch(a=1.0, n0=float(n), d=d), ModelParams(), seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6  # refused before any hub array was allocated


def test_region_of_rejects_outside_points():
    world = build_world(1.0, arch(), ModelParams(), seed=1)
    with pytest.raises(SimulationInvariantError):
        world.layout.region_of(np.array([2.0, 0.5]))


def test_world_geometry_is_read_only():
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    assert world.layout._fields == ("extent", "grid_shape", "centers", "cells", "stride",
                                    "widths")
    for array in (x for x in world.layout if isinstance(x, np.ndarray)):
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0
    for name in world.layout._fields:  # a NamedTuple: no field can be rebound
        with pytest.raises(AttributeError):
            setattr(world.layout, name, np.zeros((4, 2)))
    assert world.layout.centers.tolist() == [[1.0, 1.0], [1.0, 3.0], [3.0, 1.0], [3.0, 3.0]]


def test_world_fields_are_pinned():
    # one infection per world: a site, its hub and a detector count
    assert [f.name for f in dataclasses.fields(SimWorld)] == [
        "mass", "arch", "params", "layout", "site", "site_hub", "detectors", "clock", "rng",
        "completed", "pool", "_events"]


def test_worlds_of_one_layout_share_no_mutable_state():
    first = build_world(16.0, arch(), ModelParams(), seed=1)
    second = build_world(16.0, arch(), ModelParams(), seed=2)
    assert second.layout is first.layout
    spawn_infection(first, n_detectors=2)
    run_detection(first)
    assert (second.site, second.site_hub, second.detectors) == (None, None, 0)
    assert second.completed == "build_world" and second.clock == 0.0
    assert len(second.drain(0)) == 0
    assert first._events is not second._events  # nor any of their columns or runs
    assert all(getattr(first._events, name) is not getattr(second._events, name)
               for name in ("_times", "_subjects", "_runs"))
    assert second.rng is not first.rng
    spawn_infection(second, n_detectors=2)
    assert not np.shares_memory(first.site, second.site)
    # a site given as an array is copied, not kept as the caller's (or the layout's) view
    site = second.layout.centers[0]
    third = spawn_infection(build_world(16.0, arch(), ModelParams(), seed=3), site=site)
    assert not np.shares_memory(third.site, site) and third.site.tolist() == site.tolist()


@pytest.mark.parametrize("spec, params", [
    (arch(a=0.75), ModelParams()),
    (arch(n0=2.0), ModelParams()),
    (arch(s0=2.0e6), ModelParams()),
    (arch(d=3), ModelParams()),
    (arch(d=1), ModelParams()),
])
def test_layout_memo_keys_on_everything_the_tiling_reads(spec, params):
    M = 64.0
    base = build_world(M, arch(), ModelParams(), seed=1)
    world = build_world(M, spec, params, seed=1)  # right after base: a memo hit if keyed wrongly
    rounded = hub_count(M, spec)[1]
    assert world.layout is not base.layout
    assert world.layout.extent == M ** (1.0 / spec.dimension)
    shape = world.layout.grid_shape
    assert len(shape) == spec.dimension and math.prod(shape) == rounded
    for array in (world.layout.centers, world.layout.cells):
        assert array.shape == (rounded, spec.dimension)


def test_refusals_run_on_every_call_and_are_never_cached():
    small = build_world(1.0, arch(), ModelParams(), seed=1)
    for _ in range(2):
        with pytest.raises(ValueError, match="100000000 hubs"):
            build_world(1e8, arch(a=1.0), ModelParams(), seed=1)
        # the cached layout does not spare a world from the feasibility check
        with pytest.raises(InfeasibleParametersError):
            build_world(1.0, arch(), ModelParams(bcrit_coefficient=5.0), seed=1)
    # neither refusal evicted the cached layout
    assert build_world(1.0, arch(), ModelParams(), seed=2).layout is small.layout


# ---------------------------------------------------------------------------
# spawning and detection
# ---------------------------------------------------------------------------

def test_spawn_at_hub_center_detects_instantly():
    world = build_world(1.0, arch(), ModelParams(), seed=1)
    spawn_infection(world, site=world.layout.centers[0], n_detectors=1)
    t_detect, log = run_detection(world)
    assert t_detect == 0.0
    assert [r.kind for r in log] == ["arrival"]
    assert [r.kind for r in world.drain(0)] == ["spawn", "arrival"]


def test_spawn_site_reproducible_from_seed():
    w1 = build_world(16.0, arch(), ModelParams(), seed=9)
    w2 = build_world(16.0, arch(), ModelParams(), seed=9)
    spawn_infection(w1)
    spawn_infection(w2)
    assert np.array_equal(w1.site, w2.site) and w1.site_hub == w2.site_hub
    w3 = build_world(16.0, arch(), ModelParams(), seed=10)
    spawn_infection(w3)
    assert not np.array_equal(w1.site, w3.site)


@pytest.mark.parametrize("site", [[math.nan, 0.5], [0.5, -0.1], [1.5, 0.5]])
def test_spawn_refuses_site_outside_the_domain(site):
    world = build_world(1.0, arch(), ModelParams(), seed=1)
    with pytest.raises(ValueError, match=r"^site .* outside the domain \[0, 1\.0\]\^d$"):
        spawn_infection(world, site=site)
    assert (world.site, world.site_hub, world.detectors) == (None, None, 0)


def test_straight_arrival_time_is_distance_over_speed():
    world = build_world(1.0, arch(), ModelParams(), seed=1)
    site = np.array([0.5, 0.2])  # distance 0.3 from the center
    spawn_infection(world, site=site)
    t_detect, _ = run_detection(world)
    assert t_detect == pytest.approx(0.3, rel=1e-12)
    fast = build_world(1.0, arch(), ModelParams(detector_speed=3.0), seed=1)
    spawn_infection(fast, site=site)
    t_fast, _ = run_detection(fast)
    assert t_fast == pytest.approx(0.1, rel=1e-12)


def test_first_arrival_defines_detection():
    world = build_world(1.0, arch(), ModelParams(), seed=2)
    spawn_infection(world, n_detectors=5)
    t_detect, log = run_detection(world)
    arrivals = [r.time for r in log if r.kind == "arrival"]
    assert len(arrivals) == 5
    assert t_detect == min(arrivals)


def test_detection_mean_matches_geometry_oracle():
    # 2x2 world of square regions: mean first arrival ~ mu_2 * extent / v
    M, spec, p = 16.0, arch(a=0.5), ModelParams()
    times = []
    for seed in range(1200):
        world = build_world(M, spec, p, seed=seed)
        spawn_infection(world)
        t_detect, _ = run_detection(world)
        times.append(t_detect)
    times = np.array(times)
    predicted = detection_time(M, spec, p, "spatial")
    stderr = times.std(ddof=1) / math.sqrt(len(times))
    assert abs(times.mean() - predicted) < 3.0 * stderr


_GAUSS_NODES, _GAUSS_WEIGHTS = np.polynomial.legendre.leggauss(64)


def box_mean_center_distance(half_widths):
    # mean distance from a uniform point of the box prod [-h_k, h_k] to its
    # center: by symmetry that of the orthant prod [0, h_k], whose kink at
    # the center sits on a corner, by a 64-node Gauss-Legendre tensor rule
    axes = np.meshgrid(*[h * (_GAUSS_NODES + 1.0) / 2.0 for h in half_widths], indexing="ij")
    weights = functools.reduce(np.multiply.outer, [_GAUSS_WEIGHTS / 2.0] * len(half_widths))
    return float(np.sum(weights * np.sqrt(sum(x * x for x in axes))))


def rounded_world_detection(world):
    # straight detection time of the world as tiled: the volume-weighted mean,
    # over its regions, of each box's mean center distance, over v
    lower, upper = region_boxes(world)
    sizes, counts = np.unique(upper - lower, axis=0, return_counts=True)
    volumes = counts * np.prod(sizes, axis=1)
    means = [box_mean_center_distance(size / 2.0) for size in sizes]
    return float(np.dot(volumes, means) / volumes.sum()) / world.params.detector_speed


@pytest.mark.parametrize("d", [1, 2, 3])
def test_box_quadrature_matches_the_closed_form_on_the_unit_cube(d):
    assert abs(box_mean_center_distance([0.5] * d) - mean_center_distance(d)) < 1e-11


# log-spaced masses nobody picked, with n = 2, 3, primes and 178 = 89 x 2
# regions among them, a few d = 3 worlds, and the paper's 25000x system
@pytest.mark.parametrize("M, a, d", [(10.0 ** (k / 4), 1.0, 2) for k in range(1, 17)]
                         + [(7.0, 1.0, 3), (12.0, 1.0, 3), (30.0, 1.0, 3), (25000.0, 0.5, 2)])
def test_straight_detection_matches_the_rounded_world_oracle(M, a, d):
    spec, p = arch(a=a, d=d), ModelParams()
    times = []
    for seed in range(1000):
        world = build_world(M, spec, p, seed=seed)
        spawn_infection(world)
        times.append(run_detection(world)[0])
    stderr = np.std(times, ddof=1) / math.sqrt(len(times))
    # the oracle, not the continuous law: strip tilings sit far from the law
    # (M = 25000, a = 0.5 tiles 79 x 2: oracle 19.79 against the law's 4.81)
    assert abs(np.mean(times) - rounded_world_detection(world)) < 4.0 * stderr


def test_random_walk_slower_than_straight_on_average():
    M, spec, p = 1.0, arch(), ModelParams()
    straight, walked = [], []
    for seed in range(300):
        w = build_world(M, spec, p, seed=seed)
        spawn_infection(w)
        t, _ = run_detection(w, movement="straight")
        straight.append(t)
        w = build_world(M, spec, p, seed=seed)
        spawn_infection(w)
        t, _ = run_detection(w, movement="random_walk", step_length=0.05)
        walked.append(t)
    assert np.mean(walked) > np.mean(straight)


def reflect_path(start, increments, extent):
    """Per-step reflection of a free path: move, then mirror the position
    and every later increment on each axis across whichever wall it crossed."""
    pos, sign, path = start.copy(), np.ones_like(start), []
    for inc in increments:
        pos = pos + sign * inc
        for axis in range(len(pos)):
            while not 0.0 <= pos[axis] <= extent:
                pos[axis] = -pos[axis] if pos[axis] < 0.0 else 2.0 * extent - pos[axis]
                sign[axis] = -sign[axis]
        path.append(pos)
    return np.array(path)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_folded_free_path_equals_reflected_path(d):
    rng = np.random.default_rng(8 + d)
    extent = 1.7
    start = rng.random(d) * extent
    # increments larger than the domain: single steps cross several walls
    increments = rng.normal(scale=1.5 * extent, size=(300, d))
    free = start + np.cumsum(increments, axis=0)
    assert np.abs(np.diff(np.floor(free / extent), axis=0)).max() >= 3
    folded = _fold(free, extent)
    assert np.all((folded >= 0.0) & (folded <= extent))
    assert np.allclose(folded, reflect_path(start, increments, extent), rtol=0.0, atol=1e-9)


def reference_walk_steps(rng, start, hub, step, extent):
    """Per-step walker: one uniform direction per step, reflected off the
    walls; returns the step count at which it comes within `step` of hub."""
    pos, d = start.copy(), len(start)
    for n in range(1_000_000):
        if float(np.linalg.norm(pos - hub)) <= step:
            return n
        if d == 1:
            direction = np.array([1.0 if rng.random() < 0.5 else -1.0])
        else:
            vec = rng.normal(size=d)
            direction = vec / np.linalg.norm(vec)
        pos = reflect_path(pos, [step * direction], extent)[0]
    raise AssertionError("reference walk not absorbed")


@pytest.mark.parametrize("d,step", [(1, 0.2), (2, 0.3), (3, 0.3)])
def test_batched_walk_matches_per_step_reference(d, step):
    # M = 8 at a = 1: an 8-cell line, a 4 x 2 grid of oblong cells, a 2x2x2 cube
    spec, p, trials = arch(a=1.0, d=d), ModelParams(), 300
    world = build_world(8.0, spec, p, seed=0)
    if d == 2:
        assert world.layout.grid_shape == (4, 2)
    batched = []
    for seed in range(trials):
        bd, _ = simulate(8.0, spec, p, seed=seed, movement="random_walk", step_length=step)
        batched.append(round(bd.t_detect * p.detector_speed / step))
    rng = np.random.default_rng(2010)
    reference = []
    for _ in range(trials):
        start = rng.random(d) * world.layout.extent
        hub = world.layout.centers[world.layout.region_of(start)]
        reference.append(reference_walk_steps(rng, start, hub, step, world.layout.extent))
    stderr = math.sqrt((np.var(batched, ddof=1) + np.var(reference, ddof=1)) / trials)
    assert abs(np.mean(batched) - np.mean(reference)) < 4.0 * stderr


def test_walk_step_limit_is_a_configuration_error():
    # a 100 x 100 domain searched with step 1e-4: about 0.1 of travel in 1e6 steps
    with pytest.raises(WalkLimitError) as err:
        simulate(1e4, arch(a=0.0), ModelParams(), seed=1, site=[10.0, 10.0],
                 movement="random_walk", step_length=1e-4)
    assert isinstance(err.value, ValueError)
    message = str(err.value)
    assert "0.0001" in message and "100" in message and "1000000" in message


class ZeroRowsGenerator:
    """A generator whose normal() blocks get the given rows zeroed, one list
    per call until the lists run out; it records the size of every call."""

    def __init__(self, seed, zero_rows):
        self._rng, self._zero_rows, self.sizes = np.random.default_rng(seed), list(zero_rows), []

    def normal(self, size):
        self.sizes.append(size)
        block = self._rng.normal(size=size)
        if self._zero_rows:
            block[self._zero_rows.pop(0)] = 0.0
        return block


def test_walk_redraws_directionless_steps():
    # rows 0, 9 and 63 of the first block have no direction, and so does row 1
    # of their redraw; the draws and the step count are those of the block
    # walker that measured its rows with np.linalg.norm
    p = ModelParams()
    world = build_world(16.0, arch(), p, seed=0)
    spawn_infection(world, site=[0.3, 3.1])
    world.rng = ZeroRowsGenerator(5, [[0, 9, 63], [1]])
    t, _ = run_detection(world, "random_walk", 0.2)
    assert world.rng.sizes == [(64, 2), (3, 2), (1, 2), (128, 2), (256, 2), (512, 2)]
    assert t == 507 * 0.2 / p.detector_speed


@st.composite
def free_blocks(draw):
    """A block of free walk coordinates, (n, d) for d in 1..3, and an extent.
    Its entries mix ordinary values with +-0.0, exact multiples of the period
    2 * extent (negative ones too) and negatives so small that fmod's remainder
    plus the period rounds to the period."""
    d, extent = draw(st.integers(1, 3)), draw(st.floats(1e-3, 1e3))
    entries = st.one_of(st.floats(-1e4 * extent, 1e4 * extent),
                        st.sampled_from([0.0, -0.0, -5e-324, -1e-300]),
                        st.integers(-1000, 1000).map(lambda i: i * 2.0 * extent))
    shape = st.tuples(st.integers(1, 40), st.just(d))
    return draw(hnp.arrays(np.float64, shape, elements=entries)), extent


@given(free_blocks())
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
def test_walk_norms_and_fold_are_numpys_bit_for_bit(block):
    x, extent = block
    folded = _fold(x.copy(), extent)
    assert folded.tobytes() == (extent - np.abs(np.mod(x, 2.0 * extent) - extent)).tobytes()
    norms, numpys = _norms(x), np.linalg.norm(x, axis=1)
    if x.shape[1] == 1:  # |x|, which sqrt(x * x) is wherever x * x is 0 or normal
        assert norms.tobytes() == np.abs(x[:, 0]).tobytes()
        square = x[:, 0] * x[:, 0]
        exact = (x[:, 0] == 0.0) | (square >= np.finfo(float).tiny)
        assert norms[exact].tobytes() == numpys[exact].tobytes()
    else:
        assert norms.tobytes() == numpys.tobytes()
        assert _norms(x[0]) == np.linalg.norm(x[0])


@pytest.mark.parametrize("M", [1e-300, 1e300])
def test_one_dimensional_straight_detection_neither_underflows_nor_overflows(M):
    # one hub at M / 2 (a = 0); the squared offset underflows to 0 at
    # M = 1e-300 and overflows to inf at M = 1e300, but its length does not
    p = ModelParams(detector_speed=2.0)
    for seed in range(20):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            world = build_world(M, arch(a=0.0, d=1), p, seed=seed)
            spawn_infection(world)
            t, _ = run_detection(world)
        assert t == abs(float(world.site[0]) - float(world.layout.centers[0, 0])) / 2.0
        assert 0.0 < t < math.inf


def test_run_detection_validates_movement():
    world = build_world(1.0, arch(), ModelParams(), seed=1)
    spawn_infection(world)
    with pytest.raises(ValueError):
        run_detection(world, movement="hop")


def test_run_detection_refuses_a_non_finite_walk_step():
    # every start lies within one infinite step of its hub: 0 steps of length
    # inf would be a NaN arrival time
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    spawn_infection(world)
    scheduled = len(world.drain(0))
    for step in (math.inf, math.nan, 0.0, -1.0):
        with pytest.raises(ValueError, match="step_length must be finite and > 0"):
            run_detection(world, "random_walk", step)
    assert len(world.drain(0)) == scheduled
    t, _ = run_detection(world, "random_walk", 0.2)
    assert math.isfinite(t) and t >= 0.0


def test_run_detection_needs_a_spawn_and_runs_once():
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    with pytest.raises(SimulationInvariantError, match="before spawn_infection"):
        run_detection(world)
    spawn_infection(world, n_detectors=2)
    run_detection(world)
    with pytest.raises(SimulationInvariantError, match="run_detection called twice"):
        run_detection(world)


def test_spawn_infection_runs_once():
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    spawn_infection(world, site=[0.5, 3.5], n_detectors=2)
    site, hub, events = world.site, world.site_hub, world.drain(0)
    for again in ([0.5, 3.5], None):
        with pytest.raises(SimulationInvariantError, match="spawn_infection called twice"):
            spawn_infection(world, site=again)
    assert world.site is site and world.site.tolist() == [0.5, 3.5]
    assert (world.site_hub, world.detectors) == (hub, 2)
    assert world.drain(0) == events


def test_recruitment_and_expansion_run_once_and_in_order():
    world = build_world(64.0, arch(), ModelParams(), seed=1)
    spawn_infection(world)
    run_detection(world)

    def refused(phase, message):  # raises and leaves the world as it was
        state = (world.clock, world.pool, world.completed, world.drain(0))
        with pytest.raises(SimulationInvariantError, match=f"^{message}$"):
            phase(world)
        assert (world.clock, world.pool, world.completed, world.drain(0)) == state

    refused(run_expansion, "run_expansion called before run_recruitment")
    assert len(run_recruitment(world)[1]) == 7
    refused(run_recruitment, "run_recruitment called twice on one world")
    run_expansion(world)
    refused(run_expansion, "run_expansion called twice on one world")
    for phase in (run_recruitment, run_detection, spawn_infection):
        refused(phase, f"{phase.__name__} called after run_expansion")


@pytest.mark.parametrize("n_detectors", [0, MAX_HUBS + 1, 10 ** 12])
def test_spawn_refuses_a_detector_count_out_of_range_before_placing_any(n_detectors):
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    state = world.rng.bit_generator.state
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=rf"^n_detectors must be in \[1, {MAX_HUBS}\], "
                                             rf"got {n_detectors}$"):
            spawn_infection(world, n_detectors=n_detectors)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6
    assert (world.site, world.detectors) == (None, 0) and len(world.drain(0)) == 0
    assert world.rng.bit_generator.state == state  # no site was drawn
    spawn_infection(world, n_detectors=3)  # the refusal left the world unspawned
    assert len(world.drain(0)) == 3


@pytest.mark.parametrize("n_detectors", [2.5, 2.0, "2", None])
def test_spawn_refuses_a_non_integer_detector_count_before_changing_the_world(n_detectors):
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    state = world.rng.bit_generator.state
    with pytest.raises(ValueError, match=rf"^n_detectors must be an integer, got "
                                         rf"{re.escape(repr(n_detectors))}$"):
        spawn_infection(world, n_detectors=n_detectors)
    assert (world.site, world.site_hub, world.detectors) == (None, None, 0)
    assert world.completed == "build_world" and len(world.drain(0)) == 0
    assert world.rng.bit_generator.state == state
    spawn_infection(world, n_detectors=np.int64(2))  # a numpy integer is a count
    assert world.detectors == 2 and len(world.drain(0)) == 2


def test_spawn_keeps_one_site_its_hub_and_the_detector_count():
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    assert (world.site, world.site_hub, world.detectors) == (None, None, 0)
    spawn_infection(world, site=[0.5, 3.5], n_detectors=3)
    assert world.site.shape == (2,) and world.site.tolist() == [0.5, 3.5]
    assert world.site_hub == world.layout.region_of(np.array([0.5, 3.5])) and world.detectors == 3


@pytest.mark.parametrize("site", [[0.5, 3.5], [2.25, 1.0], None])
def test_straight_detectors_all_arrive_after_the_sites_distance_over_speed(site):
    world = build_world(16.0, arch(), ModelParams(detector_speed=3.0), seed=4)
    spawn_infection(world, site=site, n_detectors=3)
    start, hub = world.clock, world.site_hub
    expected = start + float(np.linalg.norm(world.site - world.layout.centers[hub])) / 3.0
    t_detect, _ = run_detection(world)
    records = list(world.drain(0))
    assert [r.kind for r in records] == ["spawn"] * 3 + ["arrival"] * 3
    assert [r.time for r in records if r.kind == "arrival"] == [expected] * 3
    assert [(r.subject, r.hub) for r in records] == [(i, hub) for i in range(3)] * 2
    assert (world.completed, world.clock, t_detect) == ("run_detection", expected,
                                                        expected - start)


# ---------------------------------------------------------------------------
# recruitment and expansion
# ---------------------------------------------------------------------------

def _run_through_recruitment(M=256.0, a=0.5, seed=3, params=None):
    params = params or ModelParams()
    world = build_world(M, arch(a=a), params, seed=seed)
    spawn_infection(world)
    run_detection(world)
    return world


def test_recruitment_contact_count_matches_analytic_demand():
    for M, a in [(256.0, 0.5), (64.0, 1.0), (100.0, 0.0), (16.0, 0.25)]:
        world = _run_through_recruitment(M, a)
        t_recruit, log = run_recruitment(world)
        contacts = [r for r in log if r.kind == "contact-complete"]
        assert len(contacts) == _recruitment(M, arch(a=a), world.params)[0]
        assert t_recruit == total_response_time(M, arch(a=a), world.params).t_recruit


@pytest.mark.parametrize("M", [3.0, 7.0, 13.0, 25000.0])
def test_parallel_recruitment_within_one_latency_of_analytic(M):
    # the simulator charges whole doubling waves, lambda * ceil(log2(k + 1)),
    # the analytic law lambda * log2(k + 1)
    p = ModelParams(contact_latency=0.3, recruitment_composition="parallel")
    for a in (0.2, 0.35, 0.5, 0.65, 0.8, 1.0):
        world = _run_through_recruitment(M, a, params=p)
        t_recruit, _ = run_recruitment(world)
        gap = t_recruit - total_response_time(M, arch(a=a), p).t_recruit
        assert 0.0 <= gap < p.contact_latency, (M, a, gap)


def test_recruitment_zero_when_local_pool_suffices():
    world = _run_through_recruitment(100.0, 0.0)
    t_recruit, log = run_recruitment(world)
    assert t_recruit == 0.0
    assert len(log) == 0


def test_recruitment_contacts_by_distance_then_index():
    # M = 500 at a = 0.741 tiles as 10 x 10 cells of width sqrt(5): (3, 4)
    # and (5, 0) cells away tie
    for M, a in [(256.0, 0.5), (500.0, 0.741)]:
        world = _run_through_recruitment(M, a)
        _, log = run_recruitment(world)
        origin = world.layout.centers[world.site_hub]
        keys = []
        for r in log:
            if r.kind == "contact-complete":
                peer = world.layout.centers[r.subject]
                keys.append((round(float(np.linalg.norm(peer - origin)), 9), r.subject))
        assert len(keys) == len(world.layout.centers) - 1
        assert keys == sorted(keys)


@pytest.mark.parametrize("M, a, d, shape, stride", [
    (128.0, 0.5, 2, (11, 1), 1),
    (2048.0, 0.5, 2, (9, 5), 1),
    # Pythagorean ties, not only permuted offsets: (3, 4) against (5, 0)
    # cells away where cells are square, (5, 0) against (3, 2) where they are
    # twice as long on one axis (16 x 8); 14 to 19 hubs are infected in turn
    (128.0, 1.0, 2, (16, 8), 7),
    (512.0, 1.0, 3, (8, 8, 8), 37),
    (1000.0, 1.0, 2, (40, 25), 67),
    # cells of irrational width sqrt(5)
    (500.0, 0.741, 2, (10, 10), 7),
], ids=["128.0", "2048.0", "128.0-16x8", "512.0-8x8x8", "1000.0-40x25", "500.0-10x10"])
def test_equidistant_peers_contacted_in_index_order(M, a, d, shape, stride):
    assert build_world(M, arch(a=a, d=d), ModelParams(), seed=0).layout.grid_shape == shape
    cells = list(np.ndindex(*shape))
    exact = {}  # squared distance in units of the extent, by whole-cell offset

    def key(peer, infected):
        offset = tuple(x - y for x, y in zip(cells[peer], cells[infected]))
        if offset not in exact:
            exact[offset] = sum(Fraction(o, n) ** 2 for o, n in zip(offset, shape))
        return exact[offset], peer

    # the default f contacts every peer; at f = 1e-5, f * s0 >> bcrit and k < n - 1,
    # so the contacts must be the k nearest peers, not any k in sorted order
    for f in (ModelParams().cognate_frequency, 1e-5):
        spec, p = arch(a=a, d=d), ModelParams(cognate_frequency=f)
        k = _recruitment(M, spec, p)[0]
        assert (k == len(cells) - 1) == (f == ModelParams().cognate_frequency), (f, k)
        for infected in range(0, len(cells), stride):
            world = build_world(M, spec, p, seed=0)
            spawn_infection(world, site=world.layout.centers[infected])
            run_detection(world)
            _, log = run_recruitment(world)
            nearest = sorted(key(j, infected) for j in range(len(cells)) if j != infected)
            assert [key(r.subject, infected) for r in log] == nearest[:k]


def test_recruitment_constant_across_mass_at_zero_exponent():
    p = ModelParams(bcrit_coefficient=7.3, contact_latency=1.0)
    durations = set()
    for M in (1.0, 10.0, 100.0):
        world = build_world(M, arch(a=0.0, n0=8.0), p, seed=4)
        spawn_infection(world)
        run_detection(world)
        t_recruit, _ = run_recruitment(world)
        durations.add(t_recruit)
    assert durations == {7.0}


def test_expansion_tick_counts():
    world = _run_through_recruitment(256.0, 0.5)
    run_recruitment(world)
    # pool 256, target 16*256 -> exactly four doublings
    t_expand, log = run_expansion(world)
    assert t_expand == 4.0
    assert [r.subject for r in log] == [1, 2, 3, 4]

    # pool at an eighth of the target: exactly three doublings
    world = _run_through_recruitment(256.0, 0.5)
    run_recruitment(world)
    world.pool = 2.0 * 256.0  # target/alpha = 4096
    t_expand, log = run_expansion(world)
    assert t_expand == 3.0

    # pool already sufficient: zero ticks
    world = _run_through_recruitment(256.0, 0.5)
    run_recruitment(world)
    world.pool = 1e9
    t_expand, log = run_expansion(world)
    assert t_expand == 0.0 and len(log) == 0


def test_expansion_refuses_an_overflowing_target():
    # 16 * 1.2e307 overflows: the pool would double until it overflows too
    world = build_world(1.2e307, arch(a=0.0), ModelParams(), seed=1)
    spawn_infection(world)
    run_detection(world)
    run_recruitment(world)
    with pytest.raises(ValueError, match=r"output target .* = inf is not finite"):
        run_expansion(world)
    with pytest.raises(ValueError, match=r"output target .* = inf is not finite"):
        simulate(1.2e307, arch(a=0.0), ModelParams(), seed=1)


def test_discrete_expansion_brackets_analytic_value():
    rng = np.random.default_rng(21)
    for _ in range(100):
        tau = rng.uniform(0.25, 4.0)
        p = ModelParams(
            doubling_time=float(tau),
            bcrit_coefficient=float(rng.uniform(0.2, 1.0)),
            antibody_coefficient=float(10.0 ** rng.uniform(0.5, 3.0)),
        )
        M = float(10.0 ** rng.uniform(0, 3))
        a = float(rng.choice([0.0, 0.25, 0.5, 0.75, 1.0]))
        world = build_world(M, arch(a=a), p, seed=int(rng.integers(1 << 31)))
        spawn_infection(world)
        run_detection(world)
        run_recruitment(world)
        analytic = expansion_time(world.pool, p.antibody_coefficient * M, p.doubling_time)
        t_expand, _ = run_expansion(world)
        assert analytic <= t_expand < analytic + p.doubling_time + 1e-9


def test_expansion_from_a_pool_past_its_target_takes_no_tick():
    # target / pool underflows to 0: the target is met before the first tick
    p = ModelParams(antibody_coefficient=5e-324, bcrit_coefficient=1e6, cognate_frequency=1.0)
    bd, log = simulate(1.0, arch(), p, seed=1)
    assert bd.t_expand == 0.0 == total_response_time(1.0, arch(), p).t_expand
    assert "doubling-tick" not in [event.kind for event in log]


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_simulate_components_sum():
    bd, _ = simulate(256.0, arch(), ModelParams(), seed=5)
    assert bd.t_total == bd.t_detect + bd.t_recruit + bd.t_expand


def _phase_by_phase(M, spec, params, seed, n_detectors, movement):
    world = build_world(M, spec, params, seed)
    spawn_infection(world, None, n_detectors)
    t_detect, _ = run_detection(world, movement, 0.2)
    t_recruit, _ = run_recruitment(world)
    t_expand, _ = run_expansion(world)
    return TimingBreakdown(t_detect, t_recruit, t_expand), world.drain(0)


@pytest.mark.parametrize("composition", ["serial", "parallel"])
@pytest.mark.parametrize("n_detectors", [1, 4])
@pytest.mark.parametrize("movement", ["straight", "random_walk"])
def test_simulate_is_its_phases_composed(movement, n_detectors, composition):
    params = ModelParams(recruitment_composition=composition)
    # (M, arch, seed): the first and last share a layout, the middle one does not
    cases = [(16.0, arch(a=0.5), 3), (9.0, arch(a=1.0), 4), (16.0, arch(a=0.5), 5)]

    runs = {
        "simulate": lambda M, spec, seed: simulate(M, spec, params, seed, n_detectors=n_detectors,
                                                   movement=movement, step_length=0.2),
        "phases": lambda M, spec, seed: _phase_by_phase(M, spec, params, seed, n_detectors,
                                                        movement),
    }
    seen = set()  # (path, whether its build hit the layout memo)
    _layout.cache_clear()
    for order in (("simulate", "phases"), ("phases", "simulate")):
        for case in cases:
            out = {}
            for path in order:
                hits = _layout.cache_info().hits
                out[path] = runs[path](*case)
                seen.add((path, _layout.cache_info().hits > hits))
            assert out["simulate"] == out["phases"]
            assert out["simulate"][1].to_text() == out["phases"][1].to_text()
            assert out["simulate"][1].to_text().count("\tspawn\t") == n_detectors
    assert seen == {(path, hit) for path in runs for hit in (False, True)}


def test_simulate_deterministic_for_seed():
    kwargs = dict(site=None, n_detectors=3, movement="random_walk", step_length=0.07)
    bd1, log1 = simulate(16.0, arch(), ModelParams(), seed=123, **kwargs)
    bd2, log2 = simulate(16.0, arch(), ModelParams(), seed=123, **kwargs)
    assert bd1 == bd2
    assert log1 == log2
    assert log1.to_text() == log2.to_text()
    bd3, log3 = simulate(16.0, arch(), ModelParams(), seed=124, **kwargs)
    assert log3 != log1


def test_event_log_ordering_and_phase_sequence():
    bd, log = simulate(256.0, arch(), ModelParams(), seed=6, n_detectors=4)
    times = [r.time for r in log]
    assert times == sorted(times)
    first_arrival = min(r.time for r in log if r.kind == "arrival")
    contacts = [r.time for r in log if r.kind == "contact-complete"]
    ticks = [r.time for r in log if r.kind == "doubling-tick"]
    assert all(t >= first_arrival for t in contacts)
    assert all(t >= max(contacts) for t in ticks)


def test_event_log_serialization_format():
    log = EventLog([EventRecord(0.25, "arrival", 3, 7), EventRecord(1.0, "doubling-tick", 1, 7)])
    text = log.to_text()
    assert text == "0.250000000\tarrival\t3\t7\n1.000000000\tdoubling-tick\t1\t7\n"


def test_event_record_is_immutable_and_log_text_is_its_lines():
    record = EventRecord(0.5, "arrival", 1, 2)
    with pytest.raises(AttributeError):
        record.time = 1.0
    _, log = simulate(256.0, arch(), ModelParams(), seed=6, n_detectors=2)
    assert log.to_text() == "".join(r.to_line() + "\n" for r in log)


def test_event_log_text_of_empty_and_single_event_logs():
    assert EventLog().to_text() == ""
    assert len(EventLog()) == 0 and list(EventLog()) == []
    one = EventLog([EventRecord(0.1, "spawn", 0, 3)])
    assert one.to_text() == "0.100000000\tspawn\t0\t3\n"


def test_event_log_agrees_with_a_log_built_from_its_records():
    _, log = simulate(256.0, arch(), ModelParams(), seed=6, n_detectors=3,
                      movement="random_walk", step_length=0.5)
    records = list(log)
    assert all(type(r) is EventRecord for r in records)
    assert [type(x) for x in records[0]] == [float, str, int, int]
    rebuilt = EventLog(records)
    assert len(rebuilt) == len(log) == len(records)
    assert rebuilt == log and list(rebuilt) == records
    assert rebuilt.to_text() == log.to_text()
    assert EventLog(records[:-1]) != log
    assert EventLog(records[:-1] + [records[-1]._replace(hub=-1)]) != log
    assert log != records


def test_drain_returns_events_scheduled_since_in_time_order():
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    spawn_infection(world, n_detectors=2)
    _, detect_log = run_detection(world)
    assert world.drain(2) == detect_log
    assert [r.kind for r in world.drain(2)] == ["arrival", "arrival"]
    assert [r.kind for r in world.drain(1)] == ["spawn", "arrival", "arrival"]
    assert len(world.drain(4)) == 0
    # a later block with earlier times sorts before it; ties keep scheduling order
    world.schedule([9.0, 5.0, 7.0], "late", [0, 1, 2], 0)
    world.schedule([5.0, 9.0], "later", [3, 4], 1)
    assert [(r.time, r.subject) for r in world.drain(4)] == [
        (5.0, 1), (5.0, 3), (7.0, 2), (9.0, 0), (9.0, 4)]
    assert [r.kind for r in world.drain(0)][:2] == ["spawn", "spawn"]


def test_drain_refuses_a_sequence_number_outside_the_log():
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    spawn_infection(world, n_detectors=2)
    for since_seq in (-1, -2, 3, 10 ** 20):
        with pytest.raises(ValueError, match=rf"^since_seq must be in \[0, 2\], got {since_seq}$"):
            world.drain(since_seq)
    assert len(world.drain(2)) == 0 and len(world.drain(0)) == 2


@st.composite
def event_records(draw):
    """Records in runs of one (kind, hub), neighbouring runs often sharing theirs: kinds
    holding % conversions, hubs past int64 either way, and extreme or signed-zero times."""
    kinds = st.sampled_from(["spawn", "arrival", "%", "%%", "%d", "%s", "a%%s\t%d%"]) | st.text()
    hubs = st.sampled_from([0, -1, 7, 2 ** 63, 2 ** 64 + 1, -(2 ** 70)]) | st.integers()
    times = st.sampled_from([0.0, -0.0, 5e-324, 1e300]) | st.floats(allow_nan=False)
    events = st.lists(st.tuples(times, st.integers()), min_size=1, max_size=4)
    runs = draw(st.lists(st.tuples(kinds, hubs, events), max_size=6))
    return [EventRecord(time, kind, subject, hub)
            for kind, hub, events in runs for time, subject in events]


def _scheduled(records, size):
    """A fresh world with `records` scheduled in batches of at most `size` events of one
    (kind, hub), an empty batch after each."""
    world = build_world(16.0, arch(), ModelParams(), seed=1)
    for (kind, hub), run in itertools.groupby(records, key=lambda r: (r.kind, r.hub)):
        run = list(run)
        for start in range(0, len(run), size):
            batch = run[start:start + size]
            world.schedule([r.time for r in batch], kind, [r.subject for r in batch], hub)
            world.schedule([], "empty", [], -1)
    return world


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(records=event_records())
def test_run_templates_write_each_record_as_its_event_line(records):
    log = EventLog(records)
    assert log.to_text() == "".join(r.to_line() + "\n" for r in records)
    assert list(log) == records and len(log) == len(records)
    # the same records in batches of any size are the same log
    for size in (1, 2, 3, len(records) + 1):
        world = _scheduled(records, size)
        assert world._events == log and list(world._events) == records
    # drain(k) is the records from k on, stably sorted by time, runs re-encoded
    for k in range(len(records) + 1):
        drained = sorted(records[k:], key=lambda r: r.time)
        assert list(world.drain(k)) == drained
        assert world.drain(k) == EventLog(drained)
        assert world.drain(k).to_text() == "".join(r.to_line() + "\n" for r in drained)


def test_equal_times_keep_scheduling_order_across_phases():
    # zero latency: every contact completes at the arrival time
    params = ModelParams(contact_latency=0.0)
    world = build_world(64.0, arch(a=1.0), params, seed=4)
    spawn_infection(world, n_detectors=2)
    t_detect, _ = run_detection(world)
    _, recruit_log = run_recruitment(world)
    run_expansion(world)
    log = world.drain(0)
    at_arrival = [r for r in log if r.time == t_detect]
    assert [r.kind for r in at_arrival] == ["arrival"] * 2 + ["contact-complete"] * 63
    assert [r.subject for r in at_arrival[2:]] == [r.subject for r in recruit_log]
    # the walkers' arrivals differ, so the full log interleaves phases
    _, log = simulate(16.0, arch(), ModelParams(), seed=0, n_detectors=4,
                      movement="random_walk", step_length=0.2)
    assert [r.kind for r in log] == ["spawn"] * 4 + ["arrival"] + ["contact-complete"] * 3 + [
        "doubling-tick"] * 4 + ["arrival"] * 3
    assert [r.time for r in log] == sorted(r.time for r in log)


def test_simulate_average_phases_track_analytic_model():
    M, spec, p = 256.0, arch(a=0.5), ModelParams()
    detect, recruit, expand = [], [], []
    for seed in range(400):
        bd, _ = simulate(M, spec, p, seed=seed)
        detect.append(bd.t_detect)
        recruit.append(bd.t_recruit)
        expand.append(bd.t_expand)
    predicted = detection_time(M, spec, p, "spatial")
    stderr = np.std(detect, ddof=1) / math.sqrt(len(detect))
    assert abs(np.mean(detect) - predicted) < 3.0 * stderr
    assert set(recruit) == {total_response_time(M, spec, p).t_recruit}
    assert set(expand) == {4.0}


@pytest.mark.parametrize("a", [0.0, 0.5, 1.0])
@pytest.mark.parametrize("M", [1.0, 16.0, 256.0])
def test_empirical_analytic_agreement_grid(M, a):
    spec, p = arch(a=a), ModelParams()
    detect, recruit, expand = [], [], []
    for seed in range(300):
        bd, _ = simulate(M, spec, p, seed=seed)
        detect.append(bd.t_detect)
        recruit.append(bd.t_recruit)
        expand.append(bd.t_expand)
    predicted = detection_time(M, spec, p, "spatial")
    stderr = np.std(detect, ddof=1) / math.sqrt(len(detect))
    assert abs(np.mean(detect) - predicted) <= 3.0 * max(stderr, 1e-15)
    assert set(recruit) == {total_response_time(M, spec, p).t_recruit}
    analytic_expand = total_response_time(M, spec, p).t_expand
    assert all(abs(t - analytic_expand) <= p.doubling_time for t in expand)
