"""Unit tests for the closed-form scaling laws and the exponent optimizer."""

import math
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from detnet.scaling import (
    ArchitectureSpec,
    BASELINE_RESPONSE_TIME,
    InfeasibleParametersError,
    MAX_GRID_POINTS,
    ModelParams,
    RECRUITMENT_DISABLED,
    TimingBreakdown,
    activated_pool,
    antibody_requirement,
    check_feasible,
    detection_time,
    dr_extent,
    expansion_time,
    exponent_grid,
    hub_count,
    hub_size,
    local_cognate_pool,
    mean_center_distance,
    optimal_exponent,
    recruitment_demand,
    recruitment_time,
    sweep,
    total_response_time,
    _ElementMemo,
    _MEMO_BUDGET,
    _grid_phases,
    _per_element,
)
from detnet.scenarios import PROFILE_NAMES, profile_from_name


@pytest.fixture(autouse=True)
def cold_memo():
    # every test starts from an empty libm memo, whatever ran before it
    _per_element.clear()
    yield
    _per_element.clear()


def arch(a=0.5, n0=1.0, s0=1.0e6, d=2):
    return ArchitectureSpec(exponent=a, base_hub_count=n0, base_hub_size=s0, dimension=d)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------

def bisect_log2(y, lo=0.0, hi=64.0, tol=1e-12):
    """Solve 2**x = y by bisection, independent of math.log2."""
    while hi - lo > tol:
        mid = (lo + hi) / 2.0
        if 2.0 ** mid < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def monte_carlo_center_distance(dimension, samples, seed):
    rng = np.random.default_rng(seed)
    pts = rng.random((samples, dimension)) - 0.5
    dists = np.sqrt((pts * pts).sum(axis=1))
    return float(dists.mean()), float(dists.std(ddof=1) / math.sqrt(samples))


def brute_force_optimum(M, params, mode, resolution, base):
    """Exhaustive scan over the documented exponent grid, ties to smaller a."""
    n = round(1.0 / resolution)
    if n >= 1 and abs(n * resolution - 1.0) < 1e-9:
        grid = [i / n for i in range(n + 1)]
    else:
        grid = []
        a, i = 0.0, 0
        while a < 1.0:
            grid.append(a)
            i += 1
            a = min(i * resolution, 1.0)
        grid.append(1.0)
    totals = [total_response_time(M, base.with_exponent(a), params, mode) for a in grid]
    best = 0
    for i in range(1, len(grid)):
        if totals[i].t_total < totals[best].t_total:
            best = i
    return grid[best], totals[best]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------

def test_architecture_spec_validation():
    with pytest.raises(ValueError):
        arch(a=1.2)
    with pytest.raises(ValueError):
        arch(a=-0.1)
    with pytest.raises(ValueError):
        arch(n0=0.5)
    with pytest.raises(ValueError):
        arch(s0=0.0)
    with pytest.raises(ValueError):
        arch(d=4)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(doubling_time=0.0)
    with pytest.raises(ValueError):
        ModelParams(contact_latency=-1.0)
    with pytest.raises(ValueError):
        ModelParams(recruitment_composition="broadcast")


@pytest.mark.parametrize("owner, name", [
    (ModelParams, "contact_latency"),
    (ModelParams, "contention_coefficient"),
    (ArchitectureSpec, "base_hub_count"),
    (ArchitectureSpec, "base_hub_size"),
])
def test_nan_refused_by_owner(owner, name):
    # a NaN contact latency used to switch recruitment off silently
    with pytest.raises(ValueError, match=f"^{name} must be .*, got nan$"):
        owner(**{name: math.nan})


def test_calibrated_antibody_coefficient_must_be_positive():
    with pytest.raises(ValueError, match="^antibody_coefficient must be > 0, got 0.0$"):
        ModelParams(plasma_yield=5e-324, bcrit_coefficient=5e-324)


def test_calibration_overflow_names_doubling_time():
    with pytest.raises(ValueError, match="^doubling_time is too short to calibrate "
                                         r"antibody_coefficient: .* overflows, got 0\.001$"):
        ModelParams(doubling_time=1e-3)
    # an explicit output target needs no calibration, so the period is accepted
    assert ModelParams(doubling_time=1e-3, antibody_coefficient=1.0).doubling_time == 1e-3


@pytest.mark.parametrize("M", [math.inf, -math.inf, math.nan, 0.0])
def test_mass_must_be_finite_and_positive(M):
    with pytest.raises(ValueError, match="mass ratio"):
        hub_count(M, arch())
    with pytest.raises(ValueError, match="mass ratio"):
        total_response_time(M, arch(), ModelParams())


def test_default_output_calibration():
    # expanding from the critical pool takes the baseline window at any M
    p = ModelParams()
    assert p.antibody_coefficient == 16.0
    p4 = ModelParams(doubling_time=4.0)
    assert p4.antibody_coefficient == 2.0
    for M in (1.0, 7.0, 25000.0):
        target = antibody_requirement(M, p4) / p4.plasma_yield
        assert expansion_time(p4.bcrit_coefficient * M, target, 4.0) == pytest.approx(
            BASELINE_RESPONSE_TIME, rel=1e-12)


def test_timing_breakdown_sums_exactly():
    bd = TimingBreakdown(0.1, 0.2, 0.3)
    assert bd.t_total == 0.1 + 0.2 + 0.3
    with pytest.raises(ValueError):
        TimingBreakdown(-0.1, 0.0, 0.0)
    with pytest.raises(ValueError):
        TimingBreakdown(0.1, 0.2, 0.3, t_total=0.7)


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

def test_antibody_requirement_examples():
    assert antibody_requirement(1.0, ModelParams(antibody_coefficient=1.0)) == 1.0
    assert antibody_requirement(25000.0, ModelParams(antibody_coefficient=1.0)) == 25000.0
    assert antibody_requirement(4.0, ModelParams(antibody_coefficient=2.5)) == 10.0
    with pytest.raises(ValueError):
        antibody_requirement(0.0, ModelParams())


def test_hub_count_examples():
    cont, rounded = hub_count(4.0, arch(a=1.0, n0=2.0))
    assert cont == 8.0 and rounded == 8
    cont, rounded = hub_count(1000.0, arch(a=0.0, n0=2.0))
    assert cont == 2.0 and rounded == 2
    cont, rounded = hub_count(16.0, arch(a=0.5, n0=1.0))
    assert cont == 4.0 and rounded == 4
    # continuous count below one still rounds to at least one hub
    assert hub_count(0.01, arch(a=1.0, n0=1.0))[1] == 1


def test_hub_size_examples():
    assert hub_size(4.0, arch(a=0.0, s0=3.0)) == 12.0
    assert hub_size(1000.0, arch(a=1.0, s0=3.0)) == 3.0
    assert hub_size(16.0, arch(a=0.5, s0=3.0)) == 12.0


def test_conservation_product():
    rng = np.random.default_rng(4)
    for _ in range(300):
        M = 10.0 ** rng.uniform(-2, 6)
        a = rng.uniform(0.0, 1.0)
        spec = arch(a=a, n0=rng.uniform(1, 50), s0=10.0 ** rng.uniform(2, 8))
        cont, _ = hub_count(M, spec)
        product = cont * hub_size(M, spec)
        expected = spec.base_hub_count * spec.base_hub_size * M
        assert abs(product - expected) <= 1e-12 * expected


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(log_mass=st.floats(-3.0, 9.0), a=st.floats(0.0, 1.0),
       n0=st.floats(1.0, 1.0e4), s0=st.floats(1.0, 1.0e8))
def test_conservation_property(log_mass, a, n0, s0):
    M = 10.0 ** log_mass
    spec = arch(a=a, n0=n0, s0=s0)
    product = hub_count(M, spec)[0] * hub_size(M, spec)
    assert product == pytest.approx(n0 * s0 * M, rel=1e-12, abs=0.0)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(a=st.floats(0.0, 1.0), n0=st.floats(1.0, 100.0), s0=st.floats(1.0e2, 1.0e8),
       log_f=st.floats(-9.0, -3.0), bcrit=st.floats(0.01, 10.0),
       log_masses=st.lists(st.floats(-3.0, 9.0), min_size=2, max_size=6))
def test_feasibility_independent_of_mass_property(a, n0, s0, log_f, bcrit, log_masses):
    spec = arch(a=a, n0=n0, s0=s0)
    params = ModelParams(cognate_frequency=10.0 ** log_f, bcrit_coefficient=bcrit)
    pool_per_mass = params.cognate_frequency * n0 * s0
    assume(abs(pool_per_mass / bcrit - 1.0) > 1e-9)  # clear of the boundary's rounding
    feasible = outcome(lambda: check_feasible(spec, params)) is None
    assert feasible == (pool_per_mass >= bcrit)
    for M in (10.0 ** x for x in log_masses):
        pool = params.cognate_frequency * hub_count(M, spec)[0] * hub_size(M, spec)
        assert (pool >= bcrit * M) == feasible
        result = outcome(lambda: total_response_time(M, spec, params))
        if feasible:
            assert isinstance(result, TimingBreakdown)
        else:
            assert result[0] is InfeasibleParametersError


def test_dr_extent_examples():
    p = ModelParams()
    extents = {M: dr_extent(M, arch(a=1.0), p) for M in (1.0, 10.0, 1e4)}
    assert len(set(extents.values())) == 1
    assert dr_extent(100.0, arch(a=0.0), p) == pytest.approx(10.0, rel=1e-12)
    assert dr_extent(16.0, arch(a=0.5), p) == pytest.approx(2.0, rel=1e-12)


def test_mean_center_distance_against_independent_monte_carlo():
    for d in (1, 2, 3):
        cached = mean_center_distance(d)
        est, se = monte_carlo_center_distance(d, 1_000_000, seed=99991 + d)
        assert abs(cached - est) < 3.0 * se * 1.2, f"d={d}: {cached} vs {est} (se {se})"
    # unit square value quoted to four decimals
    assert abs(mean_center_distance(2) - 0.3826) < 5e-4


def gauss_legendre_center_distance(dimension, nodes):
    """Product Gauss-Legendre rule over the orthant [0, 1/2]^d, which holds
    the same distribution of centre distances as the whole cube."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    x, w = (x + 1.0) / 4.0, w / 4.0
    points = np.meshgrid(*[x] * dimension, indexing="ij")
    weights = np.prod(np.meshgrid(*[w] * dimension, indexing="ij"), axis=0)
    return float((np.sqrt(sum(p * p for p in points)) * weights).sum()) * 2 ** dimension


def test_mean_center_distance_closed_form():
    assert mean_center_distance(1) == 0.25
    for d, nodes in ((2, 200), (3, 100)):
        quad = gauss_legendre_center_distance(d, nodes)
        assert mean_center_distance(d) == pytest.approx(quad, rel=1e-12, abs=0.0), d
    for d in (0, 4):
        with pytest.raises(ValueError, match="dimension must be 1, 2 or 3"):
            mean_center_distance(d)


def test_detection_time_modes():
    p = ModelParams()
    # fully modular: same draining region, same travel time at any scale
    times = {detection_time(M, arch(a=1.0), p, "spatial") for M in (1.0, 1e3, 1e6)}
    assert len(times) == 1
    # contention: congestion grows with the per-hub detector population
    p1 = ModelParams(contention_coefficient=1.0)
    assert detection_time(100.0, arch(a=0.0, n0=2.0), p1, "contention") == 50.0
    with pytest.raises(ValueError):
        detection_time(1.0, arch(), p, "teleport")


def test_detection_time_monotone_in_exponent():
    p = ModelParams()
    grid = [i / 20 for i in range(21)]
    for M in (1.0, 3.7, 10.0, 123.0):
        for mode in ("spatial", "contention"):
            values = [detection_time(M, arch(a=a), p, mode) for a in grid]
            for lo, hi in zip(values[1:], values):
                assert lo <= hi + 1e-12


def test_local_cognate_pool():
    assert local_cognate_pool(1.0, arch(a=0.5), ModelParams()) == 1.0
    p = ModelParams()
    pool = lambda M, a: local_cognate_pool(M, arch(a=a), p)
    assert pool(4.0, 0.0) / pool(1.0, 0.0) == pytest.approx(4.0, rel=1e-12)
    assert pool(4.0, 1.0) == pool(1.0, 1.0)


# ---------------------------------------------------------------------------
# recruitment
# ---------------------------------------------------------------------------

def test_recruitment_demand_regimes():
    p = ModelParams()
    # fully modular: contacts grow linearly
    k1, k2 = recruitment_demand(1e4, arch(a=1.0), p), recruitment_demand(2e4, arch(a=1.0), p)
    assert k2 / k1 == pytest.approx(2.0, rel=1e-3)
    # non-modular: everything needed is local
    assert all(recruitment_demand(M, arch(a=0.0), p) == 0 for M in (1.0, 10.0, 100.0))
    # no recruitment when the local pool suffices
    rich = ModelParams(bcrit_coefficient=0.5)
    assert recruitment_demand(1.0, arch(a=0.5), rich) == 0


def test_recruitment_demand_constant_at_zero_exponent():
    # non-trivial constant demand: several hubs' worth of responders needed
    p = ModelParams(bcrit_coefficient=7.3)
    spec = arch(a=0.0, n0=8.0)
    demands = {recruitment_demand(M, spec, p) for M in (1.0, 10.0, 100.0, 1e3, 1e4)}
    assert demands == {7}


def test_recruitment_demand_monotone_in_exponent():
    p = ModelParams(bcrit_coefficient=3.0, )
    spec = arch(n0=4.0)
    for M in (1.0, 10.0, 313.0):
        ks = [recruitment_demand(M, spec.with_exponent(i / 20), p) for i in range(21)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_recruitment_demand_capped_by_existing_peers():
    # demand can never exceed the rounded hub count minus the infected hub
    p = ModelParams(bcrit_coefficient=1.0)
    spec = arch(a=0.5, n0=1.0)
    M = 10.0  # continuous count 3.16 -> 3 hubs, at most 2 peers
    assert hub_count(M, spec)[1] == 3
    assert recruitment_demand(M, spec, p) == 2


def test_recruitment_demand_scaling_exponent():
    p = ModelParams(bcrit_coefficient=100.0)
    masses = [10.0, 100.0, 1000.0, 10000.0]
    for a in (0.25, 0.5, 0.75, 1.0):
        spec = arch(a=a, n0=256.0)
        ks = [recruitment_demand(M, spec, p) for M in masses]
        slope = np.polyfit(np.log(masses), np.log(ks), 1)[0]
        assert abs(slope - a) < 0.05, f"a={a}: fitted {slope}"


def test_hub_count_refuses_overflow():
    with pytest.raises(ValueError, match="hub count n0\\*M\\^a = inf is not finite"):
        hub_count(1e10, arch(a=1.0, n0=1e300))


def test_recruitment_demand_refuses_empty_pool_and_infinite_demand():
    # f * S(M) underflows to 0 at M = 1e-322, a = 0
    with pytest.raises(ValueError, match="local cognate pool f\\*S\\(M\\) underflows to 0.0"):
        recruitment_demand(1e-322, arch(a=0.0, n0=1000.0), ModelParams(cognate_frequency=1e-9))
    # an infinite deficit over a finite local pool
    with pytest.raises(ValueError, match="deficit/local = inf is not finite"):
        recruitment_demand(1.0, arch(n0=1e308, s0=1e300),
                           ModelParams(bcrit_coefficient=math.inf))


def test_recruitment_infeasible_raises():
    p = ModelParams(bcrit_coefficient=5.0)  # pool holds 1 responder per unit mass
    with pytest.raises(InfeasibleParametersError):
        recruitment_demand(10.0, arch(), p)


def test_recruitment_time_examples():
    free = ModelParams(contact_latency=0.0)
    assert all(recruitment_time(64.0, arch(a=a), free) == 0.0 for a in (0.0, 0.5, 1.0))
    serial = ModelParams(contact_latency=1.0)
    assert recruitment_time(100.0, arch(a=0.0), serial) == recruitment_time(
        10.0, arch(a=0.0), serial)
    # fully modular cost is linear in M
    t1 = recruitment_time(1e3, arch(a=1.0), serial)
    t2 = recruitment_time(2e3, arch(a=1.0), serial)
    assert t2 / t1 == pytest.approx(2.0, rel=1e-2)


def test_recruitment_time_parallel_composition():
    serial = ModelParams(contact_latency=1.0)
    fanout = ModelParams(contact_latency=1.0, recruitment_composition="parallel")
    M, spec = 1e3, arch(a=1.0)
    k = recruitment_demand(M, spec, serial)
    assert recruitment_time(M, spec, serial) == k * 1.0
    assert recruitment_time(M, spec, fanout) == pytest.approx(math.log2(k + 1), rel=1e-12)


def test_recruitment_disabled_sentinel():
    p = ModelParams(contact_latency=RECRUITMENT_DISABLED)
    assert recruitment_time(100.0, arch(a=1.0), p) == 0.0
    # the hub expands from its local pool alone
    assert activated_pool(100.0, arch(a=1.0), p) == local_cognate_pool(100.0, arch(a=1.0), p)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expansion_time_examples():
    assert expansion_time(1000.0, 1000.0, 1.0) == 0.0
    assert expansion_time(1000.0, 2000.0, 1.0) == 1.0
    assert expansion_time(2000.0, 1000.0, 1.0) == 0.0  # already past the target
    with pytest.raises(ValueError):
        expansion_time(0.0, 10.0, 1.0)
    with pytest.raises(ValueError):
        expansion_time(10.0, -1.0, 1.0)


def test_expansion_log2_against_bisection_oracle():
    oracle = bisect_log2(25000.0, lo=14.0, hi=15.0)
    for tau in (1.0, 2.5, 4.0):
        assert expansion_time(1.0, 25000.0, tau) == pytest.approx(tau * oracle, rel=1e-10)
    assert abs(oracle - 14.61) < 5e-3


def test_expansion_ratio_invariance():
    rng = np.random.default_rng(11)
    for _ in range(200):
        b0 = 10.0 ** rng.uniform(-3, 6)
        b1 = 10.0 ** rng.uniform(-3, 6)
        c = 10.0 ** rng.uniform(-6, 6)
        base = expansion_time(b0, b1, 1.0)
        scaled = expansion_time(c * b0, c * b1, 1.0)
        assert scaled == pytest.approx(base, rel=1e-9, abs=1e-9)


def test_expansion_additivity():
    rng = np.random.default_rng(12)
    for _ in range(200):
        b0, b1, b2 = sorted(10.0 ** rng.uniform(-2, 8, size=3))
        tau = rng.uniform(0.25, 4.0)
        lhs = expansion_time(b0, b1, tau) + expansion_time(b1, b2, tau)
        rhs = expansion_time(b0, b2, tau)
        assert lhs == pytest.approx(rhs, rel=1e-9, abs=1e-9)


# ---------------------------------------------------------------------------
# total response time
# ---------------------------------------------------------------------------

def test_total_components_sum():
    bd = total_response_time(10.0, arch(a=0.5), ModelParams())
    assert bd.t_total == bd.t_detect + bd.t_recruit + bd.t_expand


def test_sub_baseline_masses_allowed_nonpositive_rejected():
    bd = total_response_time(0.25, arch(a=0.5), ModelParams())
    assert bd.t_total > 0.0
    for bad in (0.0, -3.0):
        with pytest.raises(ValueError):
            total_response_time(bad, arch(), ModelParams())
        with pytest.raises(ValueError):
            hub_count(bad, arch())


def test_baseline_breakdown():
    bd = total_response_time(1.0, arch(a=0.5), ModelParams())
    assert bd.t_detect == pytest.approx(mean_center_distance(2), rel=1e-12)
    assert bd.t_recruit == 0.0
    assert bd.t_expand == 4.0


def test_expand_constant_when_pool_tracks_mass():
    p = ModelParams()
    # integer masses keep the rounded peer cap away from the demand
    for M in (1.0, 2.0, 8.0, 100.0, 4096.0):
        for a in (0.0, 1.0):
            assert total_response_time(M, arch(a=a), p).t_expand == 4.0
    for M in (1.5, 7.3, 991.7):
        assert total_response_time(M, arch(a=0.0), p).t_expand == 4.0


def test_total_grows_as_root_mass_without_expansion_offset():
    # zero expansion (output target equals the critical pool), free recruitment
    masses = [1.0, 10.0, 100.0, 1000.0, 10000.0]
    p = ModelParams(antibody_coefficient=1.0, contact_latency=0.0)
    for d in (1, 2, 3):
        totals = [total_response_time(M, arch(a=0.0, d=d), p).t_total for M in masses]
        slope = np.polyfit(np.log(masses), np.log(totals), 1)[0]
        assert abs(slope - 1.0 / d) < 1e-9


def test_activated_pool_meets_requirement():
    p = ModelParams()
    for M in (1.0, 16.0, 256.0, 4096.0):
        for a in (0.0, 0.25, 0.5, 0.75, 1.0):
            pool = activated_pool(M, arch(a=a), p)
            have = local_cognate_pool(M, arch(a=a), p) * (
                1 + recruitment_demand(M, arch(a=a), p))
            assert pool == min(p.bcrit_coefficient * M, have)


# ---------------------------------------------------------------------------
# optimizer and sweep
# ---------------------------------------------------------------------------

def test_exponent_grid_contains_endpoints():
    for resolution in (0.01, 0.02, 0.05, 0.1, 0.25, 0.3, 1.0):
        grid = exponent_grid(resolution)
        assert grid[0] == 0.0 and grid[-1] == 1.0
        assert all(b > a for a, b in zip(grid, grid[1:]))
        assert all(0.0 <= a <= 1.0 for a in grid)
    assert len(exponent_grid(0.05)) == 21


def test_exponent_grid_refuses_oversized_grid():
    assert len(exponent_grid(1e-6)) == MAX_GRID_POINTS
    with pytest.raises(ValueError, match=r"1e-12 .*1000001 points"):
        exponent_grid(1e-12)
    for resolution in (0.9e-6, 5e-324):
        with pytest.raises(ValueError, match="limited to 1000001 points"):
            exponent_grid(resolution)


def test_optimizer_prefers_full_modularity_with_free_channels():
    p = ModelParams(contact_latency=0.0, contention_coefficient=0.0)
    for M in (10.0, 100.0, 4096.0):
        a_star, _ = optimal_exponent(M, p, "spatial", 0.05)
        assert a_star == 1.0


def test_optimizer_ties_break_to_smaller_exponent():
    # at baseline mass every exponent costs the same
    a_star, _ = optimal_exponent(1.0, ModelParams(), "spatial", 0.25)
    assert a_star == 0.0


def test_optimizer_matches_brute_force_scan():
    rng = np.random.default_rng(77)
    base = ArchitectureSpec()
    for trial in range(30):
        M = 10.0 ** rng.uniform(0, 4)
        p = ModelParams(
            contact_latency=float(rng.uniform(0.0, 1.0)),
            contention_coefficient=float(rng.uniform(0.0, 1.0)),
            detector_speed=float(rng.uniform(0.1, 10.0)),
            body_volume_coefficient=float(rng.uniform(0.1, 10.0)),
        )
        mode = "spatial" if rng.random() < 0.5 else "contention"
        resolution = float(rng.choice([0.01, 0.02, 0.05, 0.04]))
        got_a, got_bd = optimal_exponent(M, p, mode, resolution, base)
        want_a, want_bd = brute_force_optimum(M, p, mode, resolution, base)
        assert got_a == want_a and got_bd == want_bd


def test_optimizer_dominates_endpoints():
    p = ModelParams()
    for M in (2.0, 10.0, 1e3, 1e5):
        a_star, bd = optimal_exponent(M, p, "spatial", 0.01)
        t0 = total_response_time(M, arch(a=0.0), p).t_total
        t1 = total_response_time(M, arch(a=1.0), p).t_total
        assert bd.t_total <= min(t0, t1)


def test_sweep_table():
    p = ModelParams()
    rows = sweep([5.0], [0.5], p)
    assert len(rows) == 1
    assert rows[0][2] == total_response_time(5.0, arch(a=0.5), p)

    masses, grid = [1.0, 10.0, 100.0], [0.0, 0.5, 1.0]
    table = sweep(masses, grid, p)
    assert len(table) == 9
    assert [(M, a) for M, a, _ in table] == [(M, a) for M in masses for a in grid]
    for M, a, bd in table:
        assert bd == total_response_time(M, arch(a=a), p)
    with pytest.raises(ValueError):
        sweep([], [0.5], p)


# ---------------------------------------------------------------------------
# one-pass grid kernel against the scalar path, bit for bit
# ---------------------------------------------------------------------------

KERNEL_MASSES = [10.0 ** (k / 4) for k in range(33)] + [2.0, 3.0, 13.0, 25000.0, 0.37, 1e-3]
KERNEL_PARAMS = {
    "serial": ModelParams(),
    "parallel": ModelParams(recruitment_composition="parallel"),
    "disabled": ModelParams(contact_latency=RECRUITMENT_DISABLED),
    **{name: profile_from_name(name).effective_params(ModelParams()) for name in PROFILE_NAMES},
}
KERNEL_ARCHS = [arch(n0=n0, s0=s0, d=d) for d in (1, 2, 3) for n0, s0 in ((1.0, 1.0e6), (3.0, 5.0e5))]


def bits(*values):
    return tuple(float(v).hex() for v in values)


def scalar_bits(M, base, params, mode, a):
    bd = total_response_time(M, base.with_exponent(a), params, mode)
    return bits(bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total)


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
@pytest.mark.parametrize("mode", ["spatial", "contention"])
def test_grid_kernel_matches_scalar_path_bit_for_bit(name, mode):
    params, grid = KERNEL_PARAMS[name], exponent_grid(0.02)
    for base in KERNEL_ARCHS:
        for M in KERNEL_MASSES:
            phases = _grid_phases(M, base, params, mode, grid)
            for i, a in enumerate(grid.tolist()):
                assert bits(*(p[i] for p in phases)) == scalar_bits(M, base, params, mode, a), \
                    (M, a, base)


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
def test_grid_kernel_matches_scalar_path_on_a_warm_memo(name):
    params, grid = KERNEL_PARAMS[name], exponent_grid(0.02)
    for mode in ("spatial", "contention"):
        for base in KERNEL_ARCHS:
            for M in KERNEL_MASSES:
                _grid_phases(M, base, params, mode, grid)
    assert _per_element.retained > 0
    # the same matrix again, masses reversed and modes interleaved, so that
    # hits and fresh evaluations mix
    for base in KERNEL_ARCHS:
        for M in reversed(KERNEL_MASSES):
            for mode in ("contention", "spatial"):
                phases = _grid_phases(M, base, params, mode, grid)
                for i, a in enumerate(grid.tolist()):
                    assert bits(*(p[i] for p in phases)) == scalar_bits(M, base, params, mode, a), \
                        (M, a, base, mode)


def test_optimizer_and_sweep_agree_on_cold_and_warm_memo():
    p = ModelParams(recruitment_composition="parallel")
    masses, exponents = [3.0, 100.0, 2.5e4], [0.0, 0.25, 1 / 3, 0.5, 1.0]
    designs = [(mode, d) for mode in ("spatial", "contention") for d in (1, 3)]

    def results():
        for mode, d in designs:
            for M in masses:
                a, bd = optimal_exponent(M, p, mode, 1e-3, arch(d=d))
                yield bits(a, bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total)
            for M, a, bd in sweep(masses, exponents, p, mode, arch(d=d)):
                yield bits(M, a, bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total)

    cold = []
    for row in results():
        cold.append(row)
        _per_element.clear()
    for _ in range(2):
        assert list(results()) == cold


def test_grid_kernel_keeps_the_scalar_errors():
    tiny_pool = arch(n0=1000.0, s0=1.0e6)
    off = ModelParams(cognate_frequency=1e-9, contact_latency=RECRUITMENT_DISABLED)
    cases = [
        (-1.0, arch(), ModelParams(), "spatial", [0.0, 1.0]),
        (math.nan, arch(), ModelParams(), "spatial", [0.0, 1.0]),
        (10.0, arch(), ModelParams(bcrit_coefficient=5.0), "spatial", [0.0, 1.0]),
        (10.0, arch(), ModelParams(), "diagonal", [0.0, 1.0]),
        (10.0, arch(), ModelParams(), "spatial", [0.5, 1.5]),
        # the local pool underflows to 0 at a = 0 only: B_initial must be > 0
        (1e-322, tiny_pool, off, "contention", [1.0, 0.5, 0.0]),
        # the same with recruitment on: no peer can be recruited from
        (1e-322, tiny_pool, ModelParams(cognate_frequency=1e-9), "contention", [1.0, 0.5, 0.0]),
        # the hub count overflows at a = 1 only
        (1e10, arch(n0=1e300), ModelParams(), "spatial", [0.0, 0.5, 1.0]),
        # the deficit over the local pool is infinite
        (1.0, arch(n0=1e308, s0=1e300), ModelParams(bcrit_coefficient=math.inf), "spatial",
         [0.0, 1.0]),
        # needed and local are both inf at a = 0: deficit/local is NaN
        (1e10, arch(s0=1e300), ModelParams(cognate_frequency=1.0, bcrit_coefficient=1e300),
         "spatial", [0.0, 1.0]),
        # the output target underflows to 0 at every point: B_target must be > 0
        (1e-5, arch(), ModelParams(antibody_coefficient=5e-324, plasma_yield=1e10,
                                   contact_latency=RECRUITMENT_DISABLED), "spatial", [0.0, 1.0]),
    ]
    for M, base, params, mode, exponents in cases:
        with pytest.raises(ValueError) as scalar:
            for a in exponents:
                total_response_time(M, base.with_exponent(a), params, mode)
        # an array grid, as the optimizer passes, is refused the same way
        for grid in (exponents, np.array(exponents)):
            with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
                _grid_phases(M, base, params, mode, grid)


def test_grid_kernel_keeps_points_the_scalar_path_accepts():
    # an infinite local pool makes deficit/local NaN at a = 0, where the
    # scalar path needs no peer: the point is checked, not refused
    base, params, grid = arch(s0=1e308), ModelParams(cognate_frequency=1.0), [0.0, 0.5, 1.0]
    expected = [total_response_time(100.0, base.with_exponent(a), params).t_total for a in grid]
    assert _grid_phases(100.0, base, params, "spatial", grid)[3].tolist() == expected


def outcome(evaluate):
    try:
        return evaluate()
    except ValueError as exc:
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    log_mass=st.floats(-3.0, 9.0),
    a=st.floats(0.0, 1.0),
    d=st.sampled_from([1, 2, 3]),
    n0=st.floats(1.0, 50.0),
    s0=st.floats(1.0e4, 1.0e8),
    bcrit=st.floats(0.01, 5.0),
    latency=st.one_of(st.floats(0.0, 2.0), st.just(RECRUITMENT_DISABLED)),
    composition=st.sampled_from(["serial", "parallel"]),
    rho=st.floats(0.0, 2.0),
    speed=st.floats(0.1, 10.0),
    volume=st.floats(0.1, 10.0),
    mode=st.sampled_from(["spatial", "contention"]),
)
def test_grid_kernel_property(log_mass, a, d, n0, s0, bcrit, latency, composition,
                              rho, speed, volume, mode):
    M = 10.0 ** log_mass
    base = arch(n0=n0, s0=s0, d=d)
    params = ModelParams(bcrit_coefficient=bcrit, contact_latency=latency,
                         recruitment_composition=composition, contention_coefficient=rho,
                         detector_speed=speed, body_volume_coefficient=volume)
    exponents = [0.0, a, 1.0]

    def kernel_rows():
        phases = _grid_phases(M, base, params, mode, exponents)
        assert np.array_equal(phases[3], phases[0] + phases[1] + phases[2])
        return [bits(*(p[i] for p in phases)) for i in range(len(exponents))]

    scalar = outcome(lambda: [scalar_bits(M, base, params, mode, x) for x in exponents])
    assert outcome(kernel_rows) == scalar


# ---------------------------------------------------------------------------
# libm memo
# ---------------------------------------------------------------------------

def test_memo_keys_tell_apart_function_operands_and_signed_zero():
    x = np.array([0.5, 2.0, 3.0])
    calls = [
        ((pow, 2.0, x), [2.0 ** v for v in x.tolist()]),
        ((pow, 3.0, x), [3.0 ** v for v in x.tolist()]),
        ((pow, x, 2.0), [v ** 2.0 for v in x.tolist()]),
        ((pow, x, 3.0), [v ** 3.0 for v in x.tolist()]),
        ((math.log2, x), [math.log2(v) for v in x.tolist()]),
        ((math.log10, x), [math.log10(v) for v in x.tolist()]),
        ((math.copysign, 1.0, np.array([0.0])), [1.0]),
        ((math.copysign, 1.0, np.array([-0.0])), [-1.0]),
        ((math.copysign, np.array([1.0]), 0.0), [1.0]),
        ((math.copysign, np.array([1.0]), -0.0), [-1.0]),
    ]
    for _ in range(2):  # the second round is all hits
        for call, expected in calls:
            assert bits(*_per_element(*call)) == bits(*expected), call
    assert _per_element.retained == 6 * 3 + 4 * 1


def test_memo_results_are_read_only_and_shared():
    x = np.array([1.0, 2.0])
    first = _per_element(pow, 10.0, x)
    assert not first.flags.writeable
    with pytest.raises(ValueError):
        first[0] = 0.0
    assert _per_element(pow, 10.0, x.copy()) is first


def test_memo_retains_at_most_its_budget_oldest_first():
    grid = exponent_grid(1e-3)
    assert grid.size * 2 <= _MEMO_BUDGET
    calls = [(pow, float(M), grid) for M in range(2, 40)]
    results = []
    for call in calls:
        results.append(_per_element(*call))
        assert 0 < _per_element.retained <= _MEMO_BUDGET
    kept = _MEMO_BUDGET // grid.size
    assert _per_element.retained == kept * grid.size
    assert _per_element(*calls[-1]) is results[-1]
    assert _per_element(*calls[-kept]) is results[-kept]
    assert _per_element(*calls[0]) is not results[0]
    for M in 10.0 ** np.arange(0.0, 8.0, 0.25):
        for mode in ("spatial", "contention"):
            optimal_exponent(float(M), ModelParams(recruitment_composition="parallel"), mode,
                             1e-3)
            assert _per_element.retained <= _MEMO_BUDGET


def test_memo_retains_nothing_from_a_max_grid_evaluation():
    grid = exponent_grid(1e-6)
    assert grid.size == MAX_GRID_POINTS
    a, _ = optimal_exponent(1000.0, ModelParams(), "spatial", 1e-6)
    assert _per_element.retained == 0
    assert a == optimal_exponent(1000.0, ModelParams(), "spatial", 1e-6)[0]


def test_memo_retains_nothing_from_a_call_that_raises():
    with pytest.raises(ValueError, match="math domain error"):
        _per_element(math.log2, np.array([2.0, 0.0]))
    with pytest.raises(OverflowError):
        _per_element(pow, 10.0, np.array([1.0, 400.0]))
    assert _per_element.retained == 0
    # the refusal is raised again, not answered from the memo
    with pytest.raises(ValueError, match="math domain error"):
        _per_element(math.log2, np.array([2.0, 0.0]))


def test_memo_stays_consistent_under_concurrent_callers():
    memo = _ElementMemo(budget=64)
    inputs = [np.linspace(0.0, 1.0, n) for n in range(1, 41)]
    expected = [[3.0 ** v for v in x.tolist()] for x in inputs]
    failures = []

    def worker(offset):
        try:
            for step in range(300):
                i = (offset * 7 + step * 13) % len(inputs)
                if memo(pow, 3.0, inputs[i]).tolist() != expected[i]:
                    failures.append(i)
        except Exception as exc:  # surfaced by the assertion below
            failures.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    assert memo.retained == sum(r.size for r in memo._results.values()) <= memo.budget
