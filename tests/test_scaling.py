"""Unit tests for the closed-form scaling laws and the exponent optimizer."""

import math
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import detnet
from detnet import scaling
from detnet.scaling import (
    ArchitectureSpec,
    BASELINE_RESPONSE_TIME,
    InfeasibleParametersError,
    MAX_GRID_POINTS,
    ModelParams,
    RECRUITMENT_DISABLED,
    TimingBreakdown,
    check_feasible,
    detection_time,
    expansion_time,
    exponent_grid,
    hub_count,
    hub_size,
    mean_center_distance,
    optimal_exponent,
    output_target,
    sweep,
    total_response_time,
    _MEMO_BUDGET,
    _cached_terms,
    _recruitment,
)
from detnet.scenarios import PROFILE_NAMES, profile_from_name, scenario_table


def arch(a=0.5, n0=1.0, s0=1.0e6, d=2):
    return ArchitectureSpec(exponent=a, base_hub_count=n0, base_hub_size=s0, dimension=d)


def demand(M, spec, params):
    """k, the peer hubs the infected hub contacts."""
    return _recruitment(M, spec, params)[0]


def t_recruit(M, spec, params):
    return total_response_time(M, spec, params).t_recruit


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


def reference_grid(resolution):
    """The documented exponent grid, point by point."""
    n = round(1.0 / resolution)
    if n >= 1 and abs(n * resolution - 1.0) < 1e-9:
        return [i / n for i in range(n + 1)]
    grid = []
    a, i = 0.0, 0
    while a < 1.0:
        grid.append(a)
        i += 1
        a = min(i * resolution, 1.0)
    grid.append(1.0)
    return grid


def brute_force_optimum(M, params, mode, resolution, base):
    """Exhaustive scan over the documented exponent grid, ties to smaller a."""
    grid = reference_grid(resolution)
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
    # a fraction of cells: 1 is the largest frequency
    with pytest.raises(ValueError, match=r"^cognate_frequency must be in \(0, 1\], got 2.0$"):
        ModelParams(cognate_frequency=2.0)
    assert ModelParams(cognate_frequency=1.0).cognate_frequency == 1.0


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


def test_antibody_coefficient_must_be_positive():
    with pytest.raises(ValueError, match="^antibody_coefficient must be > 0, got 0.0$"):
        ModelParams(antibody_coefficient=0.0)
    # the calibrated coefficient is bcrit * 2^(4/tau) >= bcrit, so never 0
    assert ModelParams(bcrit_coefficient=5e-324).antibody_coefficient >= 5e-324


def test_calibration_overflow_names_doubling_time():
    with pytest.raises(ValueError, match="^doubling_time is too short to calibrate "
                                         r"antibody_coefficient: .* overflows, got 0\.001$"):
        ModelParams(doubling_time=1e-3)
    # an explicit output target needs no calibration, so the period is accepted
    assert ModelParams(doubling_time=1e-3, antibody_coefficient=1.0).doubling_time == 1e-3


def test_package_exports_the_scaling_api():
    assert detnet.__all__ == scaling.__all__
    for name in scaling.__all__:
        assert getattr(detnet, name) is getattr(scaling, name), name
    # the per-phase laws live on only inside total_response_time and _recruitment
    for name in ("dr_extent", "local_cognate_pool", "recruitment_demand", "recruitment_time",
                 "activated_pool"):
        assert not hasattr(scaling, name), name
    assert detnet.__version__ == "0.1.0"


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
        target = output_target(M, p4)
        assert expansion_time(p4.bcrit_coefficient * M, target, 4.0) == pytest.approx(
            BASELINE_RESPONSE_TIME, rel=1e-12)


def test_timing_breakdown_sums_exactly():
    bd = TimingBreakdown(0.1, 0.2, 0.3)
    assert bd.t_total == 0.1 + 0.2 + 0.3
    assert bd.t_total != 0.6  # the exact float sum, not the decimal one
    with pytest.raises(ValueError):
        TimingBreakdown(-0.1, 0.0, 0.0)
    for nan_at in range(3):
        with pytest.raises(ValueError, match="must be >= 0, got nan"):
            TimingBreakdown(*(math.nan if i == nan_at else 0.0 for i in range(3)))
    with pytest.raises(TypeError, match="t_total"):  # derived, never an input
        TimingBreakdown(0.1, 0.2, 0.3, t_total=0.6)


# ---------------------------------------------------------------------------
# scaling laws
# ---------------------------------------------------------------------------

def test_output_target_examples():
    assert output_target(1.0, ModelParams(antibody_coefficient=1.0)) == 1.0
    assert output_target(25000.0, ModelParams(antibody_coefficient=1.0)) == 25000.0
    assert output_target(4.0, ModelParams(antibody_coefficient=2.5)) == 10.0
    with pytest.raises(ValueError):
        output_target(0.0, ModelParams())


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
    # v = 1, so spatial detection is mu_2 times the draining region's extent
    p, mu = ModelParams(), mean_center_distance(2)
    extents = {M: detection_time(M, arch(a=1.0), p) / mu for M in (1.0, 10.0, 1e4)}
    assert len(set(extents.values())) == 1
    assert detection_time(100.0, arch(a=0.0), p) / mu == pytest.approx(10.0, rel=1e-12)
    assert detection_time(16.0, arch(a=0.5), p) / mu == pytest.approx(2.0, rel=1e-12)


# spatial t_detect at M = 1000, a = 0.3, v = 1 of a body of volume c_v * M,
# by (d, c_v), as computed when the model still had a body volume coefficient
BODY_VOLUME_T_DETECT = {
    (1, 0.3): 9.441940588456255, (1, 4.0): 125.89254117941674, (1, 17.0): 535.0433000125212,
    (2, 0.3): 2.3512735688749538, (2, 4.0): 8.585637150256593, (2, 17.0): 17.69974441686747,
    (3, 0.3): 1.6114470323290269, (3, 4.0): 3.821163439887665, (3, 17.0): 6.189543087235071,
}


@pytest.mark.parametrize("d, c_v", sorted(BODY_VOLUME_T_DETECT))
def test_a_body_volume_coefficient_is_a_detector_speed(d, c_v):
    # lengths are in (volume per unit mass)^(1/d): the body of volume c_v * M
    # is the unit-volume body with v divided by c_v^(1/d)
    p = ModelParams(detector_speed=1.0 / c_v ** (1.0 / d))
    assert detection_time(1000.0, arch(a=0.3, d=d), p) == \
        pytest.approx(BODY_VOLUME_T_DETECT[d, c_v], rel=1e-15)


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
    # with recruitment off the pool is the local f * S(M), capped at bcrit * M
    p = ModelParams(contact_latency=RECRUITMENT_DISABLED)
    assert _recruitment(1.0, arch(a=0.5), p) == (0, 1.0)
    pool = lambda M, a: _recruitment(M, arch(a=a), p)[1]
    assert pool(4.0, 0.0) / pool(1.0, 0.0) == pytest.approx(4.0, rel=1e-12)
    assert pool(4.0, 1.0) == pool(1.0, 1.0)
    assert _recruitment(1.0, arch(a=0.5), replace(p, bcrit_coefficient=0.5)) == (0, 0.5)


# ---------------------------------------------------------------------------
# recruitment
# ---------------------------------------------------------------------------

def test_recruitment_demand_regimes():
    p = ModelParams()
    # fully modular: contacts grow linearly
    k1, k2 = demand(1e4, arch(a=1.0), p), demand(2e4, arch(a=1.0), p)
    assert k2 / k1 == pytest.approx(2.0, rel=1e-3)
    # non-modular: everything needed is local
    assert all(demand(M, arch(a=0.0), p) == 0 for M in (1.0, 10.0, 100.0))
    # no recruitment when the local pool suffices
    rich = ModelParams(bcrit_coefficient=0.5)
    assert demand(1.0, arch(a=0.5), rich) == 0


def test_recruitment_demand_constant_at_zero_exponent():
    # non-trivial constant demand: several hubs' worth of responders needed
    p = ModelParams(bcrit_coefficient=7.3)
    spec = arch(a=0.0, n0=8.0)
    demands = {demand(M, spec, p) for M in (1.0, 10.0, 100.0, 1e3, 1e4)}
    assert demands == {7}


def test_recruitment_demand_monotone_in_exponent():
    p = ModelParams(bcrit_coefficient=3.0, )
    spec = arch(n0=4.0)
    for M in (1.0, 10.0, 313.0):
        ks = [demand(M, spec.with_exponent(i / 20), p) for i in range(21)]
        assert all(b >= a for a, b in zip(ks, ks[1:]))


def test_recruitment_demand_capped_by_existing_peers():
    # demand can never exceed the rounded hub count minus the infected hub
    p = ModelParams(bcrit_coefficient=1.0)
    spec = arch(a=0.5, n0=1.0)
    M = 10.0  # continuous count 3.16 -> 3 hubs, at most 2 peers
    assert hub_count(M, spec)[1] == 3
    assert demand(M, spec, p) == 2


def test_recruitment_demand_scaling_exponent():
    p = ModelParams(bcrit_coefficient=100.0)
    masses = [10.0, 100.0, 1000.0, 10000.0]
    for a in (0.25, 0.5, 0.75, 1.0):
        spec = arch(a=a, n0=256.0)
        ks = [demand(M, spec, p) for M in masses]
        slope = np.polyfit(np.log(masses), np.log(ks), 1)[0]
        assert abs(slope - a) < 0.05, f"a={a}: fitted {slope}"


def test_hub_count_refuses_overflow():
    with pytest.raises(ValueError, match="hub count n0\\*M\\^a = inf is not finite"):
        hub_count(1e10, arch(a=1.0, n0=1e300))


def test_recruitment_demand_refuses_empty_pool_and_infinite_demand():
    # f * S(M) underflows to 0 at M = 1e-322, a = 0
    with pytest.raises(ValueError, match="local cognate pool f\\*S\\(M\\) underflows to 0.0"):
        demand(1e-322, arch(a=0.0, n0=1000.0), ModelParams(cognate_frequency=1e-9))
    # an infinite deficit over a finite local pool
    with pytest.raises(ValueError, match="deficit/local = inf is not finite"):
        demand(1.0, arch(n0=1e308, s0=1e300), ModelParams(bcrit_coefficient=math.inf))
    # needed and local both overflow to inf: the deficit inf - inf is NaN
    with pytest.raises(ValueError, match="deficit/local = nan is not finite"):
        demand(1e10, arch(a=0.0, s0=1e300),
               ModelParams(cognate_frequency=1.0, bcrit_coefficient=1e300))


def test_recruitment_infeasible_raises():
    p = ModelParams(bcrit_coefficient=5.0)  # pool holds 1 responder per unit mass
    with pytest.raises(InfeasibleParametersError):
        total_response_time(10.0, arch(), p)


def test_recruitment_time_examples():
    free = ModelParams(contact_latency=0.0)
    assert all(t_recruit(64.0, arch(a=a), free) == 0.0 for a in (0.0, 0.5, 1.0))
    serial = ModelParams(contact_latency=1.0)
    assert t_recruit(100.0, arch(a=0.0), serial) == t_recruit(
        10.0, arch(a=0.0), serial)
    # fully modular cost is linear in M
    t1 = t_recruit(1e3, arch(a=1.0), serial)
    t2 = t_recruit(2e3, arch(a=1.0), serial)
    assert t2 / t1 == pytest.approx(2.0, rel=1e-2)


def test_recruitment_time_parallel_composition():
    serial = ModelParams(contact_latency=1.0)
    fanout = ModelParams(contact_latency=1.0, recruitment_composition="parallel")
    M, spec = 1e3, arch(a=1.0)
    k = demand(M, spec, serial)
    assert t_recruit(M, spec, serial) == k * 1.0
    assert t_recruit(M, spec, fanout) == pytest.approx(math.log2(k + 1), rel=1e-12)


def test_recruitment_disabled_sentinel():
    p = ModelParams(contact_latency=RECRUITMENT_DISABLED)
    assert t_recruit(100.0, arch(a=1.0), p) == 0.0
    # the hub expands from its local pool alone
    local = p.cognate_frequency * hub_size(100.0, arch(a=1.0))
    assert _recruitment(100.0, arch(a=1.0), p) == (0, local)


# ---------------------------------------------------------------------------
# expansion
# ---------------------------------------------------------------------------

def test_expansion_time_examples():
    assert expansion_time(1000.0, 1000.0, 1.0) == 0.0
    assert expansion_time(1000.0, 2000.0, 1.0) == 1.0
    assert expansion_time(2000.0, 1000.0, 1.0) == 0.0  # already past the target
    assert expansion_time(1e300, 1e-300, 1.0) == 0.0  # the ratio underflows to 0
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

def test_output_target_refuses_overflow():
    assert output_target(1e307, ModelParams()) == 16.0 * 1e307
    for M, params in ((1.2e307, ModelParams()), (1e10, ModelParams(antibody_coefficient=1e300)),
                      (1.0, ModelParams(antibody_coefficient=math.inf))):
        message = "output target antibody_coefficient*M = inf is not finite"
        with pytest.raises(ValueError, match=re.escape(message)):
            output_target(M, params)
        with pytest.raises(ValueError, match=re.escape(message)):
            total_response_time(M, arch(a=1.0), params)


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
            k, pool = _recruitment(M, arch(a=a), p)
            have = p.cognate_frequency * hub_size(M, arch(a=a)) * (1 + k)
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


@pytest.mark.parametrize("resolution", [0.03, 0.3, 0.7, 1 / 3, 0.013, 0.0037, 7.3e-5, 0.02,
                                        1.5, 1e308, math.inf])
def test_exponent_grid_matches_the_reference_loop(resolution):
    assert bits(*exponent_grid(resolution)) == bits(*reference_grid(resolution))


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
        )
        rng.uniform(0.1, 10.0)  # drawn and unused, so the 30 trials keep their random stream
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


def test_sweep_takes_arrays_and_returns_python_floats():
    p, masses, grid = ModelParams(), [10.0, 100.0], exponent_grid(0.25)
    from_lists = sweep(masses, grid.tolist(), p)
    from_arrays = sweep(np.array(masses), grid, p)
    one_point = sweep([10.0], np.array([0.5]), p)
    assert from_arrays == from_lists
    assert one_point == sweep([10.0], [0.5], p)
    for M, a, _ in from_lists + from_arrays + one_point:
        assert type(M) is float and type(a) is float
    for empty in (np.array([]), []):
        with pytest.raises(ValueError, match="non-empty"):
            sweep(empty, grid, p)
        with pytest.raises(ValueError, match="non-empty"):
            sweep(masses, empty, p)


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


def kernel_phases(M, base, params, mode, exponents):
    # the uncached one-pass kernel, through its public entry: one sweep row per exponent
    return [row[2] for row in sweep([M], exponents, params, mode, base)]


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
@pytest.mark.parametrize("mode", ["spatial", "contention"])
def test_grid_kernel_matches_scalar_path_bit_for_bit(name, mode):
    params, grid = KERNEL_PARAMS[name], exponent_grid(0.02)
    for base in KERNEL_ARCHS:
        for M in KERNEL_MASSES:
            rows = kernel_phases(M, base, params, mode, grid)
            for bd, a in zip(rows, grid.tolist(), strict=True):
                assert bits(bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total) == \
                    scalar_bits(M, base, params, mode, a), (M, a, base)


def scalar_optimum_bits(M, base, params, mode, resolution):
    a, bd = brute_force_optimum(M, params, mode, resolution, base)
    return bits(a, bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total)


def optimum_bits(M, base, params, mode, resolution):
    a, bd = optimal_exponent(M, params, mode, resolution, base)
    return bits(a, bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total)


@pytest.mark.parametrize("name", sorted(KERNEL_PARAMS))
def test_grid_kernel_matches_scalar_path_on_a_warm_memo(name):
    params, grid = KERNEL_PARAMS[name], exponent_grid(0.02)
    for mode in ("spatial", "contention"):
        for base in KERNEL_ARCHS:
            for M in KERNEL_MASSES:
                optimal_exponent(M, params, mode, 0.02, base)
    warm = _cached_terms.cache_info()
    assert warm.currsize > 0
    # the same matrix again, masses reversed and modes interleaved, so that
    # hits and fresh evaluations mix: the optimizer reads the cache, the
    # uncached kernel must agree with the scalar path at every point
    for base in KERNEL_ARCHS:
        for M in reversed(KERNEL_MASSES):
            for mode in ("contention", "spatial"):
                assert optimum_bits(M, base, params, mode, 0.02) == \
                    scalar_optimum_bits(M, base, params, mode, 0.02), (M, base, mode)
                rows = kernel_phases(M, base, params, mode, grid)
                for bd, a in zip(rows, grid.tolist(), strict=True):
                    assert bits(bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total) == \
                        scalar_bits(M, base, params, mode, a), (M, a, base, mode)
    assert _cached_terms.cache_info().hits > warm.hits


# The sha256 of full-precision sweep rows and grid-1e-3 optima over 25 masses
# from 1e-2 to 1e10, every dimension, mode and recruitment composition.
CPU_PROBE = """
import hashlib, itertools
from detnet.scaling import ArchitectureSpec, ModelParams, optimal_exponent, sweep
masses = [10.0 ** (k / 2) for k in range(-4, 21)]  # Python's pow, not numpy's
exponents = [i / 20 for i in range(21)]
digest = hashlib.sha256()
for d, mode, composition in itertools.product((1, 2, 3), ("spatial", "contention"),
                                               ("serial", "parallel")):
    params, arch = ModelParams(recruitment_composition=composition), ArchitectureSpec(dimension=d)
    digest.update(repr(sweep(masses, exponents, params, mode, arch)).encode())
    digest.update(repr([optimal_exponent(M, params, mode, 1e-3, arch) for M in masses]).encode())
print(digest.hexdigest())
"""


def test_analytic_results_do_not_depend_on_the_cpu():
    # numpy picks its SIMD loops by CPU; on an AVX-512 host, numpy's power
    # and log2 differ in the last bit between these two runs, libm's do not.
    # numpy ignores a feature name it does not know, so this runs anywhere.
    env = {key: value for key, value in os.environ.items() if key != "NPY_DISABLE_CPU_FEATURES"}
    env["PYTHONPATH"] = str(Path(detnet.__file__).parents[1])
    hashes = []
    for disabled in ({}, {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}):
        proc = subprocess.run([sys.executable, "-c", CPU_PROBE], env={**env, **disabled},
                              capture_output=True, text=True, check=False, timeout=120)
        assert proc.returncode == 0, proc.stderr
        hashes.append(proc.stdout)
    assert len(hashes[0]) == 65 and hashes[0] == hashes[1]


def test_float_power_is_libm_pow():
    # the grid kernel's pow: np.float_power's float64 loop calls libm's pow per
    # element, as Python's pow does. np.power fails this: it takes the square
    # root for the exponent 0.5 on every host, and its AVX-512 loop differs
    # in the last bit elsewhere
    def same_bits(array, floats):
        return np.array_equal(array.view(np.int64), np.array(floats).view(np.int64))

    a, n0 = exponent_grid(1e-4), ArchitectureSpec().base_hub_count
    for M in (5e-324, 1e-300, 1e-2, 0.5, 1 - 1e-12, 1 + 1e-12, 2.0, 13.0, 123.456, 25000.0,
              1e10, 1e300):
        for exponents in (a, 1.0 - a):
            assert same_bits(np.float_power(M, exponents),
                             [pow(M, e) for e in exponents.tolist()]), M
        base = M / (n0 * np.float_power(M, a))  # the spatial extent's operand
        for d in (1, 2, 3):
            assert same_bits(np.float_power(base, 1.0 / d),
                             [pow(b, 1.0 / d) for b in base.tolist()]), (M, d)


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
        _cached_terms.cache_clear()
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
        # the hub count overflows at a = 1 only, also as the grid's only point
        (1e10, arch(n0=1e300), ModelParams(), "spatial", [0.0, 0.5, 1.0]),
        (1e10, arch(n0=1e300), ModelParams(), "spatial", [1.0]),
        # the deficit over the local pool is infinite
        (1.0, arch(n0=1e308, s0=1e300), ModelParams(bcrit_coefficient=math.inf), "spatial",
         [0.0, 1.0]),
        # needed and local are both inf at a = 0: deficit/local is NaN
        (1e10, arch(s0=1e300), ModelParams(cognate_frequency=1.0, bcrit_coefficient=1e300),
         "spatial", [0.0, 1.0]),
        # the output target overflows to inf at every point
        (1.2e307, arch(), ModelParams(), "spatial", [0.0, 0.5, 1.0]),
        (1e10, arch(), ModelParams(antibody_coefficient=1e300), "contention", [1.0, 0.5]),
        # the output target underflows to 0 at every point: B_target must be > 0
        (1e-5, arch(), ModelParams(antibody_coefficient=5e-324,
                                   contact_latency=RECRUITMENT_DISABLED), "spatial", [0.0, 1.0]),
    ]
    for M, base, params, mode, exponents in cases:
        with pytest.raises(ValueError) as scalar:
            for a in exponents:
                total_response_time(M, base.with_exponent(a), params, mode)
        # an array grid, as the optimizer passes, is refused the same way
        for grid in (exponents, np.array(exponents)):
            with pytest.raises(type(scalar.value), match=re.escape(str(scalar.value))):
                kernel_phases(M, base, params, mode, grid)


def test_grid_kernel_keeps_points_the_scalar_path_accepts():
    # an infinite local pool makes deficit/local NaN at a = 0, where the
    # scalar path needs no peer: the point is checked, not refused
    base, params, grid = arch(s0=1e308), ModelParams(cognate_frequency=1.0), [0.0, 0.5, 1.0]
    expected = [total_response_time(100.0, base.with_exponent(a), params).t_total for a in grid]
    assert [bd.t_total for bd in kernel_phases(100.0, base, params, "spatial", grid)] == expected


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
    mode=st.sampled_from(["spatial", "contention"]),
)
def test_grid_kernel_property(log_mass, a, d, n0, s0, bcrit, latency, composition,
                              rho, speed, mode):
    M = 10.0 ** log_mass
    base = arch(n0=n0, s0=s0, d=d)
    params = ModelParams(bcrit_coefficient=bcrit, contact_latency=latency,
                         recruitment_composition=composition, contention_coefficient=rho,
                         detector_speed=speed)
    exponents = [0.0, a, 1.0]

    def kernel_rows():
        return [bits(bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total)
                for bd in kernel_phases(M, base, params, mode, exponents)]

    scalar = outcome(lambda: [scalar_bits(M, base, params, mode, x) for x in exponents])
    assert outcome(kernel_rows) == scalar


# ---------------------------------------------------------------------------
# grid-terms cache
# ---------------------------------------------------------------------------

def term_fields(base, params):
    # the cache key's fields after M and the grid resolution, in key order
    return (base.base_hub_count, base.base_hub_size, params.cognate_frequency,
            params.bcrit_coefficient, params.antibody_coefficient, params.doubling_time,
            params.recruitment_enabled, params.recruitment_composition)


# every input the cached terms read; antibody_coefficient is explicit so that
# bcrit and doubling_time can change alone
KEY_BASE = dict(M=100.0, base=arch(), params=ModelParams(antibody_coefficient=16.0),
                mode="spatial", resolution=0.01)
KEY_CHANGES = {
    "M": dict(M=101.0),
    "n0": dict(base=arch(n0=2.0)),
    "s0": dict(base=arch(s0=3.0e6)),
    "cognate_frequency": dict(params=ModelParams(antibody_coefficient=16.0,
                                                 cognate_frequency=3e-6)),
    "bcrit_coefficient": dict(params=ModelParams(antibody_coefficient=16.0,
                                                 bcrit_coefficient=0.5)),
    "antibody_coefficient": dict(params=ModelParams(antibody_coefficient=20.0)),
    "doubling_time": dict(params=ModelParams(antibody_coefficient=16.0, doubling_time=0.5)),
    "recruitment off": dict(params=ModelParams(antibody_coefficient=16.0,
                                               contact_latency=RECRUITMENT_DISABLED)),
    "composition": dict(params=ModelParams(antibody_coefficient=16.0,
                                           recruitment_composition="parallel")),
    "resolution": dict(resolution=0.02),
}
# inputs the cached terms never read, as (first call, second call): each
# second call must hit the first's entry; rho is read in contention mode only
EXCLUDED_CHANGES = {
    "d=1": ({}, dict(base=arch(d=1))),
    "d=3": ({}, dict(base=arch(d=3))),
    "mode": ({}, dict(mode="contention")),
    "rho": (dict(mode="contention"), dict(mode="contention", params=ModelParams(
        antibody_coefficient=16.0, contention_coefficient=0.3))),
    "lambda=0.0": ({}, dict(params=ModelParams(antibody_coefficient=16.0, contact_latency=0.0))),
    "lambda=0.1": ({}, dict(params=ModelParams(antibody_coefficient=16.0, contact_latency=0.1))),
    "detector_speed": ({}, dict(params=ModelParams(antibody_coefficient=16.0,
                                                   detector_speed=2.5))),
}


@pytest.mark.parametrize("name", sorted(KEY_CHANGES) + sorted(EXCLUDED_CHANGES))
def test_memo_key_holds_every_term_input_and_nothing_else(name):
    keyed = name in KEY_CHANGES
    first, second = ({}, KEY_CHANGES[name]) if keyed else EXCLUDED_CHANGES[name]
    assert KEY_BASE["params"].contact_latency == 0.2  # lambda 0.2 is the base
    optimum_bits(**{**KEY_BASE, **first})
    call = {**KEY_BASE, **second}
    got = optimum_bits(**call)
    info = _cached_terms.cache_info()
    # a key field changed alone misses; an excluded one hits the base's entry
    assert (info.misses, info.hits) == ((2, 0) if keyed else (1, 1))
    assert got == scalar_optimum_bits(**call)


def test_memo_hit_keeps_the_sign_of_a_zero_contention_coefficient():
    base = arch(d=3)
    for rho in (0.0, -0.0, 0.0):  # the second and third calls hit the first's entry
        p = ModelParams(contention_coefficient=rho)
        got = optimum_bits(25.0, base, p, "contention", 0.01)
        assert got == scalar_optimum_bits(25.0, base, p, "contention", 0.01)
        assert got[1] == (-0.0 if math.copysign(1.0, rho) < 0 else 0.0).hex()
    info = _cached_terms.cache_info()
    assert (info.misses, info.hits) == (1, 2)


# pinned bits of optimal_exponent(M, MASS_TYPE_PARAMS, "contention", 0.01)
# as the uncached kernel gives them: (a, t_detect, t_recruit, t_expand).
# Every mass computes as the Python float it equals, so a float32 mass gives
# the bits of that float
MASS_TYPE_PARAMS = ModelParams(bcrit_coefficient=0.3, antibody_coefficient=7.7,
                               recruitment_composition="parallel")
FLOAT32_MASS = float(np.float32(10.3))
FLOAT32_MASS_TYPES = (FLOAT32_MASS, np.float64(FLOAT32_MASS), np.array(FLOAT32_MASS),
                      np.float32(FLOAT32_MASS), np.array(FLOAT32_MASS, dtype=np.float32))
MASS_TYPE_BITS = [
    (10, ("0x1.0a3d70a3d70a4p-1", "0x1.353e38edd9a93p-2", "0x0.0p+0", "0x1.2ba3014c5415dp+2")),
    *((M, ("0x1.051eb851eb852p-1", "0x1.41101dec4a059p-2", "0x0.0p+0", "0x1.2ba3014c5415ep+2"))
      for M in FLOAT32_MASS_TYPES),
]


def test_memo_keeps_each_mass_type_bits():
    for _ in range(2):  # cold, then every call a hit
        for M, expected in MASS_TYPE_BITS:
            a, bd = optimal_exponent(M, MASS_TYPE_PARAMS, "contention", 0.01)
            assert bits(a, bd.t_detect, bd.t_recruit, bd.t_expand) == expected, type(M)
    # every mass is keyed as the float it equals: one key per number
    info = _cached_terms.cache_info()
    assert (info.misses, info.currsize) == (2, 2)


def constants_as(kind):
    # MASS_TYPE_PARAMS and the default architecture with every numeric
    # constant as `kind` of its nearest float32, so each kind holds the same numbers
    def cast(value):
        return kind(np.float32(value))
    params = replace(MASS_TYPE_PARAMS, **{
        f.name: cast(getattr(MASS_TYPE_PARAMS, f.name)) for f in fields(ModelParams)
        if f.name != "recruitment_composition"})
    return params, ArchitectureSpec(cast(0.5), cast(1.0), cast(1.0e6), np.int64(2))


@pytest.mark.parametrize("M, kind", [
    pytest.param(M, kind, id=f"{M!r}-{kind.__name__}" if kind else repr(M))
    for kind in (None, np.float64, np.float32) for M in (10, 10.0, *FLOAT32_MASS_TYPES)])
@pytest.mark.parametrize("mode", ["spatial", "contention"])
def test_scalar_path_at_the_optimum_is_the_optimizers_breakdown(M, kind, mode):
    params, base = constants_as(kind) if kind else (MASS_TYPE_PARAMS, arch())
    # numpy-scalar constants are kept as the Python numbers they equal
    assert all(type(getattr(params, f.name)) is float for f in fields(ModelParams)
               if f.name != "recruitment_composition")
    assert [type(getattr(base, f.name)) for f in fields(ArchitectureSpec)] == [float] * 3 + [int]
    a, bd = optimal_exponent(M, params, mode, 0.01, base)
    scalar = total_response_time(M, base.with_exponent(a), params, mode)
    assert bits(scalar.t_detect, scalar.t_recruit, scalar.t_expand, scalar.t_total) == \
        bits(bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total)
    phases = (scalar.t_detect, scalar.t_recruit, scalar.t_expand, scalar.t_total)
    assert all(type(t) is float for t in phases), [type(t) for t in phases]
    if kind:  # and compute as the Python floats they equal
        float_params, float_base = constants_as(float)
        assert total_response_time(M, float_base.with_exponent(a), float_params, mode) == scalar


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    log_mass=st.floats(-2.0, 8.0),
    n0=st.floats(1.0, 20.0),
    bcrit=st.floats(0.05, 3.0),
    recruits=st.booleans(),
    composition=st.sampled_from(["serial", "parallel"]),
    resolution=st.sampled_from([0.01, 0.02, 0.05, 1 / 30]),
    sides=st.lists(st.tuples(st.sampled_from([1, 2, 3]),
                             st.sampled_from(["spatial", "contention"]),
                             st.floats(0.0, 2.0), st.floats(0.0, 2.0),
                             st.floats(0.1, 10.0)),
                   min_size=2, max_size=2),
)
def test_memo_warm_equals_cold_property(log_mass, n0, bcrit, recruits, composition,
                                        resolution, sides):
    # two calls that share every key field and differ in everything else
    calls = []
    for d, mode, rho, latency, speed in sides:
        params = ModelParams(bcrit_coefficient=bcrit, recruitment_composition=composition,
                             contact_latency=latency if recruits else RECRUITMENT_DISABLED,
                             contention_coefficient=rho, detector_speed=speed)
        calls.append((10.0 ** log_mass, arch(n0=n0, d=d), params, mode, resolution))

    def cold(call):
        _cached_terms.cache_clear()
        return outcome(lambda: optimum_bits(*call))

    expected = [cold(call) for call in calls]
    for first, second in ((0, 1), (1, 0)):
        _cached_terms.cache_clear()
        warm = [outcome(lambda: optimum_bits(*calls[i])) for i in (first, second)]
        assert warm == [expected[first], expected[second]]


def test_memo_results_are_read_only_and_shared():
    p = ModelParams()
    a, bd = optimal_exponent(10.0, p, "spatial", 1e-3)
    terms = _cached_terms(10.0, 1e-3, *term_fields(arch(), p))  # the optimizer's entry
    info = _cached_terms.cache_info()
    assert (info.misses, info.hits) == (1, 1)
    assert len(terms) == 4 and all(x.size == 1001 for x in terms)
    for x in terms:
        assert not x.flags.writeable
        with pytest.raises(ValueError):
            x[0] = 0.0
    assert _cached_terms(10.0, 1e-3, *term_fields(arch(d=3), p)) is terms
    assert optimal_exponent(10.0, p, "spatial", 1e-3) == (a, bd)


def test_memo_retains_at_most_its_budget_oldest_first():
    # the 16 most recently used entries; the least recently used goes first
    p = ModelParams()
    masses = [float(M) for M in range(2, 40)]
    for M in masses:
        optimal_exponent(M, p, "contention", 1e-3)
    info = _cached_terms.cache_info()
    assert info.maxsize == info.currsize == 16 and info.misses == len(masses)
    optimal_exponent(masses[-16], p, "spatial", 1e-3)  # the oldest entry, used again
    optimal_exponent(1000.0, p, "spatial", 1e-3)  # evicts the next oldest
    optimal_exponent(masses[-16], p, "contention", 1e-3)
    assert _cached_terms.cache_info().misses == len(masses) + 1
    optimal_exponent(masses[-15], p, "contention", 1e-3)
    assert _cached_terms.cache_info().misses == len(masses) + 2
    # a grid of _MEMO_BUDGET points is kept, one with a point more is not: at
    # most 16 entries of 4 arrays of up to 2**14 float64 each
    _cached_terms.cache_clear()
    for resolution, kept in ((1 / (_MEMO_BUDGET - 1), True), (1 / _MEMO_BUDGET, False)):
        assert exponent_grid(resolution).size == _MEMO_BUDGET + (not kept)
        assert optimal_exponent(10.0, p, "spatial", resolution) == \
            optimal_exponent(10.0, p, "spatial", resolution)
        assert _cached_terms.cache_info().currsize == 1
    for M in 10.0 ** np.arange(0.0, 8.0, 0.25):
        for mode in ("spatial", "contention"):
            optimal_exponent(float(M), ModelParams(recruitment_composition="parallel"), mode,
                             1e-3)
            assert _cached_terms.cache_info().currsize <= 16


def test_memo_holds_scenario_tables_working_set():
    # the four profiles differ only in rho and a finite lambda, which the key
    # leaves out: the first profile misses on each of the 5 masses, the
    # other three hit
    masses, info = [1.0, 10.0, 100.0, 1000.0, 10000.0], _cached_terms.cache_info
    scenario_table(ModelParams(), masses, grid_resolution=5e-4)
    assert (info().misses, info().hits) == (5, 15)


def test_memo_retains_nothing_from_a_max_grid_evaluation():
    grid = exponent_grid(1e-6)
    assert grid.size == MAX_GRID_POINTS
    a, _ = optimal_exponent(1000.0, ModelParams(), "spatial", 1e-6)
    assert _cached_terms.cache_info().currsize == 0
    assert a == optimal_exponent(1000.0, ModelParams(), "spatial", 1e-6)[0]


def test_memo_retains_nothing_from_a_call_that_raises():
    for M, base, message in ((1e10, arch(n0=1e300), "hub count n0*M^a = inf"),
                             (1e308, arch(), "output target antibody_coefficient*M = inf")):
        for mode in ("spatial", "contention", "spatial"):
            # the refusal is raised again on every call, not answered from the cache
            with pytest.raises(ValueError, match=re.escape(message)):
                optimal_exponent(M, ModelParams(), mode, 1e-3, base)
            assert _cached_terms.cache_info().currsize == 0


def test_memo_stays_consistent_under_concurrent_callers():
    # 40 distinct keys through 16 entries: hits, misses and evictions race
    p = ModelParams(recruitment_composition="parallel")
    masses = [1.5 ** k for k in range(40)]
    expected = [optimum_bits(M, arch(), p, "spatial", 0.02) for M in masses]
    _cached_terms.cache_clear()
    failures = []

    def worker(offset):
        try:
            for step in range(300):
                i = (offset * 7 + step * 13) % len(masses)
                if optimum_bits(masses[i], arch(), p, "spatial", 0.02) != expected[i]:
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
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []
    info = _cached_terms.cache_info()
    assert info.currsize <= info.maxsize and info.hits > 0
