"""Tests for the bandwidth-regime harness and architecture rankings."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from detnet.scaling import ArchitectureSpec, ModelParams, optimal_exponent, total_response_time
from detnet.scenarios import (
    PROFILE_NAMES,
    ScenarioProfile,
    evaluate_scenario,
    profile_from_name,
    scenario_table,
)

MASSES = [10.0, 100.0, 1000.0, 10000.0]


def test_profile_validation():
    with pytest.raises(ValueError):
        ScenarioProfile("limited", "congested")
    # a limited channel costs the model's own cost, which must be > 0
    with pytest.raises(ValueError, match=r"^profile limited-limited needs contention_coefficient "
                                         r"> 0 on its limited channel, got 0\.0$"):
        profile_from_name("limited-limited").effective_params(
            ModelParams(contention_coefficient=0.0))
    with pytest.raises(ValueError):
        profile_from_name("limited")
    with pytest.raises(ValueError, match="unknown detection mode"):
        profile_from_name("limited-limited").effective_params(ModelParams(), "walk")
    profile = profile_from_name("limited-unlimited")
    assert profile.detector_channel == "limited" and profile.hub_channel == "unlimited"
    assert profile.name == "limited-unlimited"


def test_effective_params_zero_unconstrained_channels():
    p = ModelParams(contention_coefficient=0.3, contact_latency=0.7)
    free = profile_from_name("unlimited-unlimited").effective_params(p)
    assert free.contention_coefficient == 0.0 and free.contact_latency == 0.0
    tight = profile_from_name("limited-limited").effective_params(p)
    assert tight == p  # both channels limited: the model as configured
    detector = profile_from_name("limited-unlimited").effective_params(p)
    assert detector.contention_coefficient == 0.3 and detector.contact_latency == 0.0
    hub = profile_from_name("unlimited-limited").effective_params(p)
    assert hub.contention_coefficient == 0.0 and hub.contact_latency == 0.7
    # spatial mode prices the detector channel by v, and frees it with v = inf
    p = replace(p, detector_speed=2.5)
    assert profile_from_name("limited-limited").effective_params(p, "spatial") == p
    free = profile_from_name("unlimited-limited").effective_params(p, "spatial")
    assert free == replace(p, detector_speed=math.inf)


def test_infinite_contact_latency_turns_recruitment_off():
    # a hub-limited profile keeps contact_latency = inf: recruitment is off
    p = ModelParams(contact_latency=math.inf)
    assert not profile_from_name("limited-limited").effective_params(p).recruitment_enabled
    verdict = evaluate_scenario(profile_from_name("unlimited-limited"), [100.0], p,
                                model3_exponent=0.5)
    assert all(bd.t_recruit == 0.0 for bd in verdict.per_mass[0].breakdowns.values())


def test_free_channels_tie_every_mass():
    verdict = evaluate_scenario(profile_from_name("unlimited-unlimited"), MASSES, ModelParams())
    assert all(v.winner == "tie" for v in verdict.per_mass)
    assert verdict.overall_winner == "tie"
    for v in verdict.per_mass:
        totals = {bd.t_total for bd in v.breakdowns.values()}
        assert len(totals) == 1  # expansion is the only cost and it is shared


def test_limited_detector_channel_prefers_full_modularity():
    verdict = evaluate_scenario(profile_from_name("limited-unlimited"), MASSES, ModelParams())
    assert all(v.winner == "model1" for v in verdict.per_mass)
    assert verdict.overall_winner == "model1"


def test_limited_hub_channel_prefers_non_modularity():
    verdict = evaluate_scenario(profile_from_name("unlimited-limited"), MASSES, ModelParams())
    assert all(v.winner == "model2" for v in verdict.per_mass)
    assert verdict.overall_winner == "model2"


def test_both_channels_limited_prefers_sub_modularity():
    verdict = evaluate_scenario(profile_from_name("limited-limited"), MASSES, ModelParams())
    assert all(v.winner == "model3" for v in verdict.per_mass)
    assert verdict.overall_winner == "model3"
    for v in verdict.per_mass:
        assert 0.0 < v.model3_exponent < 1.0
        assert v.breakdowns["model3"].t_total < min(
            v.breakdowns["model1"].t_total, v.breakdowns["model2"].t_total)


def test_winner_total_is_minimal():
    for name in PROFILE_NAMES:
        verdict = evaluate_scenario(profile_from_name(name), MASSES, ModelParams())
        for v in verdict.per_mass:
            totals = [bd.t_total for bd in v.breakdowns.values()]
            if v.winner == "tie":
                assert max(totals) - min(totals) <= 1e-9 * max(min(totals), 1e-300)
            else:
                assert v.breakdowns[v.winner].t_total == min(totals)


def test_scenario_table_reproduces_regime_mapping():
    table = scenario_table(ModelParams(), MASSES)
    assert table == [
        ("unlimited-unlimited", "tie"),
        ("limited-unlimited", "model1"),
        ("unlimited-limited", "model2"),
        ("limited-limited", "model3"),
    ]


def test_table_invariant_under_joint_cost_rescaling():
    base = scenario_table(ModelParams(), MASSES)
    for scale in (0.5, 2.0, 10.0):
        p = ModelParams(contention_coefficient=0.1 * scale, contact_latency=0.2 * scale)
        assert scenario_table(p, MASSES) == base


def test_baseline_mass_ties_everything():
    for name in PROFILE_NAMES:
        verdict = evaluate_scenario(profile_from_name(name), [1.0], ModelParams())
        assert verdict.per_mass[0].winner == "tie"
        assert verdict.overall_winner == "tie"
        b = verdict.per_mass[0].breakdowns
        assert b["model1"] == b["model2"] == b["model3"]


def test_fixed_model3_exponent_mode():
    verdict = evaluate_scenario(profile_from_name("limited-limited"), MASSES, ModelParams(),
                                model3_exponent=0.5)
    assert all(v.model3_exponent == 0.5 for v in verdict.per_mass)
    assert all(v.winner == "model3" for v in verdict.per_mass)


def test_rank_monotone_in_channel_costs():
    def rank(verdict, model):
        ranks = []
        for v in verdict.per_mass:
            totals = sorted(bd.t_total for bd in v.breakdowns.values())
            ranks.append(totals.index(v.breakdowns[model].t_total))
        return ranks

    both = ScenarioProfile("limited", "limited")
    # raising the detector-channel cost never improves the non-modular rank
    previous = None
    for rho in (0.05, 0.1, 0.5, 2.0):
        p = ModelParams(contention_coefficient=rho, contact_latency=0.1)
        verdict = evaluate_scenario(both, MASSES, p)
        current = rank(verdict, "model2")
        if previous is not None:
            assert all(c >= b for b, c in zip(previous, current))
        previous = current
    # raising the hub-channel cost never improves the fully modular rank
    previous = None
    for lam in (0.05, 0.1, 0.5, 2.0):
        p = ModelParams(contention_coefficient=0.1, contact_latency=lam)
        verdict = evaluate_scenario(both, MASSES, p)
        current = rank(verdict, "model1")
        if previous is not None:
            assert all(c >= b for b, c in zip(previous, current))
        previous = current


@pytest.mark.parametrize("pinned", [1.5, math.nan])
def test_pinned_model3_exponent_outside_the_unit_interval_is_refused(pinned):
    with pytest.raises(ValueError, match=rf"^exponent must be in \[0, 1\], got {pinned}$"):
        evaluate_scenario(profile_from_name("limited-limited"), MASSES, ModelParams(), pinned)


def bits(bd):
    return tuple(t.hex() for t in (bd.t_detect, bd.t_recruit, bd.t_expand, bd.t_total))


@pytest.mark.parametrize("mode", ["spatial", "contention"])
@pytest.mark.parametrize("params", [
    ModelParams(), ModelParams(contact_latency=math.inf, recruitment_composition="parallel")])
def test_each_mass_is_the_scalar_law_and_the_optimizer_bit_for_bit(params, mode):
    # models 1 and 2 and a pinned model 3 equal the scalar law at a = 1, 0
    # and a3; an optimised model 3 equals optimal_exponent's (a*, breakdown)
    masses = [1e-3, 2.0, 13.0, 25000.0]
    for name, d, grid, pinned in itertools.product(PROFILE_NAMES, (1, 2, 3),
                                                   (0.01, 0.03, 1 / 3), (None, 0.37)):
        profile, base = profile_from_name(name), ArchitectureSpec(dimension=d)
        effective = profile.effective_params(params, mode)
        verdict = evaluate_scenario(profile, masses, params, pinned, base, grid, mode)
        for M, v in zip(masses, verdict.per_mass):
            a3, bd3 = optimal_exponent(M, effective, mode, grid, base) if pinned is None else \
                (pinned, total_response_time(M, base.with_exponent(pinned), effective, mode))
            expected = {"model1": total_response_time(M, base.with_exponent(1.0), effective, mode),
                        "model2": total_response_time(M, base.with_exponent(0.0), effective, mode),
                        "model3": bd3}
            assert v.model3_exponent.hex() == a3.hex()
            assert {k: bits(bd) for k, bd in v.breakdowns.items()} == \
                {k: bits(bd) for k, bd in expected.items()}


def test_scenario_rejects_empty_mass_list():
    with pytest.raises(ValueError):
        evaluate_scenario(profile_from_name("limited-limited"), [], ModelParams())


def test_scenarios_take_arrays_and_return_python_floats():
    p, profile = ModelParams(), profile_from_name("limited-limited")
    for pinned in (None, 0.5, np.float64(0.5)):
        from_list = evaluate_scenario(profile, MASSES, p, model3_exponent=pinned)
        for masses in (np.array(MASSES), np.array(MASSES[:1])):
            from_array = evaluate_scenario(profile, masses, p, model3_exponent=pinned)
            assert from_array.per_mass == from_list.per_mass[:len(masses)]
            for v in from_array.per_mass:
                assert type(v.mass) is float and type(v.model3_exponent) is float
        assert scenario_table(p, np.array(MASSES), model3_exponent=pinned) == \
            scenario_table(p, MASSES, model3_exponent=pinned)
    with pytest.raises(ValueError, match="non-empty"):
        evaluate_scenario(profile, np.array([]), p)


def test_custom_architecture_base():
    base = ArchitectureSpec(base_hub_count=4.0, base_hub_size=2.5e5, dimension=2)
    table = scenario_table(ModelParams(), MASSES, arch=base)
    assert table[0] == ("unlimited-unlimited", "tie")
    assert table[3] == ("limited-limited", "model3")
