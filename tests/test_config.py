"""Tests for the flat key-value configuration surface."""

import math

import pytest

from detnet.config import ConfigError, emit_config, parse_config


def test_empty_text_gives_documented_defaults():
    cfg = parse_config("")
    assert cfg.params.cognate_frequency == 1e-6
    assert cfg.params.doubling_time == 1.0
    assert cfg.params.detector_speed == 1.0
    assert cfg.params.antibody_coefficient == 16.0  # calibrated from defaults
    assert cfg.arch.base_hub_count == 1.0
    assert cfg.arch.base_hub_size == 1e6
    assert cfg.arch.dimension == 2
    assert cfg.seed == 42
    assert cfg.mode == "spatial" and cfg.movement == "straight"
    assert cfg.masses == [1.0, 10.0, 100.0, 1000.0, 10000.0]
    assert len(cfg.exponents) == 21
    assert cfg.model3_exponent is None and cfg.site is None


def test_comments_and_blank_lines_ignored():
    cfg = parse_config("""
# a comment line
seed = 7   # trailing comment

masses = 1, 2, 4
""")
    assert cfg.seed == 7
    assert cfg.masses == [1.0, 2.0, 4.0]


def test_unknown_key_named_with_line():
    with pytest.raises(ConfigError) as err:
        parse_config("seed = 1\nspeeed = 3\n")
    assert "speeed" in str(err.value) and "line 2" in str(err.value)


def test_non_numeric_value_named():
    with pytest.raises(ConfigError) as err:
        parse_config("doubling_time = fast\n")
    assert "doubling_time" in str(err.value) and "line 1" in str(err.value)


def test_invariant_violation_names_key():
    with pytest.raises(ConfigError) as err:
        parse_config("dimension = 4\n")
    assert "dimension" in str(err.value)
    with pytest.raises(ConfigError):
        parse_config("exponent = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("trials = 0\n")
    with pytest.raises(ConfigError):
        parse_config("mode = warp\n")
    with pytest.raises(ConfigError):
        parse_config("masses = 1 -2\n")


@pytest.mark.parametrize("masses", ["1 inf", "nan", "-inf 2"])
def test_non_finite_masses_rejected(masses):
    with pytest.raises(ConfigError) as err:
        parse_config(f"masses = {masses}\n")
    assert "masses" in str(err.value)


def test_malformed_line_rejected():
    with pytest.raises(ConfigError) as err:
        parse_config("just some words\n")
    assert "line 1" in str(err.value)


def test_round_trip_is_lossless():
    text = """
cognate_frequency = 2.5e-7
bcrit_coefficient = 0.125
doubling_time = 0.75
contact_latency = 0.05
masses = 1 32 1024
exponents = 0 0.25 0.5 0.75 1
dimension = 3
mode = contention
movement = random_walk
trials = 12
seed = 99
output = results/run.csv
model3_exponent = 0.4
site = 0.25 0.5 0.75
"""
    cfg = parse_config(text)
    assert parse_config(emit_config(cfg)) == cfg


def test_round_trip_of_defaults():
    cfg = parse_config("")
    assert parse_config(emit_config(cfg)) == cfg


def test_recruitment_off_sentinel_round_trips():
    cfg = parse_config("contact_latency = inf\n")
    assert math.isinf(cfg.params.contact_latency)
    assert parse_config(emit_config(cfg)) == cfg


def test_site_dimension_checked():
    with pytest.raises(ConfigError) as err:
        parse_config("dimension = 2\nsite = 0.5 0.5 0.5\n")
    assert "site" in str(err.value)
    cfg = parse_config("dimension = 3\nsite = 0.5 0.5 0.5\n")
    assert cfg.site == (0.5, 0.5, 0.5)


def test_model3_exponent_auto_and_fixed():
    assert parse_config("model3_exponent = auto\n").model3_exponent is None
    assert parse_config("model3_exponent = 0.3\n").model3_exponent == 0.3
    with pytest.raises(ConfigError):
        parse_config("model3_exponent = 1.7\n")


def test_explicit_antibody_coefficient_respected():
    cfg = parse_config("antibody_coefficient = 3.5\n")
    assert cfg.params.antibody_coefficient == 3.5
