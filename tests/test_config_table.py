"""The config key table: keys come from the dataclass fields, each value is
validated by its owner, and emission round-trips."""

import math
from dataclasses import dataclass, fields

import pytest
from hypothesis import given, settings, strategies as st

from detnet.config import ConfigError, RunConfig, _build, emit_config, parse_config
from detnet.scaling import ArchitectureSpec, ModelParams

# the emission order the format has always had
KEY_ORDER = [
    "cognate_frequency", "bcrit_coefficient", "antibody_coefficient", "doubling_time",
    "detector_speed", "contact_latency", "contention_coefficient", "recruitment_composition",
    "exponent", "base_hub_count", "base_hub_size", "dimension",
    "masses", "exponents", "mode", "movement", "trials", "seed", "output", "detectors",
    "walk_step", "grid_resolution", "model3_exponent", "site",
]

OWNER_KEYS = [
    [f.name for f in fields(ModelParams)],
    [f.name for f in fields(ArchitectureSpec)],
    [f.name for f in fields(RunConfig) if f.name not in ("params", "arch")],
]

DEFAULT_VALUES = dict(line.split(" = ", 1) for line in emit_config(parse_config("")).splitlines())

BAD_VALUES = {
    "cognate_frequency": ["0", "nan", "-1e-6", "x", "2"],
    "bcrit_coefficient": ["0", "nan"],
    "antibody_coefficient": ["-1", "nan", "auto"],
    "doubling_time": ["-1", "nan", "fast", "1e-3"],
    "detector_speed": ["0", "nan"],
    "contact_latency": ["-0.1", "nan", "-inf"],
    "contention_coefficient": ["-1", "nan"],
    "recruitment_composition": ["tree"],
    "exponent": ["1.5", "-0.1", "nan"],
    "base_hub_count": ["0.5", "nan"],
    "base_hub_size": ["0", "-1", "nan"],
    "dimension": ["4", "0", "2.0"],
    "masses": ["1 -2", "1 nan", "1 inf", ",", "1 x"],
    "exponents": ["0 1.5", "nan", ",", "a"],
    "mode": ["warp"],
    "movement": ["fly"],
    "trials": ["0", "1.5"],
    "seed": ["-1", "x"],
    "output": [""],
    "detectors": ["0", "-3"],
    "walk_step": ["0", "-1", "nan", "inf"],
    "grid_resolution": ["0", "1.5", "nan"],
    "model3_exponent": ["1.7", "-0.1", "nan", "random"],
    "site": ["0.5 0.5 0.5", "0.5", ",", "0.5 x", "auto"],
}


def test_every_owner_field_is_a_key_in_emission_order():
    assert [key for keys in OWNER_KEYS for key in keys] == KEY_ORDER
    emitted = [line.split(" = ", 1)[0] for line in emit_config(parse_config("")).splitlines()]
    assert emitted == KEY_ORDER


def test_every_key_has_bad_values():
    assert list(BAD_VALUES) == KEY_ORDER


def test_deleted_transit_key_is_unknown():
    with pytest.raises(ConfigError, match=r"^line 1: key 'recruit_transit_coefficient': "
                                          r"unknown key$"):
        parse_config("recruit_transit_coefficient = 0\n")


@pytest.mark.parametrize("key, value", [(k, v) for k, vs in BAD_VALUES.items() for v in vs])
def test_bad_value_named_with_key_and_line(key, value):
    # two valid lines for the same owner first, so the owner must single out the key
    owner = next(keys for keys in OWNER_KEYS if key in keys)
    valid = [f"{k} = {DEFAULT_VALUES[k]}\n" for k in owner if k != key][:2]
    with pytest.raises(ConfigError) as err:
        parse_config("".join(valid) + f"{key} = {value}\n")
    assert str(err.value).startswith(f"line 3: key '{key}': ")
    assert (err.value.key, err.value.line) == (key, 3)


def test_owner_message_is_reported():
    with pytest.raises(ConfigError, match=r"^line 2: key 'doubling_time': "
                                          r"doubling_time must be > 0, got -1\.0$"):
        parse_config("seed = 3\ndoubling_time = -1\n")


@dataclass(frozen=True)
class _Pair:
    # an owner that accepts each field alone and refuses the two together
    x: float = 0.0
    y: float = 0.0

    def __post_init__(self):
        if self.x and self.y:
            raise ValueError("x and y cannot both be set")


def test_refusal_of_no_single_key_is_reported_without_one():
    with pytest.raises(ConfigError) as err:
        _build(_Pair, {"x": 1.0, "y": 1.0}, {"x": 1, "y": 2})
    assert str(err.value) == "x and y cannot both be set"
    assert (err.value.key, err.value.line) == (None, None)
    assert _build(_Pair, {"x": 1.0}, {"x": 1}) == _Pair(1.0)


def positive(max_value=1e12):
    return st.floats(min_value=0.0, max_value=max_value, exclude_min=True)


@st.composite
def run_configs(draw):
    values = dict(
        cognate_frequency=draw(positive(1.0)),
        bcrit_coefficient=draw(positive(1e6)),
        antibody_coefficient=draw(st.none() | positive()),
        # shorter doubling times overflow the calibrated antibody coefficient
        doubling_time=draw(st.floats(0.01, 100.0)),
        detector_speed=draw(positive()),
        contact_latency=draw(st.floats(0.0, 1e6) | st.just(math.inf)),
        contention_coefficient=draw(st.floats(0.0, 1e6)),
        recruitment_composition=draw(st.sampled_from(["serial", "parallel"])),
    )
    params = ModelParams(**values)
    arch = ArchitectureSpec(
        exponent=draw(st.floats(0.0, 1.0)),
        base_hub_count=draw(st.floats(1.0, 1e12)),
        base_hub_size=draw(positive()),
        dimension=draw(st.sampled_from([1, 2, 3])),
    )
    coordinate = st.floats(allow_nan=False, allow_infinity=False)
    return RunConfig(
        params=params,
        arch=arch,
        masses=draw(st.lists(positive(1e300), min_size=1, max_size=5)),
        exponents=draw(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5)),
        mode=draw(st.sampled_from(["spatial", "contention"])),
        movement=draw(st.sampled_from(["straight", "random_walk"])),
        trials=draw(st.integers(1, 10_000)),
        seed=draw(st.integers(0, 2**64)),
        # a value cannot hold '#' (a comment), a line break or surrounding
        # whitespace (stripped), so those outputs are not generated
        output=draw(st.text(st.characters(blacklist_characters="#"), min_size=1)
                    .map(str.strip).filter(lambda s: s and s.splitlines() == [s])),
        detectors=draw(st.integers(1, 1000)),
        walk_step=draw(positive()),
        grid_resolution=draw(positive(1.0)),
        model3_exponent=draw(st.none() | st.floats(0.0, 1.0)),
        site=draw(st.none() | st.tuples(*[coordinate] * arch.dimension)),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(cfg=run_configs())
def test_emit_parse_round_trip(cfg):
    assert parse_config(emit_config(cfg)) == cfg
